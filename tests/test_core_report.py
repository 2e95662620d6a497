"""Tests for repro.core.report."""

import dataclasses

import numpy as np
import pytest

from repro.core.classify import classify_node, extract_features
from repro.core.directional import DirectionalEvaluator
from repro.core.fov import KnnFovEstimator
from repro.core.frequency import FrequencyEvaluator
from repro.core.report import CalibrationReport, grade_for_excess_db
from repro.node.claims import NodeClaims
from repro.node.sensor import SensorNode


@pytest.fixture(scope="module")
def reports(world):
    out = {}
    for location in ("rooftop", "window", "indoor"):
        node = SensorNode(location, world.testbed.site(location))
        scan = DirectionalEvaluator(
            node=node,
            traffic=world.traffic,
            ground_truth=world.ground_truth,
        ).run(np.random.default_rng(2))
        fov = KnnFovEstimator().estimate(scan)
        profile = FrequencyEvaluator(
            node=node,
            cell_towers=world.testbed.cell_towers,
            tv_towers=world.testbed.tv_towers,
        ).run()
        features = extract_features(scan, fov, profile)
        out[location] = (
            node,
            CalibrationReport(
                node_id=node.node_id,
                scan=scan,
                fov=fov,
                profile=profile,
                features=features,
                classification=classify_node(scan, fov, profile),
            ),
        )
    return out


class TestGrades:
    def test_grade_bands(self):
        assert grade_for_excess_db(0.0) == "A"
        assert grade_for_excess_db(3.0) == "A"
        assert grade_for_excess_db(5.0) == "B"
        assert grade_for_excess_db(12.0) == "C"
        assert grade_for_excess_db(20.0) == "D"
        assert grade_for_excess_db(30.0) == "E"
        assert grade_for_excess_db(None) == "F"

    def test_band_grades_populated(self, reports):
        _, report = reports["rooftop"]
        assert len(report.band_grades) == 11
        grades = {g.grade for g in report.band_grades}
        assert grades <= {"A", "B", "C", "D", "E", "F"}


class TestScores:
    def test_rooftop_outscores_others(self, reports):
        roof = reports["rooftop"][1].overall_score()
        window = reports["window"][1].overall_score()
        indoor = reports["indoor"][1].overall_score()
        assert roof > window > indoor

    def test_scores_in_unit_interval(self, reports):
        for _node, report in reports.values():
            assert 0.0 <= report.directional_score() <= 1.0
            assert 0.0 <= report.frequency_score() <= 1.0
            assert 0.0 <= report.overall_score() <= 1.0

    def test_rooftop_frequency_score_high(self, reports):
        assert reports["rooftop"][1].frequency_score() > 0.8

    def test_scores_tuple_matches_the_formula_exactly(self, reports):
        scale = {"A": 1.0, "B": 0.8, "C": 0.55, "D": 0.3, "E": 0.1, "F": 0.0}
        for _node, report in reports.values():
            directional = report.fov.open_fraction()
            frequency = sum(
                scale[g.grade] for g in report.band_grades
            ) / len(report.band_grades)
            overall = 0.5 * directional + 0.5 * frequency
            assert report.scores() == (directional, frequency, overall)
            assert report.directional_score() == directional
            assert report.frequency_score() == frequency
            assert report.overall_score() == overall

    def test_no_bands_scores_zero_frequency(self, reports):
        _, report = reports["rooftop"]
        report = dataclasses.replace(report)
        report.band_grades = []
        directional = report.fov.open_fraction()
        assert report.scores() == (directional, 0.0, 0.5 * directional)


class TestClaimVerification:
    def test_honest_rooftop_clean(self, reports):
        node, report = reports["rooftop"]
        violations = report.verify_claims(NodeClaims.honest(node))
        # Honest rooftop claims (not unobstructed, 700-2700 MHz all
        # decodable from the roof) survive verification.
        assert violations == []

    def test_inflated_indoor_flagged(self, reports):
        node, report = reports["indoor"]
        violations = report.verify_claims(NodeClaims.inflated(node))
        claims_flagged = {v.claim for v in violations}
        assert any("outdoor" in c for c in claims_flagged)
        assert any("unobstructed" in c for c in claims_flagged)

    def test_frequency_claim_flagged_when_band_dead(self, reports):
        node, report = reports["indoor"]
        violations = report.verify_claims(NodeClaims.honest(node))
        assert any("coverage" in v.claim for v in violations)
        evidence = next(
            v.evidence for v in violations if "coverage" in v.claim
        )
        assert "Tower" in evidence


class TestRenderText:
    def test_contains_key_sections(self, reports):
        _, report = reports["window"]
        text = report.render_text()
        assert "Calibration report" in text
        assert "ADS-B" in text
        assert "Field of view" in text
        assert "Band grades" in text
        assert "Overall quality score" in text

    def test_missing_bars_rendered(self, reports):
        _, report = reports["indoor"]
        assert "no decode" in report.render_text()
