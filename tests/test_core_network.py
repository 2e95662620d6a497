"""Tests for repro.core.network — trust checks and the service."""

import numpy as np
import pytest

from repro.adsb.icao import IcaoAddress
from repro.core.classify import InstallationFeatures
from repro.core.directional import DirectionalEvaluator
from repro.core.frequency import FrequencyEvaluator
from repro.core.network import (
    CalibrationService,
    TrustAssessment,
    TrustCheck,
    TrustEvaluator,
)
from repro.core.observations import AircraftObservation, DirectionalScan
from repro.geo.coords import GeoPoint
from repro.node.fabrication import (
    GhostTrafficFabricator,
    OmniscientFabricator,
)
from repro.node.sensor import SensorNode


@pytest.fixture(scope="module")
def honest_scan(world):
    node = SensorNode("rooftop", world.testbed.site("rooftop"))
    return DirectionalEvaluator(
        node=node,
        traffic=world.traffic,
        ground_truth=world.ground_truth,
    ).run(np.random.default_rng(30))


class TestTrustChecks:
    def test_honest_scan_trusted(self, honest_scan):
        assessment = TrustEvaluator().assess(honest_scan)
        assert assessment.is_trustworthy()
        assert assessment.trust_score() > 0.8

    def test_omniscient_caught(self, honest_scan, rng):
        faked = OmniscientFabricator().fabricate(honest_scan, rng)
        assessment = TrustEvaluator().assess(faked)
        assert not assessment.is_trustworthy()
        failed = {c.name for c in assessment.checks if not c.passed}
        assert "rssi" in failed or "too_perfect" in failed

    def test_ghost_padding_caught(self, honest_scan, rng):
        faked = GhostTrafficFabricator(n_ghosts=30).fabricate(
            honest_scan, rng
        )
        assessment = TrustEvaluator().assess(faked)
        assert not assessment.is_trustworthy()
        ghost_check = next(
            c for c in assessment.checks if c.name == "ghost"
        )
        assert not ghost_check.passed
        assert ghost_check.score < 0.2

    def test_few_ghosts_tolerated(self, honest_scan, rng):
        faked = GhostTrafficFabricator(n_ghosts=1).fabricate(
            honest_scan, rng
        )
        assessment = TrustEvaluator().assess(faked)
        ghost_check = next(
            c for c in assessment.checks if c.name == "ghost"
        )
        assert ghost_check.passed

    def test_empty_scan_neutral(self):
        empty = DirectionalScan("empty", 30.0, 1e5)
        assessment = TrustEvaluator().assess(empty)
        assert assessment.trust_score() == 1.0

    def test_check_score_validation(self):
        with pytest.raises(ValueError):
            TrustCheck("x", True, 1.5, "bad")

    def test_assessment_score_is_product(self):
        assessment = TrustAssessment(node_id="n")
        assessment.checks = [
            TrustCheck("a", True, 0.5, ""),
            TrustCheck("b", True, 0.5, ""),
        ]
        assert assessment.trust_score() == pytest.approx(0.25)


class TestRssiCheckDetails:
    def _scan_with_rssi(self, rssi_values):
        observations = [
            AircraftObservation(
                icao=IcaoAddress(i + 1),
                callsign="T",
                bearing_deg=float(i * 20 % 360),
                ground_range_m=20_000.0 + 7_000.0 * i,
                elevation_deg=10.0,
                position=GeoPoint(38.0, -122.0, 9000.0),
                received=True,
                n_messages=10,
                mean_rssi_dbfs=rssi,
            )
            for i, rssi in enumerate(rssi_values)
        ]
        return DirectionalScan(
            "r", 30.0, 1e5, observations=observations
        )

    def test_constant_rssi_fails(self):
        scan = self._scan_with_rssi([-40.0] * 12)
        check = next(
            c
            for c in TrustEvaluator().assess(scan).checks
            if c.name == "rssi"
        )
        assert not check.passed

    def test_increasing_rssi_with_distance_fails(self):
        scan = self._scan_with_rssi(
            [-60.0 + 2.0 * i for i in range(12)]
        )
        check = next(
            c
            for c in TrustEvaluator().assess(scan).checks
            if c.name == "rssi"
        )
        assert not check.passed

    def test_realistic_rssi_passes(self):
        rng = np.random.default_rng(4)
        values = [
            -40.0 - 1.5 * i + float(rng.normal(0, 4.0))
            for i in range(12)
        ]
        scan = self._scan_with_rssi(values)
        check = next(
            c
            for c in TrustEvaluator().assess(scan).checks
            if c.name == "rssi"
        )
        assert check.passed

    def test_too_few_samples_neutral(self):
        scan = self._scan_with_rssi([-40.0] * 3)
        check = next(
            c
            for c in TrustEvaluator().assess(scan).checks
            if c.name == "rssi"
        )
        assert check.passed
        assert check.score == 1.0


class TestCalibrationService:
    @pytest.fixture(scope="class")
    def service(self, world):
        return CalibrationService(
            traffic=world.traffic,
            ground_truth=world.ground_truth,
            cell_towers=world.testbed.cell_towers,
            tv_towers=world.testbed.tv_towers,
        )

    def test_evaluate_node(self, service, world):
        node = SensorNode("n1", world.testbed.site("window"))
        assessment = service.evaluate_node(node, seed=1)
        assert assessment.node_id == "n1"
        assert assessment.report.classification.installation == "window"
        assert assessment.trust.is_trustworthy()

    def test_abs_power_attached(self, service, world):
        node = SensorNode("n-abs", world.testbed.site("rooftop"))
        assessment = service.evaluate_node(node, seed=3)
        assert assessment.abs_power is not None
        assert assessment.abs_power.reliable
        assert (
            assessment.abs_power.full_scale_dbm_estimate
            == pytest.approx(node.sdr.full_scale_dbm, abs=1.5)
        )

    def test_evaluate_with_fabrication(self, service, world):
        node = SensorNode("n2", world.testbed.site("rooftop"))
        assessment = service.evaluate_node(
            node, seed=1, fabrication=OmniscientFabricator()
        )
        assert not assessment.trust.is_trustworthy()

    def test_evaluate_network(self, service, world):
        nodes = [
            SensorNode("a", world.testbed.site("rooftop")),
            SensorNode("b", world.testbed.site("indoor")),
        ]
        out = service.evaluate_network(nodes, seed=0)
        assert set(out) == {"a", "b"}
        assert out["a"].report.overall_score() > out[
            "b"
        ].report.overall_score()

    def test_summary_text(self, service, world):
        node = SensorNode("n3", world.testbed.site("rooftop"))
        assessment = service.evaluate_node(node, seed=2)
        text = assessment.summary()
        assert "n3" in text
        assert "quality" in text

    def test_use_batch_false_runs_both_scalar_oracles(
        self, world, monkeypatch
    ):
        calls = []
        for cls in (DirectionalEvaluator, FrequencyEvaluator):
            original = cls.run_scalar

            def spy(self, *args, _original=original, **kwargs):
                calls.append(type(self).__name__)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "run_scalar", spy)
        service = CalibrationService(
            traffic=world.traffic,
            ground_truth=world.ground_truth,
            cell_towers=world.testbed.cell_towers,
            tv_towers=world.testbed.tv_towers,
            use_batch=False,
        )
        node = SensorNode("n4", world.testbed.site("window"))
        service.evaluate_node(node, seed=4)
        assert calls == ["DirectionalEvaluator", "FrequencyEvaluator"]

    def test_features_extracted_once_per_node(
        self, service, world, monkeypatch
    ):
        built = []
        original = InstallationFeatures.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(InstallationFeatures, "__init__", counting)
        node = SensorNode("n5", world.testbed.site("rooftop"))
        report = service.evaluate_node(node, seed=5).report
        assert len(built) == 1
        assert report.classification == service.classifier.classify(
            report.features
        )


class _ExplodingFabrication:
    """A node whose upload path crashes mid-assessment."""

    def fabricate(self, honest, rng):
        raise RuntimeError("sensor firmware crashed")


class TestPartialFailure:
    @pytest.fixture(scope="class")
    def service(self, world):
        return CalibrationService(
            traffic=world.traffic,
            ground_truth=world.ground_truth,
            cell_towers=world.testbed.cell_towers,
            tv_towers=world.testbed.tv_towers,
        )

    def test_one_crashing_node_does_not_abort_the_network(
        self, service, world
    ):
        nodes = [
            SensorNode("ok-1", world.testbed.site("rooftop")),
            SensorNode("boom", world.testbed.site("window")),
            SensorNode("ok-2", world.testbed.site("indoor")),
        ]
        out = service.evaluate_network(
            nodes,
            seed=0,
            fabrications={"boom": _ExplodingFabrication()},
        )
        assert set(out) == {"ok-1", "ok-2"}
        assert set(out.failures) == {"boom"}
        failure = out.failures["boom"]
        assert failure.exception_type == "RuntimeError"
        assert "firmware crashed" in failure.error

    def test_surviving_nodes_keep_their_seeds(self, service, world):
        # Seeds are positional (seed + i), so a crash in the middle
        # must not shift the randomness of later nodes.
        nodes = [
            SensorNode("a", world.testbed.site("rooftop")),
            SensorNode("boom", world.testbed.site("window")),
            SensorNode("b", world.testbed.site("indoor")),
        ]
        with_crash = service.evaluate_network(
            nodes,
            seed=0,
            fabrications={"boom": _ExplodingFabrication()},
        )
        clean = service.evaluate_network(nodes, seed=0)
        for node_id in ("a", "b"):
            assert with_crash[
                node_id
            ].report.overall_score() == pytest.approx(
                clean[node_id].report.overall_score()
            )

    def test_no_failures_on_clean_run(self, service, world):
        out = service.evaluate_network(
            [SensorNode("solo", world.testbed.site("rooftop"))],
            seed=0,
        )
        assert out.failures == {}
