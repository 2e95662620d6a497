"""Shared fixtures: the standard world is expensive, build it once."""

import numpy as np
import pytest

from repro.experiments.common import World, build_world


@pytest.fixture(scope="session")
def world() -> World:
    """The standard testbed + traffic + ground truth."""
    return build_world()


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture()
def make_assessment():
    """Factory for small synthetic NodeAssessments.

    Runtime tests (cache, campaign resume) need serializable
    assessments without paying for a full calibration run each time.
    """
    from repro.core.classify import Classification, InstallationFeatures
    from repro.core.fov import FieldOfViewEstimate
    from repro.core.frequency import FrequencyProfile
    from repro.core.network import (
        NodeAssessment,
        TrustAssessment,
        TrustCheck,
    )
    from repro.core.observations import DirectionalScan
    from repro.core.report import CalibrationReport

    def factory(node_id: str, score: float = 1.0) -> NodeAssessment:
        n_bins = 36
        report = CalibrationReport(
            node_id=node_id,
            scan=DirectionalScan(node_id, 30.0, 1e5),
            fov=FieldOfViewEstimate(
                bin_deg=10.0,
                open_flags=[True] * n_bins,
                max_range_km=[80.0] * n_bins,
            ),
            profile=FrequencyProfile(node_id=node_id, measurements=[]),
            features=InstallationFeatures(
                fov_open_fraction=1.0,
                max_received_range_km=80.0,
                reach_km=70.0,
                high_band_decode_fraction=1.0,
                high_band_excess_db=0.0,
                low_band_excess_db=0.0,
            ),
            classification=Classification(
                installation="rooftop",
                outdoor=True,
                outdoor_probability=0.9,
            ),
        )
        trust = TrustAssessment(
            node_id=node_id,
            checks=[TrustCheck("synthetic", True, score, "test")],
        )
        return NodeAssessment(
            node_id=node_id, report=report, trust=trust
        )

    return factory
