"""Tests for repro.core.fov."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adsb.icao import IcaoAddress
from repro.core.fov import (
    FieldOfViewEstimate,
    KnnFovEstimator,
    LinearSvmFovEstimator,
    SectorHistogramEstimator,
)
from repro.core.observations import AircraftObservation, DirectionalScan
from repro.geo.coords import GeoPoint
from repro.geo.sectors import AzimuthSector


def _obs(value, bearing, range_km, received):
    return AircraftObservation(
        icao=IcaoAddress(value),
        callsign="T",
        bearing_deg=bearing,
        ground_range_m=range_km * 1000.0,
        elevation_deg=10.0,
        position=GeoPoint(38.0, -122.0, 9000.0),
        received=received,
        n_messages=20 if received else 0,
        mean_rssi_dbfs=-40.0 if received else None,
    )


def synthetic_scan(open_sector=AzimuthSector(180.0, 120.0)):
    """Dense synthetic traffic: received iff in the open sector
    (beyond the 20 km multipath floor), plus close-in noise."""
    observations = []
    value = 1
    for bearing in range(0, 360, 5):
        for range_km in (30.0, 55.0, 85.0):
            received = open_sector.contains(float(bearing))
            observations.append(
                _obs(value, float(bearing), range_km, received)
            )
            value += 1
    # Close-in multipath: received everywhere.
    for bearing in range(0, 360, 45):
        observations.append(_obs(value, float(bearing), 10.0, True))
        value += 1
    return DirectionalScan(
        node_id="syn",
        duration_s=30.0,
        radius_m=100_000.0,
        observations=observations,
        decoded_message_count=999,
    )


class TestFieldOfViewEstimate:
    def test_validation(self):
        with pytest.raises(ValueError):
            FieldOfViewEstimate(10.0, [True] * 35, [0.0] * 35)
        with pytest.raises(ValueError):
            FieldOfViewEstimate(10.0, [True] * 36, [0.0] * 35)

    def test_is_open_lookup(self):
        flags = [i < 18 for i in range(36)]
        est = FieldOfViewEstimate(10.0, flags, [0.0] * 36)
        assert est.is_open(5.0)
        assert est.is_open(179.9)
        assert not est.is_open(180.0)
        assert est.is_open(365.0)  # wraps

    def test_open_fraction(self):
        flags = [i % 2 == 0 for i in range(36)]
        est = FieldOfViewEstimate(10.0, flags, [0.0] * 36)
        assert est.open_fraction() == 0.5

    def test_open_sectors_contiguity(self):
        flags = [False] * 36
        for i in range(12, 24):
            flags[i] = True
        est = FieldOfViewEstimate(10.0, flags, [0.0] * 36)
        sectors = est.open_sectors()
        assert len(sectors) == 1
        assert sectors[0].start_deg == pytest.approx(120.0)
        assert sectors[0].width_deg == pytest.approx(120.0)


ESTIMATORS = [
    SectorHistogramEstimator(),
    KnnFovEstimator(),
    LinearSvmFovEstimator(),
]


class TestEstimatorsOnSyntheticScan:
    @pytest.mark.parametrize(
        "estimator", ESTIMATORS, ids=["hist", "knn", "svm"]
    )
    def test_recovers_open_sector(self, estimator):
        scan = synthetic_scan()
        fov = estimator.estimate(scan)
        # Core of the open sector must be open...
        for bearing in (200.0, 240.0, 280.0):
            assert fov.is_open(bearing)
        # ...and the blocked side closed.
        for bearing in (0.0, 45.0, 90.0):
            assert not fov.is_open(bearing)

    @pytest.mark.parametrize(
        "estimator", ESTIMATORS, ids=["hist", "knn", "svm"]
    )
    def test_open_fraction_near_third(self, estimator):
        fov = estimator.estimate(synthetic_scan())
        assert fov.open_fraction() == pytest.approx(1.0 / 3.0, abs=0.1)

    @pytest.mark.parametrize(
        "estimator", ESTIMATORS, ids=["hist", "knn", "svm"]
    )
    def test_multipath_floor_ignored(self, estimator):
        # Close-in received aircraft in blocked directions must not
        # open those sectors.
        fov = estimator.estimate(synthetic_scan())
        assert not fov.is_open(45.0)


class TestEstimatorEdgeCases:
    def test_empty_scan(self):
        empty = DirectionalScan("e", 30.0, 1e5)
        for estimator in (
            SectorHistogramEstimator(),
            KnnFovEstimator(),
        ):
            fov = estimator.estimate(empty)
            assert fov.open_fraction() == 0.0

    def test_histogram_fills_unobserved_bins(self):
        # Traffic only in two bins; their verdicts spread to neighbors.
        scan = DirectionalScan(
            node_id="sparse",
            duration_s=30.0,
            radius_m=100_000.0,
            observations=[
                _obs(1, 100.0, 60.0, True),
                _obs(2, 260.0, 60.0, False),
            ],
        )
        fov = SectorHistogramEstimator().estimate(scan)
        assert fov.is_open(100.0)
        assert not fov.is_open(260.0)
        # A bin near 100 deg inherits "open".
        assert fov.is_open(120.0)

    def test_knn_k_validation(self):
        with pytest.raises(ValueError):
            KnnFovEstimator(k=0)

    def test_svm_requires_fit_for_decision(self):
        svm = LinearSvmFovEstimator()
        with pytest.raises(RuntimeError):
            svm.decision(100.0, 50.0)

    def test_svm_fit_returns_self(self):
        svm = LinearSvmFovEstimator(epochs=5)
        assert svm.fit(synthetic_scan()) is svm


class TestAgreementScoring:
    def test_perfect_against_own_truth(self):
        from repro.environment.obstruction import (
            Obstruction,
            ObstructionMap,
        )

        truth = ObstructionMap(
            obstructions=[
                Obstruction(
                    sector=AzimuthSector(0.0, 180.0),
                    clear_elevation_deg=70.0,
                    materials=("concrete", "concrete"),
                    edge_distance_m=3.0,
                )
            ]
        )
        flags = [not (i < 18) for i in range(36)]
        est = FieldOfViewEstimate(10.0, flags, [0.0] * 36)
        assert est.agreement_with_truth(truth) == 1.0

    def test_inverted_estimate_scores_zero(self):
        from repro.environment.obstruction import (
            Obstruction,
            ObstructionMap,
        )

        truth = ObstructionMap(
            obstructions=[
                Obstruction(
                    sector=AzimuthSector(0.0, 180.0),
                    clear_elevation_deg=70.0,
                    materials=("concrete", "concrete"),
                    edge_distance_m=3.0,
                )
            ]
        )
        flags = [i < 18 for i in range(36)]
        est = FieldOfViewEstimate(10.0, flags, [0.0] * 36)
        assert est.agreement_with_truth(truth) == 0.0


def _scalar_bins(est, data, n):
    """The per-query oracle: one ``_predict`` per bin and probe."""
    flags, ranges = [], []
    for i in range(n):
        bearing = (i + 0.5) * est.bin_deg
        flags.append(est._predict(data, bearing, est.probe_range_km))
        best = 0.0
        for probe in (30.0, 45.0, 60.0, 75.0, 90.0):
            if est._predict(data, bearing, probe):
                best = probe
        ranges.append(best)
    return tuple(flags), tuple(ranges)


#: Bearings on a quarter-degree grid, so a pair mirrored around a bin
#: centre is exactly equidistant from it; plus the wrap edges.
_grid_bearings = st.one_of(
    st.integers(-1440, 2880).map(lambda q: q / 4.0),
    st.sampled_from([0.0, -0.0, 360.0, -360.0, 359.75, -1e-12, 720.0]),
)


@st.composite
def _observation_sets(draw):
    base = draw(
        st.lists(
            st.tuples(
                st.one_of(
                    _grid_bearings,
                    st.floats(-720.0, 720.0, allow_nan=False),
                ),
                st.one_of(
                    st.sampled_from([30.0, 45.0, 60.0, 75.0, 90.0]),
                    st.floats(20.0, 150.0, allow_nan=False),
                ),
                st.booleans(),
            ),
            min_size=1,
            max_size=30,
        )
    )
    # Duplicates and bin-centre mirror images give exact distance ties.
    extra = []
    for bearing, range_km, received in base:
        kind = draw(st.sampled_from(["none", "dup", "mirror"]))
        if kind == "dup":
            extra.append((bearing, range_km, draw(st.booleans())))
        elif kind == "mirror" and math.isfinite(bearing):
            centre = (math.floor(bearing / 10.0) + 0.5) * 10.0
            extra.append(
                (2.0 * centre - bearing, range_km, draw(st.booleans()))
            )
    rows = base + extra
    return [
        _obs(i + 1, bearing, range_km, received)
        for i, (bearing, range_km, received) in enumerate(rows)
    ]


class TestKnnVectorizedMatchesScalar:
    @settings(max_examples=300, deadline=None)
    @given(data=_observation_sets(), k=st.integers(1, 40))
    def test_every_bin_and_probe_matches_predict(self, data, k):
        est = KnnFovEstimator(k=k)
        assert est._estimate_bins(data, 36) == _scalar_bins(est, data, 36)

    @pytest.mark.parametrize("k", [1, 3, 4, 7, 50])
    @pytest.mark.parametrize(
        "rows",
        [
            [(123.0, 55.0, True)],
            [
                (10.0, 40.0, True),
                (200.0, 80.0, False),
                (300.0, 60.0, True),
            ],
            [(b, r, b < 180) for b in range(0, 360, 5) for r in (30, 55)],
        ],
        ids=["m=1", "m=3", "grid-ties"],
    )
    def test_small_and_tied_sets_match_predict(self, rows, k):
        data = [
            _obs(i + 1, float(bearing), range_km, received)
            for i, (bearing, range_km, received) in enumerate(rows)
        ]
        est = KnnFovEstimator(k=k)
        assert est._estimate_bins(data, 36) == _scalar_bins(est, data, 36)

    def test_outputs_are_plain_python(self):
        flags, ranges = KnnFovEstimator()._estimate_bins(
            synthetic_scan().observations, 36
        )
        assert all(type(f) is bool for f in flags)
        assert all(type(r) is float for r in ranges)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_bearing_raises(self, bad):
        scan = synthetic_scan()
        scan.observations.append(_obs(9999, bad, 50.0, True))
        with pytest.raises(ValueError, match="finite"):
            KnnFovEstimator().estimate(scan)
