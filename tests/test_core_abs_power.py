"""Tests for absolute-power calibration (§5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.abs_power import (
    AbsolutePowerCalibration,
    AbsolutePowerCalibrator,
)
from repro.core.directional import DirectionalEvaluator
from repro.core.fov import KnnFovEstimator
from repro.core.frequency import FrequencyEvaluator, FrequencyProfile
from repro.environment.links import ray_geometry
from repro.node.sensor import SensorNode
from repro.rf.pathloss import free_space_path_loss_db
from repro.runtime.campaign import FleetCampaign, fleet_jobs


@pytest.fixture(scope="module")
def calibrations(world):
    out = {}
    calibrator = AbsolutePowerCalibrator()
    for location in ("rooftop", "window", "indoor"):
        node = SensorNode(location, world.testbed.site(location))
        scan = DirectionalEvaluator(
            node=node,
            traffic=world.traffic,
            ground_truth=world.ground_truth,
        ).run(np.random.default_rng(1))
        fov = KnnFovEstimator().estimate(scan)
        profile = FrequencyEvaluator(
            node=node,
            cell_towers=world.testbed.cell_towers,
            tv_towers=world.testbed.tv_towers,
            fm_towers=world.testbed.fm_towers,
        ).run()
        out[location] = (
            node,
            calibrator.calibrate(
                node,
                profile,
                world.testbed.tv_towers,
                world.testbed.fm_towers,
                fov=fov,
            ),
        )
    return out


class TestEstimates:
    def test_rooftop_exact(self, calibrations):
        node, result = calibrations["rooftop"]
        assert result.reliable
        assert result.full_scale_dbm_estimate == pytest.approx(
            node.sdr.full_scale_dbm, abs=1.0
        )

    def test_window_anchored_on_in_view_signal(self, calibrations):
        node, result = calibrations["window"]
        assert result.reliable
        # The anchor must be one of the stations inside the window's
        # narrow field of view.
        assert result.anchor_label in ("K22CC", "KCCC")
        assert result.full_scale_dbm_estimate == pytest.approx(
            node.sdr.full_scale_dbm, abs=3.0
        )

    def test_indoor_unreliable(self, calibrations):
        node, result = calibrations["indoor"]
        # Every path is obstructed: the estimate is biased high and
        # must be flagged as untrustworthy.
        assert not result.reliable
        assert (
            result.full_scale_dbm_estimate
            > node.sdr.full_scale_dbm + 10.0
        )

    def test_to_dbm_conversion(self, calibrations):
        _, result = calibrations["rooftop"]
        assert result.to_dbm(-30.0) == pytest.approx(
            result.full_scale_dbm_estimate - 30.0
        )


class TestEdgeCases:
    def test_too_few_signals(self, world):
        node = SensorNode("x", world.testbed.site("rooftop"))
        empty = FrequencyProfile(node_id="x")
        result = AbsolutePowerCalibrator().calibrate(
            node, empty, world.testbed.tv_towers
        )
        assert result.full_scale_dbm_estimate is None
        assert not result.reliable
        with pytest.raises(ValueError):
            result.to_dbm(-30.0)

    def test_no_fov_means_unreliable(self, world):
        node = SensorNode("x", world.testbed.site("rooftop"))
        profile = FrequencyEvaluator(
            node=node,
            cell_towers=world.testbed.cell_towers,
            tv_towers=world.testbed.tv_towers,
            fm_towers=world.testbed.fm_towers,
        ).run()
        result = AbsolutePowerCalibrator().calibrate(
            node,
            profile,
            world.testbed.tv_towers,
            world.testbed.fm_towers,
        )
        assert result.full_scale_dbm_estimate is not None
        assert not result.reliable  # no FoV evidence supplied

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            AbsolutePowerCalibrator(quantile=1.5)

    def test_record_fields(self):
        record = AbsolutePowerCalibration(
            full_scale_dbm_estimate=-20.0,
            spread_db=3.0,
            anchor_label="K22CC",
            anchor_bearing_deg=140.0,
            n_signals=9,
            reliable=True,
        )
        assert record.to_dbm(0.0) == -20.0


def _reference_calibrate(
    calibrator, node, profile, tv_towers=(), fm_towers=(), fov=None
):
    """The calibration as first written: geometry per use, 3 quantiles."""
    towers = {t.callsign: t for t in tv_towers}
    towers.update({t.callsign: t for t in fm_towers})
    offsets, bearings, labels = [], [], []
    for m in profile.measurements:
        if m.source not in ("tv", "fm") or not m.decoded:
            continue
        tower = towers.get(m.label)
        if tower is None:
            continue
        geom = ray_geometry(node.position, tower.position)
        path = free_space_path_loss_db(geom.slant_m, m.freq_hz)
        gain = calibrator.reference_antenna.gain_at(
            m.freq_hz, geom.azimuth_deg
        )
        predicted = tower.erp_dbm - path + gain
        offsets.append(predicted - m.measured)
        bearings.append(
            ray_geometry(node.position, tower.position).azimuth_deg
        )
        labels.append(m.label)
    if len(offsets) < calibrator.min_signals:
        return AbsolutePowerCalibration(
            None, 0.0, None, None, len(offsets), False
        )
    arr = np.asarray(offsets)
    estimate = float(np.quantile(arr, calibrator.quantile))
    spread = float(np.quantile(arr, 0.9) - np.quantile(arr, 0.1))
    anchor = int(np.argmin(arr))
    reliable = fov.is_open(bearings[anchor]) if fov is not None else False
    return AbsolutePowerCalibration(
        estimate, spread, labels[anchor], bearings[anchor], len(offsets),
        reliable,
    )


class TestSinglePass:
    @settings(max_examples=300, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.integers(3, 12),
            elements=st.floats(-300.0, 300.0),
        ),
        st.floats(0.0, 1.0),
    )
    def test_one_quantile_call_equals_three(self, offsets, q):
        joint = np.quantile(offsets, [q, 0.9, 0.1])
        for got, alone in zip(joint, (q, 0.9, 0.1)):
            assert got.tobytes() == np.quantile(offsets, alone).tobytes()
        separate = np.quantile(offsets, 0.9) - np.quantile(offsets, 0.1)
        assert float(joint[1] - joint[2]) == float(separate)

    def test_standard_fleet_matches_reference(self, monkeypatch):
        calls = []
        calibrate = AbsolutePowerCalibrator.calibrate

        def recording(self, *args, **kwargs):
            result = calibrate(self, *args, **kwargs)
            calls.append((self, args, kwargs, result))
            return result

        monkeypatch.setattr(AbsolutePowerCalibrator, "calibrate", recording)
        FleetCampaign(fleet_jobs()).run()
        assert len(calls) == 12
        assert sum(r.full_scale_dbm_estimate is not None for *_, r in calls)
        for calibrator, args, kwargs, result in calls:
            expected = _reference_calibrate(calibrator, *args, **kwargs)
            assert repr(result) == repr(expected)
            for q in (0.1, 0.5, 1.0):
                other = AbsolutePowerCalibrator(quantile=q)
                assert repr(calibrate(other, *args, **kwargs)) == repr(
                    _reference_calibrate(other, *args, **kwargs)
                )
