"""The interference layer: aggregation, collisions, sources, presets.

Unit coverage for :mod:`repro.interference` — the linear-domain
aggregation core, the capture-effect collision rule and its edge
cases (equal powers, three-way pile-ups, the zero-interferer legacy
limit), the §3.2 co-channel sources against their scalar oracles, the
traffic-density presets, and serialization round-trips.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.airspace.traffic import TRAFFIC_PRESETS, TrafficConfig
from repro.cellular.cellmapper import TowerDatabase
from repro.cellular.tower import CellTower
from repro.core.frequency import BandMeasurement
from repro.core.observations import DirectionalScan
from repro.core.serialize import (
    collision_stats_from_dict,
    collision_stats_to_dict,
    measurement_from_dict,
    measurement_to_dict,
    scan_from_dict,
    scan_to_dict,
)
from repro.experiments.common import build_world
from repro.geo.distance import destination_point
from repro.interference import InterferenceConfig
from repro.interference.aggregate import (
    dbfs_to_linear,
    dbm_to_mw,
    dbm_to_mw_array,
    group_power_mw,
    linear_to_dbfs,
    mw_to_dbm,
    power_sum_dbm,
    sinr_db,
    slot_power_mw,
)
from repro.interference.collisions import (
    LONG_FRAME_DURATION_S,
    SHORT_FRAME_DURATION_S,
    CollisionStats,
    frame_durations_s,
    overlap_clusters,
    resolve_collisions,
    resolve_collisions_scalar,
)
from repro.interference.sources import (
    cell_cochannel_interference_mw,
    cell_cochannel_interference_mw_scalar,
    tv_adjacent_interference_mw,
    tv_adjacent_interference_mw_scalar,
)
from repro.tv.tower import TvTower


class TestAggregate:
    def test_dbm_mw_roundtrip(self):
        for dbm in (-120.0, -60.0, 0.0, 30.0):
            assert mw_to_dbm(dbm_to_mw(dbm)) == pytest.approx(
                dbm, abs=1e-12
            )

    def test_mw_to_dbm_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mw_to_dbm(0.0)
        with pytest.raises(ValueError):
            mw_to_dbm(-1.0)

    def test_two_equal_emitters_add_three_db(self):
        assert power_sum_dbm([-90.0, -90.0]) == pytest.approx(
            -90.0 + 10.0 * np.log10(2.0)
        )

    def test_array_conversion_matches_scalar(self):
        powers = np.array([-100.0, -70.0, -33.5])
        np.testing.assert_array_equal(
            dbm_to_mw_array(powers),
            [dbm_to_mw(p) for p in powers],
        )

    def test_group_power_sums_linearly(self):
        powers = np.array([-90.0, -90.0, -80.0])
        groups = np.array([0, 0, 2])
        totals = group_power_mw(powers, groups, 3)
        assert totals[0] == pytest.approx(2.0 * dbm_to_mw(-90.0))
        assert totals[1] == 0.0
        assert totals[2] == pytest.approx(dbm_to_mw(-80.0))

    def test_group_power_rejects_negative_group_count(self):
        with pytest.raises(ValueError):
            group_power_mw(np.array([-90.0]), np.array([0]), -1)

    def test_slot_power_bins_by_time(self):
        time_s = np.array([0.1, 0.4, 1.2])
        powers = np.array([-90.0, -90.0, -80.0])
        slots = slot_power_mw(time_s, powers, slot_s=1.0, n_slots=2)
        assert slots.shape == (2,)
        assert slots[0] == pytest.approx(2.0 * dbm_to_mw(-90.0))
        assert slots[1] == pytest.approx(dbm_to_mw(-80.0))

    def test_slot_power_validations(self):
        with pytest.raises(ValueError):
            slot_power_mw(np.array([0.0]), np.array([-90.0]), 0.0)
        with pytest.raises(ValueError):
            slot_power_mw(
                np.array([-0.5]), np.array([-90.0]), 1.0, t0_s=0.0
            )

    def test_sinr_known_value(self):
        # Signal 10 dB over (interference + noise) of equal parts.
        noise_mw = dbm_to_mw(-100.0)
        out = sinr_db(
            np.array([-90.0 + 10.0 * np.log10(2.0)]),
            np.array([noise_mw]),
            noise_mw,
        )
        assert out[0] == pytest.approx(
            10.0 + 10.0 * np.log10(2.0) - 10.0 * np.log10(2.0)
        )

    def test_sinr_rejects_nonpositive_noise(self):
        with pytest.raises(ValueError):
            sinr_db(np.array([-90.0]), np.array([0.0]), 0.0)

    def test_dbfs_linear_roundtrip(self):
        for dbfs in (-80.0, -30.0, 0.0):
            assert linear_to_dbfs(
                dbfs_to_linear(dbfs)
            ) == pytest.approx(dbfs, abs=1e-12)
        with pytest.raises(ValueError):
            linear_to_dbfs(0.0)

    @given(
        powers=st.lists(
            st.floats(min_value=-120.0, max_value=0.0),
            min_size=1,
            max_size=8,
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=50, deadline=None)
    def test_linear_sum_commutes(self, powers, seed):
        rng = np.random.default_rng(seed)
        shuffled = list(powers)
        rng.shuffle(shuffled)
        assert power_sum_dbm(shuffled) == pytest.approx(
            power_sum_dbm(powers), abs=1e-9
        )


class TestConfig:
    def test_default_is_off(self):
        assert not InterferenceConfig().enabled

    def test_rejects_negative_rejection(self):
        with pytest.raises(ValueError):
            InterferenceConfig(tv_adjacent_rejection_db=-1.0)

    def test_frozen(self):
        cfg = InterferenceConfig()
        with pytest.raises(AttributeError):
            cfg.enabled = True


class TestFrameDurations:
    def test_constants(self):
        assert LONG_FRAME_DURATION_S == pytest.approx(120e-6)
        assert SHORT_FRAME_DURATION_S == pytest.approx(64e-6)

    def test_kind_mapping(self):
        from repro.batch.schedule import (
            KIND_ACQUISITION,
            KIND_IDENTIFICATION,
            KIND_POSITION,
            KIND_VELOCITY,
        )

        kinds = np.array(
            [
                KIND_POSITION,
                KIND_VELOCITY,
                KIND_IDENTIFICATION,
                KIND_ACQUISITION,
            ]
        )
        np.testing.assert_array_equal(
            frame_durations_s(kinds),
            [
                LONG_FRAME_DURATION_S,
                LONG_FRAME_DURATION_S,
                LONG_FRAME_DURATION_S,
                SHORT_FRAME_DURATION_S,
            ],
        )


class TestOverlapClusters:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            overlap_clusters(
                np.array([1.0, 0.5]), np.full(2, 120e-6)
            )

    def test_isolated_events_get_own_clusters(self):
        out = overlap_clusters(
            np.array([0.0, 1.0, 2.0]), np.full(3, 120e-6)
        )
        np.testing.assert_array_equal(out, [0, 1, 2])

    def test_chained_overlap_is_one_cluster(self):
        # A overlaps B, B overlaps C, A never touches C.
        t = np.array([0.0, 100e-6, 200e-6])
        out = overlap_clusters(t, np.full(3, 120e-6))
        np.testing.assert_array_equal(out, [0, 0, 0])


NOISE_DBM = -100.0
THRESHOLD_DBM = -90.0


class TestResolveCollisions:
    def test_empty(self):
        mask, stats = resolve_collisions(
            np.zeros(0),
            np.zeros(0),
            np.zeros(0),
            THRESHOLD_DBM,
            NOISE_DBM,
            10.0,
        )
        assert mask.size == 0
        assert stats == CollisionStats(0, 0, 0, 0)

    def test_zero_interferer_equals_legacy_bit_exact(self):
        # Isolated events must use the exact legacy compare — the
        # borderline event sitting exactly on the threshold included.
        rx = np.array([-95.0, THRESHOLD_DBM, -60.0])
        t = np.array([0.0, 1.0, 2.0])
        mask, stats = resolve_collisions(
            t,
            np.full(3, 120e-6),
            rx,
            THRESHOLD_DBM,
            NOISE_DBM,
            10.0,
        )
        np.testing.assert_array_equal(mask, rx >= THRESHOLD_DBM)
        assert stats.n_contested == 0
        assert stats.collision_rate == 0.0

    @pytest.mark.parametrize("margin_db", [0.0, 10.0])
    def test_exactly_equal_powers_both_garble(self, margin_db):
        # Two simultaneous frames at identical power: neither can be
        # ``margin`` above the other plus noise, at any margin >= 0.
        t = np.array([0.0, 0.0])
        rx = np.array([-60.0, -60.0])
        mask, stats = resolve_collisions(
            t,
            np.full(2, 120e-6),
            rx,
            THRESHOLD_DBM,
            NOISE_DBM,
            margin_db,
        )
        assert not mask.any()
        assert stats.n_contested == 2
        assert stats.n_captured == 0
        assert stats.n_garbled == 2

    def test_three_way_overlap_strongest_captures(self):
        t = np.array([0.0, 10e-6, 20e-6])
        rx = np.array([-60.0, -80.0, -80.0])
        mask, stats = resolve_collisions(
            t,
            np.full(3, 120e-6),
            rx,
            THRESHOLD_DBM,
            NOISE_DBM,
            10.0,
        )
        np.testing.assert_array_equal(mask, [True, False, False])
        assert stats == CollisionStats(
            n_events=3, n_contested=3, n_captured=1, n_garbled=2
        )

    def test_capture_needs_margin_over_interferer_sum(self):
        # 13 dB over each of two equal interferers is only ~10 dB over
        # their sum plus noise: right at the default margin's edge.
        t = np.array([0.0, 10e-6, 20e-6])
        rx = np.array([-60.0, -73.0, -73.0])
        mask, _ = resolve_collisions(
            t,
            np.full(3, 120e-6),
            rx,
            THRESHOLD_DBM,
            NOISE_DBM,
            10.0,
        )
        assert not mask[0]  # 2 * 10^(-7.3) > 10^(-7) at margin 10 dB
        mask, _ = resolve_collisions(
            t,
            np.full(3, 120e-6),
            np.array([-60.0, -75.0, -75.0]),
            THRESHOLD_DBM,
            NOISE_DBM,
            10.0,
        )
        assert mask[0]

    def test_garbled_counts_only_above_threshold_losers(self):
        # The weak loser was undecodable anyway; only the strong
        # loser counts as garbled by the collision.
        t = np.array([0.0, 10e-6])
        rx = np.array([-70.0, -95.0])
        mask, stats = resolve_collisions(
            t,
            np.full(2, 120e-6),
            rx,
            THRESHOLD_DBM,
            NOISE_DBM,
            10.0,
        )
        np.testing.assert_array_equal(mask, [True, False])
        assert stats.n_contested == 2
        assert stats.n_captured == 1
        assert stats.n_garbled == 0

    def test_scalar_oracle_agrees_on_random_captures(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            n = 300
            t = np.sort(rng.uniform(0.0, 0.05, n))
            dur = np.where(
                rng.random(n) < 0.3,
                SHORT_FRAME_DURATION_S,
                LONG_FRAME_DURATION_S,
            )
            rx = rng.uniform(-100.0, -55.0, n)
            mask_v, stats_v = resolve_collisions(
                t, dur, rx, THRESHOLD_DBM, NOISE_DBM, 10.0
            )
            mask_s, stats_s = resolve_collisions_scalar(
                t.tolist(),
                dur.tolist(),
                rx.tolist(),
                THRESHOLD_DBM,
                NOISE_DBM,
                10.0,
            )
            assert mask_v.tolist() == mask_s
            assert stats_v == stats_s

    def test_scalar_oracle_rejects_unsorted(self):
        with pytest.raises(ValueError):
            resolve_collisions_scalar(
                [1.0, 0.0],
                [120e-6, 120e-6],
                [-60.0, -60.0],
                THRESHOLD_DBM,
                NOISE_DBM,
                10.0,
            )

    @given(
        data=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=0.01),
                st.floats(min_value=-100.0, max_value=-55.0),
            ),
            min_size=1,
            max_size=40,
        ),
        margins=st.tuples(
            st.floats(min_value=0.0, max_value=6.0),
            st.floats(min_value=0.0, max_value=6.0),
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_capture_monotone_in_margin(self, data, margins):
        # Raising the capture margin can only garble more frames:
        # decodable(m_hi) is a subset of decodable(m_lo).
        data.sort(key=lambda pair: pair[0])
        t = np.array([pair[0] for pair in data])
        rx = np.array([pair[1] for pair in data])
        dur = np.full(t.size, LONG_FRAME_DURATION_S)
        m_lo, m_hi = min(margins), max(margins)
        lo, _ = resolve_collisions(
            t, dur, rx, THRESHOLD_DBM, NOISE_DBM, m_lo
        )
        hi, _ = resolve_collisions(
            t, dur, rx, THRESHOLD_DBM, NOISE_DBM, m_hi
        )
        assert not np.any(hi & ~lo)


class TestSources:
    def _site(self, world):
        node = world.node_at("rooftop")
        return node.environment, node.antenna

    def _tv_towers(self, world):
        center = world.testbed.center
        return [
            TvTower(
                "ADJ1",
                13,
                destination_point(center, 270.0, 30_000.0),
                erp_dbm=80.0,
            ),
            TvTower(
                "ADJ2",
                14,
                destination_point(center, 250.0, 45_000.0),
                erp_dbm=78.0,
            ),
            TvTower(
                "ADJ3",
                15,
                destination_point(center, 120.0, 60_000.0),
                erp_dbm=82.0,
            ),
            TvTower(
                "FAR",
                22,
                destination_point(center, 30.0, 50_000.0),
                erp_dbm=85.0,
            ),
        ]

    def test_tv_adjacent_matches_scalar_oracle(self, world):
        env, antenna = self._site(world)
        towers = self._tv_towers(world)
        batch = tv_adjacent_interference_mw(
            env, antenna, towers, 30.0
        )
        oracle = tv_adjacent_interference_mw_scalar(
            env, antenna, towers, 30.0
        )
        np.testing.assert_allclose(batch, oracle, rtol=1e-9)
        # 13 bleeds into 14, 14 into 13 and 15; channel 22 is clean.
        assert batch[0] > 0.0 and batch[1] > 0.0 and batch[2] > 0.0
        assert batch[3] == 0.0

    def test_tv_rejection_scales_linearly(self, world):
        env, antenna = self._site(world)
        towers = self._tv_towers(world)
        strong = tv_adjacent_interference_mw(
            env, antenna, towers, 20.0
        )
        weak = tv_adjacent_interference_mw(
            env, antenna, towers, 30.0
        )
        np.testing.assert_allclose(
            strong[:3] / weak[:3], 10.0, rtol=1e-9
        )

    def test_tv_empty_towers(self, world):
        env, antenna = self._site(world)
        assert tv_adjacent_interference_mw(
            env, antenna, [], 30.0
        ).size == 0

    def _cell_towers(self, world):
        center = world.testbed.center
        return TowerDatabase(
            towers=[
                CellTower(
                    "CoA",
                    101,
                    destination_point(center, 200.0, 8_000.0),
                    earfcn=1000,
                ),
                CellTower(
                    "CoB",
                    202,
                    destination_point(center, 320.0, 12_000.0),
                    earfcn=1000,
                ),
                CellTower(
                    "Lone",
                    303,
                    destination_point(center, 80.0, 10_000.0),
                    earfcn=5030,
                ),
            ]
        )

    def test_cell_cochannel_matches_scalar_oracle(self, world):
        env, antenna = self._site(world)
        towers = self._cell_towers(world).towers
        batch = cell_cochannel_interference_mw(env, antenna, towers)
        oracle = cell_cochannel_interference_mw_scalar(
            env, antenna, towers
        )
        np.testing.assert_allclose(batch, oracle, rtol=1e-9)
        assert batch[0] > 0.0 and batch[1] > 0.0
        assert batch[2] == 0.0  # no one shares its EARFCN

    def test_cell_empty_towers(self, world):
        env, antenna = self._site(world)
        assert cell_cochannel_interference_mw(
            env, antenna, []
        ).size == 0

    def test_standard_testbed_cells_are_clean(self, world):
        # The standard testbed assigns every tower a distinct EARFCN,
        # so enabling interference must not perturb Figure 3.
        env, antenna = self._site(world)
        out = cell_cochannel_interference_mw(
            env, antenna, world.testbed.cell_towers.towers
        )
        assert np.all(out == 0.0)


class TestTrafficPresets:
    def test_known_presets(self):
        assert TRAFFIC_PRESETS["default"] == 80
        assert TRAFFIC_PRESETS["dense-urban"] == 240

    def test_from_preset(self):
        cfg = TrafficConfig.from_preset("dense-urban")
        assert cfg.n_aircraft == 240

    def test_from_preset_overrides(self):
        cfg = TrafficConfig.from_preset(
            "dense-urban", radius_m=50_000.0
        )
        assert cfg.n_aircraft == 240
        assert cfg.radius_m == 50_000.0

    def test_unknown_preset_raises(self):
        with pytest.raises(ValueError, match="unknown traffic preset"):
            TrafficConfig.from_preset("megacity")

    def test_build_world_accepts_preset(self):
        dense = build_world(traffic_preset="dense-urban")
        assert len(dense.traffic.aircraft) == 240


class TestSerialization:
    def test_collision_stats_roundtrip(self):
        stats = CollisionStats(100, 20, 5, 9)
        back = collision_stats_from_dict(collision_stats_to_dict(stats))
        assert back == stats
        assert stats.collision_rate == pytest.approx(0.2)

    def test_scan_roundtrip_with_stats(self):
        scan = DirectionalScan(
            node_id="n1",
            duration_s=30.0,
            radius_m=1e5,
            collision_stats=CollisionStats(10, 4, 1, 2),
        )
        back = scan_from_dict(scan_to_dict(scan))
        assert back.collision_stats == scan.collision_stats

    def test_scan_legacy_dict_parses(self):
        scan = DirectionalScan("n1", 30.0, 1e5)
        data = scan_to_dict(scan)
        del data["collision_stats"]
        assert scan_from_dict(data).collision_stats is None

    def test_measurement_roundtrip_with_interference(self):
        m = BandMeasurement(
            source="tv",
            label="K13AA",
            freq_hz=213e6,
            measured=-30.0,
            expected=-28.0,
            excess_attenuation_db=2.0,
            decoded=True,
            interference_dbm=-75.0,
        )
        back = measurement_from_dict(measurement_to_dict(m))
        assert back == m

    def test_measurement_legacy_dict_parses(self):
        m = BandMeasurement(
            source="tv",
            label="K13AA",
            freq_hz=213e6,
            measured=-30.0,
            expected=-28.0,
            excess_attenuation_db=2.0,
            decoded=True,
        )
        data = measurement_to_dict(m)
        del data["interference_dbm"]
        assert measurement_from_dict(data).interference_dbm is None
