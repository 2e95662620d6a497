"""The world-level tick grid and the tie-repaired schedule sort.

Every node of a world hears the same sky, so the RNG-free part of the
squitter schedule (:class:`~repro.batch.schedule.TickGrid`) is one
path-cache entry per (traffic content, window) that a campaign's nodes
share. These tests pin what that sharing must not change: the sort
still yields the stable block-major order (ties included), the grid
is shared across a campaign but missed whenever a transponder or
route changes, its arrays cannot be written, and a campaign serializes
byte for byte the same with the cache off, cold or warm.
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro.airspace.traffic import TrafficConfig, TrafficSimulator
from repro.batch import schedule
from repro.batch.schedule import (
    build_batch_squitters,
    tick_grid,
    traffic_content_token,
)
from repro.core import serialize
from repro.core.network import NetworkAssessments
from repro.engines import configure_path_cache, path_cache_stats
from repro.experiments.common import build_world
from repro.runtime.campaign import FleetCampaign, fleet_jobs
from repro.runtime.jobs import WorldSpec


@pytest.fixture(autouse=True)
def fresh_cache():
    """Each test starts cold and leaves the global cache clean."""
    configure_path_cache(enabled=True, clear=True)
    yield
    configure_path_cache(enabled=True, clear=True)


def _traffic(world, seed, n_aircraft=24):
    return TrafficSimulator(
        world.traffic.center,
        TrafficConfig(n_aircraft=n_aircraft),
        rng_seed=seed,
    )


#: Windows for the sort sweep; all but the first start after 0 s.
_SORT_WINDOWS = [(0.0, 30.0), (3.7, 11.2), (17.0, 29.0), (0.25, 0.75)]


class TestTieRepair:
    def test_order_matches_stable_argsort_over_block_major_times(
        self, world
    ):
        ties = 0
        for traffic_seed in range(20):
            traffic = _traffic(world, traffic_seed)
            token = traffic_content_token(traffic)
            for t0, t1 in _SORT_WINDOWS:
                seed = 1000 * traffic_seed + int(10 * t0)
                batch = build_batch_squitters(
                    traffic, t0, t1, np.random.default_rng(seed)
                )
                # The oracle: the grid's block-major times, jittered by
                # the same draw, stable-sorted.
                grid = tick_grid(traffic, token, t0, t1)
                u = np.random.default_rng(seed).uniform(
                    -grid.jitter_s, grid.jitter_s
                )
                t = np.minimum(np.maximum(grid.time_s + u, t0), t1 - 1e-9)
                order = np.argsort(t, kind="stable")
                np.testing.assert_array_equal(batch.time_s, t[order])
                np.testing.assert_array_equal(
                    batch.aircraft_idx, grid.aircraft_idx[order]
                )
                np.testing.assert_array_equal(
                    batch.kind_idx, grid.kind_idx[order]
                )
                np.testing.assert_array_equal(
                    batch.pos_seq, grid.pos_seq[order]
                )
                ties += int(np.count_nonzero(np.diff(t[order]) == 0.0))
        # Events clamp to exactly t0 and t1 - 1e-9: the sweep must have
        # exercised the repair, or it proves nothing.
        assert ties > 0

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 500, 5000])
    def test_heavy_ties_keep_index_order(self, n):
        rng = np.random.default_rng(n)
        t = rng.integers(0, 6, size=n).astype(np.float64)
        np.testing.assert_array_equal(
            schedule._stable_time_order(t), np.argsort(t, kind="stable")
        )


class TestGridStage:
    def test_cold_campaign_shares_one_grid(self, monkeypatch):
        lookups = []
        computes = []
        lookup = schedule.tick_grid
        compute = schedule._tick_grid_compute

        def counted_lookup(*args):
            lookups.append(args)
            return lookup(*args)

        def counted_compute(*args):
            computes.append(args)
            return compute(*args)

        monkeypatch.setattr(schedule, "tick_grid", counted_lookup)
        monkeypatch.setattr(schedule, "_tick_grid_compute", counted_compute)
        world = build_world(traffic_seed=9)
        specs = fleet_jobs(seed=4, world=WorldSpec(traffic_seed=9))
        FleetCampaign(specs, world=world).run()
        assert len(lookups) == 12
        assert len(computes) == 1  # 11 of 12 hit

    def test_rerun_hits_schedule_without_touching_grid(self, world):
        traffic = _traffic(world, 5)
        build_batch_squitters(traffic, 0.0, 10.0, np.random.default_rng(1))
        before = path_cache_stats()
        build_batch_squitters(traffic, 0.0, 10.0, np.random.default_rng(1))
        after = path_cache_stats()
        # One batch_schedule hit; the nested grid lookup never ran.
        assert after["path_cache_hits"] == before["path_cache_hits"] + 1
        assert after["path_cache_misses"] == before["path_cache_misses"]

    def test_transponder_and_route_changes_miss(self, world):
        traffic = _traffic(world, 6, n_aircraft=6)

        def grid():
            return tick_grid(
                traffic, traffic_content_token(traffic), 0.0, 10.0
            )

        first = grid()
        assert grid() is first

        def assert_missed(previous):
            misses = path_cache_stats()["path_cache_misses"]
            fresh = grid()
            assert path_cache_stats()["path_cache_misses"] == misses + 1
            assert fresh is not previous
            return fresh

        aircraft = traffic.aircraft[2]
        aircraft.transponder.jitter_s *= 2.0
        jittered = assert_missed(first)
        mine = jittered.aircraft_idx == 2
        assert np.all(jittered.jitter_s[mine] == aircraft.transponder.jitter_s)

        aircraft.route = dataclasses.replace(
            aircraft.route, speed_ms=aircraft.route.speed_ms + 1.0
        )
        rerouted = assert_missed(jittered)
        assert np.all(rerouted.legs.speed_ms[mine] == aircraft.route.speed_ms)

        aircraft.transponder.tx_power_w += 10.0
        louder = assert_missed(rerouted)
        assert np.all(
            louder.tx_power_w[mine] == aircraft.transponder.tx_power_w
        )

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_arrays_are_read_only(self, world, enabled):
        configure_path_cache(enabled=enabled)
        traffic = _traffic(world, 7, n_aircraft=4)
        grid = tick_grid(traffic, traffic_content_token(traffic), 0.0, 5.0)
        arrays = [
            getattr(grid, f.name)
            for f in dataclasses.fields(grid)
            if f.name != "legs"
        ] + list(grid.legs.arrays())
        assert len(arrays) == 16
        for array in arrays:
            assert array.size > 0
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = array[0]

    def test_threads_sharing_one_grid_match_serial(self, world):
        traffic = _traffic(world, 11)
        seeds = range(8)
        configure_path_cache(enabled=False)
        expected = {
            seed: build_batch_squitters(
                traffic, 0.0, 10.0, np.random.default_rng(seed)
            )
            for seed in seeds
        }
        configure_path_cache(enabled=True, clear=True)
        results = {}

        def build(seed):
            results[seed] = build_batch_squitters(
                traffic, 0.0, 10.0, np.random.default_rng(seed)
            )

        threads = [threading.Thread(target=build, args=(s,)) for s in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for seed in seeds:
            for field in dataclasses.fields(expected[seed]):
                np.testing.assert_array_equal(
                    getattr(results[seed], field.name),
                    getattr(expected[seed], field.name),
                )

    def test_campaign_json_identical_off_cold_warm(self):
        def campaign(world):
            specs = fleet_jobs(seed=8, world=WorldSpec(traffic_seed=13))
            result = FleetCampaign(specs, world=world).run()
            return serialize.network_to_json(
                NetworkAssessments(result.assessments)
            )

        configure_path_cache(enabled=False, clear=True)
        uncached = campaign(build_world(traffic_seed=13))
        configure_path_cache(enabled=True, clear=True)
        world = build_world(traffic_seed=13)
        cold = campaign(world)
        hits = path_cache_stats()["path_cache_hits"]
        warm = campaign(world)
        assert path_cache_stats()["path_cache_hits"] > hits
        assert cold == uncached
        assert warm == uncached
