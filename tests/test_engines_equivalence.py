"""The path cache's two load-bearing guarantees, end to end.

**Bit-identity**: with a fixed seed, a node assessment is byte-for-byte
identical whether the path cache is off, cold, or warm — on the
vectorized pipeline and on the scalar oracle (``use_batch=False``).
The cache may only ever change *when* a stage computes, never *what*
it returns.

**Invalidation**: mutating any static input — a tower moved, a wall
material swapped, a frequency added — changes the content key, so the
stage recomputes instead of replaying a stale entry.
"""

import dataclasses

import numpy as np
import pytest

from repro.batch import schedule
from repro.cellular.cellmapper import TowerDatabase
from repro.core.frequency import FrequencyEvaluator
from repro.core.network import CalibrationService
from repro.core.serialize import assessment_to_dict
from repro.dsp.channelizer import plan_capture_groups
from repro.engines import (
    configure_path_cache,
    content_key,
    path_cache_stats,
)
from repro.environment.obstruction import Obstruction, ObstructionMap
from repro.geo.coords import GeoPoint
from repro.geo.sectors import AzimuthSector


@pytest.fixture(autouse=True)
def fresh_cache():
    """Each test starts cold and leaves the global cache clean."""
    configure_path_cache(enabled=True, clear=True)
    yield
    configure_path_cache(enabled=True, clear=True)


def _service(world, use_batch=True) -> CalibrationService:
    return CalibrationService(
        traffic=world.traffic,
        ground_truth=world.ground_truth,
        cell_towers=world.testbed.cell_towers,
        tv_towers=world.testbed.tv_towers,
        fm_towers=world.testbed.fm_towers,
        use_batch=use_batch,
    )


def _reset_parity(world) -> None:
    # CPR parity is the one piece of mutable transponder state; pin it
    # so every run in a comparison starts from the same frame stream.
    for ac in world.traffic.aircraft:
        ac.transponder._odd_next = False


@pytest.mark.parametrize(
    "use_batch", [True, False], ids=["batch", "scalar"]
)
def test_assessments_identical_off_cold_warm(world, use_batch, monkeypatch):
    """Cache off, cold, and warm runs serialize identically."""
    service = _service(world, use_batch)
    node = world.node_at("window")

    def assess():
        _reset_parity(world)
        return assessment_to_dict(service.evaluate_node(node, seed=5))

    configure_path_cache(enabled=False)
    uncached = assess()

    grid_lookups = []
    tick_grid = schedule.tick_grid

    def counted_tick_grid(*args):
        grid_lookups.append(args)
        return tick_grid(*args)

    monkeypatch.setattr(schedule, "tick_grid", counted_tick_grid)
    configure_path_cache(enabled=True, clear=True)
    cold = assess()
    stats_cold = path_cache_stats()
    n_grid = len(grid_lookups)
    warm = assess()
    stats_warm = path_cache_stats()

    assert cold == uncached
    assert warm == uncached
    assert stats_cold["path_cache_misses"] > 0
    # The warm run replayed every cold-run stage, except the tick grid:
    # it is looked up only inside a batch_schedule compute, which the
    # warm run replays whole.
    assert n_grid == (1 if use_batch else 0)
    assert len(grid_lookups) == n_grid
    assert (
        stats_warm["path_cache_hits"] - stats_cold["path_cache_hits"]
        == stats_cold["path_cache_hits"]
        + stats_cold["path_cache_misses"]
        - n_grid
    )
    assert stats_warm["path_cache_misses"] == stats_cold["path_cache_misses"]


# ---------------------------------------------------------------------------
# Invalidation: static-input mutations must change keys.


def test_tower_move_invalidates_frequency_profile(world):
    node = world.node_at("rooftop")

    def evaluator(towers):
        return FrequencyEvaluator(
            node=node,
            cell_towers=towers,
            tv_towers=world.testbed.tv_towers,
            fm_towers=world.testbed.fm_towers,
        )

    baseline = evaluator(world.testbed.cell_towers)
    profile = baseline.run()
    hits_before = path_cache_stats()["path_cache_hits"]
    replayed = baseline.run()
    assert path_cache_stats()["path_cache_hits"] == hits_before + 1
    assert [m.measured for m in replayed.measurements] == [
        m.measured for m in profile.measurements
    ]

    towers = list(world.testbed.cell_towers.towers)
    moved = dataclasses.replace(
        towers[0],
        position=GeoPoint(
            towers[0].position.lat_deg + 0.05,
            towers[0].position.lon_deg,
            towers[0].position.alt_m,
        ),
    )
    misses_before = path_cache_stats()["path_cache_misses"]
    changed = evaluator(TowerDatabase([moved] + towers[1:])).run()
    assert path_cache_stats()["path_cache_misses"] == misses_before + 1
    # The moved tower's expected reference actually changed — this was
    # a recompute, not a replay of the stale layout.
    def cell_bands(result):
        return [
            (m.label, m.measured, m.expected)
            for m in result.measurements
            if m.source == "cellular"
        ]

    assert cell_bands(changed) != cell_bands(profile)


def _single_wall_map(material: str) -> ObstructionMap:
    return ObstructionMap(
        obstructions=[
            Obstruction(
                sector=AzimuthSector(0.0, 90.0),
                clear_elevation_deg=30.0,
                materials=(material,),
            )
        ]
    )


def test_material_change_invalidates_obstruction_stages():
    brick = _single_wall_map("brick")
    sectors = brick.clear_sectors()
    hits_before = path_cache_stats()["path_cache_hits"]
    assert brick.clear_sectors() == sectors
    assert path_cache_stats()["path_cache_hits"] == hits_before + 1

    misses_before = path_cache_stats()["path_cache_misses"]
    _single_wall_map("reinforced_concrete").clear_sectors()
    assert path_cache_stats()["path_cache_misses"] == misses_before + 1
    # The key itself is material-sensitive.
    assert content_key(brick) != content_key(
        _single_wall_map("reinforced_concrete")
    )
    # Equal content reuses the entry even from a fresh object.
    assert content_key(brick) == content_key(_single_wall_map("brick"))


def test_frequency_added_invalidates_capture_plan():
    edges = [(88.0e6, 108.0e6), (600.0e6, 606.0e6)]
    stats_before = path_cache_stats()
    assert plan_capture_groups(edges, max_span_hz=40e6) == [[0], [1]]
    # A frequency joins the set: out of every window's reach, then
    # inside the 600 MHz window.
    wider = edges + [(1.088e9, 1.092e9)]
    assert plan_capture_groups(wider, max_span_hz=40e6) == [[0], [1], [2]]
    joined = edges + [(610.0e6, 616.0e6)]
    assert plan_capture_groups(joined, max_span_hz=40e6) == [[0], [1, 2]]
    # Planning is recomputed on every call, never replayed.
    assert path_cache_stats() == stats_before


def test_rng_consuming_run_stays_in_lockstep(world):
    """Frequency runs that draw randomness replay value AND stream."""
    node = world.node_at("window")
    evaluator = FrequencyEvaluator(
        node=node,
        cell_towers=world.testbed.cell_towers,
        tv_towers=world.testbed.tv_towers,
        fm_towers=world.testbed.fm_towers,
    )

    rng_a = np.random.default_rng(21)
    profile_a = evaluator.run(rng_a)
    tail_a = rng_a.uniform(size=3)

    rng_b = np.random.default_rng(21)
    profile_b = evaluator.run(rng_b)  # cache hit
    tail_b = rng_b.uniform(size=3)

    assert [m.measured for m in profile_b.measurements] == [
        m.measured for m in profile_a.measurements
    ]
    np.testing.assert_array_equal(tail_b, tail_a)
