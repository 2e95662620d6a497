"""Tests for repro.runtime.jobs — specs, registries, content keys."""

import pytest

from repro.node.fabrication import (
    GhostTrafficFabricator,
    OmniscientFabricator,
)
from repro.runtime.jobs import (
    PIPELINE_VERSION,
    CalibrationJob,
    CrashingFabricator,
    InjectedFault,
    NodeSpec,
    WorldSpec,
    build_fabrication,
)


class TestNodeSpec:
    def test_rejects_unknown_antenna(self):
        with pytest.raises(ValueError, match="antenna"):
            NodeSpec("n", "rooftop", antenna="yagi")

    def test_rejects_unknown_fabrication(self):
        with pytest.raises(ValueError, match="fabrication"):
            NodeSpec("n", "rooftop", fabrication="timewarp")

    def test_build_standard_and_damaged(self, world):
        healthy = NodeSpec("h", "rooftop").build(world)
        damaged = NodeSpec(
            "d", "rooftop", antenna="damaged_cable"
        ).build(world)
        assert healthy.antenna.gain_dbi > damaged.antenna.gain_dbi


class TestBuildFabrication:
    def test_none_is_honest(self):
        assert build_fabrication(None) is None

    def test_omniscient(self):
        assert isinstance(
            build_fabrication("omniscient"), OmniscientFabricator
        )

    def test_ghost_with_count(self):
        fab = build_fabrication("ghost:7")
        assert isinstance(fab, GhostTrafficFabricator)
        assert fab.n_ghosts == 7

    def test_crash_raises_on_use(self, world, rng):
        from repro.core.observations import DirectionalScan

        fab = build_fabrication("crash")
        assert isinstance(fab, CrashingFabricator)
        with pytest.raises(InjectedFault):
            fab.fabricate(DirectionalScan("x", 30.0, 1e5), rng)


class TestWorldSpec:
    def test_from_world_round_trip(self, world):
        spec = WorldSpec.from_world(world)
        assert spec == WorldSpec()

    def test_build_matches_spec(self):
        spec = WorldSpec(traffic_seed=7, n_aircraft=5)
        built = spec.build()
        assert WorldSpec.from_world(built) == spec


class TestContentKey:
    def _job(self, **overrides):
        defaults = dict(
            node=NodeSpec("n0", "rooftop"),
            world=WorldSpec(),
            seed=95,
        )
        defaults.update(overrides)
        return CalibrationJob(**defaults)

    def test_stable_across_instances(self):
        assert self._job().content_key() == self._job().content_key()

    def test_changes_with_node_config(self):
        base = self._job().content_key()
        moved = self._job(node=NodeSpec("n0", "indoor")).content_key()
        damaged = self._job(
            node=NodeSpec("n0", "rooftop", antenna="damaged_cable")
        ).content_key()
        assert len({base, moved, damaged}) == 3

    def test_changes_with_seed_and_world(self):
        base = self._job().content_key()
        assert self._job(seed=96).content_key() != base
        assert (
            self._job(world=WorldSpec(n_aircraft=5)).content_key()
            != base
        )

    def test_changes_with_pipeline_version(self):
        base = self._job().content_key()
        bumped = self._job(
            pipeline_version=PIPELINE_VERSION + ".dev"
        ).content_key()
        assert bumped != base
