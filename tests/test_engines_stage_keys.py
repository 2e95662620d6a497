"""Stage values carry their path-cache key; downstream keys hash it.

The batch directional scan chains schedule -> rays -> received power
-> decode through the path cache. Each stage value that feeds another
stage is a :class:`~repro.engines.pathcache.StageValue`: it carries the
key that produced it, its arrays are read-only, and a value built
outside the cache falls back to hashing its own arrays. These tests pin
the three properties that make that sound and cheap: keying cost does
not grow with the capture, stage values cannot be written on any path,
and the content fallback still tells equal content from unequal.
"""

import dataclasses
import threading

import numpy as np
import pytest

import repro.engines.pathcache as pathcache
from repro.batch.geomcache import BatchRays, batch_rays
from repro.batch.links import BatchPower, batch_received_power_dbm
from repro.batch.schedule import BatchSquitters, build_batch_squitters
from repro.core.directional import DirectionalEvaluator
from repro.engines import (
    PathCache,
    configure_path_cache,
    content_key,
    path_cache_stats,
)
from repro.engines.pathcache import StageValue
from repro.environment.links import ADSB_FREQ_HZ, AdsbLinkModel

#: Ceiling on array bytes hashed by one scan's keys, at any length.
KEY_BYTES_BOUND = 64 * 1024


@pytest.fixture(autouse=True)
def fresh_cache():
    """Each test starts cold and leaves the global cache clean."""
    configure_path_cache(enabled=True, clear=True)
    yield
    configure_path_cache(enabled=True, clear=True)


def _reset_parity(world) -> None:
    for ac in world.traffic.aircraft:
        ac.transponder._odd_next = False


def _scan(world, duration_s, seed=3):
    _reset_parity(world)
    return DirectionalEvaluator(
        node=world.node_at("rooftop"),
        traffic=world.traffic,
        ground_truth=world.ground_truth,
        duration_s=duration_s,
        ground_truth_query_s=5.0,
    ).run(np.random.default_rng(seed))


def _stages(world, seed=11, duration_s=10.0):
    """Schedule, rays and received power of one rooftop capture."""
    node = world.node_at("rooftop")
    link = AdsbLinkModel(env=node.environment, rx_antenna=node.antenna)
    rng = np.random.default_rng(seed)
    squitters = build_batch_squitters(world.traffic, 0.0, duration_s, rng)
    rays = batch_rays(
        node.environment.position,
        node.environment.obstruction_map,
        ADSB_FREQ_HZ,
        squitters,
    )
    power = batch_received_power_dbm(
        node.environment,
        node.antenna,
        squitters,
        rays,
        rng,
        link.rician_k_db,
        link.coherence_time_s,
    )
    return squitters, rays, power


def _array_bytes(obj) -> int:
    """Array bytes ``content_key`` walks for ``obj``."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_array_bytes(item) for item in obj)
    if isinstance(obj, dict):
        return sum(_array_bytes(item) for item in obj.values())
    if hasattr(obj, "content_token"):
        return _array_bytes(obj.content_token())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(
            _array_bytes(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        )
    return 0


def _assert_read_only(value: StageValue) -> None:
    for array in value.arrays():
        assert not array.flags.writeable
        if array.size:
            with pytest.raises(ValueError):
                array[0] = array[0]


class TestKeyCost:
    def test_key_bytes_do_not_scale_with_capture_length(
        self, world, monkeypatch
    ):
        fed = []
        real = pathcache.content_key

        def counting(*parts):
            fed.append(_array_bytes(parts))
            return real(*parts)

        monkeypatch.setattr(pathcache, "content_key", counting)
        totals = []
        for duration_s in (10.0, 60.0):
            configure_path_cache(clear=True)
            fed.clear()
            _scan(world, duration_s)
            totals.append(sum(fed))
        assert totals[0] == totals[1]
        assert totals[0] < KEY_BYTES_BOUND

    def test_stage_values_carry_their_keys(self, world):
        squitters, rays, power = _stages(world)
        keys = [squitters.key, rays.key, power.key]
        assert all(isinstance(k, str) and len(k) == 32 for k in keys)
        assert len(set(keys)) == 3
        # A downstream key sees the upstream token, not the arrays.
        assert squitters.content_token() == squitters.key


class TestReadOnly:
    def test_cold_values_are_read_only(self, world):
        for value in _stages(world):
            _assert_read_only(value)

    def test_memory_hit_values_are_read_only(self, world):
        cold = _stages(world)
        misses = path_cache_stats()["path_cache_misses"]
        warm = _stages(world)
        assert path_cache_stats()["path_cache_misses"] == misses
        for c, w in zip(cold, warm):
            assert w is c
            _assert_read_only(w)

    def test_cache_off_values_are_unstamped_and_identical(self, world):
        cold = _stages(world)
        configure_path_cache(enabled=False)
        off = _stages(world)
        for c, o in zip(cold, off):
            assert o.key is None
            _assert_read_only(o)
            for a, b in zip(c.arrays(), o.arrays()):
                assert a.dtype == b.dtype
                assert a.tobytes() == b.tobytes()


class TestContentFallback:
    def _hand_built(self, squitters, **changes) -> BatchSquitters:
        arrays = {
            f.name: np.array(getattr(squitters, f.name))
            for f in dataclasses.fields(squitters)
        }
        arrays.update(changes)
        return BatchSquitters(**arrays)

    def _rays(self, world, squitters) -> BatchRays:
        node = world.node_at("rooftop")
        return batch_rays(
            node.environment.position,
            node.environment.obstruction_map,
            ADSB_FREQ_HZ,
            squitters,
        )

    def test_equal_unstamped_values_share_one_entry(self, world):
        source, _, _ = _stages(world)
        a = self._hand_built(source)
        b = self._hand_built(source)
        assert a.key is None and b.key is None
        misses = path_cache_stats()["path_cache_misses"]
        rays_a = self._rays(world, a)
        rays_b = self._rays(world, b)
        assert path_cache_stats()["path_cache_misses"] == misses + 1
        assert rays_b is rays_a

        lat = np.array(source.lat_deg)
        lat[0] += 1e-6
        moved = self._hand_built(source, lat_deg=lat)
        rays_moved = self._rays(world, moved)
        assert path_cache_stats()["path_cache_misses"] == misses + 2
        assert rays_moved.slant_m[0] != rays_a.slant_m[0]
        np.testing.assert_array_equal(
            rays_moved.slant_m[1:], rays_a.slant_m[1:]
        )

    def test_stamped_and_unstamped_tokens_differ(self, world):
        stamped, _, _ = _stages(world)
        assert content_key(stamped) != content_key(
            self._hand_built(stamped)
        )

    def test_disabled_cache_never_computes_a_key(self, world, monkeypatch):
        def forbidden(*parts):
            raise AssertionError("content_key called with cache off")

        monkeypatch.setattr(pathcache, "content_key", forbidden)
        configure_path_cache(enabled=False)
        scan = _scan(world, 10.0)
        assert scan.decoded_message_count > 0

    def test_empty_capture_values(self, world):
        squitters, rays, power = _stages(world, duration_s=0.0)
        assert squitters.n == 0
        assert isinstance(rays, BatchRays) and rays.slant_m.size == 0
        assert isinstance(power, BatchPower) and power.dbm.size == 0


@dataclasses.dataclass
class _Probe(StageValue):
    values: np.ndarray


class TestStamping:
    def test_nested_lookup_does_not_steal_the_stamp(self):
        cache = PathCache()

        def outer():
            cache.get_or_compute(("inner",), lambda: 1)
            return _Probe(np.arange(3))

        value = cache.get_or_compute(("outer",), cache.stamping(outer))
        assert value.key == content_key("outer")

    def test_skipped_lookup_leaves_value_unstamped(self):
        cache = PathCache(enabled=False)
        value = cache.get_or_compute(
            ("off",), cache.stamping(lambda: _Probe(np.arange(3)))
        )
        assert value.key is None

    def test_threads_stamp_their_own_keys(self):
        cache = PathCache()
        barrier = threading.Barrier(2)
        results = {}

        def worker(name):
            stamped = cache.stamping(lambda: _Probe(np.arange(3)))

            def compute():
                # Both threads have keyed their lookups before either
                # reads its stamp.
                barrier.wait(timeout=10)
                return stamped()

            results[name] = cache.get_or_compute((name,), compute)

        threads = [
            threading.Thread(target=worker, args=(name,))
            for name in ("left", "right")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results["left"].key == content_key("left")
        assert results["right"].key == content_key("right")
