"""The path cache: replay semantics, RNG lockstep, LRU, metrics."""

import numpy as np
import pytest

from repro.core.metrics import MetricsRegistry
from repro.engines import (
    PathCache,
    configure_path_cache,
    get_path_cache,
    path_cache_stats,
    record_path_cache_metrics,
)


@pytest.fixture()
def cache() -> PathCache:
    return PathCache()


def test_hit_replays_without_recompute(cache):
    calls = []

    def compute():
        calls.append(1)
        return np.arange(4)

    first = cache.get_or_compute(("stage", 1), compute)
    second = cache.get_or_compute(("stage", 1), compute)
    assert len(calls) == 1
    assert second is first  # replayed, not recomputed
    stats = cache.stats()
    assert stats["path_cache_hits"] == 1
    assert stats["path_cache_misses"] == 1
    assert stats["path_cache_entries"] == 1


def test_different_content_different_entries(cache):
    a = cache.get_or_compute(("stage", 1), lambda: "a")
    b = cache.get_or_compute(("stage", 2), lambda: "b")
    assert (a, b) == ("a", "b")
    assert cache.stats()["path_cache_entries"] == 2


def test_cached_none_is_a_hit(cache):
    calls = []

    def compute():
        calls.append(1)
        return None

    assert cache.get_or_compute(("n",), compute) is None
    assert cache.get_or_compute(("n",), compute) is None
    assert len(calls) == 1


def test_disabled_cache_computes_every_time():
    cache = PathCache(enabled=False)
    calls = []
    for _ in range(3):
        cache.get_or_compute(("k",), lambda: calls.append(1))
    assert len(calls) == 3
    stats = cache.stats()
    assert stats["path_cache_skips"] == 3
    assert stats["path_cache_hits"] == 0
    assert stats["path_cache_entries"] == 0


def test_uncacheable_key_part_skips(cache):
    calls = []

    def compute():
        calls.append(1)
        return 42

    for _ in range(2):
        assert cache.get_or_compute(("k", print), compute) == 42
    assert len(calls) == 2
    assert cache.stats()["path_cache_skips"] == 2


def test_lru_eviction():
    cache = PathCache(max_entries=2)
    cache.get_or_compute(("a",), lambda: 1)
    cache.get_or_compute(("b",), lambda: 2)
    cache.get_or_compute(("a",), lambda: 1)  # refresh a's recency
    cache.get_or_compute(("c",), lambda: 3)  # evicts b
    stats = cache.stats()
    assert stats["path_cache_entries"] == 2
    assert stats["path_cache_evictions"] == 1
    calls = []
    cache.get_or_compute(("a",), lambda: calls.append("a"))
    assert calls == []  # a survived
    cache.get_or_compute(("b",), lambda: calls.append("b"))
    assert calls == ["b"]  # b was evicted and recomputed


def test_rng_stage_replays_value_and_stream_position(cache):
    """A hit restores the post-stage RNG state: downstream draws
    match an uncached run draw for draw."""

    def stage(rng):
        return cache.get_or_compute_rng(
            ("draws",), rng, lambda: rng.standard_normal(8)
        )

    rng_a = np.random.default_rng(3)
    value_a = stage(rng_a)
    downstream_a = rng_a.uniform(size=4)

    rng_b = np.random.default_rng(3)
    value_b = stage(rng_b)  # hit: replay + fast-forward
    downstream_b = rng_b.uniform(size=4)

    np.testing.assert_array_equal(value_b, value_a)
    np.testing.assert_array_equal(downstream_b, downstream_a)
    assert cache.stats()["path_cache_hits"] == 1


def test_rng_stage_distinct_stream_positions_miss(cache):
    rng = np.random.default_rng(3)
    first = cache.get_or_compute_rng(
        ("draws",), rng, lambda: rng.standard_normal(2)
    )
    # Same content, different stream position: must recompute.
    second = cache.get_or_compute_rng(
        ("draws",), rng, lambda: rng.standard_normal(2)
    )
    assert not np.array_equal(first, second)
    assert cache.stats()["path_cache_misses"] == 2


def test_clear_resets_entries_and_counters(cache):
    cache.get_or_compute(("x",), lambda: 1)
    cache.get_or_compute(("x",), lambda: 1)
    cache.clear()
    stats = cache.stats()
    assert stats == {
        "path_cache_hits": 0,
        "path_cache_misses": 0,
        "path_cache_entries": 0,
        "path_cache_evictions": 0,
        "path_cache_skips": 0,
    }


def test_global_configure_round_trip():
    cache = get_path_cache()
    prev_enabled = cache.enabled
    prev_max = cache.max_entries
    try:
        configure_path_cache(enabled=False, max_entries=7)
        assert get_path_cache() is cache
        assert not cache.enabled
        assert cache.max_entries == 7
        with pytest.raises(ValueError):
            configure_path_cache(max_entries=0)
    finally:
        configure_path_cache(enabled=prev_enabled, max_entries=prev_max)


def test_record_metrics_emits_all_keys_even_when_zero():
    before = path_cache_stats()
    metrics = MetricsRegistry()
    record_path_cache_metrics(metrics, before)
    summary = metrics.summary()
    for name in (
        "path_cache_hits",
        "path_cache_misses",
        "path_cache_skips",
        "path_cache_entries",
    ):
        assert name in summary  # present even with a zero delta


def test_record_metrics_reports_deltas_not_totals():
    cache = get_path_cache()
    prev_enabled = cache.enabled
    configure_path_cache(enabled=True)
    try:
        before = path_cache_stats()
        get_path_cache().get_or_compute(
            ("metrics-delta-probe",), lambda: 1
        )
        get_path_cache().get_or_compute(
            ("metrics-delta-probe",), lambda: 1
        )
        metrics = MetricsRegistry()
        record_path_cache_metrics(metrics, before)
        assert metrics.count("path_cache_misses") == 1
        assert metrics.count("path_cache_hits") == 1
    finally:
        configure_path_cache(enabled=prev_enabled)
