"""Metrics registry: counters and bounded duration histograms."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.core.metrics import (
    BUCKET_EDGES_S,
    BUCKET_RATIO,
    DurationHistogram,
    MetricsRegistry,
    percentile,
)


class TestPercentile:
    def test_nearest_rank(self):
        assert percentile([3.0, 1.0, 2.0, 4.0], 50.0) == 2.0
        assert percentile([3.0, 1.0, 2.0, 4.0], 100.0) == 4.0
        assert percentile([5.0], 0.0) == 5.0

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)


class TestHistogram:
    def test_million_observations_keep_constant_state(self):
        registry = MetricsRegistry()
        rng = np.random.default_rng(0)
        values = rng.lognormal(-8.0, 2.0, size=1000).tolist()
        for k in range(900_000):
            registry.observe("t", values[k % 1000])
        # Trace only the last 100k calls. A histogram holds one live
        # int per bucket counter (a few dozen bytes each), while a list
        # of every duration would grow by ~800 kB.
        tracemalloc.start()
        try:
            for k in range(100_000):
                registry.observe("t", values[k % 1000])
            grown, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grown < 64 * len(BUCKET_EDGES_S)
        timer = registry._timers["t"]
        assert len(timer.counts) == len(BUCKET_EDGES_S) + 1
        assert timer.n == sum(timer.counts) == 1_000_000

    @pytest.mark.parametrize("seed", range(5))
    def test_percentiles_within_one_bucket_ratio(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.lognormal(
            mean=rng.uniform(-10.0, 0.0), sigma=rng.uniform(0.1, 2.5),
            size=int(rng.integers(1, 5000)),
        ).tolist()
        registry = MetricsRegistry()
        for v in values:
            registry.observe("req", v)
        summary = registry.summary()
        for p in (50.0, 95.0):
            exact = percentile(values, p)
            got = summary[f"req_p{p:.0f}_s"]
            assert exact <= got < exact * BUCKET_RATIO
            assert min(values) <= got <= max(values)
        assert summary["req_total_s"] == sum(values)

    def test_values_outside_the_bucket_range_clamp_to_min_max(self):
        hist = DurationHistogram()
        for v in (0.0, 1e-9, 5e4):
            hist.observe(v)
        # Both small values share the first bucket (upper edge 1 µs).
        assert hist.percentile(0.0) == BUCKET_EDGES_S[0]
        assert hist.percentile(50.0) == BUCKET_EDGES_S[0]
        assert hist.percentile(100.0) == 5e4
        tiny = DurationHistogram()
        tiny.observe(1e-9)
        assert tiny.percentile(50.0) == 1e-9

    def test_single_value_is_exact(self):
        hist = DurationHistogram()
        hist.observe(0.0123)
        assert hist.percentile(50.0) == 0.0123
        assert hist.percentile(95.0) == 0.0123

    def test_empty_histogram_raises(self):
        with pytest.raises(ValueError):
            DurationHistogram().percentile(50.0)

    def test_edges_are_log_spaced(self):
        ratios = np.diff(np.log(BUCKET_EDGES_S))
        assert np.allclose(ratios, math.log(BUCKET_RATIO))
        assert BUCKET_EDGES_S[0] == 1e-6 and BUCKET_EDGES_S[-1] >= 1e3


class TestRegistry:
    def test_summary_keys(self):
        registry = MetricsRegistry()
        registry.incr("jobs", 3)
        registry.observe("latency", 0.5)
        assert registry.summary() == {
            "jobs": 3,
            "latency_p50_s": 0.5,
            "latency_p95_s": 0.5,
            "latency_total_s": 0.5,
        }

    def test_concurrent_observers_lose_no_counts(self):
        registry = MetricsRegistry()
        n_threads, per_thread, n_timers = 8, 4_000, 1_000
        barrier = threading.Barrier(n_threads)

        def observer(k):
            barrier.wait()
            # Every thread creates every timer at about the same time,
            # so a racy first observation would drop a histogram.
            for i in range(per_thread):
                registry.observe(f"t{i % n_timers}", 1e-4 * (1 + k))
                registry.incr("n")

        threads = [
            threading.Thread(target=observer, args=(k,))
            for k in range(n_threads)
        ]
        # Switch threads as often as possible so unlocked updates
        # would actually interleave.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        timers = registry._timers
        assert len(timers) == n_timers
        assert sum(t.n for t in timers.values()) == n_threads * per_thread
        assert all(t.n == sum(t.counts) for t in timers.values())
        assert registry.count("n") == n_threads * per_thread
        summary = registry.summary()
        total = sum(summary[f"t{j}_total_s"] for j in range(n_timers))
        expected = sum(1e-4 * (1 + k) for k in range(n_threads))
        assert total == pytest.approx(expected * per_thread)

    def test_counter_sources_are_read_at_read_time(self):
        registry = MetricsRegistry()
        totals = {"queued": 0, "shed": 0}
        registry.add_counter_source(lambda: dict(totals))
        # A source's zero totals stay absent, like an untouched counter.
        assert registry.summary() == {}
        assert registry.count("queued") == 0
        totals["queued"] = 5
        registry.incr("queued", 2)
        registry.incr("jobs")
        assert registry.summary() == {"jobs": 1, "queued": 7}
        assert registry.count("queued") == 7
        assert registry.count("shed") == 0
        registry.add_counter_source(lambda: {"shed": 3, "queued": 1})
        assert registry.summary() == {"jobs": 1, "queued": 8, "shed": 3}
        assert registry.count("shed") == 3

    def test_sources_run_outside_the_registry_lock(self):
        registry = MetricsRegistry()

        def source():
            # Would deadlock if the registry held its lock here.
            registry.incr("source_reads")
            return {"seen": 1}

        registry.add_counter_source(source)
        thread = threading.Thread(
            target=lambda: (registry.summary(), registry.count("seen")),
            daemon=True,
        )
        thread.start()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert registry.count("source_reads") == 3
