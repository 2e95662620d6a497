"""Shared metrics: counters and latency percentiles.

Just enough observability for a campaign or stream summary — jobs
run and failed, cache hits, records consumed, p50/p95 latencies —
without pulling in a metrics dependency. Thread-safe, since both the
runtime's worker pool and the stream gateway's consumers record from
many threads at once.

Durations go into fixed log-spaced buckets (ratio 2^(1/16), from
1 µs to 1000 s, plus one bucket each below and above), so a
long-running server's timers hold O(buckets) state however many
requests it serves, and reading a percentile walks the buckets
instead of sorting every observation. Each timer also keeps its
exact count, sum, min and max: totals are exact, and a reported
percentile is the upper edge of the bucket holding the nearest-rank
observation, clamped to [min, max] — never more than one bucket
ratio above the exact nearest-rank value, and never below it.

This started life as :mod:`repro.runtime.metrics`; it moved to
:mod:`repro.core` when the streaming subsystem needed the same
counters, so :mod:`repro.runtime` and :mod:`repro.stream` share one
implementation (the old import path still works as a re-export).
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Callable, Dict, List, Mapping, Tuple, Union

#: A read-time counter source: called on every ``count``/``summary``,
#: it returns counter name -> current total.
CounterSource = Callable[[], Mapping[str, int]]

#: Histogram bucket ratio and range, seconds.
BUCKET_RATIO = 2.0 ** (1.0 / 16.0)
_BUCKET_LO_S = 1e-6
_BUCKET_HI_S = 1e3

#: Bucket upper edges: bucket ``k`` holds durations in
#: ``(EDGES[k - 1], EDGES[k]]``; one more bucket past the last edge
#: holds anything longer.
BUCKET_EDGES_S = tuple(
    _BUCKET_LO_S * BUCKET_RATIO**k
    for k in range(
        math.ceil(math.log(_BUCKET_HI_S / _BUCKET_LO_S, BUCKET_RATIO)) + 1
    )
)


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile (p in [0, 100]) of a non-empty list."""
    if not values:
        raise ValueError("percentile of empty list")
    return sorted(values)[_rank(len(values), p)]


def _rank(n: int, p: float) -> int:
    """Zero-based nearest-rank index of percentile ``p`` among ``n``."""
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"p must be in [0, 100]: {p}")
    return max(0, min(n - 1, round(p / 100.0 * n) - 1))


class DurationHistogram:
    """Exact count/sum/min/max plus log-bucketed durations.

    Not locked on its own: :class:`MetricsRegistry` serializes access.
    """

    __slots__ = ("counts", "n", "total", "min", "max")

    def __init__(self) -> None:
        self.counts = [0] * (len(BUCKET_EDGES_S) + 1)
        self.n = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, duration_s: float) -> None:
        self.counts[bisect.bisect_left(BUCKET_EDGES_S, duration_s)] += 1
        self.n += 1
        self.total += duration_s
        if duration_s < self.min:
            self.min = duration_s
        if duration_s > self.max:
            self.max = duration_s

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, as its bucket's clamped upper edge."""
        if not self.n:
            raise ValueError("percentile of empty histogram")
        rank = _rank(self.n, p)
        seen = 0
        for k, count in enumerate(self.counts):
            seen += count
            if seen > rank:
                break
        edge = BUCKET_EDGES_S[k] if k < len(BUCKET_EDGES_S) else math.inf
        return min(max(edge, self.min), self.max)


class MetricsRegistry:
    """Named counters plus per-name duration histograms.

    Counters come from two places: :meth:`incr`, and read-time
    sources (:meth:`add_counter_source`) for components that already
    count their own events, such as the stream broker's queues. A
    source is read when a counter is, so the event it counts pays for
    no second lock. Sources are called outside the registry lock, and
    a source's zero totals are left out, like a counter never
    incremented.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._timers: Dict[str, DurationHistogram] = {}
        # Replaced, never mutated, so a reader needs no lock.
        self._sources: Tuple[CounterSource, ...] = ()

    def incr(self, name: str, by: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + by

    def add_counter_source(self, source: CounterSource) -> None:
        """Report ``source()``'s totals as counters from now on.

        A name that is also incremented reads as the sum of both.
        """
        with self._lock:
            self._sources = self._sources + (source,)

    def _sourced(self) -> Dict[str, int]:
        """Every source's nonzero totals, summed by name."""
        totals: Dict[str, int] = {}
        for source in self._sources:
            for name, value in source().items():
                if value:
                    totals[name] = totals.get(name, 0) + value
        return totals

    def count(self, name: str) -> int:
        sourced = self._sourced().get(name, 0)
        with self._lock:
            return self._counters.get(name, 0) + sourced

    def observe(self, name: str, duration_s: float) -> None:
        with self._lock:
            timer = self._timers.get(name)
            if timer is None:
                timer = self._timers[name] = DurationHistogram()
            timer.observe(duration_s)

    def summary(self) -> Dict[str, Union[int, float]]:
        """Flat dict: every counter, plus p50/p95/total per timer."""
        sourced = self._sourced()
        with self._lock:
            out: Dict[str, Union[int, float]] = dict(self._counters)
            for name, value in sourced.items():
                out[name] = out.get(name, 0) + value
            for name, timer in self._timers.items():
                out[f"{name}_p50_s"] = timer.percentile(50.0)
                out[f"{name}_p95_s"] = timer.percentile(95.0)
                out[f"{name}_total_s"] = timer.total
            return out
