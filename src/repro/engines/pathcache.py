"""Campaign-scoped, content-keyed path cache.

Node/tower/material layouts are static across a calibration campaign,
but the batch engines used to recompute ray geometry, obstruction
stacks, and penetration losses for every capture. This cache computes
each (sensor, emitter) chain exactly once per campaign and replays it
across captures, windows and repeated fleet runs. It lives in memory
only; reuse across processes happens at job granularity, through the
JSON result cache of :mod:`repro.runtime`.

Keys are blake2b content digests (:mod:`repro.engines.contentkey`)
over every input that determines the stage's output, including the
RNG bit-stream position for stages that consume randomness. A hit is
therefore bit-identical to the recompute by construction: if anything
that could change the answer changed, the key changed. Stages that
draw from the generator store their post-stage RNG state next to the
value and restore it on hit, so downstream draws stay in lockstep
with an uncached run (the draw-order discipline of
docs/performance.md).

Stage outputs that feed a later stage subclass :class:`StageValue`:
they carry the key that produced them, and a downstream key hashes
that short token instead of the arrays (a Merkle chain: the upstream
key already covers everything that determined the content). Their
arrays are read-only, so a token can never name arrays that changed
after keying; a value built outside the cache carries no key and
hashes its arrays instead.

The cache is process-global and thread-safe: campaign workers running
in a thread pool share entries. Campaigns scope their *stats* by
snapshotting the counters before and after a run; the entries
themselves survive, which is exactly the warm-run win.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.engines.contentkey import (
    UncacheableValue,
    capture_rng_state,
    content_key,
    restore_rng_state,
    rng_state_token,
)

#: Default bound on in-memory entries; oldest-used entries evict first.
DEFAULT_MAX_ENTRIES = 16384

#: Sentinel distinguishing "missing" from a cached ``None``.
_MISS = object()


class StageValue:
    """Mixin for dataclass stage outputs that feed another cached stage.

    ``key`` is the path-cache key the value was computed under, or
    ``None`` when it was built outside the cache (cache off, content
    that cannot be keyed, or by hand). Every field must be an array;
    all of them are made read-only on construction.
    """

    key: Optional[str] = None

    def __post_init__(self) -> None:
        for array in self.arrays():
            array.flags.writeable = False

    def arrays(self) -> Tuple[np.ndarray, ...]:
        return tuple(getattr(self, f.name) for f in dataclasses.fields(self))

    def content_token(self) -> Any:
        """The producing key, or the arrays themselves without one."""
        return self.key if self.key is not None else self.arrays()


class PathCache:
    """Thread-safe LRU of content-keyed stage results.

    Attributes are read through :meth:`stats`; entries are opaque to
    the cache (each call site stores whatever arrays/tuples its stage
    replays from).
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        enabled: bool = True,
    ) -> None:
        if max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1: {max_entries}"
            )
        self._lock = threading.Lock()
        self._local = threading.local()
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self.max_entries = max_entries
        self.enabled = enabled
        self._hits = 0
        self._misses = 0
        self._skips = 0
        self._evictions = 0

    # -- raw access -------------------------------------------------------

    def lookup(self, key: str) -> Any:
        """The entry for ``key``, or the module-private miss sentinel."""
        with self._lock:
            value = self._entries.get(key, _MISS)
            if value is not _MISS:
                self._entries.move_to_end(key)
                self._hits += 1
            else:
                self._misses += 1
            return value

    def store(self, key: str, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1

    # -- the main call-site API -------------------------------------------

    def stamping(self, compute: Callable[[], StageValue]) -> Callable:
        """Wrap a stage's ``compute`` to stamp its value with its key.

        The key is this thread's latest lookup — the one about to run
        ``compute`` — read before ``compute`` can make lookups of its
        own; ``None`` when that lookup was skipped.
        """

        def stamped() -> StageValue:
            key = getattr(self._local, "key", None)
            value = compute()
            value.key = key
            return value

        return stamped

    def _key_or_skip(self, key_parts: Tuple, rng=None) -> Optional[str]:
        """The content key, or ``None`` (skip counted) when uncached."""
        key = None
        if self.enabled:
            try:
                if rng is not None:
                    key_parts = (rng_state_token(rng),) + tuple(key_parts)
                key = content_key(*key_parts)
            except UncacheableValue:
                pass
        self._local.key = key
        if key is None:
            with self._lock:
                self._skips += 1
        return key

    def get_or_compute(
        self,
        key_parts: Tuple,
        compute: Callable[[], Any],
    ) -> Any:
        """The cached value for ``key_parts``, computing on miss.

        Content that cannot be hashed (:class:`UncacheableValue`)
        silently bypasses the cache — correctness first. When the
        cache is disabled every call computes and only the skip
        counter moves.
        """
        key = self._key_or_skip(key_parts)
        if key is None:
            return compute()
        value = self.lookup(key)
        if value is not _MISS:
            return value
        value = compute()
        self.store(key, value)
        return value

    def get_or_compute_rng(
        self,
        key_parts: Tuple,
        rng,
        compute: Callable[[], Any],
    ) -> Any:
        """Like :meth:`get_or_compute` for RNG-consuming stages.

        The generator's exact bit-stream position joins the key, and
        the post-stage state is stored next to the value; a hit
        replays the value AND advances ``rng`` to that state, so
        downstream draws stay in lockstep with an uncached run.
        """
        key = self._key_or_skip(key_parts, rng)
        if key is None:
            return compute()
        entry = self.lookup(key)
        if entry is not _MISS:
            value, post_state = entry
            restore_rng_state(rng, post_state)
            return value
        value = compute()
        self.store(key, (value, capture_rng_state(rng)))
        return value

    # -- observability -----------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Counter snapshot: hits/misses/entries and friends."""
        with self._lock:
            return {
                "path_cache_hits": self._hits,
                "path_cache_misses": self._misses,
                "path_cache_entries": len(self._entries),
                "path_cache_evictions": self._evictions,
                "path_cache_skips": self._skips,
            }

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0
            self._skips = 0
            self._evictions = 0


# ---------------------------------------------------------------------------
# The process-global cache instance and its configuration surface.

_GLOBAL = PathCache()
_GLOBAL_LOCK = threading.Lock()


def get_path_cache() -> PathCache:
    """The process-global path cache every pipeline stage consults."""
    return _GLOBAL


def configure_path_cache(
    enabled: Optional[bool] = None,
    max_entries: Optional[int] = None,
    clear: bool = False,
) -> PathCache:
    """Adjust the global cache; ``None`` leaves a setting unchanged.

    ``clear=True`` drops entries and counters first — what a test or
    a cold-start benchmark round uses to re-establish a cold cache.
    """
    with _GLOBAL_LOCK:
        if clear:
            _GLOBAL.clear()
        if enabled is not None:
            _GLOBAL.enabled = enabled
        if max_entries is not None:
            if max_entries < 1:
                raise ValueError(
                    f"max_entries must be >= 1: {max_entries}"
                )
            _GLOBAL.max_entries = max_entries
        return _GLOBAL


def path_cache_stats() -> Dict[str, int]:
    """Stats of the global cache (convenience for metrics surfaces)."""
    return _GLOBAL.stats()


def record_path_cache_metrics(metrics, before: Dict[str, int]) -> None:
    """Fold the per-campaign stats delta into a MetricsRegistry.

    ``before`` is a :meth:`PathCache.stats` snapshot taken when the
    campaign started; the entry count is recorded absolute, the
    counters as deltas, so each campaign reports its own cache
    effectiveness even though the cache itself is process-global.
    """
    after = _GLOBAL.stats()
    for name in (
        "path_cache_hits",
        "path_cache_misses",
        "path_cache_skips",
    ):
        # Always emit, even when zero, so fleet --json and the serve
        # snapshots carry the keys on every run.
        metrics.incr(name, after[name] - before.get(name, 0))
    metrics.incr(
        "path_cache_entries", after["path_cache_entries"]
    )
