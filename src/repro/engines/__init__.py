"""The content-keyed path cache of the batch pipeline.

:mod:`repro.engines.pathcache` replays content-keyed stage results so
each (sensor, emitter) ray/obstruction/penetration chain is computed
exactly once per campaign. Reuse never changes results: keys
(:mod:`repro.engines.contentkey`) cover every input that determines a
stage's output, including RNG bit-stream position. The same keys
address the runtime's job results
(:meth:`repro.runtime.jobs.CalibrationJob.content_key`).
"""

from repro.engines.contentkey import (
    UncacheableValue,
    capture_rng_state,
    content_key,
    restore_rng_state,
    rng_state_token,
)
from repro.engines.pathcache import (
    PathCache,
    configure_path_cache,
    get_path_cache,
    path_cache_stats,
    record_path_cache_metrics,
)

__all__ = [
    "PathCache",
    "UncacheableValue",
    "capture_rng_state",
    "configure_path_cache",
    "content_key",
    "get_path_cache",
    "path_cache_stats",
    "record_path_cache_metrics",
    "restore_rng_state",
    "rng_state_token",
]
