"""Runtime benchmark: serial vs parallel vs cache-warm fleet runs.

Compares the three execution paths of the fleet-calibration runtime
on the standard 12-node fleet: workers=1 (the serial degenerate
case), workers=4 on a thread pool, and a second run against a warm
result cache. The serial and thread-pool runs each start on a cleared
path cache, so both are cold whatever ran before them. Parallel must
not lose to serial and must produce bit-identical assessments; the
warm run must restore (nearly) the whole fleet from cache without
recomputation.
"""

import os
import time

from repro.core.serialize import assessment_to_json
from repro.engines import configure_path_cache
from repro.runtime.campaign import CampaignConfig, run_fleet_campaign


def _timed_run(**kwargs):
    start = time.perf_counter()
    result = run_fleet_campaign(**kwargs)
    return result, time.perf_counter() - start


def test_runtime_fleet_paths(benchmark, world, tmp_path):
    configure_path_cache(enabled=True, clear=True)
    serial, serial_s = _timed_run(
        world=world, config=CampaignConfig(workers=1)
    )

    configure_path_cache(enabled=True, clear=True)
    parallel, parallel_s = _timed_run(
        world=world, config=CampaignConfig(workers=4)
    )

    cache_dir = str(tmp_path / "cache")
    _timed_run(world=world, config=CampaignConfig(cache_dir=cache_dir))
    warm, warm_s = benchmark.pedantic(
        lambda: _timed_run(
            world=world, config=CampaignConfig(cache_dir=cache_dir)
        ),
        rounds=1,
        iterations=1,
    )

    benchmark.extra_info["serial_s"] = round(serial_s, 3)
    benchmark.extra_info["parallel_4_s"] = round(parallel_s, 3)
    benchmark.extra_info["cache_warm_s"] = round(warm_s, 3)
    print(
        f"\nserial {serial_s:.2f}s | 4 workers {parallel_s:.2f}s"
        f" | cache-warm {warm_s:.2f}s"
    )

    # Same fleet, same seeds: parallel execution must be bit-identical
    # to the serial path.
    assert set(parallel.assessments) == set(serial.assessments)
    for node_id, assessment in serial.assessments.items():
        assert assessment_to_json(
            parallel.assessments[node_id]
        ) == assessment_to_json(assessment)

    # Threads must not lose to serial. On a single-core box there is
    # no speedup to win, only scheduling overhead to bound, so the
    # allowed overhead depends on the machine running the benchmark.
    headroom = 1.05 if (os.cpu_count() or 1) >= 4 else 1.35
    assert parallel_s <= serial_s * headroom

    # Warm cache restores the whole fleet without recomputation.
    assert warm.metrics["cache_hits"] >= 11
    assert warm.metrics.get("jobs_done", 0) == 0
    assert warm_s < serial_s / 2
