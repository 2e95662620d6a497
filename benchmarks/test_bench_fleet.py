"""Fleet benchmark: the §2 marketplace vision end to end.

Three timed variants of the same 12-node campaign:

- **warm** — the path cache (:mod:`repro.engines`) is primed by a
  setup run, so every timed round replays cached stage results. This
  is the steady-state cost of re-running a fleet whose layout has not
  changed.
- **cold** — the cache is cleared in the per-round setup hook (setup
  time is excluded from the timing), so every round pays full stage
  computation plus key hashing.
- **cache-off** — the baseline pipeline with the cache disabled.

The timed region is only ``fleet.run_fleet``; world construction and
cache (re)priming happen in setup, so rounds are comparable and
pytest-benchmark's ``min_rounds=5`` produces real statistics instead
of the single-round numbers this file used to emit.

``test_fleet_path_cache_speedup`` times warm-vs-off explicitly and
asserts a ≥2x floor while checking the marketplace is bit-identical
across all cache modes.
"""

import time

from repro.engines import configure_path_cache, path_cache_stats
from repro.experiments import fleet

#: Rounds for the explicit warm/off comparison (min-of-N timing).
_COMPARE_ROUNDS = 3

#: Warm fleet re-runs are at least this much faster than the cache-off
#: baseline. The floor follows the measured cold path: with the
#: squitter schedule and the kNN field of view vectorized, a cache-off
#: campaign takes ~0.2 s against ~0.07 s warm (2.3-2.8x), so the cache
#: saves less than when compute was ~0.6 s (the old 5x floor).
_TARGET_SPEEDUP_X = 2.0


def _assert_marketplace(result) -> None:
    """The §2 invariants every variant must reproduce."""
    # Both cheating operators rejected, nobody honest rejected.
    assert result.rejected() == result.cheaters
    market = result.marketplace()
    # Healthy rooftops occupy the podium...
    top3 = {a.node_id for a in market[:3]}
    assert top3 == {"rooftop-0", "rooftop-1", "rooftop-2"}
    # ...and the damaged rooftop ranks below every healthy rooftop.
    ranks = {a.node_id: i for i, a in enumerate(market)}
    assert ranks["rooftop-3"] > max(
        ranks[f"rooftop-{i}"] for i in range(3)
    )


def test_fleet_marketplace_warm(benchmark, world):
    configure_path_cache(enabled=True, clear=True)
    fleet.run_fleet(world=world)  # prime: timed rounds replay the cache

    result = benchmark.pedantic(
        fleet.run_fleet,
        kwargs={"world": world},
        rounds=5,
        iterations=1,
    )
    print("\nCalibrated fleet marketplace:")
    print(fleet.format_marketplace(result))
    _assert_marketplace(result)


def test_fleet_marketplace_cold(benchmark, world):
    def setup():
        # Re-establish a cold cache outside the timed region.
        configure_path_cache(enabled=True, clear=True)
        return (), {"world": world}

    result = benchmark.pedantic(
        fleet.run_fleet, setup=setup, rounds=5, iterations=1
    )
    _assert_marketplace(result)


def test_fleet_marketplace_cache_off(benchmark, world):
    configure_path_cache(enabled=False)
    try:
        result = benchmark.pedantic(
            fleet.run_fleet,
            kwargs={"world": world},
            rounds=5,
            iterations=1,
        )
    finally:
        configure_path_cache(enabled=True)
    _assert_marketplace(result)


def test_fleet_path_cache_speedup(bench_record, world):
    """Warm campaign reruns beat the uncached baseline by ≥2x."""

    def timed(n_rounds):
        best = float("inf")
        result = None
        for _ in range(n_rounds):
            t0 = time.perf_counter()
            result = fleet.run_fleet(world=world)
            best = min(best, time.perf_counter() - t0)
        return best, result

    configure_path_cache(enabled=False)
    try:
        off_s, off_result = timed(_COMPARE_ROUNDS)
    finally:
        configure_path_cache(enabled=True)

    configure_path_cache(enabled=True, clear=True)
    t0 = time.perf_counter()
    cold_result = fleet.run_fleet(world=world)
    cold_s = time.perf_counter() - t0

    warm_s, warm_result = timed(_COMPARE_ROUNDS)
    stats = path_cache_stats()
    speedup = off_s / warm_s

    bench_record(
        cache_off_min_s=off_s,
        cold_s=cold_s,
        warm_min_s=warm_s,
        speedup_x=speedup,
        path_cache_hits=stats["path_cache_hits"],
        path_cache_entries=stats["path_cache_entries"],
    )
    print(
        f"\nfleet campaign: cache-off {off_s:.3f}s, cold {cold_s:.3f}s, "
        f"warm {warm_s:.3f}s ({speedup:.1f}x)"
    )

    # Bit-identity: the cache must never change results.
    def marketplace(result):
        return [
            (a.node_id, a.report.overall_score(), a.trust.trust_score())
            for a in result.marketplace()
        ]

    assert marketplace(off_result) == marketplace(cold_result)
    assert marketplace(off_result) == marketplace(warm_result)
    assert speedup >= _TARGET_SPEEDUP_X
