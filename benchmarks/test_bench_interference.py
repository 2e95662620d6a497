"""Shared-medium collision resolution: the ISSUE-7 speedup proof.

Builds a 1-second dense-airspace event buffer (times, frame
durations, received powers — the exact inputs the evaluators hand the
collision model) and times ``resolve_collisions`` against its scalar
oracle, asserting the vectorized kernel (cumulative-max clustering +
bincount aggregation + array capture rule) stays >= 5x ahead. The
comparison first checks both implementations produce the same decode
mask and collision statistics, then records timings and the ratio
into ``BENCH_interference.json``. The full interference-enabled
directional evaluation is timed alongside for context (there the
shared decode/ground-truth tail bounds the end-to-end ratio).
"""

import time

import numpy as np

from repro.batch.links import batch_received_power_dbm
from repro.batch.geomcache import batch_rays
from repro.batch.schedule import build_batch_squitters
from repro.core.directional import (
    ADSB_BANDWIDTH_HZ,
    DECODE_SNR_DB,
    DirectionalEvaluator,
)
from repro.environment.links import ADSB_FREQ_HZ, AdsbLinkModel
from repro.experiments.common import build_world
from repro.interference import (
    InterferenceConfig,
    frame_durations_s,
    resolve_collisions,
    resolve_collisions_scalar,
)

#: Tentpole target (ISSUE 7 acceptance criteria).
KERNEL_TARGET_X = 5.0


def _best_of(fn, rounds):
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def _dense_buffer(world, duration_s=1.0):
    """The collision model's inputs for a 1 s dense-urban capture."""
    node = world.node_at("rooftop")
    link = AdsbLinkModel(
        env=node.environment, rx_antenna=node.antenna
    )
    rng = np.random.default_rng(1)
    squitters = build_batch_squitters(
        world.traffic, 0.0, duration_s, rng
    )
    rays = batch_rays(
        node.environment.position,
        node.environment.obstruction_map,
        ADSB_FREQ_HZ,
        squitters,
    )
    rx_dbm = batch_received_power_dbm(
        node.environment,
        node.antenna,
        squitters,
        rays,
        rng,
        link.rician_k_db,
        link.coherence_time_s,
    ).dbm
    return (
        squitters.time_s,
        frame_durations_s(squitters.kind_idx),
        rx_dbm,
        node.sdr.noise_floor_dbm(ADSB_BANDWIDTH_HZ) + DECODE_SNR_DB,
        node.sdr.noise_floor_dbm(ADSB_BANDWIDTH_HZ),
    )


def test_bench_collision_kernel_speedup(bench_record):
    world = build_world(traffic_preset="dense-urban")
    time_s, duration_s, rx_dbm, threshold, noise = _dense_buffer(
        world
    )
    margin_db = 10.0

    # Equivalence first: the timings compare identical work.
    mask_v, stats_v = resolve_collisions(
        time_s, duration_s, rx_dbm, threshold, noise, margin_db
    )
    mask_s, stats_s = resolve_collisions_scalar(
        time_s.tolist(),
        duration_s.tolist(),
        rx_dbm.tolist(),
        threshold,
        noise,
        margin_db,
    )
    assert mask_v.tolist() == mask_s
    assert stats_v == stats_s
    assert stats_v.n_contested > 0

    t_scalar = _best_of(
        lambda: resolve_collisions_scalar(
            time_s.tolist(),
            duration_s.tolist(),
            rx_dbm.tolist(),
            threshold,
            noise,
            margin_db,
        ),
        rounds=5,
    )
    t_batch = _best_of(
        lambda: resolve_collisions(
            time_s, duration_s, rx_dbm, threshold, noise, margin_db
        ),
        rounds=10,
    )
    speedup = t_scalar / t_batch
    bench_record(
        workload=(
            "collision resolution, dense-urban 1 s buffer, seed 1"
        ),
        scalar_min_s=t_scalar,
        vectorized_min_s=t_batch,
        speedup_x=speedup,
        target_x=KERNEL_TARGET_X,
        n_events=stats_v.n_events,
        n_contested=stats_v.n_contested,
        collision_rate=stats_v.collision_rate,
    )
    print(
        f"\ncollision kernel: scalar {t_scalar * 1e3:.2f} ms, "
        f"batch {t_batch * 1e3:.2f} ms, {speedup:.1f}x "
        f"({stats_v.collision_rate:.1%} contested)"
    )
    assert speedup >= KERNEL_TARGET_X


def test_bench_directional_with_interference(bench_record):
    # End-to-end context: the full 1 s dense-urban evaluation with
    # collisions on, both paths. The shared tail (frame decode,
    # ground-truth query) bounds this ratio well below the kernel's.
    world = build_world(traffic_preset="dense-urban")

    def _evaluator(use_batch):
        return DirectionalEvaluator(
            node=world.node_at("rooftop"),
            traffic=world.traffic,
            ground_truth=world.ground_truth,
            duration_s=1.0,
            ground_truth_query_s=0.5,
            use_batch=use_batch,
            interference=InterferenceConfig(enabled=True),
        )

    def _run(evaluator):
        for ac in world.traffic.aircraft:
            ac.transponder._odd_next = False
        return evaluator.run(np.random.default_rng(1))

    scan_s = _run(_evaluator(False))
    scan_b = _run(_evaluator(True))
    assert (
        scan_b.decoded_message_count == scan_s.decoded_message_count
    )
    assert scan_b.collision_stats == scan_s.collision_stats

    t_scalar = _best_of(lambda: _run(_evaluator(False)), rounds=3)
    t_batch = _best_of(lambda: _run(_evaluator(True)), rounds=5)
    bench_record(
        workload=(
            "dense-urban 1 s directional scan with collisions, seed 1"
        ),
        scalar_min_s=t_scalar,
        vectorized_min_s=t_batch,
        speedup_x=t_scalar / t_batch,
        decoded_messages=scan_s.decoded_message_count,
        collision_rate=scan_s.collision_stats.collision_rate,
    )
    print(
        f"\nend-to-end with collisions: scalar "
        f"{t_scalar * 1e3:.1f} ms, batch {t_batch * 1e3:.1f} ms, "
        f"{t_scalar / t_batch:.1f}x"
    )
