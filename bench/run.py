"""Run the benchmark: each workload in a fresh, cold subprocess.

Usage::

    python bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without ``--workload`` every workload runs in turn. For each workload
this prints one ``metric workload value unit`` line per metric, then
the result as one JSON object (the last line of output)::

    {"correct": true, "attempted": 240, "failed": 0,
     "metrics": {"ops_per_s": {"value": 21.7, "unit": "1/s"}, ...}}

``--seconds`` sets the run length: each workload does ``seconds`` times
its fixed rate of rounds, whatever the host's speed. It defaults to
``run_seconds`` of ``BENCHMARK.json``; results are comparable only at
one value, and ``compare.py`` always passes ``run_seconds``.

``--trace 0`` (the default) reports the end-to-end metrics of
``BENCHMARK.json``. ``--trace 1`` reports its per-layer metrics: the
workload runs once untraced and once traced, each in its own process,
and the difference is the tracing overhead; spans go to
``bench/out/trace-<workload>.json``.

The process exits non-zero, without a result line, if a child fails,
and exits 1 after printing the result if any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from hostspeed import REFERENCE_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: Setups timed per end-to-end run; ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: Every child of one workload must be done by then.
DEADLINE_S = 170.0


def _spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# child: one workload in this process


def _child(args: argparse.Namespace) -> int:
    import resource

    import workloads
    from spans import Tracer

    workload = workloads.WORKLOADS[args.workload]
    state = workload.setup(args.seed, workload.count(args.seconds))
    print("ready", flush=True)
    if args.setup_only:
        return 0
    tracer = Tracer() if args.trace else None
    if tracer is None:
        outcome = workload.run(state)
    else:
        with tracer:
            outcome = workload.run(state, tracer)
    for failure in outcome.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    result = {
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "digest": outcome.digest,
        "work": outcome.work,
        "layer": outcome.layer,
        **workloads.summarize(outcome),
        "ops": len(outcome.ops),
        "batches": len(outcome.batches),
        "tail_percentile": workloads.tail_percentile(len(outcome.ops)),
        "task_ms": outcome.speed.task_ms(),
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer is not None:
        summary = tracer.summary()
        result["trace"] = summary
        tracer.write(OUT / f"trace-{args.workload}.json", summary)
    print(json.dumps(result), flush=True)
    return 0


# ---------------------------------------------------------------------------
# parent: spawn children, collect metrics


class ChildFailed(RuntimeError):
    """A child process exited non-zero or overran the deadline."""


def _spawn(
    workload: str,
    seed: int,
    seconds: float,
    trace: int,
    setup_only: bool,
    deadline: float,
) -> Tuple[float, Optional[Dict[str, Any]]]:
    """Run one child; returns (set-up seconds, its result or None).

    Set-up is timed from ``Popen`` to the child's ``ready`` line, so it
    includes interpreter start and imports.
    """
    cmd = [
        sys.executable,
        str(BENCH / "run.py"),
        "--child",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Same hashing on every run, and single-threaded numeric kernels:
    # the load is one closed-loop client on one thread.
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    started = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    # Kills a child that overruns, even one stuck before "ready".
    timer = threading.Timer(
        max(deadline - time.perf_counter(), 1.0), proc.kill
    )
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or first.strip() != "ready":
        raise ChildFailed(f"{workload}: child exited {proc.returncode}")
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def _end_to_end(
    workload: str, seed: int, seconds: float, deadline: float
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    setups = [
        _spawn(workload, seed, seconds, 0, True, deadline)[0]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    setup_s, result = _spawn(workload, seed, seconds, 0, False, deadline)
    setups.append(setup_s)
    tail = result["tail_percentile"]
    fastest, median, slowest = result["task_ms"]
    print(
        f"{workload}: {result['ops']} ops, {result['batches']} batches; "
        f"op_ms_tail is " + ("the slowest op" if tail is None else f"p{tail:g}")
        + f"; reference task {median:.2f} ms (range {fastest:.2f}-"
        f"{slowest:.2f}), times scaled to {REFERENCE_S * 1e3:.2f} ms; "
        f"set-up {statistics.median(setups):.3f} s unscaled",
        file=sys.stderr,
    )
    values = {
        # One set-up is one long interval with no samples inside it, so
        # it is scaled by the run's median speed: the host's state over
        # the minute around it, not a burst at either end.
        "setup_s": statistics.median(setups) * REFERENCE_S / (median / 1e3),
        "peak_rss_mb": result["peak_rss_mb"],
        "ops_per_s": result["ops_per_s"],
        "op_ms_p50": result["op_ms_p50"],
        "op_ms_tail": result["op_ms_tail"],
        "batch_ms": result["batch_ms"],
    }
    return values, result


def _per_layer(
    workload: str, seed: int, seconds: float, deadline: float
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    from spans import LAYER_NAMES, PATH_CACHE_STAGES, ROOT as ROOT_SPAN

    _, plain = _spawn(workload, seed, seconds, 0, False, deadline)
    _, result = _spawn(workload, seed, seconds, 1, False, deadline)
    trace = result["trace"]
    counts = trace["counts"]
    values: Dict[str, float] = {}
    for name in LAYER_NAMES:
        values[f"{name}.self_pct"] = trace["layers"][name]["self_pct"]
        values[f"{name}.calls"] = trace["layers"][name]["calls"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values["batch.frames.pass_ratio"] = ratio(
        counts.get("batch.frames.frames", 0),
        counts.get("batch.schedule.squitters", 0),
    )
    values["adsb.decoder.yield"] = ratio(
        counts.get("adsb.decoder.decoded", 0),
        counts.get("batch.frames.frames", 0),
    )
    all_hits = all_calls = 0
    for stage in PATH_CACHE_STAGES:
        hits = counts.get(f"engines.pathcache.{stage}.hits", 0)
        calls = hits + counts.get(f"engines.pathcache.{stage}.misses", 0)
        values[f"engines.pathcache.{stage}.hit_ratio"] = ratio(hits, calls)
        all_hits += hits
        all_calls += calls
    values["engines.pathcache.hit_ratio"] = ratio(all_hits, all_calls)
    for name in (
        "core.network.false_rejects",
        "stream.broker.max_depth",
        "adsb.sbs.malformed_ratio",
        "stream.drift.events",
        "serve.cache.hit_ratio",
    ):
        values[name] = result["layer"].get(name, 0)
    values["trace.wall_s"] = trace["wall_s"]
    # Both throughputs are at the reference speed, so the host's speed
    # changing between the two runs does not count as overhead.
    values["trace.overhead_pct"] = 100.0 * (
        plain["ops_per_s"] / result["ops_per_s"] - 1.0
    )
    print(
        f"{workload}: traced layers cover "
        f"{100.0 - values[f'{ROOT_SPAN}.self_pct']:.2f} % of the traced "
        f"wall; tracing overhead {values['trace.overhead_pct']:+.1f} %",
        file=sys.stderr,
    )
    if result["digest"] != plain["digest"]:
        result["failed"] += 1
        print(f"{workload}: traced output differs", file=sys.stderr)
    return values, result


def _report(
    workload: str, values: Dict[str, float], units: Dict[str, str], result
) -> Dict[str, Any]:
    for name, unit in units.items():
        print(f"{name} {workload} {values[name]!r} {unit}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--setup-only", action="store_true", help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)
    if args.child:
        return _child(args)

    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    measure = _per_layer if args.trace else _end_to_end
    status = 0
    for workload in [args.workload] if args.workload else names:
        deadline = time.perf_counter() + DEADLINE_S
        try:
            values, result = measure(workload, args.seed, seconds, deadline)
        except ChildFailed as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 2
        missing = set(units) - set(values)
        if missing:
            print(f"metrics not measured: {sorted(missing)}", file=sys.stderr)
            return 2
        record = _report(workload, values, units, result)
        print(json.dumps(record), flush=True)
        if not record["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
