"""Compare two checkouts, or two result sets, metric by metric.

Usage::

    python bench/compare.py BASE HEAD [--workload NAME ...] [--pairs 10]
                            [--seed 0] [--trace] [--save DIR]

``BASE`` and ``HEAD`` are each a checkout (a directory holding
``bench/run.py``), which is run, or a result set (a JSON file written by
``--save``), which is read. Two checkouts run as ``--pairs`` pairs per
workload, alternating which side goes first; pair *i* runs both sides
on seed ``seed + i``, each for the ``run_seconds`` of this checkout's
``BENCHMARK.json``, so both sides do the same work.

For every (workload, metric) it prints each side's median and
quartiles, the spread (quartile distance over median), the change of
the medians (positive when HEAD is better), the pairs HEAD won, and a
verdict, using the metric's direction and bound from this checkout's
``BENCHMARK.json``:

- ``better``: HEAD wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than BASE's quartile
  distance;
- ``unresolved``: either side's spread is wider than the bound, and
  not every HEAD run beats every BASE run;
- ``WORSE``: HEAD's median is worse than BASE's by more than the bound;
- ``ok``: within the bound.

Exits 1 if any metric is WORSE or any run failed a check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

Record = Dict[str, Any]  # {"workload", "seed", "result"}


def run_once(
    checkout: Path, workload: str, seed: int, seconds: int, trace: bool
) -> Record:
    """One ``bench/run.py`` invocation in ``checkout``; its result line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(
        cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, timeout=600
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(
            f"{checkout}: {workload} seed {seed} exited {proc.returncode}"
        )
    return {"workload": workload, "seed": seed, "result": json.loads(lines[-1])}


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    base: List[float], head: List[float], better: str, bound: float
) -> Tuple[str, Dict[str, float]]:
    """Apply the pairs-and-bounds rule to one (workload, metric)."""
    sign = 1.0 if better == "higher" else -1.0
    b1, bm, b3 = quartiles(base)
    h1, hm, h3 = quartiles(head)
    stats = {
        "base_median": bm, "base_q1": b1, "base_q3": b3,
        "head_median": hm, "head_q1": h1, "head_q3": h3,
        "base_spread": (b3 - b1) / abs(bm) if bm else 0.0,
        "head_spread": (h3 - h1) / abs(hm) if hm else 0.0,
        # positive = HEAD better, as a share of BASE's median
        "change": sign * (hm - bm) / abs(bm) if bm else 0.0,
    }
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (h - b) > 0)
    stats["wins"] = wins
    if pairs and wins >= 0.9 * len(pairs) and sign * (hm - bm) > (b3 - b1):
        return "better", stats
    if max(stats["base_spread"], stats["head_spread"]) > bound:
        if min(sign * h for h in head) > max(sign * b for b in base):
            return "ok", stats  # every HEAD run beats every BASE run
        return "unresolved", stats
    if stats["change"] < -bound:
        return "WORSE", stats
    return "ok", stats


def _spread(stats: Dict[str, float], side: str) -> str:
    """``median [q1, q3]`` of one side."""
    return (
        f"{stats[side + '_median']:.6g} "
        f"[{stats[side + '_q1']:.6g}, {stats[side + '_q3']:.6g}]"
    )


def collect(
    args: argparse.Namespace, spec: Dict[str, Any]
) -> Dict[str, List[Record]]:
    """Each side's records: read from a result set, or run in pairs."""
    sides = {"base": Path(args.base), "head": Path(args.head)}
    sets: Dict[str, List[Record]] = {}
    to_run = []
    for side, path in sides.items():
        if path.is_file():
            sets[side] = json.loads(path.read_text())
        else:
            sets[side] = []
            to_run.append(side)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for i in range(args.pairs):
            seed = args.seed + i
            order = to_run if i % 2 == 0 else to_run[::-1]
            for side in order:
                record = run_once(
                    sides[side], workload, seed, spec["run_seconds"],
                    args.trace,
                )
                sets[side].append(record)
                print(f"{side} {workload} seed {seed}: done", file=sys.stderr)
    return sets


def report(
    sets: Dict[str, List[Record]], spec: Dict[str, Any], trace: bool
) -> int:
    """Print the comparison table; 1 if anything is WORSE or failed."""
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    status = 0
    workloads = sorted({r["workload"] for r in sets["base"]})
    print(
        f"{'workload':<12} {'metric':<14} {'base median [q1, q3]':<34} "
        f"{'head median [q1, q3]':<34} {'spread b/h':<13} {'change':>7} "
        f"{'wins':>5}  verdict"
    )
    for workload in workloads:
        runs = {
            side: sorted(
                (r for r in records if r["workload"] == workload),
                key=lambda r: r["seed"],
            )
            for side, records in sets.items()
        }
        for side, records in runs.items():
            failed = sum(r["result"]["failed"] for r in records)
            attempted = sum(r["result"]["attempted"] for r in records)
            if failed or not all(r["result"]["correct"] for r in records):
                status = 1
            print(
                f"{workload:<12} {side}: {len(records)} runs, fail_ratio "
                f"{failed}/{attempted}"
            )
        for metric in metrics:
            if "bound" not in metric:
                metric = dict(metric, bound=float("inf"))
            name = metric["name"]
            values = {
                side: [r["result"]["metrics"][name]["value"] for r in records]
                for side, records in runs.items()
            }
            if not values["base"] or not values["head"]:
                continue
            word, s = verdict(
                values["base"], values["head"], metric["better"],
                metric["bound"],
            )
            if word == "WORSE":
                status = 1
            print(
                f"{workload:<12} {name:<14} {_spread(s, 'base'):<34} "
                f"{_spread(s, 'head'):<34} "
                f"{s['base_spread']:6.1%}/{s['head_spread']:<6.1%} "
                f"{s['change']:+7.1%} {s['wins']:>2}/{len(values['head']):<2}"
                f"  {word} (bound {metric['bound']:g})"
            )
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--save", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = collect(args, spec)
    if args.save is not None:
        args.save.mkdir(parents=True, exist_ok=True)
        for side, records in sets.items():
            (args.save / f"{side}.json").write_text(
                json.dumps(records, indent=1) + "\n"
            )
    return report(sets, spec, args.trace)


if __name__ == "__main__":
    sys.exit(main())
