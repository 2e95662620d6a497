"""Tests of the benchmark harness itself (not part of tier-1).

Run from the repository root with ``PYTHONPATH=src python -m pytest bench/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import hostspeed
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Small enough that every workload runs its minimum count.
TINY_S = 0.1


@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def runs(request):
    """(untraced, untraced again, traced, tracer) on one seed."""
    name = request.param
    first = workloads.run(name, seed=3, seconds=TINY_S)
    again = workloads.run(name, seed=3, seconds=TINY_S)
    tracer = spans.Tracer()
    traced = workloads.run(name, seed=3, seconds=TINY_S, tracer=tracer)
    return first, again, traced, tracer


def test_tiny_run_passes_its_checks(runs):
    first, _, _, _ = runs
    assert first.failures == []
    assert first.failed == 0
    assert first.attempted >= 1


def test_same_seed_does_the_same_work(runs):
    first, again, _, _ = runs
    assert first.work == again.work
    assert first.digest == again.digest


def test_traced_output_equals_untraced(runs):
    first, _, traced, _ = runs
    assert traced.digest == first.digest
    assert traced.work == first.work


def test_self_times_partition_the_traced_wall(runs):
    _, _, _, tracer = runs
    summary = tracer.summary()
    total = sum(layer["self_s"] for layer in summary["layers"].values())
    assert total == pytest.approx(summary["wall_s"], rel=1e-9)
    assert summary["layers"][spans.ROOT]["calls"] >= 1


def _bindings():
    """Every repro module attribute, plus every traced class member."""
    out = {}
    for module in spans._repro_modules():
        for name, value in vars(module).items():
            out[(module.__name__, name)] = value
    for target, _, _ in spans.LAYERS:
        _, cls, attr = spans._resolve(target)
        if cls is not None:
            out[(cls.__qualname__, attr)] = cls.__dict__[attr]
    return out


def test_tracer_restores_every_patched_attribute():
    import repro.core.serialize as serialize

    before = _bindings()
    original = serialize.network_to_json
    with spans.Tracer():
        assert serialize.network_to_json is not original
    assert serialize.network_to_json is original
    after = _bindings()
    changed = [k for k in before if after.get(k) is not before[k]]
    assert changed == []


def test_times_scale_to_the_reference_speed():
    speed = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE_S
    speed.samples = [(0.0, ref), (10.0, 3.0 * ref)]
    # Midpoint 5 s: the task ran at twice its reference time.
    assert speed.scale([(4.0, 2.0)]) == pytest.approx([1.0])
    # Past the last sample the last speed holds.
    assert speed.scale([(20.0, 3.0), (0.0, 0.0)]) == pytest.approx([1.0, 0.0])


def test_verdict_rule():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
    faster = [b * 1.2 for b in base]
    assert compare.verdict(base, faster, "higher", 0.1)[0] == "better"
    assert compare.verdict(base, faster, "lower", 0.1)[0] == "WORSE"
    assert compare.verdict(base, list(base), "lower", 0.1)[0] == "ok"
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
    assert compare.verdict(base, noisy, "lower", 0.1)[0] == "unresolved"


def _cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fleet_rerun",
         "--seconds", str(TINY_S), *args],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_every_metric_of_its_group(trace):
    proc = _cli(ROOT, "--trace", trace)
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    group = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in group}
    for metric in group:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace == "1":
        assert (BENCH / "out" / "trace-fleet_rerun.json").exists()


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    proc = _cli(tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
