"""Shared benchmark fixtures + the BENCH_*.json trajectory writer.

Every benchmark session dumps its timings to ``BENCH_<module>.json``
at the repo root (one file per ``benchmarks/test_bench_<module>.py``),
so the repo carries a perf trajectory and future PRs can show deltas.
Two sources feed the dump:

- pytest-benchmark stats from the ``benchmark`` fixture;
- explicit measurements recorded through the ``bench_record`` fixture
  (used by the scalar-vs-vectorized comparisons, which time both
  paths themselves so they can assert a speedup ratio).

Under ``--benchmark-disable`` (the CI smoke mode) each benchmark runs
once to check its assertions and nothing is written: single-round
numbers would overwrite the committed records, so a smoke run leaves
the tree as it found it.
"""

import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

import pytest

# Allow running `pytest benchmarks/` from the repo root without
# installing test helpers as a package.
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.experiments.common import World, build_world  # noqa: E402

_REPO_ROOT = Path(__file__).resolve().parent.parent

#: Explicit measurements keyed by bench module stem.
_RECORDS: Dict[str, List[dict]] = defaultdict(list)


@pytest.fixture(scope="session")
def world() -> World:
    return build_world()


@pytest.fixture()
def bench_record(request):
    """Record one named measurement into this module's BENCH json.

    Usage: ``bench_record(scalar_min_s=..., vectorized_min_s=...,
    speedup_x=...)`` — keys are free-form and dumped verbatim.
    """
    module = Path(str(request.node.fspath)).stem

    def record(**measurement):
        _RECORDS[module].append(
            {"test": request.node.name, **measurement}
        )

    return record


def _module_stem(fullname: str) -> str:
    # fullname looks like "benchmarks/test_bench_x.py::test_name".
    return Path(fullname.split("::", 1)[0]).stem


def _bench_file_name(stem: str) -> str:
    return "BENCH_" + stem.replace("test_bench_", "") + ".json"


def pytest_sessionfinish(session, exitstatus):
    """Write one BENCH_<name>.json per bench module that produced data.

    A ``--benchmark-disable`` smoke run writes nothing.
    """
    bs = getattr(session.config, "_benchmarksession", None)
    if bs is not None and bs.disabled:
        return
    per_module: Dict[str, dict] = {}
    if bs is not None:
        for bench in bs.benchmarks:
            if getattr(bench, "stats", None) is None:
                continue
            stem = _module_stem(bench.fullname)
            entry = bench.as_dict(
                include_data=False, flat=True, stats=True
            )
            per_module.setdefault(stem, {"benchmarks": []})[
                "benchmarks"
            ].append(entry)
    for stem, records in _RECORDS.items():
        per_module.setdefault(stem, {"benchmarks": []})[
            "measurements"
        ] = records
    for stem, payload in per_module.items():
        out = _REPO_ROOT / _bench_file_name(stem)
        out.write_text(json.dumps(payload, indent=2, sort_keys=True))
