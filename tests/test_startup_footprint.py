"""Importing repro loads numpy but never scipy.

scipy.signal alone costs a fresh process about a second and ~70 MB of
resident memory, and no command needs it at start-up: FIR taps are
designed in numpy (``repro.dsp.filters``) and ``welch_psd`` imports
scipy only when it runs. The guard imports every entry point in a
fresh interpreter, because this test process has scipy loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

ENTRY_POINTS = (
    "repro",
    "repro.cli",
    "repro.core",
    "repro.runtime",
    "repro.stream",
    "repro.serve",
    "repro.experiments",
    "repro.dsp",
    "repro.node.monitoring",
)

_PROBE = f"""
import importlib, json, sys
for name in {ENTRY_POINTS!r}:
    importlib.import_module(name)
print(json.dumps(sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy.")
)))
"""


def _fresh_import(probe: str) -> str:
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return done.stdout.strip().splitlines()[-1]


def test_entry_points_import_no_scipy():
    assert _fresh_import(_PROBE) == "[]"


def test_welch_psd_loads_scipy_when_it_runs():
    probe = (
        "import sys, numpy as np\n"
        "from repro.dsp.psd import welch_psd\n"
        "before = 'scipy.signal' in sys.modules\n"
        "welch_psd(np.ones(2048, dtype=complex), 1e6)\n"
        "print(before, 'scipy.signal' in sys.modules)\n"
    )
    assert _fresh_import(probe) == "False True"
