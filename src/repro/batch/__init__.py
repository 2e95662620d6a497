"""Vectorized batch engine for the squitter hot path.

The §3.1 directional scan used to walk squitters one Python object at
a time: schedule each transmission, evaluate the trajectory, build the
frame, run the link physics, then decode — all per event. This
package replaces the per-event interpreter with numpy array kernels:

- :mod:`repro.batch.schedule` — the whole population's squitter
  schedule and positions as flat arrays, over a tick grid shared by
  every node of a world;
- :mod:`repro.batch.geomcache` — ray geometry + obstruction loss for
  every squitter in one pass;
- :mod:`repro.batch.links` — received power for every event in one
  pass, with all fading randomness drawn as a single batched RNG call
  under a documented draw-order discipline;
- :mod:`repro.batch.engine` — the drop-in replacement for
  :meth:`repro.core.directional.DirectionalEvaluator.run`.

The batch path is equivalence-tested against the scalar path: with a
fixed seed it must decode the identical message set and produce powers
within 1e-9 dB (see tests/test_batch_equivalence.py and
docs/performance.md for the discipline that makes this possible).
"""

from repro.batch.engine import run_directional_scan_batch
from repro.batch.schedule import BatchSquitters, build_batch_squitters

__all__ = [
    "BatchSquitters",
    "build_batch_squitters",
    "run_directional_scan_batch",
]
