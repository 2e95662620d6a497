"""How fast the host runs right now, for scaling measured times.

Benchmark hosts are shared. A neighbour's load slows every process on
the host by up to 1.8x, in bursts of milliseconds and in stretches of
minutes, so two runs of one commit can differ by half. Between its timed
operations a run therefore times a fixed reference task, a pure-Python
loop, and scales each timed interval by ``REFERENCE_S / t``, where ``t``
is the task's time interpolated to the interval's midpoint. A reported
time is what the interval would have taken on a host where the task
takes ``REFERENCE_S``.

The task is not program code: a change to the program moves its own
times and not the task's, so it moves the scaled times by the same
share.
"""

from __future__ import annotations

import time
from typing import List, Sequence, Tuple

import numpy as np

#: The reference task's time on the 2-core x86 reference container at
#: its fastest (CPython 3.11). It sets the scale of every reported time.
REFERENCE_S = 1.7e-3

#: Wall time between two samples. A sample costs about 5 ms, so runs
#: spend about 5 % of their wall sampling, outside every timed interval.
SAMPLE_EVERY_S = 0.1


def task_seconds() -> float:
    """Time of the reference task: the median of three repeats."""
    times = []
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(30_000):
            total += i * i
        times.append(time.perf_counter() - started)
    return sorted(times)[1]


class HostSpeed:
    """Samples of the reference task's time over one run."""

    def __init__(self) -> None:
        #: ``(perf_counter at the sample, task seconds)``
        self.samples: List[Tuple[float, float]] = []
        self._due = 0.0

    def sample(self) -> None:
        self.samples.append((time.perf_counter(), task_seconds()))
        self._due = time.perf_counter() + SAMPLE_EVERY_S

    def idle(self) -> None:
        """Call between timed intervals: samples when a sample is due."""
        if time.perf_counter() >= self._due:
            self.sample()

    def scale(self, intervals: Sequence[Tuple[float, float]]) -> np.ndarray:
        """Each ``(start, seconds)`` interval's seconds at reference speed."""
        start, seconds = np.asarray(intervals, dtype=float).reshape(-1, 2).T
        at, task = np.asarray(self.samples, dtype=float).T
        return seconds * REFERENCE_S / np.interp(start + seconds / 2, at, task)

    def task_ms(self) -> Tuple[float, float, float]:
        """(min, median, max) task time over the run, in ms."""
        task = 1e3 * np.asarray([s for _, s in self.samples])
        return float(task.min()), float(np.median(task)), float(task.max())
