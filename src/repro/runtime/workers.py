"""The worker pool: run each calibration job exactly once.

:func:`run_jobs` runs a list of jobs one of two ways:

- ``workers=1`` runs jobs inline in the calling thread — the
  degenerate serial case, bit-identical to the historical
  ``CalibrationService.evaluate_network`` loop;
- ``workers>1`` drives a ``concurrent.futures`` thread pool. The
  threads share the in-process world cache and path cache (the
  simulation objects are read-only after construction and every
  evaluation gets its own RNG, so results are identical regardless
  of interleaving).

A job is a pure function of its content key (node spec, world spec,
seed, pipeline version), so a job that raised once raises again:
there are no retries. A raising job becomes a FAILED outcome without
sinking the rest of the run.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    Optional,
    Sequence,
)

from repro.core.network import CalibrationService, NodeAssessment
from repro.runtime.jobs import (
    CalibrationJob,
    WorldSpec,
    build_fabrication,
)

if TYPE_CHECKING:
    from repro.experiments.common import World


@dataclass
class JobOutcome:
    """Result of one job's single run: the assessment, or why it failed."""

    job_id: str
    state: str  # "done" | "failed"
    duration_s: float
    assessment: Optional[NodeAssessment] = None
    error: Optional[str] = None


# ---------------------------------------------------------------------------
# Job execution: heavy state built once per world spec.

_WORLD_CACHE: Dict[WorldSpec, World] = {}
_WORLD_CACHE_LOCK = threading.Lock()


def world_for(spec: WorldSpec) -> World:
    """The (deterministic) world for a spec, built at most once here."""
    with _WORLD_CACHE_LOCK:
        world = _WORLD_CACHE.get(spec)
        if world is None:
            world = spec.build()
            _WORLD_CACHE[spec] = world
        return world


def seed_world_cache(spec: WorldSpec, world: World) -> None:
    """Pre-populate the cache with an already-built world."""
    with _WORLD_CACHE_LOCK:
        _WORLD_CACHE[spec] = world


def execute_job(job: CalibrationJob) -> NodeAssessment:
    """Run one calibration job to completion."""
    world = world_for(job.world)
    service = CalibrationService(
        traffic=world.traffic,
        ground_truth=world.ground_truth,
        cell_towers=world.testbed.cell_towers,
        tv_towers=world.testbed.tv_towers,
        fm_towers=world.testbed.fm_towers,
    )
    node = job.node.build(world)
    fabrication = build_fabrication(job.node.fabrication)
    return service.evaluate_node(
        node, seed=job.seed, fabrication=fabrication
    )


# ---------------------------------------------------------------------------
# Running jobs.

Runner = Callable[[CalibrationJob], NodeAssessment]


def _run_once(runner: Runner, job: CalibrationJob) -> JobOutcome:
    """Run one job; any ``Exception`` becomes a FAILED outcome."""
    started = time.perf_counter()
    try:
        assessment = runner(job)
    except Exception as exc:  # noqa: BLE001 - job isolation
        return JobOutcome(
            job_id=job.job_id,
            state="failed",
            duration_s=time.perf_counter() - started,
            error=f"{type(exc).__name__}: {exc}",
        )
    return JobOutcome(
        job_id=job.job_id,
        state="done",
        duration_s=time.perf_counter() - started,
        assessment=assessment,
    )


def run_jobs(
    jobs: Sequence[CalibrationJob],
    workers: int = 1,
    runner: Runner = execute_job,
) -> Iterator[JobOutcome]:
    """Run each job exactly once; yield its outcome as it finishes.

    Outcomes come in completion order, so the campaign can cache each
    result as soon as its job is done. ``runner`` is injectable so
    tests can exercise failures without running real calibrations.
    """
    if workers <= 1:
        for job in jobs:
            yield _run_once(runner, job)
        return
    with concurrent.futures.ThreadPoolExecutor(
        max_workers=workers, thread_name_prefix="repro-runtime"
    ) as pool:
        futures = [pool.submit(_run_once, runner, job) for job in jobs]
        for future in concurrent.futures.as_completed(futures):
            yield future.result()
