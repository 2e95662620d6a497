"""The worker pool: execute calibration jobs with retries and timeouts.

:func:`run_queue` drains a queue one of two ways:

- ``workers=1`` runs jobs inline in the calling thread — the
  degenerate serial case, bit-identical to the historical
  ``CalibrationService.evaluate_network`` loop;
- ``workers>1`` drives a ``concurrent.futures`` thread pool. The
  threads share the in-process world cache and path cache (the
  simulation objects are read-only after construction and every
  evaluation gets its own RNG, so results are identical regardless
  of interleaving).

Failures are retried with exponential backoff and deterministic
jitter (seeded from the job key, so schedules are reproducible), up
to the job's ``max_attempts``; the final failure parks the job in
FAILED without sinking the rest of the queue. Per-job timeouts are
enforced on pooled runs; a timed-out future is abandoned (Python
cannot kill a running worker thread) and its late result ignored.

All waiting goes through a :class:`Clock`, so tests drive retry
scheduling with a fake clock instead of sleeping.
"""

from __future__ import annotations

import concurrent.futures
import random
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Protocol

from repro.core.network import CalibrationService, NodeAssessment
from repro.runtime.jobs import (
    CalibrationJob,
    WorldSpec,
    build_fabrication,
)
from repro.core.metrics import MetricsRegistry
from repro.runtime.queue import JobQueue, JobRecord, JobState

if TYPE_CHECKING:
    from repro.experiments.common import World

#: Poll interval for pooled runs while futures are in flight.
_POLL_S = 0.05


class Clock(Protocol):
    """Injectable time source: monotonic now + sleep."""

    def now(self) -> float: ...

    def sleep(self, seconds: float) -> None: ...


class SystemClock:
    """The real monotonic clock."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0.0:
            time.sleep(seconds)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic, bounded jitter.

    ``delay_s`` for attempt *n* (1-based count of attempts already
    made) is ``base * factor**(n-1)`` capped at ``max_delay_s``, then
    scaled by ``1 ± jitter`` drawn from a PRNG seeded with the job
    key and attempt number — reproducible, but de-synchronized across
    jobs so a burst of failures does not retry in lockstep.
    """

    base_delay_s: float = 0.5
    factor: float = 2.0
    max_delay_s: float = 30.0
    jitter: float = 0.1

    def delay_s(self, job_key: str, attempt: int) -> float:
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1: {attempt}")
        raw = min(
            self.max_delay_s,
            self.base_delay_s * self.factor ** (attempt - 1),
        )
        rng = random.Random(f"{job_key}:{attempt}")
        return raw * (1.0 + self.jitter * rng.uniform(-1.0, 1.0))


@dataclass
class JobOutcome:
    """Terminal result of one job: the assessment, or why it failed."""

    job_id: str
    state: JobState
    attempts: int
    duration_s: float
    assessment: Optional[NodeAssessment] = None
    errors: List[str] = field(default_factory=list)


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
# The scheduling loop.


def _finish_success(
    queue: JobQueue,
    record: JobRecord,
    assessment: NodeAssessment,
    duration_s: float,
    metrics: MetricsRegistry,
) -> JobOutcome:
    queue.complete(record.job_id)
    metrics.incr("jobs_done")
    metrics.observe("job_latency", duration_s)
    return JobOutcome(
        job_id=record.job_id,
        state=JobState.DONE,
        attempts=record.attempts,
        duration_s=duration_s,
        assessment=assessment,
        errors=list(record.errors),
    )


def _finish_failure(
    queue: JobQueue,
    record: JobRecord,
    error: str,
    duration_s: float,
    retry_policy: RetryPolicy,
    clock: Clock,
    metrics: MetricsRegistry,
) -> Optional[JobOutcome]:
    """Retry if attempts remain, else park the job in FAILED.

    Returns the terminal outcome, or ``None`` when a retry was
    scheduled.
    """
    if record.attempts < record.job.max_attempts:
        delay = retry_policy.delay_s(
            record.job.content_key(), record.attempts
        )
        queue.retry(record.job_id, error, clock.now() + delay)
        metrics.incr("retries")
        return None
    queue.fail(record.job_id, error)
    metrics.incr("jobs_failed")
    return JobOutcome(
        job_id=record.job_id,
        state=JobState.FAILED,
        attempts=record.attempts,
        duration_s=duration_s,
        errors=list(record.errors),
    )


def run_queue(
    queue: JobQueue,
    workers: int = 1,
    runner: Callable[[CalibrationJob], NodeAssessment] = execute_job,
    retry_policy: Optional[RetryPolicy] = None,
    clock: Optional[Clock] = None,
    metrics: Optional[MetricsRegistry] = None,
    on_outcome: Optional[Callable[[JobOutcome], None]] = None,
) -> Dict[str, JobOutcome]:
    """Drain the queue; return terminal outcomes keyed by job id.

    ``on_outcome`` fires after every job reaches a terminal state —
    the campaign uses it to cache each result as it finishes, so a
    killed run resumes from there. ``runner`` is injectable so tests
    can exercise retry scheduling without running real calibrations.
    """
    retry_policy = retry_policy or RetryPolicy()
    clock = clock or SystemClock()
    metrics = metrics if metrics is not None else MetricsRegistry()
    outcomes: Dict[str, JobOutcome] = {}

    def settle(outcome: Optional[JobOutcome]) -> None:
        if outcome is None:
            return
        outcomes[outcome.job_id] = outcome
        if on_outcome is not None:
            on_outcome(outcome)

    if workers <= 1:
        _run_serial(
            queue, runner, retry_policy, clock, metrics, settle
        )
    else:
        _run_pooled(
            queue, workers, runner, retry_policy, clock, metrics, settle
        )
    return outcomes


def _wait_for_ready(queue: JobQueue, clock: Clock) -> bool:
    """Sleep until the earliest backoff expires; False when drained."""
    ready_at = queue.next_ready_at()
    if ready_at is None:
        return False
    clock.sleep(max(ready_at - clock.now(), 0.0) + 1e-6)
    return True


def _run_serial(
    queue: JobQueue,
    runner: Callable[[CalibrationJob], NodeAssessment],
    retry_policy: RetryPolicy,
    clock: Clock,
    metrics: MetricsRegistry,
    settle: Callable[[Optional[JobOutcome]], None],
) -> None:
    """Inline execution: one job at a time, in the calling thread.

    Per-job timeouts are not enforced here — there is no second
    thread to bound the first; pooled runs enforce them.
    """
    while True:
        record = queue.claim(clock.now())
        if record is None:
            if not _wait_for_ready(queue, clock):
                return
            continue
        started = clock.now()
        try:
            assessment = runner(record.job)
        except Exception as exc:  # noqa: BLE001 - job isolation
            settle(
                _finish_failure(
                    queue,
                    record,
                    f"{type(exc).__name__}: {exc}",
                    clock.now() - started,
                    retry_policy,
                    clock,
                    metrics,
                )
            )
            continue
        settle(
            _finish_success(
                queue,
                record,
                assessment,
                clock.now() - started,
                metrics,
            )
        )


def _run_pooled(
    queue: JobQueue,
    workers: int,
    runner: Callable[[CalibrationJob], NodeAssessment],
    retry_policy: RetryPolicy,
    clock: Clock,
    metrics: MetricsRegistry,
    settle: Callable[[Optional[JobOutcome]], None],
) -> None:
    """Thread-pool execution: up to ``workers`` jobs in flight at once."""
    in_flight: Dict[
        concurrent.futures.Future, tuple  # (record, started_at)
    ] = {}
    with concurrent.futures.ThreadPoolExecutor(
        max_workers=workers, thread_name_prefix="repro-runtime"
    ) as pool:
        while True:
            # Keep the pool saturated with every claimable job.
            while len(in_flight) < workers:
                record = queue.claim(clock.now())
                if record is None:
                    break
                in_flight[pool.submit(runner, record.job)] = (
                    record,
                    clock.now(),
                )
            if not in_flight:
                if not _wait_for_ready(queue, clock):
                    return
                continue

            done, _ = concurrent.futures.wait(
                in_flight,
                timeout=_POLL_S,
                return_when=concurrent.futures.FIRST_COMPLETED,
            )
            for future in done:
                record, started = in_flight.pop(future)
                duration = clock.now() - started
                error = (
                    future.exception()
                )  # never raises: future is done
                if error is None:
                    settle(
                        _finish_success(
                            queue,
                            record,
                            future.result(),
                            duration,
                            metrics,
                        )
                    )
                else:
                    settle(
                        _finish_failure(
                            queue,
                            record,
                            f"{type(error).__name__}: {error}",
                            duration,
                            retry_policy,
                            clock,
                            metrics,
                        )
                    )

            # Enforce per-job timeouts on whatever is still running.
            for future, (record, started) in list(in_flight.items()):
                timeout_s = record.job.timeout_s
                if timeout_s is None:
                    continue
                elapsed = clock.now() - started
                if elapsed <= timeout_s:
                    continue
                future.cancel()  # abandon; a late result is ignored
                del in_flight[future]
                metrics.incr("timeouts")
                settle(
                    _finish_failure(
                        queue,
                        record,
                        f"timeout: exceeded {timeout_s:.1f}s "
                        f"(ran {elapsed:.1f}s)",
                        elapsed,
                        retry_policy,
                        clock,
                        metrics,
                    )
                )
