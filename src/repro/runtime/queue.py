"""In-memory job queue with a per-job state machine.

Every job moves through an explicit lifecycle::

    PENDING ──claim──▶ RUNNING ──complete──▶ DONE
       ▲                  │
       │                  ├──fail────▶ FAILED
       └──────────────────┘
            retry (RUNNING ▶ RETRYING, ready again at ``ready_at``)

Transitions outside this graph raise :class:`InvalidTransition` — a
scheduler bug should be loud, not a silently wedged campaign. The
queue is thread-safe, so the scheduling loop in
:mod:`repro.runtime.workers` may share it with other threads.

Claiming order: among jobs whose ``ready_at`` has passed, the one
enqueued first (records keep insertion order). The scan is O(n) per
claim — campaigns are thousands of jobs at most, and correctness
under retries beats heap bookkeeping here.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.runtime.jobs import CalibrationJob


class JobState(enum.Enum):
    """Lifecycle states of a queued calibration job."""

    PENDING = "pending"
    RUNNING = "running"
    RETRYING = "retrying"
    DONE = "done"
    FAILED = "failed"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED)


#: Legal state transitions; anything else is a scheduler bug.
_TRANSITIONS = {
    JobState.PENDING: {JobState.RUNNING},
    JobState.RUNNING: {JobState.DONE, JobState.FAILED, JobState.RETRYING},
    JobState.RETRYING: {JobState.RUNNING},
    JobState.DONE: set(),
    JobState.FAILED: set(),
}


class InvalidTransition(RuntimeError):
    """An illegal job state transition was attempted."""


@dataclass
class JobRecord:
    """One job's scheduling state inside the queue."""

    job: CalibrationJob
    state: JobState = JobState.PENDING
    attempts: int = 0
    ready_at: float = 0.0
    errors: List[str] = field(default_factory=list)

    @property
    def job_id(self) -> str:
        return self.job.job_id


class JobQueue:
    """Thread-safe queue of calibration jobs."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: Dict[str, JobRecord] = {}

    def put(self, job: CalibrationJob, ready_at: float = 0.0) -> JobRecord:
        """Enqueue a job; job ids must be unique within the queue."""
        with self._lock:
            if job.job_id in self._records:
                raise ValueError(f"duplicate job id: {job.job_id!r}")
            record = JobRecord(job=job, ready_at=ready_at)
            self._records[job.job_id] = record
            return record

    def _transition(self, record: JobRecord, new: JobState) -> None:
        if new not in _TRANSITIONS[record.state]:
            raise InvalidTransition(
                f"job {record.job_id!r}: {record.state.value} -> "
                f"{new.value} is not a legal transition"
            )
        record.state = new

    def claim(self, now: float) -> Optional[JobRecord]:
        """Claim the earliest-enqueued ready job, moving it to RUNNING.

        Returns ``None`` when nothing is claimable right now (either
        the queue is drained or every waiting job is backing off).
        """
        with self._lock:
            for record in self._records.values():
                if record.ready_at <= now and record.state in (
                    JobState.PENDING,
                    JobState.RETRYING,
                ):
                    self._transition(record, JobState.RUNNING)
                    record.attempts += 1
                    return record
            return None

    def complete(self, job_id: str) -> JobRecord:
        """RUNNING → DONE."""
        with self._lock:
            record = self._records[job_id]
            self._transition(record, JobState.DONE)
            return record

    def fail(self, job_id: str, error: str) -> JobRecord:
        """RUNNING → FAILED (retries exhausted or non-retryable)."""
        with self._lock:
            record = self._records[job_id]
            self._transition(record, JobState.FAILED)
            record.errors.append(error)
            return record

    def retry(
        self, job_id: str, error: str, ready_at: float
    ) -> JobRecord:
        """RUNNING → RETRYING, claimable again once ``ready_at`` passes."""
        with self._lock:
            record = self._records[job_id]
            self._transition(record, JobState.RETRYING)
            record.errors.append(error)
            record.ready_at = ready_at
            return record

    def next_ready_at(self) -> Optional[float]:
        """Earliest ``ready_at`` among claimable jobs, if any."""
        with self._lock:
            times = [
                r.ready_at
                for r in self._records.values()
                if r.state in (JobState.PENDING, JobState.RETRYING)
            ]
            return min(times) if times else None

    def unfinished(self) -> int:
        """Jobs not yet in a terminal state (including RUNNING ones)."""
        with self._lock:
            return sum(
                1
                for r in self._records.values()
                if not r.state.terminal
            )

    def counts(self) -> Dict[str, int]:
        """Number of jobs per state name."""
        with self._lock:
            out = {state.value: 0 for state in JobState}
            for record in self._records.values():
                out[record.state.value] += 1
            return out

    def records(self) -> Dict[str, JobRecord]:
        """Snapshot of all records keyed by job id."""
        with self._lock:
            return dict(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)
