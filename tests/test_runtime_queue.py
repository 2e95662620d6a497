"""Tests for repro.runtime.queue — state machine and claiming order."""

import pytest

from repro.runtime.jobs import CalibrationJob, NodeSpec
from repro.runtime.queue import (
    InvalidTransition,
    JobQueue,
    JobState,
)


def _job(node_id: str, max_attempts: int = 3):
    return CalibrationJob(
        node=NodeSpec(node_id, "rooftop"),
        seed=1,
        max_attempts=max_attempts,
    )


class TestLifecycle:
    def test_put_claim_complete(self):
        q = JobQueue()
        q.put(_job("a"))
        record = q.claim(now=0.0)
        assert record is not None
        assert record.state is JobState.RUNNING
        assert record.attempts == 1
        done = q.complete("a")
        assert done.state is JobState.DONE
        assert q.unfinished() == 0

    def test_fail_records_error(self):
        q = JobQueue()
        q.put(_job("a"))
        q.claim(now=0.0)
        record = q.fail("a", "boom")
        assert record.state is JobState.FAILED
        assert record.errors == ["boom"]

    def test_retry_then_reclaim(self):
        q = JobQueue()
        q.put(_job("a"))
        q.claim(now=0.0)
        q.retry("a", "flaky", ready_at=10.0)
        assert q.claim(now=5.0) is None  # still backing off
        record = q.claim(now=10.0)
        assert record is not None
        assert record.attempts == 2
        assert record.errors == ["flaky"]

    def test_duplicate_id_rejected(self):
        q = JobQueue()
        q.put(_job("a"))
        with pytest.raises(ValueError, match="duplicate"):
            q.put(_job("a"))


class TestIllegalTransitions:
    def test_complete_without_claim(self):
        q = JobQueue()
        q.put(_job("a"))
        with pytest.raises(InvalidTransition):
            q.complete("a")

    def test_fail_without_claim(self):
        q = JobQueue()
        q.put(_job("a"))
        with pytest.raises(InvalidTransition):
            q.fail("a", "x")

    def test_done_is_terminal(self):
        q = JobQueue()
        q.put(_job("a"))
        q.claim(now=0.0)
        q.complete("a")
        with pytest.raises(InvalidTransition):
            q.fail("a", "x")

    def test_retrying_cannot_complete_directly(self):
        q = JobQueue()
        q.put(_job("a"))
        q.claim(now=0.0)
        q.retry("a", "x", ready_at=0.0)
        with pytest.raises(InvalidTransition):
            q.complete("a")


class TestClaimOrder:
    def test_insertion_order_breaks_ties(self):
        q = JobQueue()
        q.put(_job("first"))
        q.put(_job("second"))
        assert q.claim(now=0.0).job_id == "first"

    def test_backoff_gates_readiness(self):
        q = JobQueue()
        q.put(_job("later"), ready_at=100.0)
        q.put(_job("now"))
        assert q.claim(now=0.0).job_id == "now"
        assert q.claim(now=0.0) is None
        assert q.next_ready_at() == 100.0


class TestIntrospection:
    def test_counts(self):
        q = JobQueue()
        for name in ("a", "b", "c"):
            q.put(_job(name))
        q.claim(now=0.0)
        counts = q.counts()
        assert counts["running"] == 1
        assert counts["pending"] == 2
        assert len(q) == 3

    def test_next_ready_at_empty(self):
        assert JobQueue().next_ready_at() is None
