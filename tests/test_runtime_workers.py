"""Tests for repro.runtime.workers — each job runs exactly once.

Jobs run through an injected runner, so no test here runs a real
calibration.
"""

import threading
import time

import pytest

from repro.runtime.jobs import CalibrationJob, NodeSpec
from repro.runtime.workers import run_jobs


def _job(node_id: str):
    return CalibrationJob(node=NodeSpec(node_id, "rooftop"), seed=1)


def _counting_runner(failing=()):
    """Returns ``job_id``; raises for the ids in ``failing``."""
    calls = []
    lock = threading.Lock()

    def run(job):
        with lock:
            calls.append(job.job_id)
        if job.job_id in failing:
            raise RuntimeError("node crashed")
        return job.job_id

    return run, calls


class TestRunOnce:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_crashing_job_runs_once(self, workers):
        runner, calls = _counting_runner(failing={"bad"})
        outcomes = {
            o.job_id: o
            for o in run_jobs([_job("bad")], workers, runner)
        }
        assert calls == ["bad"]
        assert outcomes["bad"].state == "failed"
        assert outcomes["bad"].error == "RuntimeError: node crashed"
        assert outcomes["bad"].assessment is None

    @pytest.mark.parametrize("workers", [1, 4])
    def test_one_bad_job_does_not_sink_the_rest(self, workers):
        runner, calls = _counting_runner(failing={"bad"})
        jobs = [_job(n) for n in ("good-1", "bad", "good-2")]
        outcomes = {o.job_id: o for o in run_jobs(jobs, workers, runner)}
        assert sorted(calls) == ["bad", "good-1", "good-2"]
        assert outcomes["bad"].state == "failed"
        assert outcomes["good-1"].state == "done"
        assert outcomes["good-1"].assessment == "good-1"
        assert outcomes["good-2"].error is None

    def test_outcome_yielded_before_the_next_job_runs(self):
        # The campaign caches each result as its outcome arrives, so a
        # serial run must hand over job 1 before it starts job 2.
        runner, calls = _counting_runner()
        outcomes = run_jobs([_job("a"), _job("b")], 1, runner)
        assert next(outcomes).job_id == "a"
        assert calls == ["a"]
        assert [o.job_id for o in outcomes] == ["b"]
        assert calls == ["a", "b"]

    def test_serial_runs_inline_in_calling_thread(self):
        threads = []

        def runner(job):
            threads.append(threading.get_ident())
            return job.job_id

        list(run_jobs([_job("a"), _job("b")], 1, runner))
        assert threads == [threading.get_ident()] * 2

    def test_no_jobs_yields_nothing(self):
        runner, calls = _counting_runner()
        assert list(run_jobs([], 4, runner)) == []
        assert calls == []


class TestPooledExecution:
    def test_thread_pool_drains_queue(self):
        active = []
        peak = []
        lock = threading.Lock()

        def runner(job):
            with lock:
                active.append(job.job_id)
                peak.append(len(active))
            time.sleep(0.02)
            with lock:
                active.remove(job.job_id)
            return job.job_id

        jobs = [_job(f"n{i}") for i in range(8)]
        outcomes = list(run_jobs(jobs, 4, runner))
        assert sorted(o.job_id for o in outcomes) == sorted(
            j.job_id for j in jobs
        )
        assert all(o.state == "done" for o in outcomes)
        assert max(peak) > 1  # genuinely concurrent
        assert max(peak) <= 4

    def test_outcomes_arrive_in_completion_order(self):
        # "slow" is submitted first but finishes last; its outcome must
        # not hold back the others.
        release = threading.Event()

        def runner(job):
            if job.job_id == "slow":
                assert release.wait(5.0)
            return job.job_id

        outcomes = run_jobs([_job("slow"), _job("a"), _job("b")], 2, runner)
        first_two = {next(outcomes).job_id, next(outcomes).job_id}
        release.set()
        assert first_two == {"a", "b"}
        assert [o.job_id for o in outcomes] == ["slow"]
