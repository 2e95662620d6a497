"""Tests for repro.runtime.campaign — ledger, cache, resume.

Campaign mechanics are exercised with an injected runner that returns
synthetic assessments. Only :class:`TestStandardFleetResume` runs real
calibrations, to pin resume from the cache byte for byte; the rest of
the end-to-end runtime path is covered by the fleet experiment tests
and the runtime benchmark.
"""

import dataclasses

import pytest

from repro.core.network import NetworkAssessments
from repro.core.serialize import assessment_to_json, network_to_json
from repro.engines import configure_path_cache, get_path_cache
from repro.runtime.campaign import (
    CampaignConfig,
    FleetCampaign,
    fleet_jobs,
    run_fleet_campaign,
    standard_fleet_specs,
)
from repro.runtime.cache import ResultCache
from repro.runtime.jobs import CalibrationJob, NodeSpec, WorldSpec
from repro.runtime.workers import execute_job


def _jobs(*node_ids, seed=10):
    return [
        CalibrationJob(node=NodeSpec(node_id, "rooftop"), seed=seed + i)
        for i, node_id in enumerate(node_ids)
    ]


@pytest.fixture()
def runner(make_assessment):
    """A runner that fabricates an assessment and counts calls."""
    calls = []

    def run(job):
        calls.append(job.job_id)
        return make_assessment(job.node.node_id)

    run.calls = calls
    return run


class TestStandardFleet:
    def test_twelve_specs_in_seed_order(self):
        specs = standard_fleet_specs()
        assert len(specs) == 12
        assert specs[0].node_id == "rooftop-0"
        assert specs[3].antenna == "damaged_cable"
        assert specs[7].fabrication == "omniscient"
        assert specs[11].fabrication == "ghost:30"

    def test_fleet_jobs_seed_assignment(self):
        jobs = fleet_jobs(seed=95)
        assert [j.seed for j in jobs] == list(range(95, 107))

    def test_fail_node_swaps_fabrication(self):
        jobs = fleet_jobs(fail_node="rooftop-1")
        by_id = {j.job_id: j for j in jobs}
        assert by_id["rooftop-1"].node.fabrication == "crash"
        assert by_id["rooftop-0"].node.fabrication is None


class TestCampaignRun:
    def test_all_jobs_done(self, runner):
        result = FleetCampaign(_jobs("a", "b", "c"), runner=runner).run()
        assert set(result.assessments) == {"a", "b", "c"}
        assert result.state_counts() == {"done": 3}
        assert result.source_counts() == {"run": 3}
        assert result.metrics["jobs_done"] == 3

    def test_results_in_job_order_even_when_parallel(self, runner):
        # Completion order is scheduling-dependent; the result dicts
        # must not be, or tie-breaking in downstream stable sorts
        # (the marketplace ranking) would vary run to run.
        jobs = _jobs("d", "a", "c", "b")
        result = FleetCampaign(
            jobs,
            config=CampaignConfig(workers=4),
            runner=runner,
        ).run()
        assert list(result.assessments) == ["d", "a", "c", "b"]
        assert list(result.ledger) == ["d", "a", "c", "b"]

    def test_duplicate_job_ids_rejected(self, runner):
        with pytest.raises(ValueError, match="duplicate"):
            FleetCampaign(_jobs("a", "a"), runner=runner)

    def test_failed_job_does_not_sink_campaign(self, make_assessment):
        for workers in (1, 4):
            calls = []

            def runner(job):
                calls.append(job.job_id)
                if job.job_id == "bad":
                    raise RuntimeError("node crashed")
                return make_assessment(job.node.node_id)

            result = FleetCampaign(
                _jobs("good-1", "bad", "good-2"),
                config=CampaignConfig(workers=workers),
                runner=runner,
            ).run()
            assert set(result.assessments) == {"good-1", "good-2"}
            assert result.state_counts() == {"done": 2, "failed": 1}
            (entry,) = result.failed()
            assert entry.job_id == "bad"
            assert entry.error == "RuntimeError: node crashed"
            assert calls.count("bad") == 1  # run once, never retried
            assert result.metrics["jobs_failed"] == 1
            assert "retries" not in result.metrics
            assert (
                "FAILED bad: RuntimeError: node crashed"
                in result.summary_text()
            )

    def test_shared_cache_skips_recomputation(self, runner):
        cache = ResultCache()
        jobs = _jobs("a", "b")
        FleetCampaign(jobs, cache=cache, runner=runner).run()
        assert runner.calls == ["a", "b"]

        second = FleetCampaign(jobs, cache=cache, runner=runner).run()
        assert runner.calls == ["a", "b"]  # nothing re-ran
        assert second.source_counts() == {"cache": 2}
        assert second.metrics["cache_hits"] == 2

    def test_disk_cache_across_campaigns(self, tmp_path, runner):
        config = CampaignConfig(cache_dir=str(tmp_path / "cache"))
        jobs = _jobs("a", "b", "c")
        FleetCampaign(jobs, config=config, runner=runner).run()
        result = FleetCampaign(jobs, config=config, runner=runner).run()
        assert len(runner.calls) == 3
        assert result.metrics["cache_hits"] == 3


class TestCheckpointResume:
    """The cache directory is the checkpoint: a rerun resumes from it."""

    def test_stop_after_defers_remaining(self, tmp_path, runner):
        config = CampaignConfig(
            cache_dir=str(tmp_path / "cache"), stop_after=2
        )
        result = FleetCampaign(
            _jobs("a", "b", "c", "d"), config=config, runner=runner
        ).run()
        assert result.state_counts() == {"done": 2, "pending": 2}
        assert result.source_counts() == {"run": 2, "deferred": 2}
        assert runner.calls == ["a", "b"]

    def test_negative_stop_after_rejected(self):
        with pytest.raises(ValueError, match="stop_after"):
            CampaignConfig(stop_after=-1)

    def test_resume_completes_only_remaining(self, tmp_path, runner):
        cache_dir = str(tmp_path / "cache")
        jobs = _jobs("a", "b", "c", "d")
        FleetCampaign(
            jobs,
            config=CampaignConfig(cache_dir=cache_dir, stop_after=2),
            runner=runner,
        ).run()

        resumed = FleetCampaign(
            jobs,
            config=CampaignConfig(cache_dir=cache_dir),
            runner=runner,
        ).run()
        assert runner.calls == ["a", "b", "c", "d"]  # no re-runs
        assert resumed.source_counts() == {"cache": 2, "run": 2}
        assert resumed.state_counts() == {"done": 4}
        assert resumed.metrics["jobs_done"] == 2
        assert resumed.metrics["cache_hits"] == 2

    def test_resume_equivalence(self, tmp_path, runner):
        """Interrupted + resumed == one uninterrupted run."""
        jobs = _jobs("a", "b", "c")
        cache_dir = str(tmp_path / "cache")
        FleetCampaign(
            jobs,
            config=CampaignConfig(cache_dir=cache_dir, stop_after=1),
            runner=runner,
        ).run()
        resumed = FleetCampaign(
            jobs,
            config=CampaignConfig(cache_dir=cache_dir),
            runner=runner,
        ).run()

        clean = FleetCampaign(jobs, runner=runner).run()
        assert set(resumed.assessments) == set(clean.assessments)
        for job_id in clean.assessments:
            assert assessment_to_json(
                resumed.assessments[job_id]
            ) == assessment_to_json(clean.assessments[job_id])

    def test_resume_ignores_stale_keys(self, tmp_path, runner):
        # A config change after the first run (different seeds here)
        # changes content keys, so nothing stale is restored.
        config = CampaignConfig(cache_dir=str(tmp_path / "cache"))
        FleetCampaign(_jobs("a", "b"), config=config, runner=runner).run()
        result = FleetCampaign(
            _jobs("a", "b", seed=99), config=config, runner=runner
        ).run()
        assert result.source_counts() == {"run": 2}
        assert len(runner.calls) == 4

    def test_failed_job_reruns_on_resume(self, tmp_path, make_assessment):
        calls = []

        def runner(job):
            calls.append(job.job_id)
            if job.job_id == "b" and calls.count("b") == 1:
                raise RuntimeError("node crashed")
            return make_assessment(job.node.node_id)

        config = CampaignConfig(cache_dir=str(tmp_path / "cache"))
        first = FleetCampaign(
            _jobs("a", "b"), config=config, runner=runner
        ).run()
        assert first.state_counts() == {"done": 1, "failed": 1}
        resumed = FleetCampaign(
            _jobs("a", "b"), config=config, runner=runner
        ).run()
        assert resumed.source_counts() == {"cache": 1, "run": 1}
        assert resumed.state_counts() == {"done": 2}
        assert calls == ["a", "b", "b"]

    def test_missing_cache_dir_runs_everything(self, tmp_path, runner):
        cache_dir = tmp_path / "nope" / "cache"
        config = CampaignConfig(cache_dir=str(cache_dir))
        result = FleetCampaign(
            _jobs("a", "b"), config=config, runner=runner
        ).run()
        assert result.state_counts() == {"done": 2}
        assert result.source_counts() == {"run": 2}
        assert len(list(cache_dir.glob("*.json"))) == 2


class TestStandardFleetResume:
    """A real campaign stopped after any job resumes byte-identically."""

    def test_stop_after_every_k_then_rerun(self, tmp_path, world):
        def campaign_json(result):
            return network_to_json(
                NetworkAssessments(result.assessments), indent=2
            )

        def nonzero(**counts):
            return {name: n for name, n in counts.items() if n}

        clean = run_fleet_campaign(world=world)
        assert clean.state_counts() == {"done": 12}
        expected = campaign_json(clean)
        for k in range(13):
            cache_dir = str(tmp_path / f"cache-{k}")
            first = run_fleet_campaign(
                world=world,
                config=CampaignConfig(cache_dir=cache_dir, stop_after=k),
            )
            assert first.state_counts() == nonzero(
                done=k, pending=12 - k
            )
            resumed = run_fleet_campaign(
                world=world, config=CampaignConfig(cache_dir=cache_dir)
            )
            assert resumed.source_counts() == nonzero(
                cache=k, run=12 - k
            )
            assert campaign_json(resumed) == expected


class TestFailNodeCampaign:
    """A crashing node runs once, the same way at any worker count."""

    #: Counters that depend neither on timing nor on the process's
    #: path-cache history.
    STABLE_METRICS = (
        "jobs_done",
        "jobs_failed",
        "jobs_deferred",
        "cache_hits",
        "cache_misses",
    )

    def _campaign(self, world, workers):
        calls = []

        def runner(job):
            calls.append(job.job_id)
            return execute_job(job)

        jobs = fleet_jobs(
            world=WorldSpec.from_world(world), fail_node="rooftop-1"
        )
        result = FleetCampaign(
            jobs,
            config=CampaignConfig(workers=workers),
            world=world,
            runner=runner,
        ).run()
        return result, calls

    def test_crashed_job_runs_once_and_ledgers_match(self, world):
        results = {}
        for workers in (1, 4):
            result, calls = self._campaign(world, workers)
            assert calls.count("rooftop-1") == 1
            assert sorted(calls) == sorted(result.ledger)
            (entry,) = result.failed()
            assert entry.job_id == "rooftop-1"
            assert entry.error == "InjectedFault: injected node fault"
            assert result.metrics["jobs_failed"] == 1
            assert result.metrics["jobs_done"] == 11
            results[workers] = result

        serial, pooled = results[1], results[4]

        def ledger(result):
            return [
                dataclasses.replace(entry, duration_s=0.0)
                for entry in result.ledger.values()
            ]

        def network_json(result):
            network = result.network()
            network.metrics = {
                key: network.metrics[key] for key in self.STABLE_METRICS
            }
            return network_to_json(network, indent=2)

        assert ledger(pooled) == ledger(serial)
        assert list(pooled.assessments) == list(serial.assessments)
        assert network_to_json(
            NetworkAssessments(pooled.assessments), indent=2
        ) == network_to_json(
            NetworkAssessments(serial.assessments), indent=2
        )
        assert network_json(pooled) == network_json(serial)


class TestPathCacheSwitch:
    """``configure_path_cache`` is the one switch; campaigns obey it."""

    @pytest.mark.parametrize("workers", [1, 4])
    def test_disabled_cache_runs_uncached(self, world, workers):
        configure_path_cache(enabled=True, clear=True)
        try:
            cold = run_fleet_campaign(world=world)
            # Entries from the cold run stay: a campaign that turned
            # the cache back on would hit them.
            configure_path_cache(enabled=False)
            off = run_fleet_campaign(
                world=world, config=CampaignConfig(workers=workers)
            )
            assert get_path_cache().enabled is False
        finally:
            configure_path_cache(enabled=True, clear=True)
        assert cold.metrics["path_cache_hits"] > 0
        assert off.metrics["path_cache_hits"] == 0
        assert off.metrics["path_cache_misses"] == 0
        assert off.metrics["path_cache_skips"] > 0
        assert network_to_json(
            NetworkAssessments(off.assessments), indent=2
        ) == network_to_json(NetworkAssessments(cold.assessments), indent=2)
