"""Tests for repro.runtime.campaign — ledger, checkpoints, resume.

Campaign mechanics are exercised with an injected runner that returns
synthetic assessments, so these tests do not run real calibrations;
the end-to-end runtime path is covered by the fleet experiment tests
and the runtime benchmark.
"""

import json

import pytest

import repro.runtime.campaign as campaign_module
from repro.core.serialize import assessment_to_dict, assessment_to_json
from repro.runtime.campaign import (
    CampaignConfig,
    FleetCampaign,
    fleet_jobs,
    standard_fleet_specs,
)
from repro.runtime.cache import ResultCache
from repro.runtime.jobs import CalibrationJob, NodeSpec
from repro.runtime.workers import RetryPolicy


def _jobs(*node_ids, max_attempts=1, seed=10):
    return [
        CalibrationJob(
            node=NodeSpec(node_id, "rooftop"),
            seed=seed + i,
            max_attempts=max_attempts,
        )
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
        def runner(job):
            if job.job_id == "bad":
                raise RuntimeError("node crashed")
            return make_assessment(job.node.node_id)

        result = FleetCampaign(
            _jobs("good-1", "bad", "good-2", max_attempts=3),
            runner=runner,
            retry_policy=RetryPolicy(base_delay_s=0.0, jitter=0.0),
        ).run()
        assert set(result.assessments) == {"good-1", "good-2"}
        assert result.state_counts() == {"done": 2, "failed": 1}
        (entry,) = result.failed()
        assert entry.job_id == "bad"
        assert entry.attempts == 3
        assert result.metrics["retries"] == 2
        assert "FAILED bad" in result.summary_text()

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
    def test_stop_after_defers_remaining(self, tmp_path, runner):
        config = CampaignConfig(
            checkpoint_path=str(tmp_path / "ckpt.json"), stop_after=2
        )
        result = FleetCampaign(
            _jobs("a", "b", "c", "d"), config=config, runner=runner
        ).run()
        assert result.state_counts() == {"done": 2, "pending": 2}
        assert result.source_counts() == {"run": 2, "deferred": 2}
        assert runner.calls == ["a", "b"]

    def test_resume_completes_only_remaining(self, tmp_path, runner):
        ckpt = str(tmp_path / "ckpt.json")
        jobs = _jobs("a", "b", "c", "d")
        FleetCampaign(
            jobs,
            config=CampaignConfig(checkpoint_path=ckpt, stop_after=2),
            runner=runner,
        ).run()

        resumed = FleetCampaign(
            jobs,
            config=CampaignConfig(checkpoint_path=ckpt, resume=True),
            runner=runner,
        ).run()
        assert runner.calls == ["a", "b", "c", "d"]  # no re-runs
        assert resumed.source_counts() == {"checkpoint": 2, "run": 2}
        assert resumed.state_counts() == {"done": 4}
        assert resumed.metrics["jobs_done"] == 2
        assert resumed.metrics["restored_from_checkpoint"] == 2

    def test_resume_equivalence(self, tmp_path, runner, make_assessment):
        """Interrupted + resumed == one uninterrupted run."""
        jobs = _jobs("a", "b", "c")
        ckpt = str(tmp_path / "ckpt.json")
        FleetCampaign(
            jobs,
            config=CampaignConfig(checkpoint_path=ckpt, stop_after=1),
            runner=runner,
        ).run()
        resumed = FleetCampaign(
            jobs,
            config=CampaignConfig(checkpoint_path=ckpt, resume=True),
            runner=runner,
        ).run()

        clean = FleetCampaign(jobs, runner=runner).run()
        assert set(resumed.assessments) == set(clean.assessments)
        for job_id in clean.assessments:
            assert assessment_to_json(
                resumed.assessments[job_id]
            ) == assessment_to_json(clean.assessments[job_id])

    def test_resume_ignores_stale_keys(self, tmp_path, runner):
        # A config change after the checkpoint (different seeds here)
        # changes content keys, so nothing stale is restored.
        ckpt = str(tmp_path / "ckpt.json")
        FleetCampaign(
            _jobs("a", "b"),
            config=CampaignConfig(checkpoint_path=ckpt),
            runner=runner,
        ).run()
        result = FleetCampaign(
            _jobs("a", "b", seed=99),
            config=CampaignConfig(checkpoint_path=ckpt, resume=True),
            runner=runner,
        ).run()
        assert result.source_counts() == {"run": 2}
        assert len(runner.calls) == 4

    def test_resume_without_checkpoint_rejected(self):
        with pytest.raises(ValueError, match="checkpoint"):
            CampaignConfig(resume=True)

    def test_missing_checkpoint_file_runs_everything(
        self, tmp_path, runner
    ):
        config = CampaignConfig(
            checkpoint_path=str(tmp_path / "nope.json"), resume=True
        )
        result = FleetCampaign(
            _jobs("a", "b"), config=config, runner=runner
        ).run()
        assert result.state_counts() == {"done": 2}
        assert result.source_counts() == {"run": 2}


class TestManifestWrites:
    """Each rewrite splices stored per-job JSON into the manifest text."""

    @staticmethod
    def _dict_built(ckpt, assessments):
        """The reference bytes: ``json.dumps`` of the manifest as a dict.

        The ledger part is taken from the file itself (its order follows
        completion, not job order); every result is encoded afresh with
        ``assessment_to_dict``.
        """
        written = json.loads(ckpt.read_text())
        return json.dumps(
            {
                "format": written["format"],
                "jobs": written["jobs"],
                "results": {
                    job_id: assessment_to_dict(assessments[job_id])
                    for job_id in written["results"]
                },
            }
        )

    @staticmethod
    def _failing_on(job_id, runner):
        def run(job):
            if job.job_id == job_id:
                raise RuntimeError(f"{job_id} crashed")
            return runner(job)

        return run

    def test_manifest_bytes_equal_dict_built_manifest(
        self, tmp_path, runner
    ):
        ckpt = tmp_path / "ckpt.json"
        jobs = _jobs("a", "b", "c", "d")
        result = FleetCampaign(
            jobs,
            config=CampaignConfig(checkpoint_path=str(ckpt)),
            runner=self._failing_on("c", runner),
        ).run()
        assert result.state_counts() == {"done": 3, "failed": 1}
        assert ckpt.read_text() == self._dict_built(ckpt, result.assessments)

    def test_resumed_manifest_bytes_equal_dict_built_manifest(
        self, tmp_path, runner
    ):
        ckpt = tmp_path / "ckpt.json"
        jobs = _jobs("a", "b", "c")
        first = FleetCampaign(
            jobs,
            config=CampaignConfig(checkpoint_path=str(ckpt), stop_after=2),
            runner=runner,
        ).run()
        assert ckpt.read_text() == self._dict_built(ckpt, first.assessments)
        resumed = FleetCampaign(
            jobs,
            config=CampaignConfig(checkpoint_path=str(ckpt), resume=True),
            runner=runner,
        ).run()
        assert resumed.source_counts() == {"checkpoint": 2, "run": 1}
        assert ckpt.read_text() == self._dict_built(
            ckpt, resumed.assessments
        )

    def test_each_finished_assessment_is_encoded_once(
        self, tmp_path, runner, monkeypatch
    ):
        encoded = []

        def counting(assessment):
            encoded.append(assessment.node_id)
            return assessment_to_json(assessment)

        monkeypatch.setattr(campaign_module, "assessment_to_json", counting)
        cache = ResultCache()
        jobs = _jobs("a", "b", "c", "d", "e")
        FleetCampaign(jobs[:2], cache=cache, runner=runner).run()
        assert encoded == []  # no checkpoint, nothing written
        result = FleetCampaign(
            jobs,
            config=CampaignConfig(checkpoint_path=str(tmp_path / "k.json")),
            cache=cache,
            runner=self._failing_on("d", runner),
        ).run()
        # Two restored from the cache and three run, one of which
        # failed: four rewrites, but each result was encoded once.
        assert result.source_counts() == {"cache": 2, "run": 3}
        assert sorted(encoded) == ["a", "b", "c", "e"]


class TestCheckpointFaults:
    """A damaged manifest never aborts ``--resume``; jobs just run."""

    def _interrupted(self, tmp_path, runner, jobs):
        ckpt = tmp_path / "ckpt.json"
        FleetCampaign(
            jobs,
            config=CampaignConfig(checkpoint_path=str(ckpt), stop_after=2),
            runner=runner,
        ).run()
        return ckpt

    def _resume(self, ckpt, runner, jobs):
        return FleetCampaign(
            jobs,
            config=CampaignConfig(checkpoint_path=str(ckpt), resume=True),
            runner=runner,
        ).run()

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            3,
            {"format": 1, "jobs": [], "results": {}},
            {"format": 1, "jobs": {}, "results": []},
            {"format": 1, "jobs": {"a": 3, "b": []}, "results": {}},
        ],
    )
    def test_mis_shaped_manifest_runs_every_job(
        self, tmp_path, runner, payload
    ):
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(json.dumps(payload))
        result = self._resume(ckpt, runner, _jobs("a", "b"))
        assert result.state_counts() == {"done": 2}
        assert result.source_counts() == {"run": 2}

    def test_mis_shaped_stored_result_reruns_that_job(
        self, tmp_path, runner
    ):
        jobs = _jobs("a", "b", "c")
        ckpt = self._interrupted(tmp_path, runner, jobs)
        manifest = json.loads(ckpt.read_text())
        manifest["results"]["a"]["report"]["scan"] = []
        ckpt.write_text(json.dumps(manifest))
        result = self._resume(ckpt, runner, jobs)
        assert result.source_counts() == {"checkpoint": 1, "run": 2}
        assert runner.calls == ["a", "b", "a", "c"]

    def test_truncated_manifest_runs_every_job(self, tmp_path, runner):
        jobs = _jobs("a", "b", "c")
        ckpt = self._interrupted(tmp_path, runner, jobs)
        text = ckpt.read_text()
        ckpt.write_text(text[: len(text) // 2])
        result = self._resume(ckpt, runner, jobs)
        assert result.source_counts() == {"run": 3}

    def test_wrong_format_runs_every_job(self, tmp_path, runner):
        jobs = _jobs("a", "b", "c")
        ckpt = self._interrupted(tmp_path, runner, jobs)
        manifest = json.loads(ckpt.read_text())
        manifest["format"] += 1
        ckpt.write_text(json.dumps(manifest))
        result = self._resume(ckpt, runner, jobs)
        assert result.source_counts() == {"run": 3}

    def test_stale_tmp_beside_complete_manifest(self, tmp_path, runner):
        # Killed between writing the next manifest's temp file and the
        # rename: resume reads the last complete manifest only.
        jobs = _jobs("a", "b", "c")
        ckpt = self._interrupted(tmp_path, runner, jobs)
        text = ckpt.read_text()
        tmp = ckpt.with_name(ckpt.name + ".tmp")
        tmp.write_text(text[: len(text) // 3])
        result = self._resume(ckpt, runner, jobs)
        assert result.source_counts() == {"checkpoint": 2, "run": 1}
        assert runner.calls == ["a", "b", "c"]
        assert result.state_counts() == {"done": 3}
