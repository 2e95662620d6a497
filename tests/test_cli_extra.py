"""Tests for the fleet/crosscheck CLI commands."""

import json

from repro.cli import main


class TestFleetCommand:
    def test_fleet(self, capsys):
        assert main(["fleet"]) == 0
        out = capsys.readouterr().out
        assert "Rejected" in out
        assert "rooftop-0" in out

    def test_fleet_negative_max_jobs_rejected(self, capsys):
        assert main(["fleet", "--max-jobs", "-1"]) == 2
        assert "--max-jobs" in capsys.readouterr().err

    def test_fleet_checkpoint_then_resume(self, tmp_path, capsys):
        # Run the first two jobs into the cache directory, then rerun
        # on it: the two done jobs come from the cache, two more run.
        args = ["fleet", "--max-jobs", "2", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "2 done" in first
        assert "10 pending" in first

        assert main(args) == 0
        second = capsys.readouterr().out
        assert "2 from cache" in second
        assert "4 done" in second

    def test_fleet_json_counts_deferred_jobs(self, tmp_path, capsys):
        # A --max-jobs run is a partial fleet: the file must say how
        # many jobs it left out, not pass for a complete 3-node fleet.
        path = tmp_path / "fleet.json"
        assert main(["fleet", "--max-jobs", "3", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "deferred: 9 job(s)" in out
        doc = json.loads(path.read_text())
        assert len(doc["assessments"]) == 3
        assert doc["failures"] == {}
        assert doc["metrics"]["jobs_deferred"] == 9

    def test_fleet_fail_node_runs_crashed_job_once(self, tmp_path, capsys):
        path = tmp_path / "fleet.json"
        args = ["fleet", "--fail-node", "rooftop-1", "--json", str(path)]
        assert main(args) == 0
        doc = json.loads(path.read_text())
        assert len(doc["assessments"]) == 11
        assert list(doc["failures"]) == ["rooftop-1"]
        failure = doc["failures"]["rooftop-1"]
        assert failure["error"] == "InjectedFault: injected node fault"
        assert doc["metrics"]["jobs_failed"] == 1
        assert "retries" not in doc["metrics"]
        assert "FAILED rooftop-1: InjectedFault" in capsys.readouterr().out


class TestCrosscheckCommand:
    def test_crosscheck(self, capsys):
        assert main(["crosscheck"]) == 0
        out = capsys.readouterr().out
        assert "replayer" in out
        assert "FLAGGED" in out
