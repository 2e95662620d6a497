"""Tests for the fleet/crosscheck CLI commands."""

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


class TestCrosscheckCommand:
    def test_crosscheck(self, capsys):
        assert main(["crosscheck"]) == 0
        out = capsys.readouterr().out
        assert "replayer" in out
        assert "FLAGGED" in out
