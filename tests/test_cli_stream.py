"""Tests for the ``repro stream`` CLI command."""

import json

import pytest

from repro.adsb.icao import IcaoAddress
from repro.cli import main
from repro.core.observations import DirectionalScan
from repro.core.serialize import scan_to_dict
from tests.test_stream_online import _obs


@pytest.fixture()
def scan_file(tmp_path):
    scan = DirectionalScan(
        node_id="replay-node",
        duration_s=30.0,
        radius_m=100_000.0,
        observations=[
            _obs(i, (12.0 * i) % 360.0, 30.0 + i, i % 3 != 0, -40.0)
            for i in range(40)
        ],
        decoded_message_count=90,
        ghost_icaos=[IcaoAddress(0xF00D)],
    )
    path = tmp_path / "scan.json"
    path.write_text(json.dumps(scan_to_dict(scan)))
    return path


class TestValidation:
    def test_window_must_be_positive(self, capsys):
        assert main(["stream", "--window", "0"]) == 2
        assert "--window" in capsys.readouterr().err

    def test_drift_threshold_range(self, capsys):
        assert main(["stream", "--drift-threshold", "1.5"]) == 2
        assert "--drift-threshold" in capsys.readouterr().err

    def test_windows_must_be_positive(self, capsys):
        assert main(["stream", "--windows", "0"]) == 2
        assert "--windows" in capsys.readouterr().err

    def test_swap_at_requires_swap_to(self, capsys):
        assert main(["stream", "--swap-at", "2"]) == 2
        assert "--swap-to" in capsys.readouterr().err

    def test_swap_at_must_fall_inside_stream(self, capsys):
        code = main(
            [
                "stream",
                "--swap-to", "indoor",
                "--swap-at", "9",
                "--windows", "4",
            ]
        )
        assert code == 2
        assert "--swap-at" in capsys.readouterr().err


class TestReplayFromFile:
    def test_recorded_scan_streams_end_to_end(self, scan_file, capsys):
        code = main(
            ["stream", "--source", "replay", "--scan", str(scan_file)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "replay-node" in out
        assert "window  0" in out
        assert "Final field of view" in out
        assert "ghost" in out
        assert "0 drift event(s)" in out


class TestReplayFromReport:
    def test_full_calibration_report_json_is_accepted(
        self, scan_file, tmp_path, capsys
    ):
        """``repro calibrate --json`` nests the scan under "scan"; the
        replay loader must unwrap it."""
        scan = json.loads(scan_file.read_text())
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"node_id": scan["node_id"], "scan": scan}))
        assert main(["stream", "--source", "replay", "--scan", str(path)]) == 0
        assert "replay-node" in capsys.readouterr().out


class TestMalformedScanFile:
    """A file that is not a scan fails on one line, not a traceback."""

    @pytest.mark.parametrize(
        "text, error",
        [
            ("[1, 2]", "AttributeError"),
            ('{"node_id": "x"}', "KeyError: 'duration_s'"),
            (None, "JSONDecodeError"),
        ],
    )
    def test_exits_2_with_one_line(self, scan_file, capsys, text, error):
        # ``None``: the recorded scan, truncated mid-way.
        full = scan_file.read_text()
        scan_file.write_text(full[: len(full) // 2] if text is None else text)
        code = main(["stream", "--source", "replay", "--scan", str(scan_file)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{scan_file}: not a scan record: ")
        assert error in captured.err
        assert captured.err.count("\n") == 1


class TestUnreadableScanFile:
    """A scan file that cannot be opened fails on one line."""

    def test_missing_file_exits_2_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "nope.json"
        code = main(["stream", "--source", "replay", "--scan", str(path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"{path}: cannot read: No such file or directory\n"
        )

    def test_directory_exits_2_with_one_line(self, tmp_path, capsys):
        code = main(["stream", "--source", "replay", "--scan", str(tmp_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"{tmp_path}: cannot read: ")
        assert captured.err.count("\n") == 1


class TestSimSource:
    def test_sim_stream_runs_windows(self, capsys):
        code = main(["stream", "--windows", "2", "--seed", "11"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rooftop-stream" in out
        assert "window  0" in out
        assert "window  1" in out
        assert "broker_enqueued" in out
