"""Tests for the ingest CLI command and its data round trip."""

import json

import pytest

from repro.cli import main
from repro.core.ingest import (
    flight_reports_from_json,
    flight_reports_to_json,
)


@pytest.fixture(scope="module")
def sample_files(world, tmp_path_factory):
    """Generate a small SBS + tracker pair for the CLI."""
    import numpy as np

    from repro.adsb.decoder import Dump1090Decoder
    from repro.adsb.sbs import stream_to_sbs
    from repro.core.directional import (
        ADSB_BANDWIDTH_HZ,
        DECODE_SNR_DB,
    )
    from repro.environment.links import AdsbLinkModel
    from repro.geo.coords import GeoPoint
    from repro.node.sensor import SensorNode

    node = SensorNode("cli", world.testbed.site("rooftop"))
    rng = np.random.default_rng(55)
    link = AdsbLinkModel(
        env=node.environment, rx_antenna=node.antenna
    )
    decoder = Dump1090Decoder(receiver_position=node.position)
    threshold = (
        node.sdr.noise_floor_dbm(ADSB_BANDWIDTH_HZ) + DECODE_SNR_DB
    )
    messages = []
    for event in world.traffic.squitters_between(0.0, 10.0, rng):
        tx = GeoPoint(event.lat_deg, event.lon_deg, event.alt_m)
        rx = link.message_received_power_dbm(
            event.frame.icao, tx, event.tx_power_w, rng,
            time_s=event.time_s,
        )
        if rx < threshold:
            continue
        msg = decoder.decode_frame_bytes(event.frame.data, event.time_s, -40.0)
        if msg is not None:
            messages.append(msg)
    reports = world.ground_truth.query(
        node.position, 100_000.0, 5.0
    )
    directory = tmp_path_factory.mktemp("ingest")
    sbs = directory / "feed.sbs"
    sbs.write_text(stream_to_sbs(messages))
    tracker = directory / "tracker.json"
    tracker.write_text(flight_reports_to_json(reports))
    return sbs, tracker


class TestReportArchive:
    def test_roundtrip(self, world):
        reports = world.ground_truth.query(
            world.testbed.center, 100_000.0, 15.0
        )
        text = flight_reports_to_json(reports)
        back = flight_reports_from_json(text)
        assert len(back) == len(reports)
        assert back[0].icao == reports[0].icao
        assert back[0].position.lat_deg == pytest.approx(
            reports[0].position.lat_deg
        )

    def test_bad_json_rejected(self):
        with pytest.raises(ValueError):
            flight_reports_from_json(json.dumps({"not": "a list"}))


class TestIngestCommand:
    def test_end_to_end(self, sample_files, capsys):
        sbs, tracker = sample_files
        code = main(
            [
                "ingest",
                "--sbs", str(sbs),
                "--tracker", str(tracker),
                "--lat", "37.8715",
                "--lon", "-122.2730",
                "--alt", "20",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "aircraft received" in out
        assert "Estimated field of view" in out
        assert "[pass] ghost" in out

    def test_shipped_sample_files_work(self, capsys):
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        sbs = root / "examples" / "data" / "sample_feed.sbs"
        tracker = root / "examples" / "data" / "sample_tracker.json"
        assert sbs.exists() and tracker.exists()
        code = main(
            [
                "ingest",
                "--sbs", str(sbs),
                "--tracker", str(tracker),
                "--lat", "37.8715",
                "--lon", "-122.2730",
                "--alt", "20",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0 ghosts" in out


def _ingest(sbs, tracker):
    return main(
        [
            "ingest",
            "--sbs", str(sbs),
            "--tracker", str(tracker),
            "--lat", "37.8715",
            "--lon", "-122.2730",
        ]
    )


class TestUnreadableInput:
    """A missing or malformed input file fails on one line, exit 2."""

    @pytest.mark.parametrize("missing", ["sbs", "tracker"])
    def test_missing_file(self, sample_files, tmp_path, capsys, missing):
        sbs, tracker = sample_files
        path = tmp_path / "nope"
        if missing == "sbs":
            sbs = path
        else:
            tracker = path
        assert _ingest(sbs, tracker) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"{path}: cannot read: No such file or directory\n"
        )

    @pytest.mark.parametrize(
        "text, error",
        [
            ('{"not": "a list"}', "ValueError"),
            ('[{"icao": "A00001"}]', "KeyError: 'callsign'"),
            ('[{"icao": "A0', "JSONDecodeError"),
        ],
    )
    def test_malformed_tracker(
        self, sample_files, tmp_path, capsys, text, error
    ):
        sbs, _ = sample_files
        tracker = tmp_path / "tracker.json"
        tracker.write_text(text)
        assert _ingest(sbs, tracker) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{tracker}: not a tracker record: ")
        assert error in captured.err
        assert captured.err.count("\n") == 1

    def test_binary_sbs_feed(self, sample_files, tmp_path, capsys):
        _, tracker = sample_files
        sbs = tmp_path / "feed.sbs"
        sbs.write_bytes(b"\xff\xfe\x00garbage")
        assert _ingest(sbs, tracker) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"{sbs}: not a SBS record: UnicodeDecodeError: "
        )
        assert captured.err.count("\n") == 1
