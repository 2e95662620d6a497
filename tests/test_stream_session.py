"""Tests for node sessions and the stream gateway."""

import math
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adsb.decoder import DecodedMessage
from repro.adsb.icao import IcaoAddress
from repro.adsb.sbs import SbsRecord, parse_sbs, to_sbs
from repro.airspace.flightradar import FlightReport
from repro.core.network import NodeAssessment
from repro.environment.links import ray_geometry
from repro.geo.coords import ENU, GeoPoint, enu_to_geo
from repro.stream import (
    EngineConfig,
    GatewayConfig,
    GhostRecord,
    HeartbeatRecord,
    NodeSession,
    ObservationRecord,
    SbsLineRecord,
    SessionCounters,
    StreamGateway,
    TruthBatchRecord,
)
from repro.stream.session import _LiveTally, _truth_geometry
from tests.test_stream_online import _obs

RECEIVER = GeoPoint(37.8715, -122.2730, 20.0)
A = IcaoAddress(0xA00001)
B = IcaoAddress(0xB00002)
C = IcaoAddress(0xC00003)


def _sbs_line(icao: IcaoAddress, time_s: float) -> str:
    return to_sbs(
        DecodedMessage(
            time_s=time_s,
            icao=icao,
            kind="acquisition",
            rssi_dbfs=-40.0,
        )
    )


def _report(icao: IcaoAddress, lat_deg: float = 38.2) -> FlightReport:
    return FlightReport(
        icao=icao,
        callsign=f"FL{icao.value:04X}",
        position=GeoPoint(lat_deg, -122.2730, 9000.0),
        ground_speed_ms=220.0,
        track_deg=90.0,
    )


#: One record of each type, stamped at the given time.
_RECORDS_AT = {
    "sbs": lambda t: SbsLineRecord(t, _sbs_line(A, 1.0)),
    "truth": lambda t: TruthBatchRecord(t, [_report(A)]),
    "observation": lambda t: ObservationRecord(
        t, _obs(0, 40.0, 60.0, True, -40.0)
    ),
    "ghost": lambda t: GhostRecord(t, C, 2),
    "heartbeat": HeartbeatRecord,
}


class TestSbsPath:
    def test_valid_lines_are_tallied(self):
        session = NodeSession("n", receiver_position=RECEIVER)
        session.handle(SbsLineRecord(1.0, _sbs_line(A, 1.0)))
        session.handle(SbsLineRecord(2.0, _sbs_line(A, 2.0)))
        assert session.counters.sbs_lines == 2
        assert session.counters.malformed_lines == 0

    def test_malformed_lines_quarantined_not_raised(self):
        session = NodeSession("n", receiver_position=RECEIVER)
        session.handle(SbsLineRecord(1.0, "MSG,99,garbage"))
        session.handle(SbsLineRecord(2.0, "not,a,message"))
        session.handle(SbsLineRecord(3.0, "   "))
        assert session.counters.malformed_lines == 2
        assert session.counters.blank_lines == 1
        assert len(session.quarantine) == 2
        time_s, line, error = session.quarantine[0]
        assert time_s == 1.0
        assert line == "MSG,99,garbage"
        assert error

    def test_quarantine_is_bounded(self):
        session = NodeSession(
            "n", receiver_position=RECEIVER, quarantine_cap=5
        )
        for i in range(50):
            session.handle(SbsLineRecord(float(i), f"junk-{i}"))
        assert session.counters.malformed_lines == 50
        assert len(session.quarantine) == 5
        assert session.quarantine[-1][1] == "junk-49"


class TestLiveTruthJoin:
    def test_join_marks_received_and_ghosts(self):
        config = EngineConfig(window_s=30.0)
        session = NodeSession(
            "n", config=config, receiver_position=RECEIVER
        )
        # Decodes for A (tracked) and C (not in ground truth).
        session.handle(SbsLineRecord(5.0, _sbs_line(A, 5.0)))
        session.handle(SbsLineRecord(6.0, _sbs_line(C, 6.0)))
        # Tracker snapshot knows about A and B.
        session.handle(
            TruthBatchRecord(15.0, [_report(A), _report(B, lat_deg=38.4)])
        )
        # Window boundary: unmatched decodes (C) become ghosts.
        session.handle(HeartbeatRecord(30.0))
        scan = session.engine.window.to_scan("n", 100_000.0)
        by_icao = {o.icao: o for o in scan.observations}
        assert by_icao[A].received
        assert by_icao[A].n_messages == 1
        assert not by_icao[B].received
        assert scan.ghost_icaos == [C]
        assert session.counters.ghosts == 1
        assert session.counters.truth_reports == 2

    def test_truth_requires_receiver_position(self):
        session = NodeSession("n")
        with pytest.raises(ValueError):
            session.handle(TruthBatchRecord(1.0, [_report(A)]))

    def test_tallies_reset_each_window(self):
        session = NodeSession("n", receiver_position=RECEIVER)
        session.handle(SbsLineRecord(5.0, _sbs_line(C, 5.0)))
        session.handle(HeartbeatRecord(30.0))
        session.handle(HeartbeatRecord(31.0))
        # C was flushed as a window-0 ghost; a new window starts clean.
        session.handle(TruthBatchRecord(45.0, [_report(A)]))
        obs = session.engine.window.to_scan("n", 1e5).observations
        assert [o.received for o in obs if o.icao == A] == [False]
        assert session.counters.ghosts == 1


class TestSessionLifecycle:
    def test_heartbeat_advances_clock_and_liveness(self):
        session = NodeSession("n")
        session.handle(HeartbeatRecord(42.0))
        assert session.engine.now_s == 42.0
        assert session.last_seen_s == 42.0
        assert session.idle_for(100.0) == pytest.approx(58.0)
        assert session.counters.heartbeats == 1

    def test_unknown_record_type_raises(self):
        session = NodeSession("n")
        with pytest.raises(TypeError):
            session.handle(object())

    def test_non_record_moves_no_counter(self):
        class LooksLikeHeartbeat:
            time_s = 5.0

        session = NodeSession("n")
        for bogus in (object(), LooksLikeHeartbeat(), None):
            with pytest.raises(TypeError, match="unknown stream record"):
                session.handle(bogus)
        assert session.counters.as_dict() == SessionCounters().as_dict()
        assert session.last_seen_s == 0.0


class TestDispatch:
    """Handlers are looked up by exact type; a subclass of a record
    type is matched by ``isinstance`` and handled as its base."""

    @pytest.mark.parametrize("kind", sorted(_RECORDS_AT))
    def test_subclass_dispatches_as_its_base(self, kind):
        record = _RECORDS_AT[kind](5.0)
        subclass = type(f"Custom{type(record).__name__}", (type(record),), {})
        custom = subclass(**vars(record))

        def consume(rec):
            session = NodeSession("n", receiver_position=RECEIVER)
            session.handle(rec)
            session.handle(HeartbeatRecord(30.0))
            return session

        base, derived = consume(record), consume(custom)
        assert derived.counters.as_dict() == base.counters.as_dict()
        assert derived.counters.records == 2
        assert len(derived.engine.window) == len(base.engine.window)
        assert [s.evidence for s in derived.engine.summaries] == [
            s.evidence for s in base.engine.summaries
        ]


class TestReplayClock:
    def _scan(self, n_obs, ghost):
        from repro.core.observations import DirectionalScan

        ghosts = [C] if ghost else []
        return DirectionalScan(
            node_id="n",
            duration_s=30.0,
            radius_m=100_000.0,
            observations=[
                _obs(i, (10.0 * i) % 360.0, 60.0, True, -40.0)
                for i in range(n_obs)
            ],
            decoded_message_count=3 * n_obs + len(ghosts),
            ghost_icaos=ghosts,
        )

    def test_replay_never_overshoots_window_end(self):
        """Regression: 31 events stepping by 30/31 used to accumulate
        past t=30.0, so the trailing heartbeat opened (and a flush
        finalized) a phantom empty window."""
        from repro.stream import ReplaySource

        for start_s in (0.0, 30.0, 90.0):
            scan = self._scan(30, ghost=True)  # 31 events
            records = list(
                ReplaySource(scan=scan, start_s=start_s).records()
            )
            assert records[-1].time_s == start_s + 30.0
            assert max(r.time_s for r in records) == start_s + 30.0
            times = [r.time_s for r in records]
            assert times == sorted(times)

    def test_back_to_back_replay_finalizes_one_window_each(self):
        from repro.stream import ReplaySource, StreamGateway

        gateway = StreamGateway()
        for k in range(4):
            replay = ReplaySource(
                scan=self._scan(30, ghost=True), start_s=k * 30.0
            )
            for record in replay.records():
                gateway.publish("n", record)
        gateway.flush()
        engine = gateway.sessions["n"].engine
        assert len(engine.summaries) == 4
        assert [s.end_s for s in engine.summaries] == [
            30.0,
            60.0,
            90.0,
            120.0,
        ]
        assert all(s.evidence == 30 for s in engine.summaries)


class TestStreamGateway:
    def _gateway(self, **kwargs) -> StreamGateway:
        return StreamGateway(config=GatewayConfig(**kwargs))

    def test_publish_drain_flush_snapshot(self):
        gateway = self._gateway()
        for t in range(5):
            gateway.publish(
                "node-a",
                ObservationRecord(
                    float(t), _obs(t, 40.0, 60.0, True, -40.0)
                ),
            )
        gateway.publish("node-a", HeartbeatRecord(29.0))
        assert gateway.broker.depth("node-a") == 6
        gateway.flush()
        assert gateway.broker.depth("node-a") == 0
        snapshot = gateway.snapshot("node-a")
        assert isinstance(snapshot, NodeAssessment)
        assert snapshot.node_id == "node-a"
        assert len(snapshot.report.scan.observations) == 5
        summary = gateway.metrics.summary()
        assert summary["stream_records_consumed"] == 6
        assert summary["broker_enqueued"] == 6
        assert summary["stream_windows_finalized"] == 1

    def test_snapshot_unknown_node_raises(self):
        with pytest.raises(KeyError):
            self._gateway().snapshot("nobody")

    def test_snapshots_cover_all_sessions(self):
        gateway = self._gateway()
        gateway.publish("b", HeartbeatRecord(1.0))
        gateway.publish("a", HeartbeatRecord(1.0))
        gateway.drain()
        assert list(gateway.snapshots()) == ["a", "b"]

    def test_idle_sessions_evicted(self):
        gateway = self._gateway(idle_timeout_s=60.0)
        gateway.publish("slow", HeartbeatRecord(0.0))
        gateway.publish("live", HeartbeatRecord(100.0))
        gateway.drain()
        assert gateway.evict_idle(now_s=120.0) == ["slow"]
        assert "slow" not in gateway.sessions
        assert (
            gateway.metrics.summary()["stream_sessions_evicted"] == 1
        )

    def _failing_drain(self):
        """No positions, so the truth batch raises mid-drain."""
        gateway = self._gateway()
        for record in (
            HeartbeatRecord(1.0),
            TruthBatchRecord(2.0, []),
            HeartbeatRecord(3.0),
            HeartbeatRecord(4.0),
        ):
            gateway.publish("n", record)
        with pytest.raises(ValueError, match="receiver position"):
            gateway.drain_node("n")
        return gateway

    def test_raising_record_requeues_the_rest_of_its_drain(self):
        gateway = self._failing_drain()
        assert gateway.sessions["n"].counters.records == 2
        assert gateway.broker.stats()["n"]["consumed"] == 2
        assert gateway.broker.total_dropped() == 0
        summary = gateway.metrics.summary()
        assert summary["stream_records_consumed"] == 2
        # The tail sits ahead of anything published since.
        gateway.publish("n", HeartbeatRecord(5.0))
        queue = gateway.broker.queue_for("n")
        assert [r.time_s for r in queue.drain()] == [3.0, 4.0, 5.0]

    def test_next_drain_consumes_the_requeued_tail(self):
        gateway = self._failing_drain()
        assert gateway.drain_node("n") == 2
        session = gateway.sessions["n"]
        assert session.counters.records == 4
        assert session.counters.heartbeats == 3
        assert session.last_seen_s == 4.0
        assert gateway.broker.stats()["n"]["consumed"] == 4
        assert gateway.broker.depth("n") == 0
        assert gateway.metrics.summary()["stream_records_consumed"] == 4

    def test_sessions_use_claimed_positions(self):
        gateway = StreamGateway(positions={"n": RECEIVER})
        gateway.publish("n", SbsLineRecord(5.0, _sbs_line(A, 5.0)))
        gateway.publish("n", TruthBatchRecord(15.0, [_report(A)]))
        gateway.drain()
        assert gateway.sessions["n"].counters.observations == 1

    def test_summary_text_reports_sessions_and_counters(self):
        gateway = self._gateway()
        gateway.publish("node-a", HeartbeatRecord(1.0))
        gateway.publish("node-a", SbsLineRecord(2.0, "garbage"))
        gateway.flush()
        text = gateway.summary_text()
        assert "node-a" in text
        assert "2 records" in text
        assert "1 quarantined" in text
        assert "broker_enqueued=2" in text


_BAD_TIMES = [math.nan, math.inf, -math.inf]


class TestNonFiniteTimestamps:
    """A NaN or infinite ``time_s`` must neither hang the drain nor
    unbound the window: the session quarantines the record."""

    N_WINDOWS = 20

    @pytest.mark.parametrize("kind", sorted(_RECORDS_AT))
    @pytest.mark.parametrize("bad_s", _BAD_TIMES, ids=repr)
    def test_record_is_quarantined_not_consumed(self, kind, bad_s):
        gateway = StreamGateway(positions={"n": RECEIVER})
        records = [_RECORDS_AT[kind](bad_s)]
        records += [
            ObservationRecord(
                30.0 * k + 1.0, _obs(k, 40.0, 60.0, True, -40.0)
            )
            for k in range(self.N_WINDOWS)
        ]
        end_s = 30.0 * self.N_WINDOWS
        records.append(HeartbeatRecord(end_s))
        for record in records:
            assert gateway.publish("n", record).accepted
        drain = threading.Thread(
            target=gateway.drain_node, args=("n",), daemon=True
        )
        drain.start()
        drain.join(timeout=10.0)
        assert not drain.is_alive(), "drain never finished"

        session = gateway.sessions["n"]
        engine = session.engine
        assert engine.now_s == end_s
        assert [s.evidence for s in engine.summaries] == [
            1
        ] * self.N_WINDOWS
        assert len(engine.window) == 1
        assert session.last_seen_s == end_s
        assert session.counters.records == len(records)
        assert session.counters.bad_timestamps == 1
        assert session.counters.as_dict()["bad_timestamps"] == 1
        assert len(session.quarantine) == 1
        _, what, error = session.quarantine[0]
        assert what == type(records[0]).__name__
        assert "non-finite" in error
        assert gateway.evict_idle(now_s=end_s + 121.0) == ["n"]

    def test_clean_stream_reports_no_fault_counter(self):
        session = NodeSession("n")
        session.handle(HeartbeatRecord(1.0))
        assert "bad_timestamps" not in session.counters.as_dict()
        assert "late_records" not in session.counters.as_dict()


class TestLateRecords:
    """A record stamped before the open window's start belongs to a
    window that has already closed. Folding it into the open one would
    count it in the wrong window (stream != batch), so the session
    quarantines it."""

    @pytest.mark.parametrize("kind", sorted(_RECORDS_AT))
    def test_record_before_open_window_is_quarantined(self, kind):
        session = NodeSession("n", receiver_position=RECEIVER)
        session.handle(
            ObservationRecord(100.0, _obs(0, 40.0, 60.0, True, -40.0))
        )
        engine = session.engine
        assert engine.window_index * engine.config.window_s == 90.0
        before = session.counters.as_dict()
        late = _RECORDS_AT[kind](50.0)
        session.handle(late)
        session.handle(HeartbeatRecord(120.0))

        # Only the late record's arrival and the heartbeat counted.
        assert session.counters.as_dict() == dict(
            before,
            records=before["records"] + 2,
            heartbeats=before["heartbeats"] + 1,
            late_records=1,
        )
        # The close at 120 holds exactly the window [90, 120).
        assert engine.summaries[-1].end_s == 120.0
        assert engine.summaries[-1].evidence == 1
        assert len(engine.window) == 1
        assert session.last_seen_s == 120.0
        time_s, what, error = session.quarantine[-1]
        assert (time_s, what) == (50.0, type(late).__name__)
        assert "late record" in error

    @pytest.mark.parametrize("kind", sorted(_RECORDS_AT))
    def test_record_at_window_start_is_not_late(self, kind):
        session = NodeSession("n", receiver_position=RECEIVER)
        session.handle(HeartbeatRecord(90.0))
        session.handle(_RECORDS_AT[kind](90.0))
        assert session.counters.late_records == 0
        assert "late_records" not in session.counters.as_dict()
        assert not session.quarantine

    def test_out_of_order_within_the_open_window_is_kept(self):
        session = NodeSession("n")
        for t in (100.0, 95.0):
            session.handle(
                ObservationRecord(t, _obs(int(t), 40.0, 60.0, True, -40.0))
            )
        session.handle(HeartbeatRecord(120.0))
        assert session.counters.late_records == 0
        assert session.engine.summaries[-1].evidence == 2


def _sbs_lines():
    """Well-formed SBS lines for a few aircraft, every message kind."""
    icao = st.sampled_from([A, B, C])
    time_s = st.floats(0.0, 29.0)
    return st.one_of(
        st.builds(
            lambda i, t: to_sbs(
                DecodedMessage(time_s=t, icao=i, kind="acquisition")
            ),
            icao,
            time_s,
        ),
        st.builds(
            lambda i, t, cs: to_sbs(
                DecodedMessage(
                    time_s=t, icao=i, kind="identification", callsign=cs
                )
            ),
            icao,
            time_s,
            st.sampled_from(["UAL123", "N42", ""]),
        ),
        st.builds(
            lambda i, t, lat, lon: to_sbs(
                DecodedMessage(
                    time_s=t,
                    icao=i,
                    kind="position",
                    position=GeoPoint(lat, lon, 9000.0),
                )
            ),
            icao,
            time_s,
            st.floats(36.0, 39.0),
            st.floats(-123.0, -121.0),
        ),
        st.builds(
            lambda i, t, e, n: to_sbs(
                DecodedMessage(
                    time_s=t, icao=i, kind="velocity", velocity_kt=(e, n)
                )
            ),
            icao,
            time_s,
            st.floats(-400.0, 400.0),
            st.floats(-400.0, 400.0),
        ),
    )


#: What a lossy reader hands the session: intact lines, lines cut at a
#: random point, two lines spliced where a newline was lost, blanks.
_damaged_lines = st.one_of(
    _sbs_lines(),
    st.builds(
        lambda line, frac: line[: int(len(line) * frac)],
        _sbs_lines(),
        st.floats(0.0, 1.0),
    ),
    st.builds(
        lambda a, b, frac: a[: int(len(a) * frac)] + b,
        _sbs_lines(),
        _sbs_lines(),
        st.floats(0.0, 1.0),
    ),
    st.sampled_from(["", "   ", "\t", "\r"]),
)


def _disposition(line: str) -> str:
    stripped = line.strip()
    if not stripped:
        return "blank"
    try:
        parse_sbs(stripped)
    except ValueError:
        return "malformed"
    return "parsed"


class TestSbsIngestEdges:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_damaged_lines, max_size=40), st.integers(1, 8))
    def test_damaged_lines_degrade_only_themselves(self, lines, cap):
        session = NodeSession(
            "n", receiver_position=RECEIVER, quarantine_cap=cap
        )
        for i, line in enumerate(lines):
            session.handle(SbsLineRecord(i * 0.5, line))
            assert len(session.quarantine) <= cap
        dispositions = Counter(_disposition(line) for line in lines)
        counters = session.counters
        assert counters.records == len(lines)
        assert counters.sbs_lines == dispositions["parsed"]
        assert counters.malformed_lines == dispositions["malformed"]
        assert counters.blank_lines == dispositions["blank"]
        assert len(session.quarantine) == min(cap, counters.malformed_lines)

        # No truth arrives, so every tallied ICAO turns ghost at the
        # close: exactly the ICAOs, and messages, parse_sbs accepted.
        accepted = [
            parse_sbs(line.strip())
            for line in lines
            if _disposition(line) == "parsed"
        ]
        session.handle(HeartbeatRecord(30.0))
        scan = session.engine.snapshot().report.scan
        assert scan.ghost_icaos == sorted({r.icao for r in accepted})
        assert scan.decoded_message_count == len(accepted)


def _count_builds(monkeypatch, *classes):
    """Count constructions of ``classes`` by name while patched."""
    built = Counter()
    for cls in classes:
        def counting(
            self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs
        ):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return built


class _RecordingSession(NodeSession):
    """Records each window's tallies, in order, as the window closes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.flushes = []

    def _flush_window_tallies(self, boundary_s):
        self.flushes.append(
            (
                boundary_s,
                [
                    (key, t.icao, t.n_messages, t.last_time_s, t.matched)
                    for key, t in self._tallies.items()
                ],
            )
        )
        super()._flush_window_tallies(boundary_s)


class _ParsingSession(_RecordingSession):
    """The SBS path as it was before the scanner and the one-frame
    ``handle``: the line checked in ``handle``, then consumed by its own
    handler, with every line parsed into a full ``SbsRecord`` by
    ``parse_sbs``."""

    def handle(self, record):
        if not isinstance(record, SbsLineRecord):
            super().handle(record)
            return
        self.counters.records += 1
        time_s = record.time_s
        if not math.isfinite(time_s):
            self.counters.bad_timestamps += 1
            self._quarantine(record, f"non-finite timestamp {time_s!r}")
            return
        window_start_s = (
            self.engine.window_index * self.engine.config.window_s
        )
        if time_s < window_start_s:
            self.counters.late_records += 1
            self._quarantine(
                record, f"late record: window opened at {window_start_s!r}"
            )
            return
        if time_s > self.last_seen_s:
            self.last_seen_s = time_s
        self._handle_parsed_sbs(record)

    def _handle_parsed_sbs(self, record):
        line = record.line.strip()
        if not line:
            self.counters.blank_lines += 1
            self.engine.advance(record.time_s)
            return
        try:
            parsed = parse_sbs(line)
        except ValueError as exc:
            self.counters.malformed_lines += 1
            self.quarantine.append((record.time_s, line, str(exc)))
            self.engine.advance(record.time_s)
            return
        self.counters.sbs_lines += 1
        self.engine.advance(record.time_s)
        key = parsed.icao.value
        tally = self._tallies.get(key)
        if tally is None:
            tally = self._tallies[key] = _LiveTally(parsed.icao)
        tally.n_messages += 1
        tally.last_time_s = record.time_s


def _state(session):
    return (
        session.counters.as_dict(),
        list(session.quarantine),
        session.flushes,
        [
            (key, t.n_messages, t.matched)
            for key, t in session._tallies.items()
        ],
        session.last_seen_s,
        repr(session.engine.summaries),
        session.engine.now_s,
        list(session.engine.window._entries),
    )


#: Record stamps: in and out of order across a few windows, so some
#: records arrive late, and some non-finite.
_stamps = st.one_of(
    st.floats(0.0, 100.0),
    st.floats(0.0, 100.0),
    st.sampled_from(_BAD_TIMES),
)

_records = st.one_of(
    st.builds(SbsLineRecord, _stamps, _damaged_lines),
    st.builds(SbsLineRecord, _stamps, _damaged_lines),
    st.builds(
        lambda t, icaos: TruthBatchRecord(t, [_report(i) for i in icaos]),
        _stamps,
        st.lists(st.sampled_from([A, B, C]), max_size=3),
    ),
    st.builds(HeartbeatRecord, _stamps),
)


class _TaggedSbsLine(SbsLineRecord):
    """A publisher's own SBS record type: dispatches as an SBS line."""


class _TaggedHeartbeat(HeartbeatRecord):
    """A publisher's own heartbeat type: dispatches as a heartbeat."""


#: ``_records`` plus subclasses of the record types, and runs of
#: intact lines so the tallies build up across windows.
_mixed_records = st.one_of(
    _records,
    st.builds(SbsLineRecord, st.floats(0.0, 100.0), _sbs_lines()),
    st.builds(_TaggedSbsLine, _stamps, _damaged_lines),
    st.builds(_TaggedHeartbeat, _stamps),
)


class TestSbsScannerPath:
    """The live SBS path builds only the addresses the join keeps."""

    def test_one_address_per_new_icao_per_window(self, monkeypatch):
        # Every kind, so parse_sbs would have built a GeoPoint for the
        # position lines and parsed floats for the velocity ones.
        kinds = ["acquisition", "position", "velocity", "identification"]
        window_icaos = [[A, B, A, A], [B, B], [A, C, B, C]]
        session = NodeSession("n", receiver_position=RECEIVER)
        built = _count_builds(
            monkeypatch, SbsRecord, GeoPoint, IcaoAddress
        )
        for w, icaos in enumerate(window_icaos):
            for i, icao in enumerate(icaos):
                t = 30.0 * w + i + 1.0
                line = to_sbs(
                    DecodedMessage(
                        time_s=t,
                        icao=icao,
                        kind=kinds[i % len(kinds)],
                        callsign="UAL123",
                        position=RECEIVER,
                        velocity_kt=(100.0, 50.0),
                    )
                )
                session.handle(SbsLineRecord(t, line))
        assert built == {
            "IcaoAddress": sum(len(set(icaos)) for icaos in window_icaos)
        }
        assert session.counters.sbs_lines == 10
        session.handle(HeartbeatRecord(90.0))
        assert session.counters.ghosts == 6

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_mixed_records, max_size=60), st.integers(1, 8))
    def test_same_dispositions_as_parsing_every_line(self, records, cap):
        # Valid, malformed and blank lines, late and non-finite stamps,
        # truth batches, heartbeats and record subclasses, interleaved:
        # the one-frame SBS path matches the parsing reference's
        # counters, quarantine, per-window tallies and ghost flushes,
        # record by record.
        scanning = _RecordingSession(
            "n", receiver_position=RECEIVER, quarantine_cap=cap
        )
        parsing = _ParsingSession(
            "n", receiver_position=RECEIVER, quarantine_cap=cap
        )
        for record in records + [HeartbeatRecord(200.0)]:
            scanning.handle(record)
            parsing.handle(record)
            assert _state(scanning) == _state(parsing)


def _consume_in_chunks(session, oracle, records, sizes):
    """Feed ``records`` to ``session.consume`` in chunks of ``sizes``
    and to ``oracle.handle`` one by one, comparing at every chunk edge.

    A chunk that raises stops where the gateway's drain stops: the
    records before the raise, and the raising one, are consumed, and
    the rest of the chunk goes back ahead of the remaining records.
    The oracle must raise the same error at the same record.
    """
    pending = list(records)
    sizes = iter(sizes)
    while pending:
        chunk = pending[: next(sizes, len(pending))]
        rest = iter(chunk)
        try:
            session.consume(rest)
            errors = []
        except ValueError as exc:
            errors = [str(exc)]
        unconsumed = list(rest)
        oracle_errors = []
        for record in chunk[: len(chunk) - len(unconsumed)]:
            try:
                oracle.handle(record)
            except ValueError as exc:
                oracle_errors.append(str(exc))
        assert errors == oracle_errors
        assert _state(session) == _state(oracle)
        pending = unconsumed + pending[len(chunk):]


class TestChunkedConsume:
    """``consume`` over a whole backlog equals one record at a time."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(_mixed_records, max_size=60),
        st.lists(st.integers(0, 12), max_size=20),
        st.integers(1, 8),
    )
    def test_chunks_match_parsing_every_line(self, records, sizes, cap):
        # The lazy SBS clock must leave the counters, quarantine,
        # tallies, ghost flushes, window entries and clock exactly
        # where the record-by-record reference leaves them, at every
        # chunk edge.
        session = _RecordingSession(
            "n", receiver_position=RECEIVER, quarantine_cap=cap
        )
        oracle = _ParsingSession(
            "n", receiver_position=RECEIVER, quarantine_cap=cap
        )
        _consume_in_chunks(
            session, oracle, records + [HeartbeatRecord(200.0)], sizes
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(_mixed_records, max_size=60),
        st.lists(st.integers(0, 12), max_size=20),
        st.integers(1, 8),
    )
    def test_raise_mid_chunk_keeps_the_records_before_it(
        self, records, sizes, cap
    ):
        # Without a receiver position every in-window truth batch
        # raises, so chunks stop mid-way with SBS runs still pending
        # on the clock.
        session = _RecordingSession("n", quarantine_cap=cap)
        oracle = _ParsingSession("n", quarantine_cap=cap)
        _consume_in_chunks(
            session, oracle, records + [HeartbeatRecord(200.0)], sizes
        )

    @pytest.mark.parametrize(
        "late",
        [
            lambda t: HeartbeatRecord(t),
            lambda t: TruthBatchRecord(t, [_report(A)]),
            lambda t: ObservationRecord(
                t, _obs(0, 40.0, 60.0, True, -40.0)
            ),
            lambda t: GhostRecord(t, C, 2),
        ],
        ids=["heartbeat", "truth", "observation", "ghost"],
    )
    def test_record_older_than_the_sbs_run_sees_its_clock(self, late):
        # The run's stamp reaches the clock before the older record's
        # handler runs, as it would record by record.
        records = [
            SbsLineRecord(40.0, _sbs_line(A, 40.0)),
            SbsLineRecord(52.0, _sbs_line(B, 52.0)),
            late(35.0),
        ]
        session = _RecordingSession("n", receiver_position=RECEIVER)
        oracle = _ParsingSession("n", receiver_position=RECEIVER)
        _consume_in_chunks(session, oracle, records, [len(records)])
        assert session.engine.now_s == 52.0

    def test_raise_after_an_sbs_run_still_moves_the_clock(self):
        session = NodeSession("n", receiver_position=RECEIVER)
        records = iter(
            [
                SbsLineRecord(5.0, _sbs_line(A, 5.0)),
                SbsLineRecord(12.0, _sbs_line(B, 12.0)),
                object(),
                HeartbeatRecord(40.0),
            ]
        )
        with pytest.raises(TypeError, match="unknown stream record"):
            session.consume(records)
        assert session.engine.now_s == 12.0
        assert session.counters.records == 2
        assert session.counters.sbs_lines == 2
        assert list(records) == [HeartbeatRecord(40.0)]

    def test_sbs_run_moves_the_clock_at_the_boundary_only(self, monkeypatch):
        session = NodeSession("n", receiver_position=RECEIVER)
        advanced = []
        advance = session.engine.advance

        def recording(time_s):
            advanced.append(time_s)
            advance(time_s)

        monkeypatch.setattr(session.engine, "advance", recording)
        session.consume(
            [
                SbsLineRecord(t, _sbs_line(A, t))
                for t in (1.0, 7.0, 3.0, 29.0, 30.0, 31.0, 35.0, 33.0)
            ]
        )
        # Once to close window 0 (tallying 30.0 in window 1), once at
        # the end for the run's latest stamp.
        assert advanced == [30.0, 35.0]
        assert session.engine.now_s == 35.0
        assert session.counters.ghosts == 1
        assert session._tallies[A.value].n_messages == 4

    def test_gateway_drains_a_backlog_in_one_consume(self, monkeypatch):
        gateway = StreamGateway(positions={"n": RECEIVER})
        session = gateway.session_for("n")
        calls = []
        consume = session.consume

        def recording(records):
            calls.append(records)
            consume(records)

        monkeypatch.setattr(session, "consume", recording)
        for t in (1.0, 2.0, 3.0):
            gateway.publish("n", SbsLineRecord(t, _sbs_line(A, t)))
        gateway.publish("n", HeartbeatRecord(4.0))
        assert gateway.drain_node("n") == 4
        assert len(calls) == 1
        assert session.counters.records == 4
        assert session.engine.now_s == 4.0


def _scalar_geometry(site, targets):
    geoms = [ray_geometry(site, target) for target in targets]
    return (
        [g.azimuth_deg for g in geoms],
        [g.ground_m for g in geoms],
        [g.elevation_deg for g in geoms],
    )


class TestTruthGeometry:
    """The join's array geometry is the scalar ``ray_geometry``'s."""

    @pytest.mark.parametrize(
        "site",
        [
            RECEIVER,
            GeoPoint(-33.86, 151.21, 0.0),
            GeoPoint(64.1, -21.9, 35.0),
        ],
        ids=["berkeley", "sydney", "reykjavik"],
    )
    def test_random_positions_match_bit_for_bit(self, site):
        rng = np.random.default_rng(8)
        n = 20_000
        ground = 110_000.0 * np.sqrt(rng.random(n))
        bearing = rng.uniform(0.0, 2.0 * math.pi, n)
        up = rng.uniform(0.0, 12_000.0, n) - site.alt_m
        targets = [
            enu_to_geo(site, ENU(g * math.sin(b), g * math.cos(b), u))
            for g, b, u in zip(ground.tolist(), bearing.tolist(), up.tolist())
        ]
        got = _truth_geometry(site, targets)
        want = _scalar_geometry(site, targets)
        for got_values, want_values in zip(got, want):
            assert all(type(v) is float for v in got_values)
            mismatches = [
                i for i, (g, w) in enumerate(zip(got_values, want_values))
                if not g == w
            ]
            assert mismatches == []

    @pytest.mark.parametrize(
        "target",
        [
            RECEIVER,
            GeoPoint(RECEIVER.lat_deg, RECEIVER.lon_deg, 9_000.0),
            GeoPoint(RECEIVER.lat_deg, RECEIVER.lon_deg, 0.0),
            GeoPoint(RECEIVER.lat_deg + 0.5, RECEIVER.lon_deg, 9_000.0),
            GeoPoint(RECEIVER.lat_deg - 0.5, RECEIVER.lon_deg, 9_000.0),
            GeoPoint(RECEIVER.lat_deg, RECEIVER.lon_deg + 0.5, 9_000.0),
            GeoPoint(RECEIVER.lat_deg, RECEIVER.lon_deg - 0.5, 9_000.0),
            GeoPoint(RECEIVER.lat_deg + 0.5, RECEIVER.lon_deg, 20.0),
        ],
        ids=[
            "zero-offset",
            "overhead",
            "below",
            "north",
            "south",
            "east",
            "west",
            "north-level",
        ],
    )
    def test_pinned_edge_cases(self, target):
        got = _truth_geometry(RECEIVER, [target])
        want = _scalar_geometry(RECEIVER, [target])
        for (g,), (w,) in zip(got, want):
            assert g == w
            assert math.copysign(1.0, g) == math.copysign(1.0, w)

    def test_no_offset_reads_positive_zero_elevation(self):
        # up = -0.0 - 0.0 is -0.0, where atan2 alone gives -0.0.
        site = GeoPoint(10.0, 20.0, 0.0)
        bearings, grounds, elevations = _truth_geometry(
            site, [GeoPoint(10.0, 20.0, -0.0)]
        )
        assert (bearings, grounds, elevations) == ([0.0], [0.0], [0.0])
        assert math.copysign(1.0, elevations[0]) == 1.0
        assert math.copysign(1.0, bearings[0]) == 1.0
        scalar = ray_geometry(site, GeoPoint(10.0, 20.0, -0.0))
        assert math.copysign(1.0, scalar.elevation_deg) == 1.0

    def test_empty_batch(self):
        assert _truth_geometry(RECEIVER, []) == ([], [], [])
