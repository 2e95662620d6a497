"""Node sessions: one consumer-side state machine per live sender.

A session owns a node's :class:`~repro.stream.engine.OnlineCalibrationEngine`
and knows how to turn raw stream records into engine updates:

- **SBS lines** are checked with :func:`~repro.adsb.sbs.sbs_icao`,
  which accepts and rejects exactly the lines
  :func:`~repro.adsb.sbs.parse_sbs` does but keeps only the ICAO
  address the join reads; malformed lines go to a capped quarantine
  buffer (and a counter) instead of crashing the consumer — a flaky
  sender degrades its own data, not the service.
- **Truth batches** (flight-tracker snapshots) are joined online
  against the window's decoded-ICAO tallies, exactly the §3.1 join
  ``scan_from_sbs`` performs in batch.
- **Ghost flushing**: when a calibration window closes, decoded ICAOs
  never matched by any truth batch in that window are folded into the
  trust state as ghosts.
- **Heartbeats** advance the clock and refresh liveness;
  sessions that stop heartbeating are evicted by the gateway's idle
  reaper.
- **Non-finite timestamps** (NaN, ±inf) are quarantined before they
  reach the clock: an infinite time would close windows forever, and
  a NaN one would never be evicted.
- **Late records**, stamped before the open window's start, are
  quarantined too: their window has already closed, and folding them
  into the open one would count them in the wrong window.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.adsb.icao import IcaoAddress
from repro.adsb.sbs import sbs_icao
from repro.core.observations import AircraftObservation
from repro.environment.links import ray_geometry
from repro.geo.coords import GeoPoint
from repro.stream.engine import EngineConfig, OnlineCalibrationEngine
from repro.stream.records import (
    GhostRecord,
    HeartbeatRecord,
    ObservationRecord,
    SbsLineRecord,
    StreamRecord,
    TruthBatchRecord,
)

#: Quarantined lines kept per session — enough to debug a bad sender,
#: bounded so one cannot leak memory by streaming garbage.
DEFAULT_QUARANTINE_CAP = 64


@dataclass
class _LiveTally:
    """Per-window decoded-message state for one ICAO (live join)."""

    icao: IcaoAddress
    n_messages: int = 0
    last_time_s: float = 0.0
    matched: bool = False


@dataclass
class SessionCounters:
    """Everything a session has seen, by disposition."""

    records: int = 0
    sbs_lines: int = 0
    malformed_lines: int = 0
    blank_lines: int = 0
    truth_reports: int = 0
    observations: int = 0
    ghosts: int = 0
    heartbeats: int = 0
    bad_timestamps: int = 0
    late_records: int = 0

    def as_dict(self) -> Dict[str, int]:
        counts = {
            "records": self.records,
            "sbs_lines": self.sbs_lines,
            "malformed_lines": self.malformed_lines,
            "blank_lines": self.blank_lines,
            "truth_reports": self.truth_reports,
            "observations": self.observations,
            "ghosts": self.ghosts,
            "heartbeats": self.heartbeats,
        }
        # Fault counters: listed once they have counted something, so
        # a clean stream's counters read as they always have.
        if self.bad_timestamps:
            counts["bad_timestamps"] = self.bad_timestamps
        if self.late_records:
            counts["late_records"] = self.late_records
        return counts


class NodeSession:
    """Consumes one node's record stream into its online engine.

    Attributes:
        node_id: the sending node.
        receiver_position: the node's (claimed) location — required to
            join live SBS traffic against truth batches; replay
            records arrive pre-joined and do not need it.
        quarantine: the most recent malformed lines, and records with
            a non-finite or late timestamp, as ``(time_s, line or
            record type, error)`` tuples, capped.
    """

    def __init__(
        self,
        node_id: str,
        config: Optional[EngineConfig] = None,
        receiver_position: Optional[GeoPoint] = None,
        quarantine_cap: int = DEFAULT_QUARANTINE_CAP,
    ) -> None:
        self.node_id = node_id
        self.receiver_position = receiver_position
        self.engine = OnlineCalibrationEngine(
            node_id, config, on_window_end=self._flush_window_tallies
        )
        self.counters = SessionCounters()
        self.quarantine: Deque[Tuple[float, str, str]] = deque(
            maxlen=max(1, quarantine_cap)
        )
        self.last_seen_s = 0.0
        # Keyed by ``IcaoAddress.value``: a plain int hashes and
        # compares in C, and sorts in the same order as the address.
        self._tallies: Dict[int, _LiveTally] = {}
        # Exact record type -> handler for every record but an SBS
        # line, which ``handle`` consumes itself.
        self._handlers: Dict[type, Callable[..., None]] = {
            TruthBatchRecord: self._handle_truth,
            ObservationRecord: self._handle_observation,
            GhostRecord: self._handle_ghost,
            HeartbeatRecord: self._handle_heartbeat,
        }

    def handle(self, record: StreamRecord) -> None:
        """Consume one record; malformed input never raises.

        Dispatch is on the record's exact type, falling back to an
        ``isinstance`` match for subclasses of the record types (an
        SBS line first). A non-record raises ``TypeError`` before any
        counter moves. Every record is counted in
        ``counters.records``; one stamped NaN or infinite, or before
        the open window's start, is then quarantined and never reaches
        the engine or the liveness clock.

        An SBS line, the bulk of a live stream, is handled here in
        this frame: the join reads only the address, so the line is
        validated by :func:`~repro.adsb.sbs.sbs_icao` rather than
        parsed into a record, and an :class:`IcaoAddress` is built
        only when an ICAO first appears in a window. The clock
        advances before the line is tallied, so a line that closes a
        window is tallied in the next one.
        """
        handler = None
        if type(record) is not SbsLineRecord:
            handler = self._handlers.get(type(record))
            if handler is None:
                handler = self._subclass_handler(record)
        counters = self.counters
        counters.records += 1
        time_s = record.time_s
        if not math.isfinite(time_s):
            counters.bad_timestamps += 1
            self._quarantine(record, f"non-finite timestamp {time_s!r}")
            return
        engine = self.engine
        window_start_s = engine.window_index * engine.config.window_s
        if time_s < window_start_s:
            counters.late_records += 1
            self._quarantine(
                record, f"late record: window opened at {window_start_s!r}"
            )
            return
        if time_s > self.last_seen_s:
            self.last_seen_s = time_s
        if handler is not None:
            handler(record)
            return
        line = record.line.strip()
        if not line:
            counters.blank_lines += 1
            engine.advance(time_s)
            return
        try:
            key = sbs_icao(line)
        except ValueError as exc:
            counters.malformed_lines += 1
            self.quarantine.append((time_s, line, str(exc)))
            engine.advance(time_s)
            return
        counters.sbs_lines += 1
        engine.advance(time_s)
        tally = self._tallies.get(key)
        if tally is None:
            tally = self._tallies[key] = _LiveTally(IcaoAddress(key))
        tally.n_messages += 1
        tally.last_time_s = time_s

    def _quarantine(self, record: StreamRecord, error: str) -> None:
        self.quarantine.append((record.time_s, type(record).__name__, error))

    def _subclass_handler(
        self, record: object
    ) -> Optional[Callable[..., None]]:
        """The handler for a subclass of a record type (``None``: an
        SBS line, which ``handle`` consumes itself)."""
        if isinstance(record, SbsLineRecord):
            return None
        for record_type, handler in self._handlers.items():
            if isinstance(record, record_type):
                return handler
        raise TypeError(f"unknown stream record: {type(record)!r}")

    def _handle_observation(self, record: ObservationRecord) -> None:
        self.counters.observations += 1
        self.engine.add_observation(record.time_s, record.observation)

    def _handle_ghost(self, record: GhostRecord) -> None:
        self.counters.ghosts += 1
        self.engine.add_ghost(record.time_s, record.icao, record.n_messages)

    def _handle_heartbeat(self, record: HeartbeatRecord) -> None:
        self.counters.heartbeats += 1
        self.engine.advance(record.time_s)

    # ------------------------------------------------------------------
    # live truth join

    def _handle_truth(self, record: TruthBatchRecord) -> None:
        """Join one tracker snapshot against the window's tallies."""
        if self.receiver_position is None:
            raise ValueError(
                f"session {self.node_id!r} needs a receiver position "
                "to join live truth batches"
            )
        self.engine.advance(record.time_s)
        for report in record.reports:
            self.counters.truth_reports += 1
            geom = ray_geometry(self.receiver_position, report.position)
            tally = self._tallies.get(report.icao.value)
            received = tally is not None and tally.n_messages > 0
            if tally is not None:
                tally.matched = True
            self.counters.observations += 1
            self.engine.add_observation(
                record.time_s,
                AircraftObservation(
                    icao=report.icao,
                    callsign=report.callsign,
                    bearing_deg=geom.azimuth_deg,
                    ground_range_m=geom.ground_m,
                    elevation_deg=geom.elevation_deg,
                    position=report.position,
                    received=received,
                    n_messages=tally.n_messages if received else 0,
                    # live SBS lines carry no RSSI
                    mean_rssi_dbfs=None,
                ),
            )

    def _flush_window_tallies(self, boundary_s: float) -> None:
        """Window close: unmatched decoded ICAOs become ghosts."""
        if not self._tallies:
            return
        ghost_time = self.engine.ghost_time_for_boundary(boundary_s)
        for key in sorted(self._tallies):
            tally = self._tallies[key]
            if not tally.matched:
                self.counters.ghosts += 1
                self.engine.window.add_ghost(
                    ghost_time, tally.icao, tally.n_messages
                )
        self._tallies.clear()

    # ------------------------------------------------------------------

    def idle_for(self, now_s: float) -> float:
        """Stream seconds since this sender was last heard."""
        return max(0.0, now_s - self.last_seen_s)
