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
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.adsb.icao import IcaoAddress
from repro.adsb.sbs import sbs_icao
from repro.core.observations import AircraftObservation
from repro.geo.coords import EARTH_RADIUS_M, GeoPoint
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


# The scalar ``ray_geometry``'s libm calls, applied elementwise. numpy's
# own ``cos``, ``arctan2`` and ``hypot`` differ from libm in the last
# bit on some inputs, and the join must match the scalar bit for bit.
_cos = np.frompyfunc(math.cos, 1, 1)
_atan2 = np.frompyfunc(math.atan2, 2, 1)
_hypot = np.frompyfunc(math.hypot, 2, 1)


def _truth_geometry(
    site: GeoPoint, targets: Sequence[GeoPoint]
) -> Tuple[List[float], List[float], List[float]]:
    """Bearing, ground range and elevation from ``site`` to each target.

    One array pass over the targets that returns
    :func:`~repro.environment.links.ray_geometry`'s ``azimuth_deg``,
    ``ground_m`` and ``elevation_deg`` bit for bit: the projection of
    :func:`~repro.geo.coords.geo_to_enu` in the same operation order,
    with each libm call made by the ``math`` function the scalar path
    calls. The slant range is not computed.
    """
    lat_rad = np.radians([t.lat_deg for t in targets])
    lon_rad = np.radians([t.lon_deg for t in targets])
    up = np.array([t.alt_m for t in targets], dtype=np.float64) - site.alt_m
    cos_mean = _cos(0.5 * (lat_rad + site.lat_rad)).astype(np.float64)
    north = (lat_rad - site.lat_rad) * EARTH_RADIUS_M
    east = (lon_rad - site.lon_rad) * EARTH_RADIUS_M * cos_mean
    ground = _hypot(east, north).astype(np.float64)
    bearing = np.degrees(_atan2(east, north).astype(np.float64)) % 360.0
    elevation = np.degrees(_atan2(up, ground).astype(np.float64))
    # ``ENU.elevation_deg``: no offset at all reads 0.0, never -0.0.
    elevation[(ground == 0.0) & (up == 0.0)] = 0.0
    return bearing.tolist(), ground.tolist(), elevation.tolist()


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
        # line, which ``consume`` handles itself.
        self._handlers: Dict[type, Callable[..., None]] = {
            TruthBatchRecord: self._handle_truth,
            ObservationRecord: self._handle_observation,
            GhostRecord: self._handle_ghost,
            HeartbeatRecord: self._handle_heartbeat,
        }

    def handle(self, record: StreamRecord) -> None:
        """Consume one record; see :meth:`consume`."""
        self.consume((record,))

    def consume(self, records: Iterable[StreamRecord]) -> None:
        """Consume records in order; malformed input never raises.

        Dispatch is on each record's exact type, falling back to an
        ``isinstance`` match for subclasses of the record types (an
        SBS line first). A non-record raises ``TypeError`` before any
        counter moves. Every record is counted in
        ``counters.records``; one stamped NaN or infinite, or before
        the open window's start, is then quarantined and never reaches
        the engine or the liveness clock.

        An SBS line, the bulk of a live stream, is handled in this
        loop: the join reads only the address, so the line is
        validated by :func:`~repro.adsb.sbs.sbs_icao` rather than
        parsed into a record, and an :class:`IcaoAddress` is built
        only when an ICAO first appears in a window. A line adds no
        window entry and reads no ``now_s``, so within a run of SBS
        lines the engine clock moves only when a line reaches the open
        window's boundary (before the line is tallied, so it is
        tallied in the next window). The run's latest stamp reaches
        the clock before any other record, at the end of ``records``,
        and when a record raises, which leaves the engine as a call
        per record would have.

        If a record raises, the records before it stay applied and the
        error propagates; an iterator passed as ``records`` is left
        just after the raising record.
        """
        counters = self.counters
        engine = self.engine
        window_s = engine.config.window_s
        handlers = self._handlers
        tallies = self._tallies
        quarantine = self.quarantine
        isfinite = math.isfinite
        window_start_s = engine.window_index * window_s
        boundary_s = (engine.window_index + 1) * window_s
        # The latest SBS stamp not yet passed to ``engine.advance``.
        pending_s = engine.now_s
        try:
            for record in records:
                handler = None
                if type(record) is not SbsLineRecord:
                    handler = handlers.get(type(record))
                    if handler is None:
                        handler = self._subclass_handler(record)
                counters.records += 1
                time_s = record.time_s
                if not isfinite(time_s):
                    counters.bad_timestamps += 1
                    self._quarantine(
                        record, f"non-finite timestamp {time_s!r}"
                    )
                    continue
                if time_s < window_start_s:
                    counters.late_records += 1
                    self._quarantine(
                        record,
                        f"late record: window opened at {window_start_s!r}",
                    )
                    continue
                if time_s > self.last_seen_s:
                    self.last_seen_s = time_s
                if handler is not None:
                    if pending_s > engine.now_s:
                        engine.advance(pending_s)
                    handler(record)
                    window_start_s = engine.window_index * window_s
                    boundary_s = (engine.window_index + 1) * window_s
                    pending_s = engine.now_s
                    continue
                line = record.line
                try:
                    key = sbs_icao(line)
                except ValueError as exc:
                    # ``sbs_icao`` strips the line itself; a blank one
                    # strips to "", which it rejects.
                    line = line.strip()
                    if line:
                        counters.malformed_lines += 1
                        quarantine.append((time_s, line, str(exc)))
                    else:
                        counters.blank_lines += 1
                    key = None
                else:
                    counters.sbs_lines += 1
                if time_s >= boundary_s:
                    engine.advance(time_s)
                    window_start_s = engine.window_index * window_s
                    boundary_s = (engine.window_index + 1) * window_s
                    pending_s = time_s
                elif time_s > pending_s:
                    pending_s = time_s
                if key is None:
                    continue
                tally = tallies.get(key)
                if tally is None:
                    tally = tallies[key] = _LiveTally(IcaoAddress(key))
                tally.n_messages += 1
                tally.last_time_s = time_s
        finally:
            if pending_s > engine.now_s:
                engine.advance(pending_s)

    def _quarantine(self, record: StreamRecord, error: str) -> None:
        self.quarantine.append((record.time_s, type(record).__name__, error))

    def _subclass_handler(
        self, record: object
    ) -> Optional[Callable[..., None]]:
        """The handler for a subclass of a record type (``None``: an
        SBS line, which ``consume`` handles itself)."""
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
        time_s = record.time_s
        engine = self.engine
        engine.advance(time_s)
        reports = record.reports
        bearings, grounds, elevations = _truth_geometry(
            self.receiver_position, [report.position for report in reports]
        )
        counters = self.counters
        tallies = self._tallies
        add_observation = engine.add_observation
        for report, bearing, ground, elevation in zip(
            reports, bearings, grounds, elevations
        ):
            counters.truth_reports += 1
            tally = tallies.get(report.icao.value)
            received = tally is not None and tally.n_messages > 0
            if tally is not None:
                tally.matched = True
            counters.observations += 1
            add_observation(
                time_s,
                AircraftObservation(
                    icao=report.icao,
                    callsign=report.callsign,
                    bearing_deg=bearing,
                    ground_range_m=ground,
                    elevation_deg=elevation,
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
