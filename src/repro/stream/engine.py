"""Per-node online calibration engine.

One engine per connected node: it owns the sliding window, advances
the stream clock, finalizes calibration windows as time crosses
window boundaries (running the drift detector on each), and can at
any moment materialize its window into the same
:class:`~repro.core.network.NodeAssessment` the batch pipeline
produces. Both run the batch estimators on the window's scan, so a
streaming deployment and `evaluate_network` results agree by
construction (and serialize through the same
:mod:`repro.core.serialize` converters the runtime cache uses).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.adsb.icao import IcaoAddress
from repro.core.classify import IndoorOutdoorClassifier, extract_features
from repro.core.frequency import FrequencyProfile
from repro.core.network import NodeAssessment, TrustEvaluator
from repro.core.observations import AircraftObservation
from repro.core.report import CalibrationReport
from repro.stream.drift import DriftDetector, DriftEvent, RecalibrationRequest
from repro.stream.online import OnlineSectorStats, SlidingWindow


@dataclass(frozen=True)
class EngineConfig:
    """Tunables for one node's online calibration.

    Sector binning is the batch
    :class:`~repro.core.fov.SectorHistogramEstimator`'s own.
    """

    window_s: float = 30.0
    radius_m: float = 100_000.0
    drift_threshold: float = 0.30
    drift_min_evidence: int = 20
    recalibration_windows: int = 3

    def __post_init__(self) -> None:
        if self.window_s <= 0.0:
            raise ValueError(f"window must be positive: {self.window_s}")
        if self.radius_m <= 0.0:
            raise ValueError(f"radius must be positive: {self.radius_m}")


@dataclass
class WindowSummary:
    """What one finalized window concluded."""

    index: int
    end_s: float
    evidence: int
    open_fraction: float
    drift: Optional[DriftEvent]


class OnlineCalibrationEngine:
    """Sliding-window calibration state for one node.

    Records arrive through :meth:`add_observation` / :meth:`add_ghost`
    / :meth:`advance` with non-decreasing timestamps (the broker's
    per-node FIFO preserves source order). Whenever time crosses a
    ``window_s`` boundary the engine finalizes the completed window:
    evicts expired entries, runs the batch sector estimator over the
    window's scan, and runs the drift detector against the node's
    accepted profile.
    """

    def __init__(
        self,
        node_id: str,
        config: Optional[EngineConfig] = None,
        on_window_end: Optional[Callable[[float], None]] = None,
    ) -> None:
        self.node_id = node_id
        self.config = config or EngineConfig()
        cfg = self.config
        self.window = SlidingWindow(window_s=cfg.window_s)
        self.sector = OnlineSectorStats()
        self.drift = DriftDetector(
            node_id=node_id,
            threshold=cfg.drift_threshold,
            min_evidence=cfg.drift_min_evidence,
            recalibration_windows=cfg.recalibration_windows,
        )
        #: Called with the boundary time just before a window closes,
        #: so sessions can flush per-window state (e.g. ghost tallies)
        #: into the closing window.
        self.on_window_end = on_window_end
        self.now_s = 0.0
        self.window_index = 0
        self.summaries: List[WindowSummary] = []

    # ------------------------------------------------------------------
    # time

    def advance(self, time_s: float) -> None:
        """Move the stream clock forward, finalizing crossed windows."""
        if time_s <= self.now_s:
            return
        boundary = (self.window_index + 1) * self.config.window_s
        while time_s >= boundary:
            self._finalize(boundary)
            self.window_index += 1
            boundary = (self.window_index + 1) * self.config.window_s
        self.now_s = time_s
        self.window.evict_until(self.now_s)

    def flush(self) -> bool:
        """Finalize the in-progress window at the end of a stream.

        A no-op (returning False) when the clock sits exactly on the
        last finalized boundary (nothing has arrived since), so
        flushing after a boundary-pinning heartbeat does not close an
        empty window and evict the previous one.
        """
        if self.now_s <= self.window_index * self.config.window_s:
            return False
        boundary = (self.window_index + 1) * self.config.window_s
        self._finalize(boundary)
        self.window_index += 1
        return True

    def _finalize(self, boundary_s: float) -> None:
        if self.on_window_end is not None:
            self.on_window_end(boundary_s)
        self.now_s = boundary_s
        self.window.evict_until(boundary_s)
        scan = self.window.to_scan(self.node_id, self.config.radius_m)
        estimate = self.sector.estimate(scan)
        evidence = self.sector.evidence(scan)
        drift = self.drift.check(boundary_s, estimate, evidence)
        self.summaries.append(
            WindowSummary(
                index=self.window_index,
                end_s=boundary_s,
                evidence=evidence,
                open_fraction=estimate.open_fraction(),
                drift=drift,
            )
        )

    # ------------------------------------------------------------------
    # records

    def add_observation(
        self, time_s: float, obs: AircraftObservation
    ) -> None:
        """Fold one joined ground-truth observation into the window."""
        self.advance(time_s)
        self.window.add_observation(time_s, obs)

    def add_ghost(
        self, time_s: float, icao: IcaoAddress, n_messages: int = 1
    ) -> None:
        """Fold one ghost (decoded, untracked) aircraft into the window."""
        self.advance(time_s)
        self.window.add_ghost(time_s, icao, n_messages)

    def ghost_time_for_boundary(self, boundary_s: float) -> float:
        """A timestamp just inside the window closing at ``boundary_s``.

        Sessions flushing per-window ghost tallies use this so the
        entries land in (and later expire with) the correct window
        while keeping the eviction deque time-ordered.
        """
        return math.nextafter(boundary_s, -math.inf)

    # ------------------------------------------------------------------
    # export

    @property
    def recalibration_requests(self) -> List[RecalibrationRequest]:
        """Every re-calibration the drift detector has requested."""
        return [event.request for event in self.drift.events]

    def snapshot(self) -> NodeAssessment:
        """Materialize the window as a batch-shaped assessment.

        The scan covers the current sliding window; the field of view
        and trust checks are the batch estimators' over that scan; the
        frequency profile is empty (a live ADS-B stream carries no
        §3.2 sweep), which the feature extractor and classifier handle
        as "nothing decoded".
        The result round-trips through
        :func:`repro.core.serialize.assessment_to_dict` like any
        batch assessment.
        """
        scan = self.window.to_scan(self.node_id, self.config.radius_m)
        fov = self.sector.estimate(scan)
        profile = FrequencyProfile(node_id=self.node_id)
        features = extract_features(scan, fov, profile)
        report = CalibrationReport(
            node_id=self.node_id,
            scan=scan,
            fov=fov,
            profile=profile,
            features=features,
            classification=IndoorOutdoorClassifier().classify(features),
        )
        return NodeAssessment(
            node_id=self.node_id,
            report=report,
            trust=TrustEvaluator().assess(scan),
        )
