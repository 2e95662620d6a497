"""repro.stream — live ingest gateway with online calibration.

The paper's network runs *continuously* — nodes stream decoded ADS-B
over SBS-1 while the verifier consumes them (§2, §3.1) — and
Electrosense-style deployments live or die on that streaming path.
This package turns calibration from a one-shot experiment
(:mod:`repro.core`, :mod:`repro.runtime`) into a long-running
service:

- :mod:`repro.stream.broker` — bounded per-node queues with explicit,
  counted backpressure policies (block / drop-oldest / reject);
- :mod:`repro.stream.records` — the stream record vocabulary and the
  deterministic virtual clock;
- :mod:`repro.stream.sources` — replay of recorded scans and
  window-by-window simulated live nodes (with mid-stream site swaps
  for drift scenarios);
- :mod:`repro.stream.session` — per-sender consumers with heartbeats,
  malformed-line quarantine, and the online §3.1 truth join;
- :mod:`repro.stream.online` — the time-ordered sliding window of
  raw records, reduced at each window close by the batch
  :class:`~repro.core.fov.SectorHistogramEstimator` and
  :class:`~repro.core.network.TrustEvaluator` themselves;
- :mod:`repro.stream.drift` — divergence detection against the
  accepted profile, requesting re-calibration through
  :class:`~repro.core.scheduler.MeasurementScheduler`;
- :mod:`repro.stream.engine` / :mod:`repro.stream.gateway` — the
  per-node engine and the deployable gateway, exporting batch-shaped
  :class:`~repro.core.network.NodeAssessment` snapshots.

Entry point: ``python -m repro stream --source replay|sim``.
"""

from repro.stream.broker import (
    BoundedQueue,
    OverflowPolicy,
    PutResult,
    QueueStats,
    StreamBroker,
)
from repro.stream.drift import (
    DriftDetector,
    DriftEvent,
    RecalibrationRequest,
    profile_divergence,
)
from repro.stream.engine import (
    EngineConfig,
    OnlineCalibrationEngine,
    WindowSummary,
)
from repro.stream.gateway import GatewayConfig, StreamGateway
from repro.stream.online import OnlineSectorStats, SlidingWindow
from repro.stream.records import (
    GhostRecord,
    HeartbeatRecord,
    ObservationRecord,
    SbsLineRecord,
    StreamRecord,
    TruthBatchRecord,
    VirtualClock,
)
from repro.stream.session import NodeSession, SessionCounters
from repro.stream.sources import (
    ReplaySource,
    SimulatedNodeSource,
    replay_scans,
)

__all__ = [
    "BoundedQueue",
    "DriftDetector",
    "DriftEvent",
    "EngineConfig",
    "GatewayConfig",
    "GhostRecord",
    "HeartbeatRecord",
    "NodeSession",
    "ObservationRecord",
    "OnlineCalibrationEngine",
    "OnlineSectorStats",
    "OverflowPolicy",
    "PutResult",
    "QueueStats",
    "RecalibrationRequest",
    "ReplaySource",
    "SbsLineRecord",
    "SessionCounters",
    "SimulatedNodeSource",
    "SlidingWindow",
    "StreamBroker",
    "StreamGateway",
    "StreamRecord",
    "TruthBatchRecord",
    "VirtualClock",
    "WindowSummary",
    "profile_divergence",
    "replay_scans",
]
