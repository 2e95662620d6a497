"""The live ingest gateway: broker + sessions + online engines.

`StreamGateway` is the deployable front door of the streaming
service: publishers push records through the bounded broker, node
sessions consume them into per-node online calibration engines, idle
senders are reaped, and the whole thing surfaces the same
counters/latency-percentile observability the fleet runtime's
campaigns report. Snapshots come out as batch-shaped
:class:`~repro.core.network.NodeAssessment` objects, so streaming
results drop into every existing consumer (serialization, result
cache, marketplace rendering) unchanged.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.metrics import MetricsRegistry
from repro.core.network import NodeAssessment
from repro.geo.coords import GeoPoint
from repro.stream.broker import OverflowPolicy, PutResult, StreamBroker
from repro.stream.drift import DriftEvent
from repro.stream.engine import EngineConfig
from repro.stream.records import StreamRecord
from repro.stream.session import NodeSession


@dataclass(frozen=True)
class GatewayConfig:
    """Tunables for the whole gateway.

    Attributes:
        engine: per-node online-calibration settings (window length,
            truth radius, drift threshold).
        queue_capacity / policy: broker bound and overflow behaviour.
        idle_timeout_s: stream seconds without any record before a
            session is evicted by :meth:`StreamGateway.evict_idle`.
        quarantine_cap: malformed lines kept per session.
    """

    engine: EngineConfig = field(default_factory=EngineConfig)
    queue_capacity: int = 1024
    policy: OverflowPolicy = OverflowPolicy.BLOCK
    idle_timeout_s: float = 120.0
    quarantine_cap: int = 64

    def __post_init__(self) -> None:
        if self.idle_timeout_s <= 0.0:
            raise ValueError(
                f"idle timeout must be positive: {self.idle_timeout_s}"
            )


class StreamGateway:
    """Publishes, consumes, and exports a fleet of live node streams."""

    def __init__(
        self,
        config: Optional[GatewayConfig] = None,
        positions: Optional[Dict[str, GeoPoint]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config or GatewayConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.broker = StreamBroker(
            capacity=self.config.queue_capacity,
            policy=self.config.policy,
            metrics=self.metrics,
        )
        #: Claimed receiver positions, needed only for live SBS joins.
        self.positions = dict(positions or {})
        self.sessions: Dict[str, NodeSession] = {}
        # Guards the session/eviction maps: the benchmark drives one
        # gateway from several producer and consumer threads at once,
        # and get-or-create on a bare dict is a lost-session race.
        self._lock = threading.Lock()
        # Per-node consume locks: NodeSession.consume is stateful and
        # single-consumer; concurrent drains of the *same* node must
        # serialize even though different nodes drain in parallel.
        self._drain_locks: Dict[str, threading.Lock] = {}
        # Downstream consumers of finished snapshots (e.g. the serve
        # store); invoked by export_snapshots, never under the lock.
        self._export_hooks: List[
            Callable[[Dict[str, NodeAssessment]], None]
        ] = []

    # ------------------------------------------------------------------
    # publish side

    def publish(
        self,
        node_id: str,
        record: StreamRecord,
        timeout_s: Optional[float] = None,
    ) -> PutResult:
        """Publish one record to a node's queue (policy applies)."""
        return self.broker.publish(node_id, record, timeout_s=timeout_s)

    # ------------------------------------------------------------------
    # consume side

    def session_for(self, node_id: str) -> NodeSession:
        """The node's session, created (atomically) on first use."""
        with self._lock:
            session = self.sessions.get(node_id)
            if session is None:
                session = NodeSession(
                    node_id,
                    config=self.config.engine,
                    receiver_position=self.positions.get(node_id),
                    quarantine_cap=self.config.quarantine_cap,
                )
                self.sessions[node_id] = session
                self._drain_locks[node_id] = threading.Lock()
            return session

    def drain_node(self, node_id: str) -> int:
        """Consume everything queued for one node; returns the count.

        The drained backlog goes to :meth:`NodeSession.consume` in one
        call. If a record raises, the records drained after it go back
        to the head of the node's queue, in order, and the error
        propagates. The raising record and those before it count as
        consumed; the requeued ones do not.
        """
        started = time.perf_counter()
        session = self.session_for(node_id)
        with self._lock:
            drain_lock = self._drain_locks.get(node_id)
        if drain_lock is None:
            # Evicted between session_for and here; the fresh call
            # re-created the maps, so retry once.
            return self.drain_node(node_id)
        with drain_lock:
            queue = self.broker.queue_for(node_id)
            records = queue.drain()
            pending = iter(records)
            try:
                session.consume(pending)
            except BaseException:
                unhandled = list(pending)
                queue.requeue(unhandled)
                self._count_consumed(
                    len(records) - len(unhandled), started
                )
                raise
        self._count_consumed(len(records), started)
        return len(records)

    def _count_consumed(self, consumed: int, started: float) -> None:
        if consumed:
            self.metrics.incr("stream_records_consumed", consumed)
            self.metrics.observe(
                "stream_drain", time.perf_counter() - started
            )

    def drain(self) -> int:
        """Consume every queued record across all nodes."""
        return sum(
            self.drain_node(node_id)
            for node_id in self.broker.node_ids()
        )

    def flush(self) -> None:
        """Drain, then finalize every session's in-progress window."""
        self.drain()
        with self._lock:
            sessions = list(self.sessions.values())
        for session in sessions:
            if session.engine.flush():
                self.metrics.incr("stream_windows_finalized")

    def evict_idle(self, now_s: float) -> List[str]:
        """Drop sessions idle past the timeout; returns evicted ids."""
        with self._lock:
            evicted = [
                node_id
                for node_id, session in self.sessions.items()
                if session.idle_for(now_s)
                > self.config.idle_timeout_s
            ]
            for node_id in evicted:
                del self.sessions[node_id]
                del self._drain_locks[node_id]
        if evicted:
            self.metrics.incr("stream_sessions_evicted", len(evicted))
        return evicted

    # ------------------------------------------------------------------
    # export side

    def snapshot(self, node_id: str) -> NodeAssessment:
        """One node's online state as a batch-shaped assessment."""
        with self._lock:
            session = self.sessions.get(node_id)
        if session is None:
            raise KeyError(f"no live session for node {node_id!r}")
        return session.engine.snapshot()

    def snapshots(self) -> Dict[str, NodeAssessment]:
        """Assessments for every live session."""
        with self._lock:
            sessions = sorted(self.sessions.items())
        return {
            node_id: session.engine.snapshot()
            for node_id, session in sessions
        }

    def add_export_hook(
        self, hook: Callable[[Dict[str, NodeAssessment]], None]
    ) -> None:
        """Register a consumer of exported snapshot batches.

        The serve layer uses this to publish the gateway's state into
        a query store without the stream package importing it.
        """
        with self._lock:
            self._export_hooks.append(hook)

    def export_snapshots(self) -> Dict[str, NodeAssessment]:
        """Flush, snapshot every live session, and fan out to hooks.

        Returns the exported batch. Hooks run outside the gateway
        lock — a slow downstream store must not stall ingestion.
        """
        self.flush()
        batch = self.snapshots()
        with self._lock:
            hooks = list(self._export_hooks)
        for hook in hooks:
            hook(batch)
        self.metrics.incr("stream_snapshot_exports")
        return batch

    def drift_events(self) -> List[DriftEvent]:
        """All drift events across sessions, in detection order."""
        with self._lock:
            sessions = list(self.sessions.values())
        events = [
            event
            for session in sessions
            for event in session.engine.drift.events
        ]
        return sorted(events, key=lambda e: e.detected_at_s)

    def summary_text(self) -> str:
        """Human-readable gateway state for the CLI."""
        lines = ["stream gateway:"]
        with self._lock:
            live = sorted(self.sessions.items())
        for node_id, session in live:
            engine = session.engine
            counters = session.counters
            drift_count = len(engine.drift.events)
            lines.append(
                f"  {node_id}: {counters.records} records, "
                f"{len(engine.summaries)} windows, "
                f"{counters.malformed_lines} quarantined, "
                f"{drift_count} drift event(s)"
            )
        summary = self.metrics.summary()
        interesting = [
            "broker_enqueued",
            "broker_dropped_oldest",
            "broker_rejected",
            "broker_put_timeouts",
            "stream_records_consumed",
            "stream_windows_finalized",
            "stream_sessions_evicted",
        ]
        parts = [
            f"{name}={summary[name]}"
            for name in interesting
            if name in summary
        ]
        if "stream_drain_p50_s" in summary:
            parts.append(
                f"drain p50 {summary['stream_drain_p50_s'] * 1e3:.2f} ms"
            )
            parts.append(
                f"p95 {summary['stream_drain_p95_s'] * 1e3:.2f} ms"
            )
        lines.append("  metrics: " + ", ".join(parts))
        return "\n".join(lines)
