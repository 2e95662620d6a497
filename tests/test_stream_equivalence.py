"""Streaming-vs-batch equivalence and drift acceptance tests.

The contract that makes the stream gateway trustworthy: replaying a
recorded scan through the online engine must reproduce the batch
pipeline's sector decisions *bit-identically*, a stationary node must
never trip the drift detector, and a real site change must trip it
within one window.
"""

import numpy as np
import pytest

from repro.core.directional import DirectionalEvaluator
from repro.core.fov import SectorHistogramEstimator
from repro.core.network import TrustEvaluator
from repro.node.sensor import SensorNode
from repro.stream import (
    EngineConfig,
    GatewayConfig,
    ReplaySource,
    SimulatedNodeSource,
    StreamGateway,
    replay_scans,
)

WINDOW_S = 30.0
SWAP_AT = 10
N_WINDOWS = 12


@pytest.fixture(scope="module")
def rooftop_scan(world):
    node = SensorNode("stream-node", world.testbed.site("rooftop"))
    scan = DirectionalEvaluator(
        node=node,
        traffic=world.traffic,
        ground_truth=world.ground_truth,
    ).run(np.random.default_rng(30))
    return scan


@pytest.fixture(scope="module")
def drift_scans(world):
    """12 windows of a live node that moves to a window sill at #10."""
    rooftop = DirectionalEvaluator(
        node=SensorNode("drift-node", world.testbed.site("rooftop")),
        traffic=world.traffic,
        ground_truth=world.ground_truth,
    )
    window_sill = DirectionalEvaluator(
        node=SensorNode("drift-node", world.testbed.site("window")),
        traffic=world.traffic,
        ground_truth=world.ground_truth,
    )
    source = SimulatedNodeSource(
        evaluator=rooftop,
        n_windows=N_WINDOWS,
        seed=7,
        swap_at=SWAP_AT,
        swap_evaluator=window_sill,
    )
    return source.scans()


def _stream(scans, node_id):
    """Feed scans through a gateway window by window; return it."""
    gateway = StreamGateway()
    for k, scan in enumerate(scans):
        replay = ReplaySource(scan=scan, start_s=k * WINDOW_S)
        for record in replay.records():
            assert gateway.publish(node_id, record).accepted
        gateway.drain()
    gateway.flush()
    return gateway


class TestReplayEquivalence:
    def test_sector_decisions_bit_identical(self, rooftop_scan):
        batch = SectorHistogramEstimator().estimate(rooftop_scan)
        gateway = _stream([rooftop_scan], "stream-node")
        fov = gateway.snapshot("stream-node").report.fov
        assert fov.open_flags == batch.open_flags
        assert fov.max_range_km == batch.max_range_km
        assert fov.bin_deg == batch.bin_deg

    def test_trust_checks_bit_identical(self, rooftop_scan):
        batch = TrustEvaluator().assess(rooftop_scan)
        gateway = _stream([rooftop_scan], "stream-node")
        streamed = gateway.snapshot("stream-node").trust
        assert streamed.checks == batch.checks

    def test_window_scan_preserves_join(self, rooftop_scan):
        gateway = _stream([rooftop_scan], "stream-node")
        scan = gateway.snapshot("stream-node").report.scan
        assert len(scan.observations) == len(rooftop_scan.observations)
        assert {o.icao for o in scan.received} == {
            o.icao for o in rooftop_scan.received
        }
        assert scan.ghost_icaos == rooftop_scan.ghost_icaos

    def test_replay_is_deterministic(self, rooftop_scan):
        records_a = list(ReplaySource(scan=rooftop_scan).records())
        records_b = list(ReplaySource(scan=rooftop_scan).records())
        assert records_a == records_b


class TestDriftDetection:
    def test_stationary_node_never_trips(self, drift_scans):
        gateway = _stream(drift_scans[:SWAP_AT], "drift-node")
        engine = gateway.sessions["drift-node"].engine
        assert len(engine.summaries) == SWAP_AT
        assert all(s.evidence >= 20 for s in engine.summaries)
        assert gateway.drift_events() == []

    def test_site_swap_trips_within_one_window(self, drift_scans):
        gateway = _stream(drift_scans, "drift-node")
        events = gateway.drift_events()
        assert events, "site swap must be detected"
        first = events[0]
        # Swap happens in the window starting at SWAP_AT * 30 s; the
        # detector must fire when that very window closes.
        assert first.detected_at_s == (SWAP_AT + 1) * WINDOW_S
        assert first.divergence >= EngineConfig().drift_threshold
        assert first.changed_bins > 0

    def test_drift_event_requests_recalibration(self, drift_scans):
        gateway = _stream(drift_scans, "drift-node")
        request = gateway.drift_events()[0].request
        assert request.node_id == "drift-node"
        assert "diverged" in request.reason
        assert len(request.schedule.hours) == (
            EngineConfig().recalibration_windows
        )

    def test_replay_scans_helper_matches_manual_feed(self, drift_scans):
        gateway = StreamGateway(config=GatewayConfig(queue_capacity=8192))
        for record in replay_scans(drift_scans, window_s=WINDOW_S):
            assert gateway.publish("drift-node", record).accepted
        gateway.flush()
        manual = _stream(drift_scans, "drift-node")
        ours = gateway.sessions["drift-node"].engine
        ref = manual.sessions["drift-node"].engine
        assert [s.open_fraction for s in ours.summaries] == [
            s.open_fraction for s in ref.summaries
        ]
        assert len(gateway.drift_events()) == len(manual.drift_events())
