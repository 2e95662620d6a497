"""Loaders: batch JSON, campaign ledgers, and the stream gateway."""

from repro.core.scheduler import Schedule
from repro.core.serialize import network_to_json
from repro.runtime.campaign import CampaignResult, JobLedgerEntry
from repro.serve.loader import (
    attach_gateway,
    drift_statuses,
    publish_gateway,
    snapshot_from_network,
    store_from_gateway,
    store_from_json,
    store_from_network,
)
from repro.serve.store import FleetStore
from repro.serve.synthetic import synthetic_fleet
from repro.stream import HeartbeatRecord, StreamGateway
from repro.stream.drift import DriftEvent, RecalibrationRequest


def _drift_event(node_id, at_s, divergence=0.4):
    return DriftEvent(
        node_id=node_id,
        detected_at_s=at_s,
        divergence=divergence,
        changed_bins=4,
        n_bins=36,
        request=RecalibrationRequest(
            node_id=node_id,
            requested_at_s=at_s,
            reason="divergence",
            schedule=Schedule(
                hours=(9.0, 14.0), expected_aircraft=12.0
            ),
        ),
    )


class TestNetworkLoaders:
    def test_snapshot_carries_failures(self):
        network, drift = synthetic_fleet(40, seed=11)
        snapshot = snapshot_from_network(network, drift=drift)
        assert snapshot.n_nodes == len(network)
        assert snapshot.failures == network.failures
        assert snapshot.generation == 1

    def test_store_from_network(self):
        network, _ = synthetic_fleet(10, seed=11)
        store = store_from_network(network)
        assert store.current().n_nodes == 10

    def test_store_from_json_round_trip(self, tmp_path):
        network, _ = synthetic_fleet(15, seed=6)
        path = tmp_path / "fleet.json"
        path.write_text(network_to_json(network))
        store = store_from_json(path)
        snapshot = store.current()
        assert sorted(snapshot.assessments) == sorted(network)
        assert len(snapshot.failures) == len(network.failures)
        # Identical data -> identical columnar content hash.
        assert snapshot.etag == store_from_network(network).current().etag


class TestCampaignLoader:
    def test_failed_ledger_entries_become_failures(self):
        network, _ = synthetic_fleet(6, seed=2)
        assessments = dict(network)
        ledger = {
            node_id: JobLedgerEntry(
                job_id=node_id,
                key=f"k-{node_id}",
                state="done",
                source="run",
            )
            for node_id in assessments
        }
        ledger["sn-bad"] = JobLedgerEntry(
            job_id="sn-bad",
            key="k-bad",
            state="failed",
            source="run",
            error="antenna unplugged",
        )
        ledger["sn-worse"] = JobLedgerEntry(
            job_id="sn-worse",
            key="k-worse",
            state="failed",
            source="run",
        )
        result = CampaignResult(
            assessments=assessments, ledger=ledger, metrics={"jobs_failed": 2}
        )
        store = store_from_network(result.network())
        snapshot = store.current()
        assert snapshot.n_nodes == len(assessments)
        assert set(snapshot.failures) == {"sn-bad", "sn-worse"}
        # The job's error message carries over; no error gets a stub.
        assert snapshot.failures["sn-bad"].error == "antenna unplugged"
        assert snapshot.failures["sn-worse"].error == "failed"
        assert snapshot.fleet_summary()["failures"] == 2
        assert snapshot.metrics == {"jobs_failed": 2}


class TestDriftStatuses:
    def test_events_condense_to_latest_per_node(self):
        statuses = drift_statuses(
            [
                _drift_event("a", 10.0, divergence=0.31),
                _drift_event("a", 50.0, divergence=0.62),
                _drift_event("b", 20.0),
            ]
        )
        assert set(statuses) == {"a", "b"}
        assert statuses["a"].events == 2
        assert statuses["a"].last_detected_at_s == 50.0
        assert statuses["a"].last_divergence == 0.62
        assert statuses["a"].recalibration_hours == (9.0, 14.0)
        assert statuses["b"].events == 1

    def test_no_events_no_statuses(self):
        assert drift_statuses([]) == {}


class TestGatewayLoaders:
    def _live_gateway(self):
        gateway = StreamGateway()
        gateway.publish("node-a", HeartbeatRecord(1.0))
        gateway.publish("node-b", HeartbeatRecord(1.0))
        return gateway

    def test_store_from_gateway_snapshots_sessions(self):
        store = store_from_gateway(self._live_gateway())
        snapshot = store.current()
        assert snapshot.generation == 1
        assert sorted(snapshot.assessments) == ["node-a", "node-b"]

    def test_publish_gateway_bumps_generation(self):
        gateway = self._live_gateway()
        store = store_from_gateway(gateway)
        gateway.publish("node-c", HeartbeatRecord(2.0))
        snapshot = publish_gateway(store, gateway)
        assert snapshot.generation == 2
        assert "node-c" in snapshot.assessments
        assert store.current() is snapshot

    def test_attach_gateway_publishes_on_export(self):
        gateway = self._live_gateway()
        store = FleetStore()
        attach_gateway(store, gateway)
        assert store.current().n_nodes == 0
        gateway.export_snapshots()
        first = store.current()
        assert first.generation == 1
        assert first.n_nodes == 2
        gateway.export_snapshots()
        assert store.current().generation == 2
