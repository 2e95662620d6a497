"""Feeding the serve store from every producer the repo has.

Three pipelines end in assessments, and all three land here:

- **Batch** (`repro.core.network.evaluate_network`): a
  :class:`~repro.core.network.NetworkAssessments` (or its JSON dump
  via ``repro fleet --json``) becomes one snapshot, failures and all.
- **Runtime** (`repro.runtime.campaign`): a finished
  :class:`~repro.runtime.campaign.CampaignResult` is a network through
  ``result.network()``, its ledger's failed jobs as assessment
  failures.
- **Stream** (`repro.stream.gateway`): either a one-shot snapshot of
  the live sessions, or a standing export hook so every
  ``gateway.export_snapshots()`` publishes a fresh store generation
  with drift statuses attached.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, Mapping, Optional, Union

from repro.core.network import NetworkAssessments, NodeAssessment
from repro.core.serialize import network_from_json
from repro.serve.store import DriftStatus, FleetSnapshot, FleetStore
from repro.stream.drift import DriftEvent
from repro.stream.gateway import StreamGateway


def snapshot_from_network(
    network: NetworkAssessments,
    drift: Optional[Mapping[str, DriftStatus]] = None,
    generation: int = 1,
) -> FleetSnapshot:
    """One snapshot from a batch network evaluation.

    Campaign counters attached to the network (``network.metrics`` —
    path-cache effectiveness, failed jobs) carry over to the snapshot, so
    a served `repro fleet --json` dump keeps its observability.
    """
    return FleetSnapshot(
        network,
        failures=network.failures,
        drift=drift,
        generation=generation,
        metrics=getattr(network, "metrics", None),
    )


def store_from_network(network: NetworkAssessments) -> FleetStore:
    """A ready-to-serve store over a batch network evaluation."""
    return FleetStore(snapshot=snapshot_from_network(network))


def store_from_json(path: Union[str, Path]) -> FleetStore:
    """A store over a ``repro fleet --json`` campaign dump."""
    text = Path(path).read_text()
    return store_from_network(network_from_json(text))


def drift_statuses(
    events: Iterable[DriftEvent],
) -> Dict[str, DriftStatus]:
    """Condense per-event drift history into per-node status rows."""
    by_node: Dict[str, list] = {}
    for event in events:
        by_node.setdefault(event.node_id, []).append(event)
    out: Dict[str, DriftStatus] = {}
    for node_id, node_events in by_node.items():
        last = max(node_events, key=lambda e: e.detected_at_s)
        out[node_id] = DriftStatus(
            node_id=node_id,
            events=len(node_events),
            last_detected_at_s=last.detected_at_s,
            last_divergence=last.divergence,
            recalibration_hours=tuple(last.request.schedule.hours),
        )
    return out


def store_from_gateway(gateway: StreamGateway) -> FleetStore:
    """A store over the stream gateway's current live sessions."""
    store = FleetStore()
    publish_gateway(store, gateway)
    return store


def publish_gateway(
    store: FleetStore, gateway: StreamGateway
) -> FleetSnapshot:
    """Publish the gateway's current state as a new generation."""
    batch = gateway.export_snapshots()
    return store.publish(
        batch, drift=drift_statuses(gateway.drift_events())
    )


def attach_gateway(
    store: FleetStore, gateway: StreamGateway
) -> None:
    """Wire the gateway's export hook to publish into ``store``.

    After this, every ``gateway.export_snapshots()`` swaps a fresh
    snapshot (with up-to-date drift statuses) into the store.
    """

    def _publish(batch: Dict[str, NodeAssessment]) -> None:
        store.publish(
            batch, drift=drift_statuses(gateway.drift_events())
        )

    gateway.add_export_hook(_publish)
