"""Thread-safety regressions for :class:`StreamGateway`.

The gateway is driven by several producer and consumer threads at
once (the stream benchmark runs 4 consumers against one gateway),
but it originally managed ``self.sessions`` with a bare dict:
concurrent first records for one node raced get-or-create, and each
racer got a *different* ``NodeSession`` — one of them silently
dropped, its records and windows lost. These tests pin the fixed
behaviour: session creation is atomic, per-node consumption is
serialized, and concurrent publish/drain loses nothing under the
blocking policy.
"""

import threading

import pytest

from repro.stream import StreamGateway
from repro.stream.gateway import GatewayConfig
from repro.stream.records import HeartbeatRecord, ObservationRecord
from repro.stream.session import NodeSession

from tests.test_stream_online import _obs


class SlowSession(NodeSession):
    """A NodeSession whose construction takes long enough to race."""

    def __init__(self, *args, **kwargs):
        # Widen the get-or-create window: with the unlocked gateway
        # every thread parked here constructed its own session.
        threading.Event().wait(0.05)
        super().__init__(*args, **kwargs)


class TestConcurrentSessionCreation:
    def test_first_records_for_one_node_share_one_session(
        self, monkeypatch
    ):
        monkeypatch.setattr(
            "repro.stream.gateway.NodeSession", SlowSession
        )
        gateway = StreamGateway()
        barrier = threading.Barrier(8)
        created = []

        def claim():
            barrier.wait()
            created.append(gateway.session_for("node-a"))

        threads = [
            threading.Thread(target=claim) for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(created) == 8
        assert len({id(s) for s in created}) == 1
        assert list(gateway.sessions) == ["node-a"]
        assert gateway.sessions["node-a"] is created[0]


class TestConcurrentPublishDrain:
    @pytest.mark.parametrize("n_consumers", [1, 4])
    def test_no_record_lost_under_blocking_policy(
        self, n_consumers
    ):
        gateway = StreamGateway(config=GatewayConfig())
        node_ids = [f"node-{i}" for i in range(8)]
        per_node = 120
        stop = threading.Event()

        def produce(node_id):
            for t in range(per_node):
                gateway.publish(
                    node_id,
                    ObservationRecord(
                        float(t % 30),
                        _obs(t % 30, 40.0, 60.0, True, -40.0),
                    ),
                )

        def consume(owned):
            while not stop.is_set():
                for node_id in owned:
                    gateway.drain_node(node_id)

        producers = [
            threading.Thread(target=produce, args=(node_id,))
            for node_id in node_ids
        ]
        consumers = [
            threading.Thread(
                target=consume,
                args=(node_ids[j::n_consumers],),
            )
            for j in range(n_consumers)
        ]
        for thread in consumers + producers:
            thread.start()
        for thread in producers:
            thread.join()
        stop.set()
        for thread in consumers:
            thread.join()
        gateway.flush()

        assert sorted(gateway.sessions) == node_ids
        counts = {
            node_id: session.counters.records
            for node_id, session in gateway.sessions.items()
        }
        assert counts == {n: per_node for n in node_ids}
        summary = gateway.metrics.summary()
        assert summary["broker_enqueued"] == per_node * len(node_ids)
        assert (
            summary["stream_records_consumed"]
            == per_node * len(node_ids)
        )

    def test_unpartitioned_consumers_share_nodes_safely(self):
        # Two consumers fighting over the SAME node: per-node drain
        # serialization must keep NodeSession single-consumer.
        gateway = StreamGateway()
        per_node = 200
        stop = threading.Event()

        def produce():
            for t in range(per_node):
                gateway.publish(
                    "shared", HeartbeatRecord(float(t) % 30.0)
                )

        def consume():
            while not stop.is_set():
                gateway.drain_node("shared")

        consumers = [
            threading.Thread(target=consume) for _ in range(3)
        ]
        producer = threading.Thread(target=produce)
        for thread in consumers:
            thread.start()
        producer.start()
        producer.join()
        stop.set()
        for thread in consumers:
            thread.join()
        gateway.drain_node("shared")

        assert (
            gateway.sessions["shared"].counters.records == per_node
        )


class TestEvictionRaces:
    def test_evict_concurrent_with_drain_keeps_counts_sane(self):
        gateway = StreamGateway(
            config=GatewayConfig(idle_timeout_s=10.0)
        )
        stop = threading.Event()
        returned = []

        def churn():
            while not stop.is_set():
                returned.extend(gateway.evict_idle(now_s=1e9))

        evictor = threading.Thread(target=churn)
        evictor.start()
        consumed = 0
        for t in range(300):
            gateway.publish("n", HeartbeatRecord(0.0))
            consumed += gateway.drain_node("n")
        stop.set()
        evictor.join()
        consumed += gateway.drain_node("n")

        evicted = gateway.metrics.summary().get(
            "stream_sessions_evicted", 0
        )
        # Every record was consumed by *some* session generation,
        # and every eviction was counted exactly once.
        assert consumed == 300
        assert len(returned) == evicted
