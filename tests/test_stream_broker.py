"""Tests for the bounded stream broker and its overflow policies."""

import sys
import threading
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import MetricsRegistry
from repro.stream import (
    BoundedQueue,
    HeartbeatRecord,
    OverflowPolicy,
    PutResult,
    StreamBroker,
)


def _hb(t: float = 0.0) -> HeartbeatRecord:
    return HeartbeatRecord(time_s=t)


#: How long a woken thread may take to finish. Its own wait is far
#: longer, so a missed wake-up fails the join instead of the wait
#: timing out into a pass.
JOIN_S = 2.0
WAIT_S = 10.0


def _until_waiting(count) -> None:
    """Give a thread time to register as a waiter (best effort)."""
    deadline = time.monotonic() + JOIN_S
    while count() < 1 and time.monotonic() < deadline:
        time.sleep(0.001)


def _in_thread(call):
    """Run ``call`` in a daemon thread; returns (thread, results)."""
    results = []
    thread = threading.Thread(
        target=lambda: results.append(call()), daemon=True
    )
    thread.start()
    return thread, results


class TestBoundedQueue:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BoundedQueue(capacity=0)

    def test_fifo_order(self):
        queue = BoundedQueue(capacity=8)
        for t in (1.0, 2.0, 3.0):
            assert queue.put(_hb(t)) is PutResult.OK
        assert [r.time_s for r in queue.drain()] == [1.0, 2.0, 3.0]

    def test_empty_poll_returns_none(self):
        queue = BoundedQueue(capacity=1)
        assert queue.get(timeout_s=0) is None

    def test_drop_oldest_sheds_head(self):
        queue = BoundedQueue(
            capacity=2, policy=OverflowPolicy.DROP_OLDEST
        )
        queue.put(_hb(1.0))
        queue.put(_hb(2.0))
        result = queue.put(_hb(3.0))
        assert result is PutResult.DROPPED_OLDEST
        assert result.accepted
        assert queue.stats.dropped_oldest == 1
        assert [r.time_s for r in queue.drain()] == [2.0, 3.0]

    def test_reject_refuses_new_record(self):
        queue = BoundedQueue(capacity=1, policy=OverflowPolicy.REJECT)
        queue.put(_hb(1.0))
        result = queue.put(_hb(2.0))
        assert result is PutResult.REJECTED
        assert not result.accepted
        assert queue.stats.rejected == 1
        assert [r.time_s for r in queue.drain()] == [1.0]

    def test_block_times_out_and_counts(self):
        queue = BoundedQueue(capacity=1, policy=OverflowPolicy.BLOCK)
        queue.put(_hb(1.0))
        result = queue.put(_hb(2.0), timeout_s=0.01)
        assert result is PutResult.TIMEOUT
        assert queue.stats.timeouts == 1

    def test_block_unblocks_when_consumer_frees_space(self):
        queue = BoundedQueue(capacity=1, policy=OverflowPolicy.BLOCK)
        queue.put(_hb(1.0))
        consumed = []

        def consume():
            consumed.append(queue.get(timeout_s=5.0))

        thread = threading.Thread(target=consume)
        thread.start()
        result = queue.put(_hb(2.0), timeout_s=5.0)
        thread.join(timeout=5.0)
        assert result is PutResult.OK
        assert consumed[0].time_s == 1.0
        assert [r.time_s for r in queue.drain()] == [2.0]

    def test_get_waits_for_producer(self):
        queue = BoundedQueue(capacity=4)
        timer = threading.Timer(0.02, lambda: queue.put(_hb(7.0)))
        timer.start()
        record = queue.get(timeout_s=5.0)
        timer.join()
        assert record.time_s == 7.0

    def test_high_watermark_tracks_peak_depth(self):
        queue = BoundedQueue(capacity=8)
        for t in range(5):
            queue.put(_hb(float(t)))
        queue.drain()
        queue.put(_hb(99.0))
        assert queue.stats.high_watermark == 5
        assert queue.stats.enqueued == 6
        assert queue.stats.consumed == 5

    def test_stats_as_dict_buckets_every_outcome(self):
        queue = BoundedQueue(capacity=1, policy=OverflowPolicy.REJECT)
        queue.put(_hb(1.0))
        queue.put(_hb(2.0))
        stats = queue.stats.as_dict()
        assert stats["enqueued"] == 1
        assert stats["rejected"] == 1
        assert stats["dropped_oldest"] == 0


class TestWakeUps:
    """Puts and gets signal a waiter only when one is registered.

    Each test parks a thread in a wait, then checks that the matching
    operation wakes it well before its own timeout.
    """

    def _blocked_put(self, queue: BoundedQueue):
        queue.put(_hb(1.0))
        thread, results = _in_thread(
            lambda: queue.put(_hb(2.0), timeout_s=WAIT_S)
        )
        _until_waiting(lambda: queue._putters)
        return thread, results

    def test_blocked_put_is_woken_by_get(self):
        queue = BoundedQueue(capacity=1, policy=OverflowPolicy.BLOCK)
        thread, results = self._blocked_put(queue)
        assert queue.get(timeout_s=0).time_s == 1.0
        thread.join(timeout=JOIN_S)
        assert not thread.is_alive(), "get() did not wake the putter"
        assert results == [PutResult.OK]
        assert [r.time_s for r in queue.drain()] == [2.0]
        assert queue._putters == 0

    def test_blocked_put_is_woken_by_drain(self):
        queue = BoundedQueue(capacity=1, policy=OverflowPolicy.BLOCK)
        thread, results = self._blocked_put(queue)
        assert [r.time_s for r in queue.drain()] == [1.0]
        thread.join(timeout=JOIN_S)
        assert not thread.is_alive(), "drain() did not wake the putter"
        assert results == [PutResult.OK]
        assert [r.time_s for r in queue.drain()] == [2.0]

    def test_waiting_get_is_woken_by_put(self):
        queue = BoundedQueue(capacity=4)
        thread, results = _in_thread(
            lambda: queue.get(timeout_s=WAIT_S)
        )
        _until_waiting(lambda: queue._getters)
        assert queue.put(_hb(7.0)) is PutResult.OK
        thread.join(timeout=JOIN_S)
        assert not thread.is_alive(), "put() did not wake the getter"
        assert [r.time_s for r in results] == [7.0]
        assert queue._getters == 0
        assert queue.stats.consumed == 1

    def test_timed_out_waiters_deregister(self):
        queue = BoundedQueue(capacity=1, policy=OverflowPolicy.BLOCK)
        assert queue.get(timeout_s=0.01) is None
        queue.put(_hb(1.0))
        assert queue.put(_hb(2.0), timeout_s=0.01) is PutResult.TIMEOUT
        assert (queue._getters, queue._putters) == (0, 0)


class TestRequeue:
    def test_requeued_records_go_back_to_the_head_in_order(self):
        queue = BoundedQueue(capacity=2)
        queue.put(_hb(1.0))
        queue.put(_hb(2.0))
        drained = queue.drain()
        queue.put(_hb(3.0))
        queue.requeue(drained)
        assert queue.stats.consumed == 0
        assert queue.stats.high_watermark == 3
        assert [r.time_s for r in queue.drain()] == [1.0, 2.0, 3.0]
        assert queue.stats.as_dict()["consumed"] == 3
        assert queue.stats.enqueued == 3


class TestStreamBroker:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            StreamBroker(capacity=0)

    def test_per_node_isolation(self):
        broker = StreamBroker(capacity=4)
        broker.publish("a", _hb(1.0))
        broker.publish("b", _hb(2.0))
        broker.publish("b", _hb(3.0))
        assert broker.node_ids() == ["a", "b"]
        assert broker.depth("a") == 1
        assert broker.depth("b") == 2
        assert broker.depth("never-seen") == 0

    def test_metrics_mirror_queue_outcomes(self):
        metrics = MetricsRegistry()
        broker = StreamBroker(
            capacity=1,
            policy=OverflowPolicy.DROP_OLDEST,
            metrics=metrics,
        )
        broker.publish("a", _hb(1.0))
        broker.publish("a", _hb(2.0))
        summary = metrics.summary()
        assert summary["broker_enqueued"] == 2
        assert summary["broker_dropped_oldest"] == 1
        assert broker.total_dropped() == 1

    def test_rejections_counted_globally_and_per_node(self):
        broker = StreamBroker(capacity=1, policy=OverflowPolicy.REJECT)
        broker.publish("a", _hb(1.0))
        assert broker.publish("a", _hb(2.0)) is PutResult.REJECTED
        assert broker.metrics.summary()["broker_rejected"] == 1
        assert broker.stats()["a"]["rejected"] == 1
        assert broker.total_dropped() == 1


#: Registry counters each put outcome moves.
_OUTCOME_COUNTERS = {
    PutResult.OK: ("broker_enqueued",),
    PutResult.DROPPED_OLDEST: ("broker_enqueued", "broker_dropped_oldest"),
    PutResult.REJECTED: ("broker_rejected",),
    PutResult.TIMEOUT: ("broker_put_timeouts",),
}

#: Each registry counter's :class:`QueueStats` field.
_STATS_FIELDS = {
    "broker_enqueued": "enqueued",
    "broker_dropped_oldest": "dropped_oldest",
    "broker_rejected": "rejected",
    "broker_put_timeouts": "timeouts",
}


def _broker_counters(metrics):
    return {
        name: value
        for name, value in metrics.summary().items()
        if name.startswith("broker_")
    }


class TestCountedOnce:
    """The registry's broker counters are the queues' own counts."""

    @pytest.mark.parametrize(
        "policy, outcome",
        [
            (OverflowPolicy.BLOCK, PutResult.TIMEOUT),
            (OverflowPolicy.DROP_OLDEST, PutResult.DROPPED_OLDEST),
            (OverflowPolicy.REJECT, PutResult.REJECTED),
        ],
    )
    def test_each_outcome_counted_once(self, policy, outcome):
        metrics = MetricsRegistry()
        broker = StreamBroker(capacity=1, policy=policy, metrics=metrics)
        assert _broker_counters(metrics) == {}
        assert broker.publish("a", _hb(1.0), 0.0) is PutResult.OK
        assert _broker_counters(metrics) == {"broker_enqueued": 1}
        assert broker.publish("a", _hb(2.0), 0.0) is outcome
        expected = Counter(
            _OUTCOME_COUNTERS[PutResult.OK] + _OUTCOME_COUNTERS[outcome]
        )
        assert _broker_counters(metrics) == dict(expected)
        for name, value in expected.items():
            assert metrics.count(name) == value

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(list(OverflowPolicy)),
        st.integers(1, 3),
        st.lists(
            st.tuples(st.booleans(), st.sampled_from("abc")), max_size=40
        ),
    )
    def test_registry_matches_summed_queue_stats(
        self, policy, capacity, steps
    ):
        metrics = MetricsRegistry()
        broker = StreamBroker(capacity, policy, metrics=metrics)
        outcomes = Counter()
        for k, (publish, node_id) in enumerate(steps):
            if publish:
                result = broker.publish(node_id, _hb(float(k)), 0.0)
                outcomes.update(_OUTCOME_COUNTERS[result])
            else:
                broker.queue_for(node_id).drain()
        counters = _broker_counters(metrics)
        # An outcome that never happened has no key.
        assert counters == dict(outcomes)
        per_node = broker.stats().values()
        for name, field in _STATS_FIELDS.items():
            assert counters.get(name, 0) == sum(s[field] for s in per_node)
            assert metrics.count(name) == counters.get(name, 0)

    def test_polling_while_queues_open_is_exact(self):
        metrics = MetricsRegistry()
        capacity, per_node, n_nodes, n_producers = 4, 6, 40, 4
        broker = StreamBroker(
            capacity, OverflowPolicy.REJECT, metrics=metrics
        )
        stop = threading.Event()
        errors = []
        seen = []

        def produce(p):
            # Every record goes to a queue this producer opens.
            for n in range(n_nodes):
                for k in range(per_node):
                    broker.publish(f"p{p}-n{n}", _hb(float(k)))

        def poll():
            try:
                while not stop.is_set():
                    summary = metrics.summary()
                    seen.append(summary.get("broker_enqueued", 0))
                    metrics.count("broker_rejected")
            except Exception as exc:
                errors.append(exc)

        poller = threading.Thread(target=poll, daemon=True)
        producers = [
            threading.Thread(target=produce, args=(p,))
            for p in range(n_producers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            poller.start()
            for thread in producers:
                thread.start()
            for thread in producers:
                thread.join()
        finally:
            stop.set()
            poller.join(timeout=JOIN_S)
            sys.setswitchinterval(interval)
        assert not poller.is_alive()
        assert errors == []
        assert seen and seen == sorted(seen)
        queues = n_producers * n_nodes
        assert len(broker.node_ids()) == queues
        assert _broker_counters(metrics) == {
            "broker_enqueued": queues * capacity,
            "broker_rejected": queues * (per_node - capacity),
        }
