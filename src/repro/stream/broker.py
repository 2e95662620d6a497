"""Bounded per-node record queues with explicit overflow policies.

A crowd-sourced network's ingest path is where memory dies first:
thousands of cheap senders, some of them bursty, some wedged, some
malicious. The broker gives every node a *bounded* queue and makes the
overflow behaviour an explicit, counted policy instead of an OOM:

- ``BLOCK`` — the publisher waits (with a timeout) for space; the
  default for trusted local pipes where losing data is worse than
  slowing the sender.
- ``DROP_OLDEST`` — the queue sheds its oldest record to admit the
  new one; right for live telemetry where fresh data beats stale.
- ``REJECT`` — the new record is refused; right when the sender can
  retry (and the transport can say "429").

Every drop, rejection and timeout increments a counter — backpressure
you cannot observe is backpressure you cannot debug.
"""

from __future__ import annotations

import enum
import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.core.metrics import MetricsRegistry
from repro.stream.records import StreamRecord


class OverflowPolicy(enum.Enum):
    """What a full queue does with the next record."""

    BLOCK = "block"
    DROP_OLDEST = "drop-oldest"
    REJECT = "reject"


class PutResult(enum.Enum):
    """Outcome of one publish attempt.

    Each member's ``accepted`` says whether the published record made
    it into the queue; it is a plain attribute, read once per publish.
    """

    OK = "ok"
    DROPPED_OLDEST = "dropped-oldest"
    REJECTED = "rejected"
    TIMEOUT = "timeout"

    def __init__(self, value: str) -> None:
        self.accepted = value in ("ok", "dropped-oldest")


#: The common put outcome, bound once for the hot path.
_OK = PutResult.OK


@dataclass
class QueueStats:
    """Counters for one node's queue (drops are never silent)."""

    enqueued: int = 0
    consumed: int = 0
    dropped_oldest: int = 0
    rejected: int = 0
    timeouts: int = 0
    high_watermark: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "enqueued": self.enqueued,
            "consumed": self.consumed,
            "dropped_oldest": self.dropped_oldest,
            "rejected": self.rejected,
            "timeouts": self.timeouts,
            "high_watermark": self.high_watermark,
        }


class BoundedQueue:
    """One node's bounded FIFO with a configurable overflow policy.

    Getters (``get`` on an empty queue) and ``BLOCK`` putters (``put``
    on a full one) register as waiters under the queue lock before
    they wait, and a put or get signals its condition only while a
    waiter is registered. A consumer that only ever drains, and a
    producer that never fills the queue, therefore pay no wake-up
    cost per record. ``drain`` always wakes every blocked putter.
    """

    def __init__(
        self,
        capacity: int,
        policy: OverflowPolicy = OverflowPolicy.BLOCK,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self.policy = policy
        self.stats = QueueStats()
        self._items: Deque[StreamRecord] = deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        # Threads waiting on each condition; read and written under
        # ``_lock`` only, so a signaller never misses a waiter.
        self._getters = 0
        self._putters = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def put(
        self,
        record: StreamRecord,
        timeout_s: Optional[float] = None,
    ) -> PutResult:
        """Publish one record under this queue's overflow policy.

        ``timeout_s`` only matters under ``BLOCK``: ``None`` waits
        forever, otherwise the put gives up (and is counted) after
        that long without space.
        """
        with self._lock:
            items = self._items
            result = _OK
            if len(items) >= self.capacity:
                result = self._make_room(timeout_s)
                if not result.accepted:
                    return result
            items.append(record)
            stats = self.stats
            stats.enqueued += 1
            if len(items) > stats.high_watermark:
                stats.high_watermark = len(items)
            if self._getters:
                self._not_empty.notify()
            return result

    def _make_room(self, timeout_s: Optional[float]) -> PutResult:
        """Apply the overflow policy to a full queue, under the lock.

        Returns how the pending put ends; the record is appended only
        if the result is accepted.
        """
        if self.policy is OverflowPolicy.REJECT:
            self.stats.rejected += 1
            return PutResult.REJECTED
        if self.policy is OverflowPolicy.DROP_OLDEST:
            self._items.popleft()
            self.stats.dropped_oldest += 1
            return PutResult.DROPPED_OLDEST
        # BLOCK: wait for a consumer to make room.
        self._putters += 1
        try:
            has_room = self._not_full.wait_for(
                lambda: len(self._items) < self.capacity,
                timeout=timeout_s,
            )
        finally:
            self._putters -= 1
        if not has_room:
            self.stats.timeouts += 1
            return PutResult.TIMEOUT
        return _OK

    def get(self, timeout_s: Optional[float] = None) -> Optional[StreamRecord]:
        """Pop the oldest record, waiting up to ``timeout_s``.

        Returns ``None`` on timeout (``timeout_s=0`` is a non-blocking
        poll).
        """
        with self._lock:
            if not self._items and timeout_s != 0:
                self._getters += 1
                try:
                    self._not_empty.wait_for(
                        lambda: bool(self._items), timeout=timeout_s
                    )
                finally:
                    self._getters -= 1
            if not self._items:
                return None
            record = self._items.popleft()
            self.stats.consumed += 1
            if self._putters:
                self._not_full.notify()
            return record

    def drain(self) -> List[StreamRecord]:
        """Pop everything currently queued (non-blocking)."""
        with self._lock:
            items = list(self._items)
            self._items.clear()
            self.stats.consumed += len(items)
            self._not_full.notify_all()
            return items

    def requeue(self, records: List[StreamRecord]) -> None:
        """Put drained but unconsumed records back at the head, in order.

        They go ahead of anything published since the drain and are
        no longer counted as consumed. They were admitted once, so
        they bypass the capacity check and the overflow policy.
        """
        if not records:
            return
        with self._lock:
            self._items.extendleft(reversed(records))
            self.stats.consumed -= len(records)
            if len(self._items) > self.stats.high_watermark:
                self.stats.high_watermark = len(self._items)
            if self._getters:
                self._not_empty.notify_all()


class StreamBroker:
    """Per-node bounded queues between publishers and sessions.

    Attributes:
        capacity: per-node queue bound.
        policy: overflow policy applied to every queue.
        metrics: shared registry that reports the global counters
            (``broker_enqueued``, ``broker_dropped_oldest``,
            ``broker_rejected``, ``broker_put_timeouts``), read from
            the queues' :class:`QueueStats` through
            :meth:`counter_totals`.
    """

    def __init__(
        self,
        capacity: int = 1024,
        policy: OverflowPolicy = OverflowPolicy.BLOCK,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self.policy = policy
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._queues: Dict[str, BoundedQueue] = {}
        self._lock = threading.Lock()
        self.metrics.add_counter_source(self.counter_totals)

    def queue_for(self, node_id: str) -> BoundedQueue:
        """The node's queue, created on first use.

        Queues are never removed, so an existing one is read without
        the lock; only creation is serialised.
        """
        queue = self._queues.get(node_id)
        if queue is not None:
            return queue
        with self._lock:
            queue = self._queues.get(node_id)
            if queue is None:
                queue = BoundedQueue(self.capacity, self.policy)
                self._queues[node_id] = queue
            return queue

    def publish(
        self,
        node_id: str,
        record: StreamRecord,
        timeout_s: Optional[float] = None,
    ) -> PutResult:
        """Publish one record to a node's queue.

        The queue's :class:`QueueStats` count the outcome; the
        registry reads them back (see :meth:`counter_totals`). An
        existing queue is read straight from the map; only a missing
        one goes through :meth:`queue_for`.
        """
        queue = self._queues.get(node_id)
        if queue is None:
            queue = self.queue_for(node_id)
        return queue.put(record, timeout_s)

    def node_ids(self) -> List[str]:
        """Nodes that have (or had) a queue, sorted."""
        with self._lock:
            return sorted(self._queues)

    def depth(self, node_id: str) -> int:
        """Records currently queued for one node."""
        with self._lock:
            queue = self._queues.get(node_id)
        return len(queue) if queue is not None else 0

    def total_dropped(self) -> int:
        """Drops + rejections + timeouts across all queues."""
        totals = self.counter_totals()
        return (
            totals["broker_dropped_oldest"]
            + totals["broker_rejected"]
            + totals["broker_put_timeouts"]
        )

    def counter_totals(self) -> Dict[str, int]:
        """The registry's broker counters, summed over every queue."""
        with self._lock:
            queues = list(self._queues.values())
        enqueued = dropped = rejected = timeouts = 0
        for queue in queues:
            stats = queue.stats
            enqueued += stats.enqueued
            dropped += stats.dropped_oldest
            rejected += stats.rejected
            timeouts += stats.timeouts
        return {
            "broker_enqueued": enqueued,
            "broker_dropped_oldest": dropped,
            "broker_rejected": rejected,
            "broker_put_timeouts": timeouts,
        }

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-node counter snapshot."""
        with self._lock:
            return {
                node_id: queue.stats.as_dict()
                for node_id, queue in sorted(self._queues.items())
            }
