"""The serve-side fleet store: append-only snapshots, atomic swap.

Writers (the stream gateway's export hook, a finished campaign, a
batch loader) build a complete :class:`FleetSnapshot` off to the side
and :meth:`FleetStore.swap` it in; readers take a reference to the
current snapshot once per request and keep querying it even while a
swap lands — a snapshot is never mutated after construction, so an
in-flight paginated read stays internally consistent and simply sees
the older generation. This is the classic read-optimized
big-spectrum-data shape (Electrosense's sensors → ingest → storage →
API pipeline): ingestion appends snapshots, queries never block.

Single-item query helpers return plain JSON-ready dicts; paginated
ones return a :class:`Page` whose rows are already compact JSON
fragments, so a page body is a join rather than an encode. HTTP
concerns (caching, ETags, status codes) live in
:mod:`repro.serve.app`.
"""

from __future__ import annotations

import json
import math
import threading
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from repro.core.metrics import MetricsRegistry
from repro.core.network import AssessmentFailure, NodeAssessment
from repro.core.serialize import assessment_to_dict
from repro.serve.columns import FleetColumns


@dataclass(frozen=True)
class DriftStatus:
    """Condensed drift state for one node (from the stream engine)."""

    node_id: str
    events: int
    last_detected_at_s: Optional[float] = None
    last_divergence: Optional[float] = None
    recalibration_hours: Tuple[float, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "node_id": self.node_id,
            "events": self.events,
            "last_detected_at_s": self.last_detected_at_s,
            "last_divergence": self.last_divergence,
            "recalibration_hours": list(self.recalibration_hours),
        }


#: The service's one JSON encoder: ``json.dumps`` defaults with
#: compact separators. Row fragments and whole bodies both go through
#: it, so a body joined from fragments equals one encoded whole.
json_fragment = json.JSONEncoder(separators=(",", ":")).encode


@dataclass(frozen=True)
class Page:
    """One page of a cursor-paginated query.

    Rows are held as compact JSON fragments, the pieces a page body
    is joined from; :attr:`items` and :meth:`to_dict` decode them for
    callers that want dicts.
    """

    fragments: List[str]
    next_cursor: Optional[int]
    total: int

    @property
    def items(self) -> List[Dict[str, Any]]:
        return [json.loads(fragment) for fragment in self.fragments]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "items": self.items,
            "next_cursor": self.next_cursor,
            "total": self.total,
        }


#: A memoised sort order: a summary field name, or ``("band", j)``
#: for band column ``j`` of the measured-power matrix.
OrderKey = Union[str, Tuple[str, int]]


class FleetSnapshot:
    """One immutable, queryable picture of the whole fleet.

    Because a snapshot never changes after construction, two things
    are computed once, on first use, and memoised on it:

    - the full stable sort order of any column it is queried by
      (:meth:`order`), so a filtered, sorted query is a boolean slice
      of that order;
    - each node's list-row JSON fragment, one slot per node, so the
      rows near the top of every order, which overlapping filtered
      queries keep asking for, are built and encoded once per
      snapshot. A page fills only its own empty slots, through one
      :meth:`node_rows` gather of column slices.

    Two readers racing on a first use both compute the same array or
    write the same string, so neither memo needs a lock. Memory is
    bounded by one fragment per node.
    """

    def __init__(
        self,
        assessments: Mapping[str, NodeAssessment],
        failures: Optional[Mapping[str, AssessmentFailure]] = None,
        drift: Optional[Mapping[str, DriftStatus]] = None,
        generation: int = 0,
        metrics: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.assessments: Dict[str, NodeAssessment] = dict(assessments)
        self.failures: Dict[str, AssessmentFailure] = dict(
            failures or {}
        )
        self.drift: Dict[str, DriftStatus] = dict(drift or {})
        self.generation = generation
        #: Counters from the campaign that produced this snapshot
        #: (path-cache hits/misses, failed jobs, latencies); empty when
        #: the producer was not a campaign.
        self.metrics: Dict[str, Any] = dict(metrics or {})
        self.columns = FleetColumns.build(self.assessments)
        #: Content identity: same fleet data -> same etag, regardless
        #: of generation counter, so unchanged re-publishes revalidate.
        self.etag = self.columns.content_hash()
        self._orders: Dict[OrderKey, np.ndarray] = {}
        self._node_json: List[Optional[str]] = [None] * self.n_nodes

    @property
    def n_nodes(self) -> int:
        return self.columns.n_nodes

    # ------------------------------------------------------------------
    # sort orders and row shaping

    def order(self, key: OrderKey) -> np.ndarray:
        """Stable ascending argsort of one full column, memoised.

        ``key`` names a summary field or ``("band", j)``. Filtering
        the order by a row mask (``order[mask[order]]``) gives exactly
        the stable argsort of the selected rows: ties still break by
        row index.
        """
        order = self._orders.get(key)
        if order is None:
            cols = self.columns
            column = (
                cols.band_measured_dbm[:, key[1]]
                if isinstance(key, tuple)
                else cols.summary[key]
            )
            order = self._orders.setdefault(
                key, np.argsort(column, kind="stable")
            )
        return order

    def node_fragments(self, idx: np.ndarray) -> List[str]:
        """List-row JSON for column rows ``idx``, each encoded once.

        Empty memo slots among ``idx`` are filled from one
        :meth:`node_rows` gather; a slot, once written, never changes.
        """
        memo = self._node_json
        rows = idx.tolist()
        missing = [i for i in rows if memo[i] is None]
        if missing:
            built = self.node_rows(np.asarray(missing, dtype=np.intp))
            for i, row in zip(missing, built):
                memo[i] = json_fragment(row)
        return [memo[i] for i in rows]

    def node_row(self, i: int) -> Dict[str, Any]:
        """The list-endpoint summary row for node at column row ``i``."""
        return self.node_rows(np.asarray([i]))[0]

    def node_rows(self, idx: np.ndarray) -> List[Dict[str, Any]]:
        """Summary rows for column rows ``idx``, in that order.

        One gather of the summary records and one ``tolist()`` per
        field yield the same Python scalars per-element casts would.
        """
        cols = self.columns
        s = cols.summary[idx]
        drift = self.drift
        rows: List[Dict[str, Any]] = []
        for (
            node_id,
            trust,
            overall,
            directional,
            frequency,
            open_fraction,
            installation,
            outdoor,
            outdoor_probability,
            violations,
            ghosts,
            observations,
            received,
            decoded_messages,
            abs_power,
        ) in zip(
            [cols.node_ids[i] for i in idx.tolist()],
            s["trust"].tolist(),
            s["overall"].tolist(),
            s["directional"].tolist(),
            s["frequency"].tolist(),
            s["open_fraction"].tolist(),
            cols.installations[idx].tolist(),
            s["outdoor"].tolist(),
            s["outdoor_probability"].tolist(),
            s["n_violations"].tolist(),
            s["n_ghosts"].tolist(),
            s["n_observations"].tolist(),
            s["n_received"].tolist(),
            s["decoded_messages"].tolist(),
            s["abs_power_dbm"].tolist(),
        ):
            node_drift = drift.get(node_id)
            rows.append(
                {
                    "node_id": node_id,
                    "trust": trust,
                    "scores": {
                        "overall": overall,
                        "directional": directional,
                        "frequency": frequency,
                    },
                    "open_fraction": open_fraction,
                    "installation": installation,
                    "outdoor": outdoor,
                    "outdoor_probability": outdoor_probability,
                    "violations": violations,
                    "ghosts": ghosts,
                    "observations": observations,
                    "received": received,
                    "decoded_messages": decoded_messages,
                    "abs_power_dbm": (
                        abs_power if not math.isnan(abs_power) else None
                    ),
                    "drift_events": (
                        node_drift.events if node_drift is not None else 0
                    ),
                }
            )
        return rows

    # ------------------------------------------------------------------
    # queries

    def page_nodes(
        self,
        cursor: int = 0,
        limit: int = 100,
        min_trust: Optional[float] = None,
        max_trust: Optional[float] = None,
        min_overall: Optional[float] = None,
        installation: Optional[str] = None,
        outdoor: Optional[bool] = None,
        sort: str = "node_id",
        descending: bool = False,
    ) -> Page:
        """Filter + order + cursor-paginate the summary columns.

        The cursor is a position into the *filtered, ordered* row
        sequence of this snapshot; a cursor past the end yields an
        empty page with ``next_cursor = None`` (cursors are finite,
        not an error).
        """
        cols = self.columns
        s = cols.summary
        mask = np.ones(cols.n_nodes, dtype=bool)
        if min_trust is not None:
            mask &= s["trust"] >= min_trust
        if max_trust is not None:
            mask &= s["trust"] <= max_trust
        if min_overall is not None:
            mask &= s["overall"] >= min_overall
        if installation is not None:
            mask &= cols.installations == installation
        if outdoor is not None:
            mask &= s["outdoor"] == outdoor
        if sort == "node_id":
            selected = np.nonzero(mask)[0]
        else:
            order = self.order(sort)
            selected = order[mask[order]]
        if descending:
            selected = selected[::-1]
        return self._paginate(selected, cursor, limit, self.node_fragments)

    def node_detail(self, node_id: str) -> Optional[Dict[str, Any]]:
        """Full serialized assessment for one node (None if unknown)."""
        assessment = self.assessments.get(node_id)
        if assessment is None:
            return None
        detail = assessment_to_dict(assessment)
        drift = self.drift.get(node_id)
        detail["drift"] = drift.to_dict() if drift is not None else None
        return detail

    def fov_map(self, node_id: str) -> Optional[Dict[str, Any]]:
        """One node's field-of-view sector map (None if unknown)."""
        assessment = self.assessments.get(node_id)
        if assessment is None:
            return None
        fov = assessment.report.fov
        return {
            "node_id": node_id,
            "bin_deg": fov.bin_deg,
            "open_flags": [bool(f) for f in fov.open_flags],
            "max_range_km": [float(r) for r in fov.max_range_km],
            "open_fraction": fov.open_fraction(),
            "open_sectors": [
                {"start_deg": s.start_deg, "end_deg": s.end_deg}
                for s in fov.open_sectors()
            ],
        }

    def page_trust(
        self,
        cursor: int = 0,
        limit: int = 100,
        untrustworthy_only: bool = False,
        threshold: float = 0.5,
    ) -> Page:
        """Trust scores with per-check detail, worst node first.

        Rows depend on the caller's ``threshold``, so they are encoded
        per page and never memoised.
        """
        cols = self.columns
        order = self.order("trust")
        if untrustworthy_only:
            order = order[
                cols.summary["trust"][order] < threshold
            ]

        def row(i: int) -> Dict[str, Any]:
            node_id = cols.node_ids[i]
            trust = self.assessments[node_id].trust
            return {
                "node_id": node_id,
                "trust": trust.trust_score(),
                "trustworthy": trust.is_trustworthy(threshold),
                "checks": [
                    {
                        "name": c.name,
                        "passed": c.passed,
                        "score": c.score,
                        "detail": c.detail,
                    }
                    for c in trust.checks
                ],
            }

        return self._paginate(
            order,
            cursor,
            limit,
            lambda idx: [json_fragment(row(i)) for i in idx.tolist()],
        )

    def drift_rows(self) -> List[Dict[str, Any]]:
        """Every node with drift state, most recent event first."""
        rows = sorted(
            self.drift.values(),
            key=lambda d: (
                d.last_detected_at_s is not None,
                d.last_detected_at_s or 0.0,
            ),
            reverse=True,
        )
        return [d.to_dict() for d in rows]

    def band_summary(self) -> List[Dict[str, Any]]:
        """Fleet-wide per-band statistics (the spectrum overview)."""
        cols = self.columns
        out: List[Dict[str, Any]] = []
        for j, label in enumerate(cols.band_labels):
            measured = cols.band_measured_dbm[:, j]
            present = ~np.isnan(measured)
            n_present = int(present.sum())
            entry: Dict[str, Any] = {
                "label": label,
                "freq_hz": float(cols.band_freq_hz[j]),
                "nodes_measured": n_present,
                "nodes_decoded": int(cols.band_decoded[:, j].sum()),
                "decode_fraction": (
                    float(cols.band_decoded[:, j].sum() / n_present)
                    if n_present
                    else 0.0
                ),
            }
            if n_present:
                values = measured[present]
                entry["measured_dbm"] = {
                    "mean": float(values.mean()),
                    "min": float(values.min()),
                    "max": float(values.max()),
                    "p50": float(np.percentile(values, 50.0)),
                }
            else:
                entry["measured_dbm"] = None
            out.append(entry)
        return out

    def page_band_power(
        self,
        label: str,
        cursor: int = 0,
        limit: int = 100,
        min_dbm: Optional[float] = None,
        decoded_only: bool = False,
    ) -> Optional[Page]:
        """Per-node power in one band, strongest first.

        Returns None for an unknown band label. Nodes that never
        measured the band are excluded.
        """
        cols = self.columns
        try:
            j = cols.band_labels.index(label)
        except ValueError:
            return None
        measured = cols.band_measured_dbm[:, j]
        mask = ~np.isnan(measured)
        if min_dbm is not None:
            mask &= measured >= min_dbm
        if decoded_only:
            mask &= cols.band_decoded[:, j]
        order = self.order(("band", j))
        selected = order[mask[order]][::-1]

        def rows(idx: np.ndarray) -> List[str]:
            return [
                json_fragment(
                    {
                        "node_id": cols.node_ids[i],
                        "measured_dbm": measured_dbm,
                        "expected_dbm": expected_dbm,
                        "excess_db": (
                            excess_db if not math.isnan(excess_db) else None
                        ),
                        "decoded": decoded,
                    }
                )
                for i, measured_dbm, expected_dbm, excess_db, decoded in zip(
                    idx.tolist(),
                    measured[idx].tolist(),
                    cols.band_expected_dbm[idx, j].tolist(),
                    cols.band_excess_db[idx, j].tolist(),
                    cols.band_decoded[idx, j].tolist(),
                )
            ]

        return self._paginate(selected, cursor, limit, rows)

    def fleet_summary(self) -> Dict[str, Any]:
        """The one-look fleet overview (the `/v1/fleet` body)."""
        cols = self.columns
        s = cols.summary
        summary: Dict[str, Any] = {
            "generation": self.generation,
            "etag": self.etag,
            "nodes": cols.n_nodes,
            "failures": len(self.failures),
            "failed_nodes": sorted(self.failures),
            "bands": list(cols.band_labels),
            "drifting_nodes": sum(
                1 for d in self.drift.values() if d.events > 0
            ),
        }
        if self.metrics:
            summary["campaign_metrics"] = dict(self.metrics)
        if cols.n_nodes:
            summary["trust"] = {
                "mean": float(s["trust"].mean()),
                "min": float(s["trust"].min()),
                "trustworthy": int((s["trust"] >= 0.5).sum()),
            }
            summary["quality"] = {
                "mean": float(s["overall"].mean()),
                "p50": float(np.percentile(s["overall"], 50.0)),
                "outdoor": int(s["outdoor"].sum()),
            }
        else:
            summary["trust"] = None
            summary["quality"] = None
        return summary

    # ------------------------------------------------------------------

    @staticmethod
    def _paginate(
        selected: np.ndarray,
        cursor: int,
        limit: int,
        fragments: Callable[[np.ndarray], List[str]],
    ) -> Page:
        if cursor < 0:
            raise ValueError(f"cursor must be >= 0: {cursor}")
        if limit <= 0:
            raise ValueError(f"limit must be positive: {limit}")
        total = len(selected)
        window = selected[cursor : cursor + limit]
        next_cursor = cursor + limit
        return Page(
            fragments=fragments(window),
            next_cursor=next_cursor if next_cursor < total else None,
            total=total,
        )


class FleetStore:
    """Holds the current snapshot; swaps are atomic, reads lock-free.

    The store starts at an empty generation-0 snapshot so a gateway
    brought up before its first ingest answers every query with empty
    pages instead of errors. Swapped-out snapshots are kept on a
    bounded history deque — in-flight readers hold their own
    references anyway; the history exists for diffing/debugging.
    """

    def __init__(
        self,
        snapshot: Optional[FleetSnapshot] = None,
        metrics: Optional[MetricsRegistry] = None,
        history: int = 4,
    ) -> None:
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry()
        )
        self._lock = threading.Lock()
        self._publish_lock = threading.Lock()
        self._history: Deque[FleetSnapshot] = deque(maxlen=history)
        self._current = (
            snapshot
            if snapshot is not None
            else FleetSnapshot({}, generation=0)
        )
        self._history.append(self._current)

    def current(self) -> FleetSnapshot:
        """The live snapshot (grab once per request, then query it)."""
        with self._lock:
            return self._current

    def swap(self, snapshot: FleetSnapshot) -> FleetSnapshot:
        """Atomically replace the current snapshot; returns the old."""
        with self._lock:
            old = self._current
            self._current = snapshot
            self._history.append(snapshot)
        self.metrics.incr("store_swaps")
        return old

    def publish(
        self,
        assessments: Mapping[str, NodeAssessment],
        failures: Optional[Mapping[str, AssessmentFailure]] = None,
        drift: Optional[Mapping[str, DriftStatus]] = None,
    ) -> FleetSnapshot:
        """Build the next-generation snapshot and swap it in.

        Publishes are serialized from the generation read through the
        swap, so each one gets its own generation and swaps land in
        generation order (the response cache keys freshness on it).
        Readers never wait on this lock, only on the swap itself.
        """
        with self._publish_lock:
            snapshot = FleetSnapshot(
                assessments,
                failures=failures,
                drift=drift,
                generation=self.current().generation + 1,
            )
            self.swap(snapshot)
        return snapshot

    def history(self) -> List[FleetSnapshot]:
        """Retained snapshots, oldest first (current snapshot last)."""
        with self._lock:
            return list(self._history)
