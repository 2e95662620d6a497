"""Read-optimized columnar projection of a fleet's assessments.

The query service answers "rank 10 000 nodes by trust", "which nodes
hear 600 MHz above −60 dBm", and "page 37 of the marketplace" far
more often than it renders any single node. :class:`FleetColumns`
therefore projects every :class:`~repro.core.network.NodeAssessment`
scalar the list endpoints sort and filter on into one numpy record
array (plus per-band matrices for the spectrum queries), built once
per snapshot and never mutated afterwards — the store swaps whole
snapshots instead of editing them in place. The build is one pass
over the assessments that collects each node's summary values as a
plain tuple (scoring each report once, via
:meth:`~repro.core.report.CalibrationReport.scores`) and converts all
of them with one numpy call, so a publish costs a list build, not one
numpy write per field per node.

Full per-node detail (the complete serialized assessment) stays on
the snapshot as objects; only the hot list/filter path is columnar.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Tuple

import numpy as np

from repro.core.network import NodeAssessment

#: One row per node: everything the list endpoints filter or sort on.
SUMMARY_DTYPE = np.dtype(
    [
        ("trust", np.float64),
        ("overall", np.float64),
        ("directional", np.float64),
        ("frequency", np.float64),
        ("open_fraction", np.float64),
        ("outdoor", np.bool_),
        ("outdoor_probability", np.float64),
        ("n_violations", np.int32),
        ("n_ghosts", np.int32),
        ("n_observations", np.int32),
        ("n_received", np.int32),
        ("decoded_messages", np.int64),
        ("abs_power_dbm", np.float64),  # NaN when uncalibrated
    ]
)


@dataclass(frozen=True)
class FleetColumns:
    """Immutable columnar view over one fleet snapshot.

    Nothing here is written after :meth:`build` returns, which is what
    lets :class:`~repro.serve.store.FleetSnapshot` memoise sort orders
    over these columns for the snapshot's lifetime.

    Attributes:
        node_ids: node ids in ascending order; every array below is
            row-aligned with this tuple.
        index: node id -> row position.
        summary: :data:`SUMMARY_DTYPE` record array, one row per node.
        installations: per-node installation class label.
        band_labels: measured-band labels, ascending by frequency
            (the union over the fleet; nodes missing a band hold NaN).
        band_freq_hz: per-band center frequency.
        band_measured_dbm: (n_nodes, n_bands) measured power.
        band_expected_dbm: (n_nodes, n_bands) link-budget expectation.
        band_excess_db: (n_nodes, n_bands) excess attenuation.
        band_decoded: (n_nodes, n_bands) decode success flags.
    """

    node_ids: Tuple[str, ...]
    index: Dict[str, int]
    summary: np.ndarray
    installations: np.ndarray
    band_labels: Tuple[str, ...]
    band_freq_hz: np.ndarray
    band_measured_dbm: np.ndarray
    band_expected_dbm: np.ndarray
    band_excess_db: np.ndarray
    band_decoded: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_bands(self) -> int:
        return len(self.band_labels)

    @classmethod
    def build(
        cls, assessments: Mapping[str, NodeAssessment]
    ) -> "FleetColumns":
        """Project a ``{node_id: NodeAssessment}`` map into columns."""
        node_ids = tuple(sorted(assessments))
        n = len(node_ids)
        # One tuple per node in SUMMARY_DTYPE field order, converted
        # in a single call: per-field writes into a numpy record cost
        # more than the values themselves.
        rows: List[Tuple[Any, ...]] = []
        installations: List[str] = []

        band_keys = _band_union(assessments)
        band_labels = tuple(label for label, _ in band_keys)
        band_index = {label: j for j, (label, _) in enumerate(band_keys)}
        b = len(band_keys)
        measured = np.full((n, b), np.nan)
        expected = np.full((n, b), np.nan)
        excess = np.full((n, b), np.nan)
        decoded = np.zeros((n, b), dtype=bool)

        for i, node_id in enumerate(node_ids):
            a = assessments[node_id]
            report = a.report
            scan = report.scan
            classification = report.classification
            directional, frequency, overall = report.scores()
            rows.append(
                (
                    a.trust.trust_score(),
                    overall,
                    directional,
                    frequency,
                    directional,  # open_fraction: the same FoV value
                    classification.outdoor,
                    classification.outdoor_probability,
                    len(a.claim_violations),
                    len(scan.ghost_icaos),
                    len(scan.observations),
                    sum(1 for obs in scan.observations if obs.received),
                    scan.decoded_message_count,
                    a.abs_power.full_scale_dbm_estimate
                    if a.abs_power is not None
                    else np.nan,
                )
            )
            installations.append(classification.installation)
            for m in report.profile.measurements:
                j = band_index[m.label]
                measured[i, j] = m.measured
                expected[i, j] = m.expected
                if m.excess_attenuation_db is not None:
                    excess[i, j] = m.excess_attenuation_db
                decoded[i, j] = m.decoded

        summary = np.array(rows, dtype=SUMMARY_DTYPE)

        return cls(
            node_ids=node_ids,
            index={node_id: i for i, node_id in enumerate(node_ids)},
            summary=summary,
            installations=np.asarray(installations, dtype=str),
            band_labels=band_labels,
            band_freq_hz=np.asarray(
                [freq for _, freq in band_keys], dtype=np.float64
            ),
            band_measured_dbm=measured,
            band_expected_dbm=expected,
            band_excess_db=excess,
            band_decoded=decoded,
        )

    def content_hash(self) -> str:
        """Stable digest of every column (the snapshot ETag seed)."""
        h = hashlib.blake2b(digest_size=16)
        h.update("\x00".join(self.node_ids).encode())
        h.update("\x00".join(self.band_labels).encode())
        for arr in (
            self.summary,
            self.installations,
            self.band_freq_hz,
            self.band_measured_dbm,
            self.band_expected_dbm,
            self.band_excess_db,
            self.band_decoded,
        ):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()


def _band_union(
    assessments: Mapping[str, NodeAssessment],
) -> List[Tuple[str, float]]:
    """Distinct (label, freq) bands across the fleet, by frequency.

    A label measured at two frequencies keeps the first frequency
    seen — labels are the query key, so they must be unique columns.
    """
    seen: Dict[str, float] = {}
    for a in assessments.values():
        for m in a.report.profile.measurements:
            seen.setdefault(m.label, m.freq_hz)
    return sorted(seen.items(), key=lambda kv: (kv[1], kv[0]))
