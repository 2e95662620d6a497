"""ADS-B message collisions with capture-effect decoding.

1090 MHz is a shared medium: every transponder in the airspace emits
onto the same channel, and two squitters whose frames overlap at the
receiver garble each other — the same physical fact behind the
modem's skip-ahead over overlapping Mode S frames
(:meth:`repro.adsb.modem.PpmDemodulator.detect_preambles`). This
module resolves a whole capture's overlaps at once:

1. events (time-sorted, as both evaluator paths produce them) are
   merged into *overlap clusters*: maximal runs of frames chained by
   on-air overlap, found with one cumulative-max pass over frame end
   times;
2. per cluster, member powers sum in the linear domain
   (:func:`repro.interference.aggregate.group_power_mw`) — each
   frame's interference is the cluster total minus itself;
3. capture effect: a contested frame survives iff its SINR over that
   interference plus noise clears ``capture_margin_db``. At any
   margin above 0 dB at most one frame per cluster can win — the
   strongest — and two exactly-equal contenders both garble.

A frame with no overlap keeps the *legacy* power-threshold compare,
bit for bit: zero-interferer SINR decoding is exactly SNR decoding.

Treating a cluster as all-mutual interference slightly over-counts
chained overlaps (A-B-C where A and C never touch on air) — a
conservative, deterministic approximation over windows of at most a
few frame durations. The scalar oracle implements the identical rule
so the equivalence suite can hold the vectorized kernel to exact
agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.adsb.messages import DF11_BITS, DF17_BITS
from repro.interference.aggregate import (
    dbm_to_mw,
    dbm_to_mw_array,
    group_power_mw,
)

#: Mode S bits last 1 us; the preamble 8 us.
_PREAMBLE_US = 8.0

#: On-air duration of a long (DF17) frame: 8 us preamble + 112 us.
LONG_FRAME_DURATION_S = (_PREAMBLE_US + DF17_BITS) * 1e-6

#: On-air duration of a short (DF11) acquisition squitter.
SHORT_FRAME_DURATION_S = (_PREAMBLE_US + DF11_BITS) * 1e-6


def frame_durations_s(kind_idx: np.ndarray) -> np.ndarray:
    """On-air duration per event from the batch-schedule kind index.

    Acquisition squitters (``KIND_ACQUISITION``) are 56-bit DF11
    frames; every other kind is a 112-bit DF17.
    """
    from repro.batch.schedule import KIND_ACQUISITION

    kinds = np.asarray(kind_idx, dtype=np.int64)
    return np.where(
        kinds == KIND_ACQUISITION,
        SHORT_FRAME_DURATION_S,
        LONG_FRAME_DURATION_S,
    )


@dataclass(frozen=True)
class CollisionStats:
    """Shared-medium outcome of one capture.

    Attributes:
        n_events: squitters transmitted during the capture.
        n_contested: events whose frame overlapped >= 1 other frame.
        n_captured: contested events that still decoded (the capture
            effect: their SINR margin cleared the threshold).
        n_garbled: contested events that were strong enough to decode
            alone (cleared the power threshold) but lost to the
            collision.
    """

    n_events: int
    n_contested: int
    n_captured: int
    n_garbled: int

    @property
    def collision_rate(self) -> float:
        """Fraction of transmitted squitters that arrived contested."""
        if self.n_events == 0:
            return 0.0
        return self.n_contested / self.n_events


def overlap_clusters(
    time_s: np.ndarray, duration_s: np.ndarray
) -> np.ndarray:
    """Cluster index per event; events must be sorted by start time.

    An event joins the running cluster when it starts before the
    latest frame end seen so far; otherwise it opens a new cluster.
    One vectorized pass: cumulative max of end times, shifted, then a
    cumulative sum over the new-cluster boundaries.
    """
    t = np.asarray(time_s, dtype=np.float64)
    if t.size == 0:
        return np.zeros(0, dtype=np.int64)
    if np.any(np.diff(t) < 0.0):
        raise ValueError("events must be sorted by start time")
    ends = t + np.asarray(duration_s, dtype=np.float64)
    latest_end = np.maximum.accumulate(ends)
    new_cluster = np.ones(t.size, dtype=bool)
    new_cluster[1:] = t[1:] >= latest_end[:-1]
    return np.cumsum(new_cluster) - 1


def resolve_collisions(
    time_s: np.ndarray,
    duration_s: np.ndarray,
    rx_dbm: np.ndarray,
    threshold_dbm: float,
    noise_dbm: float,
    capture_margin_db: float,
) -> Tuple[np.ndarray, CollisionStats]:
    """Decide which squitters of a capture survive the shared medium.

    Returns a boolean decodable mask aligned with the (time-sorted)
    events plus the capture's :class:`CollisionStats`. Isolated
    events use the legacy ``rx_dbm >= threshold_dbm`` compare
    unchanged; contested events additionally need their SINR margin.
    """
    t = np.asarray(time_s, dtype=np.float64)
    rx = np.asarray(rx_dbm, dtype=np.float64)
    if t.size == 0:
        empty = np.zeros(0, dtype=bool)
        return empty, CollisionStats(0, 0, 0, 0)

    cluster = overlap_clusters(t, duration_s)
    n_clusters = int(cluster[-1]) + 1
    cluster_mw = group_power_mw(rx, cluster, n_clusters)
    own_mw = dbm_to_mw_array(rx)
    interference_mw = cluster_mw[cluster] - own_mw
    # A cluster of one leaves interference at exactly 0.0 (x - x);
    # clamp tiny negative residue from the subtraction anyway.
    interference_mw = np.maximum(interference_mw, 0.0)
    contested = np.bincount(cluster, minlength=n_clusters)[cluster] > 1

    above_threshold = rx >= threshold_dbm
    noise_mw = dbm_to_mw(noise_dbm)
    margin_linear = 10.0 ** (capture_margin_db / 10.0)
    # SINR >= margin, formed without a log so isolated events (where
    # the branch is never taken) cannot perturb the legacy compare.
    captures = own_mw >= margin_linear * (interference_mw + noise_mw)
    decodable = np.where(
        contested, above_threshold & captures, above_threshold
    )

    n_contested = int(contested.sum())
    n_captured = int((contested & decodable).sum())
    n_garbled = int(
        (contested & above_threshold & ~decodable).sum()
    )
    stats = CollisionStats(
        n_events=int(t.size),
        n_contested=n_contested,
        n_captured=n_captured,
        n_garbled=n_garbled,
    )
    return decodable, stats


def resolve_collisions_scalar(
    time_s: Sequence[float],
    duration_s: Sequence[float],
    rx_dbm: Sequence[float],
    threshold_dbm: float,
    noise_dbm: float,
    capture_margin_db: float,
) -> Tuple[List[bool], CollisionStats]:
    """One-event-at-a-time oracle for :func:`resolve_collisions`.

    Same rule, plain Python: the equivalence suite holds the
    vectorized kernel to exact agreement with this loop.
    """
    n = len(time_s)
    if n == 0:
        return [], CollisionStats(0, 0, 0, 0)
    clusters: List[List[int]] = []
    latest_end = -np.inf
    for i in range(n):
        if i > 0 and time_s[i] < time_s[i - 1]:
            raise ValueError("events must be sorted by start time")
        if time_s[i] >= latest_end or not clusters:
            clusters.append([])
        clusters[-1].append(i)
        latest_end = max(latest_end, time_s[i] + duration_s[i])

    noise_mw = dbm_to_mw(noise_dbm)
    margin_linear = 10.0 ** (capture_margin_db / 10.0)
    decodable = [False] * n
    n_contested = 0
    n_captured = 0
    n_garbled = 0
    for members in clusters:
        total_mw = 0.0
        for i in members:
            total_mw += dbm_to_mw(rx_dbm[i])
        for i in members:
            above = rx_dbm[i] >= threshold_dbm
            if len(members) == 1:
                decodable[i] = above
                continue
            n_contested += 1
            own_mw = dbm_to_mw(rx_dbm[i])
            interference_mw = max(total_mw - own_mw, 0.0)
            captured = own_mw >= margin_linear * (
                interference_mw + noise_mw
            )
            decodable[i] = above and captured
            if decodable[i]:
                n_captured += 1
            elif above:
                n_garbled += 1
    stats = CollisionStats(
        n_events=n,
        n_contested=n_contested,
        n_captured=n_captured,
        n_garbled=n_garbled,
    )
    return decodable, stats
