"""Field-of-view estimation from directional scans.

The paper's §5 proposes "model-based or ML-based techniques to
calibrate a sensor given the observed and ground-truth airplane
locations ... such as k-nearest neighbors (KNN) or a support vector
machine (SVM) to estimate the true sensor field of view". Three
estimators are implemented, all consuming the same
:class:`~repro.core.observations.DirectionalScan`:

- :class:`SectorHistogramEstimator` — the model-based baseline: a
  bearing histogram marking a sector open when aircraft were received
  beyond a range floor.
- :class:`KnnFovEstimator` — KNN over (bearing, range) with a wrapped
  angular metric.
- :class:`LinearSvmFovEstimator` — a from-scratch linear SVM (Pegasos
  SGD) on bearing-harmonic × range features.

All emit a :class:`FieldOfViewEstimate` that can be scored against the
ground-truth obstruction map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.observations import AircraftObservation, DirectionalScan
from repro.engines.pathcache import get_path_cache
from repro.environment.obstruction import ObstructionMap, flags_to_sectors
from repro.geo.sectors import AzimuthSector, bearing_difference

#: Ranges below this are ignored when judging openness: the paper
#: notes transmissions within ~20 km "have a chance of being received
#: regardless of direction" via multipath, so they carry no
#: directional information.
MULTIPATH_FLOOR_KM = 20.0

#: Probe ranges at which a bin's largest open range is searched.
_OPEN_RANGE_PROBES_KM = (30.0, 45.0, 60.0, 75.0, 90.0)

#: Relative gap below which the k-th and (k+1)-th nearest distances
#: count as tied (a few ulps; ``np.hypot`` may differ by one).
_TIE_MARGIN = 1e-15


@dataclass
class FieldOfViewEstimate:
    """An estimated field of view.

    Attributes:
        bin_deg: angular resolution of the estimate.
        open_flags: per-bin open/closed, bin i covering
            [i*bin_deg, (i+1)*bin_deg).
        max_range_km: per-bin maximum usable range estimate.
    """

    bin_deg: float
    open_flags: List[bool]
    max_range_km: List[float]

    def __post_init__(self) -> None:
        if len(self.open_flags) != len(self.max_range_km):
            raise ValueError("flag and range arrays must align")
        if abs(len(self.open_flags) * self.bin_deg - 360.0) > 1e-6:
            raise ValueError("bins must tile the full circle")

    @property
    def n_bins(self) -> int:
        return len(self.open_flags)

    def is_open(self, bearing_deg: float) -> bool:
        """Whether the estimate calls ``bearing_deg`` open."""
        idx = int((bearing_deg % 360.0) / self.bin_deg) % self.n_bins
        return self.open_flags[idx]

    def open_fraction(self) -> float:
        """Fraction of the horizon estimated open."""
        return sum(self.open_flags) / self.n_bins

    def open_sectors(self) -> List[AzimuthSector]:
        """Contiguous open sectors (wrapping through north)."""
        return flags_to_sectors(list(self.open_flags), self.bin_deg)

    def agreement_with_truth(
        self,
        truth: ObstructionMap,
        probe_elevation_deg: float = 8.0,
        threshold_db: float = 6.0,
    ) -> float:
        """Fraction of bearing bins where estimate matches ground truth.

        Ground truth: a bin is open when the obstruction loss at the
        probe elevation is below ``threshold_db`` at 1090 MHz.
        """
        agree = 0
        for i in range(self.n_bins):
            bearing = (i + 0.5) * self.bin_deg
            true_open = truth.is_clear(
                bearing, probe_elevation_deg, threshold_db
            )
            if true_open == self.open_flags[i]:
                agree += 1
        return agree / self.n_bins


def _informative(
    observations: Sequence[AircraftObservation],
    min_range_km: float,
) -> List[AircraftObservation]:
    """Observations beyond the multipath floor (directional evidence)."""
    return [
        o for o in observations if o.ground_range_km >= min_range_km
    ]


def pool_scans(scans: Sequence[DirectionalScan]) -> DirectionalScan:
    """Merge several scans into one larger evidence set.

    Measurements taken at different times see different flights, so
    pooling fills bearing gaps and averages out per-aircraft fading —
    the cheap way to sharpen a field-of-view estimate (§5: "decide
    when to perform ADS-B measurements to gain as much information as
    possible"). Scans must come from the same node.
    """
    if not scans:
        raise ValueError("need at least one scan to pool")
    node_ids = {s.node_id for s in scans}
    if len(node_ids) > 1:
        raise ValueError(
            f"cannot pool scans from different nodes: {sorted(node_ids)}"
        )
    observations: List[AircraftObservation] = []
    ghosts = []
    for scan in scans:
        observations.extend(scan.observations)
        ghosts.extend(scan.ghost_icaos)
    return DirectionalScan(
        node_id=scans[0].node_id,
        duration_s=sum(s.duration_s for s in scans),
        radius_m=max(s.radius_m for s in scans),
        observations=observations,
        decoded_message_count=sum(
            s.decoded_message_count for s in scans
        ),
        ghost_icaos=ghosts,
    )


@dataclass
class SectorHistogramEstimator:
    """Model-based baseline: per-sector received/missed statistics.

    A sector is called open when at least ``min_received`` aircraft
    beyond the multipath floor were received in it and the received
    fraction beats ``min_ratio``. Sectors with no informative traffic
    inherit their nearest populated neighbour's verdict (the paper:
    "not receiving any messages from a direction does not necessarily
    indicate blockage ... there may have been no aircraft there").
    """

    bin_deg: float = 10.0
    min_range_km: float = MULTIPATH_FLOOR_KM
    min_received: int = 1
    min_ratio: float = 0.34

    def estimate(self, scan: DirectionalScan) -> FieldOfViewEstimate:
        n = int(round(360.0 / self.bin_deg))
        received = [0] * n
        total = [0] * n
        max_range = [0.0] * n
        for obs in _informative(scan.observations, self.min_range_km):
            idx = int(obs.bearing_deg / self.bin_deg) % n
            total[idx] += 1
            if obs.received:
                received[idx] += 1
                max_range[idx] = max(
                    max_range[idx], obs.ground_range_km
                )
        flags: List[Optional[bool]] = [None] * n
        for i in range(n):
            if total[i] == 0:
                continue
            flags[i] = (
                received[i] >= self.min_received
                and received[i] / total[i] >= self.min_ratio
            )
        filled = fill_unobserved(flags)
        return FieldOfViewEstimate(
            bin_deg=self.bin_deg,
            open_flags=filled,
            max_range_km=max_range,
        )


def fill_unobserved(flags: List[Optional[bool]]) -> List[bool]:
    """Give empty bins the verdict of the nearest populated bin."""
    n = len(flags)
    if all(f is None for f in flags):
        return [False] * n
    out: List[bool] = []
    for i in range(n):
        if flags[i] is not None:
            out.append(bool(flags[i]))
            continue
        for step in range(1, n):
            left = flags[(i - step) % n]
            right = flags[(i + step) % n]
            if left is not None:
                out.append(bool(left))
                break
            if right is not None:
                out.append(bool(right))
                break
        else:
            out.append(False)
    return out


@dataclass
class KnnFovEstimator:
    """K-nearest-neighbour field-of-view estimation.

    For each bearing bin, the estimator asks: would an aircraft at the
    probe range in this direction be received? It answers by majority
    vote among the k nearest informative observations under a scaled
    polar metric (angular distance weighted against range distance).
    """

    bin_deg: float = 10.0
    k: int = 7
    probe_range_km: float = 60.0
    min_range_km: float = MULTIPATH_FLOOR_KM
    #: km of range distance equivalent to one degree of bearing.
    km_per_degree: float = 1.5

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError(f"k must be positive: {self.k}")

    def estimate(self, scan: DirectionalScan) -> FieldOfViewEstimate:
        data = _informative(scan.observations, self.min_range_km)
        n = int(round(360.0 / self.bin_deg))
        if not data:
            return FieldOfViewEstimate(
                self.bin_deg, [False] * n, [0.0] * n
            )
        # The verdict depends only on (bearing, range, received) of
        # the informative observations plus the estimator parameters,
        # so repeat evaluations of an unchanged scan replay from the
        # path cache; a fresh estimate object is built per call.
        flags, ranges = get_path_cache().get_or_compute(
            (
                "knn_fov",
                self.bin_deg,
                self.k,
                self.probe_range_km,
                self.min_range_km,
                self.km_per_degree,
                np.array(
                    [
                        (
                            o.bearing_deg,
                            o.ground_range_m,
                            1.0 if o.received else 0.0,
                        )
                        for o in data
                    ],
                    dtype=np.float64,
                ),
            ),
            lambda: self._estimate_bins(data, n),
        )
        return FieldOfViewEstimate(
            self.bin_deg, list(flags), list(ranges)
        )

    def _estimate_bins(
        self, data: Sequence[AircraftObservation], n: int
    ) -> tuple:
        """:meth:`_predict` for every (probe, bin), from one tensor.

        ``np.hypot`` may differ from ``math.hypot`` by 1 ulp, so queries
        whose k-th and (k+1)-th distances are within :data:`_TIE_MARGIN`
        (exact ties included) go to :meth:`_predict` itself.
        """
        probes = np.array((self.probe_range_km,) + _OPEN_RANGE_PROBES_KM)
        bearings = (np.arange(n) + 0.5) * self.bin_deg
        obs_bearing = np.array([o.bearing_deg for o in data])
        bad = obs_bearing[~np.isfinite(obs_bearing)]
        if bad.size:
            raise ValueError(f"bearing must be finite: {bad[0]}")
        obs_range = np.array([o.ground_range_km for o in data])
        received = np.array([o.received for o in data])
        # bearing_difference, elementwise over (bin, observation).
        diff = np.abs(bearings[:, None] % 360.0 - obs_bearing % 360.0)
        ang = np.minimum(diff, 360.0 - diff)
        rad = np.abs(probes[:, None, None] - obs_range) / self.km_per_degree
        dist = np.hypot(ang, rad)  # (probe, bin, observation)
        k = min(self.k, len(data))
        if k == len(data):
            # Every observation votes: there is no neighbour to tie on.
            is_open = np.full(dist.shape[:2], int(received.sum()) * 2 > k)
        else:
            order = np.argpartition(dist, (k - 1, k), axis=-1)
            is_open = received[order[..., :k]].sum(axis=-1) * 2 > k
            edge = np.take_along_axis(
                dist, order[..., k - 1 : k + 1], axis=-1
            )
            # Negated so an inf - inf gap (NaN) also counts as a tie.
            near_tie = ~(
                edge[..., 1] - edge[..., 0] > _TIE_MARGIN * edge[..., 1]
            )
            for p, i in zip(*np.nonzero(near_tie)):
                is_open[p, i] = self._predict(
                    data, float(bearings[i]), float(probes[p])
                )
        # Probes ascend, so the largest open one is the bin's range.
        ranges = np.where(is_open[1:], probes[1:, None], 0.0).max(axis=0)
        return tuple(is_open[0].tolist()), tuple(ranges.tolist())

    def _predict(
        self,
        data: Sequence[AircraftObservation],
        bearing_deg: float,
        range_km: float,
    ) -> bool:
        distances = []
        for obs in data:
            ang = bearing_difference(bearing_deg, obs.bearing_deg)
            rad = abs(range_km - obs.ground_range_km)
            distances.append(
                (
                    math.hypot(ang, rad / self.km_per_degree),
                    obs.received,
                )
            )
        distances.sort(key=lambda pair: pair[0])
        k = min(self.k, len(distances))
        votes = sum(1 for _, received in distances[:k] if received)
        return votes * 2 > k


@dataclass
class LinearSvmFovEstimator:
    """Linear SVM on bearing-harmonic features (Pegasos SGD).

    Features for an observation at bearing θ, range r (normalized):
    [1, sin kθ, cos kθ for k ≤ harmonics] ⊗ [1, r] — a decision
    boundary that is a direction-dependent range threshold. Trained
    from scratch; no external ML dependency.
    """

    bin_deg: float = 10.0
    harmonics: int = 4
    probe_range_km: float = 60.0
    min_range_km: float = MULTIPATH_FLOOR_KM
    epochs: int = 200
    lambda_reg: float = 1e-3
    seed: int = 7
    _weights: Optional[np.ndarray] = field(default=None, repr=False)

    def _features(self, bearing_deg: float, range_km: float) -> np.ndarray:
        theta = math.radians(bearing_deg)
        r = range_km / 100.0
        base = [1.0]
        for k in range(1, self.harmonics + 1):
            base.append(math.sin(k * theta))
            base.append(math.cos(k * theta))
        base = np.asarray(base)
        return np.concatenate([base, r * base])

    def fit(self, scan: DirectionalScan) -> "LinearSvmFovEstimator":
        """Train on a scan's informative observations."""
        data = _informative(scan.observations, self.min_range_km)
        dim = 2 * (2 * self.harmonics + 1)
        if not data:
            self._weights = np.zeros(dim)
            return self
        x = np.stack(
            [
                self._features(o.bearing_deg, o.ground_range_km)
                for o in data
            ]
        )
        y = np.asarray([1.0 if o.received else -1.0 for o in data])
        rng = np.random.default_rng(self.seed)
        w = np.zeros(dim)
        t = 0
        for _ in range(self.epochs):
            order = rng.permutation(len(data))
            for idx in order:
                t += 1
                eta = 1.0 / (self.lambda_reg * t)
                margin = y[idx] * float(x[idx] @ w)
                w = (1.0 - eta * self.lambda_reg) * w
                if margin < 1.0:
                    w = w + eta * y[idx] * x[idx]
        self._weights = w
        return self

    def decision(self, bearing_deg: float, range_km: float) -> float:
        """Signed margin; positive predicts reception."""
        if self._weights is None:
            raise RuntimeError("estimator not fitted; call fit() first")
        return float(
            self._features(bearing_deg, range_km) @ self._weights
        )

    def estimate(self, scan: DirectionalScan) -> FieldOfViewEstimate:
        self.fit(scan)
        n = int(round(360.0 / self.bin_deg))
        flags: List[bool] = []
        ranges: List[float] = []
        for i in range(n):
            bearing = (i + 0.5) * self.bin_deg
            flags.append(
                self.decision(bearing, self.probe_range_km) > 0.0
            )
            best = 0.0
            for probe in _OPEN_RANGE_PROBES_KM:
                if self.decision(bearing, probe) > 0.0:
                    best = probe
            ranges.append(best)
        return FieldOfViewEstimate(self.bin_deg, flags, ranges)
