"""Obstruction maps: what blocks the sky around a sensor.

An obstruction is an azimuth sector with a wall-material stack and a
"clear elevation" above which rays pass freely (the top of a building
or rooftop structure). A ray through an obstructed sector suffers the
smaller of (a) the through-the-walls penetration loss and (b) the
knife-edge diffraction loss over the top — the two parallel physical
paths — combined as powers. Ambient layers add elevation-dependent
losses that apply at every azimuth (the ceiling and interior walls of
a fully indoor site).

This is the ground truth the calibration techniques try to recover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.geo.sectors import AzimuthSector
from repro.rf.diffraction import (
    fresnel_v,
    fresnel_v_array,
    fresnel_v_multifreq,
    knife_edge_loss_db,
    knife_edge_loss_db_array,
)
from repro.rf.penetration import material_loss_db, material_loss_db_array

#: Carrier and transmitter distance of the :meth:`ObstructionMap.is_clear`
#: ground-truth probe.
PROBE_FREQ_HZ = 1090e6
PROBE_DISTANCE_M = 50_000.0


def combine_parallel_paths_db(losses_db: Sequence[float]) -> float:
    """Combine alternative propagation paths (power sum of each).

    The effective loss of several parallel paths is dominated by the
    weakest-loss path; this soft-min is the dB form of summing the
    path powers.
    """
    if not losses_db:
        raise ValueError("need at least one path")
    total_power = sum(10.0 ** (-loss / 10.0) for loss in losses_db)
    return -10.0 * math.log10(total_power)


def stack_loss_db(materials: Sequence[str], freq_hz: float) -> float:
    """Total penetration loss of a wall-material stack."""
    return sum(material_loss_db(m, freq_hz) for m in materials)


def stack_loss_db_array(
    materials: Sequence[str], freq_hz: np.ndarray
) -> np.ndarray:
    """Batch :func:`stack_loss_db` over a frequency array."""
    total = np.zeros(
        np.asarray(freq_hz, dtype=np.float64).shape, dtype=np.float64
    )
    for m in materials:
        total += material_loss_db_array(m, freq_hz)
    return total


@dataclass(frozen=True)
class Obstruction:
    """A blocking structure occupying an azimuth sector.

    Attributes:
        sector: bearings the structure occupies.
        clear_elevation_deg: rays arriving above this elevation clear
            the structure entirely.
        materials: wall stack a through-going ray must penetrate.
        edge_distance_m: distance from the sensor to the structure's
            top edge, controlling diffraction geometry.
        extra_loss_db: additional fixed loss (clutter, cables, ...).
    """

    sector: AzimuthSector
    clear_elevation_deg: float
    materials: Tuple[str, ...]
    edge_distance_m: float = 5.0
    extra_loss_db: float = 0.0

    def __post_init__(self) -> None:
        if not -90.0 <= self.clear_elevation_deg <= 90.0:
            raise ValueError(
                f"clear elevation out of range: {self.clear_elevation_deg}"
            )
        if self.edge_distance_m <= 0.0:
            raise ValueError(
                f"edge distance must be positive: {self.edge_distance_m}"
            )
        if self.extra_loss_db < 0.0:
            raise ValueError(
                f"extra loss must be >= 0: {self.extra_loss_db}"
            )

    def loss_db(
        self,
        azimuth_deg: float,
        elevation_deg: float,
        freq_hz: float,
        tx_distance_m: float,
    ) -> float:
        """Loss this obstruction adds to a ray, in dB (0 if cleared)."""
        if not self.sector.contains(azimuth_deg):
            return 0.0
        if elevation_deg >= self.clear_elevation_deg:
            return 0.0
        through = (
            stack_loss_db(self.materials, freq_hz) + self.extra_loss_db
        )
        over_top = self._diffraction_db(
            elevation_deg, freq_hz, tx_distance_m
        )
        return combine_parallel_paths_db([through, over_top])

    def _diffraction_db(
        self, elevation_deg: float, freq_hz: float, tx_distance_m: float
    ) -> float:
        """Knife-edge loss for the path over the structure's top."""
        # Height of the edge above the direct ray at the edge's range.
        clear = math.radians(min(self.clear_elevation_deg, 89.0))
        ray = math.radians(max(min(elevation_deg, 89.0), -89.0))
        h = self.edge_distance_m * (math.tan(clear) - math.tan(ray))
        d2 = max(tx_distance_m - self.edge_distance_m, 1.0)
        v = fresnel_v(h, self.edge_distance_m, d2, freq_hz)
        return knife_edge_loss_db(v)

    def loss_db_array(
        self,
        azimuth_deg: np.ndarray,
        elevation_deg: np.ndarray,
        freq_hz: float,
        tx_distance_m: np.ndarray,
    ) -> np.ndarray:
        """Batch :meth:`loss_db` over ray arrays (same values).

        The through/over-top combination is evaluated for every ray
        and masked to zero where the ray clears the structure — the
        same result the scalar early-returns produce.
        """
        el = np.asarray(elevation_deg, dtype=np.float64)
        blocked = self.sector.contains_array(azimuth_deg) & (
            el < self.clear_elevation_deg
        )
        through = (
            stack_loss_db(self.materials, freq_hz) + self.extra_loss_db
        )
        clear = math.radians(min(self.clear_elevation_deg, 89.0))
        ray = np.radians(np.clip(el, -89.0, 89.0))
        h = self.edge_distance_m * (math.tan(clear) - np.tan(ray))
        d2 = np.maximum(
            np.asarray(tx_distance_m, dtype=np.float64)
            - self.edge_distance_m,
            1.0,
        )
        v = fresnel_v_array(h, self.edge_distance_m, d2, freq_hz)
        over_top = knife_edge_loss_db_array(v)
        combined = -10.0 * np.log10(
            10.0 ** (-through / 10.0) + 10.0 ** (-over_top / 10.0)
        )
        return np.where(blocked, combined, 0.0)

    def loss_db_multifreq(
        self,
        azimuth_deg: np.ndarray,
        elevation_deg: np.ndarray,
        freq_hz: np.ndarray,
        tx_distance_m: np.ndarray,
    ) -> np.ndarray:
        """:meth:`loss_db_array` with a per-element carrier frequency.

        The §3.2 batch kernels push every tower through the map at its
        own carrier in one pass; the through-wall stack and the
        diffraction wavelength become per-element.
        """
        el = np.asarray(elevation_deg, dtype=np.float64)
        blocked = self.sector.contains_array(azimuth_deg) & (
            el < self.clear_elevation_deg
        )
        through = (
            stack_loss_db_array(self.materials, freq_hz)
            + self.extra_loss_db
        )
        clear = math.radians(min(self.clear_elevation_deg, 89.0))
        ray = np.radians(np.clip(el, -89.0, 89.0))
        h = self.edge_distance_m * (math.tan(clear) - np.tan(ray))
        d2 = np.maximum(
            np.asarray(tx_distance_m, dtype=np.float64)
            - self.edge_distance_m,
            1.0,
        )
        v = fresnel_v_multifreq(h, self.edge_distance_m, d2, freq_hz)
        over_top = knife_edge_loss_db_array(v)
        combined = -10.0 * np.log10(
            10.0 ** (-through / 10.0) + 10.0 ** (-over_top / 10.0)
        )
        return np.where(blocked, combined, 0.0)


@dataclass(frozen=True)
class AmbientLayer:
    """An omnidirectional loss layer over an elevation band.

    Used for fully-enclosed sites: e.g. the ceiling (high elevations)
    and the many interior/exterior walls (low elevations) of an indoor
    installation 8 m from the nearest window.
    """

    min_elevation_deg: float
    max_elevation_deg: float
    materials: Tuple[str, ...]
    extra_loss_db: float = 0.0

    def __post_init__(self) -> None:
        if self.min_elevation_deg >= self.max_elevation_deg:
            raise ValueError(
                "ambient layer needs min_elevation < max_elevation"
            )

    def loss_db(self, elevation_deg: float, freq_hz: float) -> float:
        """Loss for a ray at ``elevation_deg`` (0 outside the band)."""
        if not (
            self.min_elevation_deg
            <= elevation_deg
            < self.max_elevation_deg
        ):
            return 0.0
        return stack_loss_db(self.materials, freq_hz) + self.extra_loss_db

    def loss_db_array(
        self, elevation_deg: np.ndarray, freq_hz: float
    ) -> np.ndarray:
        """Batch :meth:`loss_db` over an elevation array."""
        el = np.asarray(elevation_deg, dtype=np.float64)
        in_band = (self.min_elevation_deg <= el) & (
            el < self.max_elevation_deg
        )
        loss = stack_loss_db(self.materials, freq_hz) + self.extra_loss_db
        return np.where(in_band, loss, 0.0)

    def loss_db_multifreq(
        self, elevation_deg: np.ndarray, freq_hz: np.ndarray
    ) -> np.ndarray:
        """:meth:`loss_db_array` with a per-element carrier frequency."""
        el = np.asarray(elevation_deg, dtype=np.float64)
        in_band = (self.min_elevation_deg <= el) & (
            el < self.max_elevation_deg
        )
        loss = (
            stack_loss_db_array(self.materials, freq_hz)
            + self.extra_loss_db
        )
        return np.where(in_band, loss, 0.0)


@dataclass
class ObstructionMap:
    """The complete obstruction picture around one sensor.

    Attributes:
        obstructions: sectoral blocking structures.
        ambient: elevation-layered omnidirectional losses.
    """

    obstructions: List[Obstruction] = field(default_factory=list)
    ambient: List[AmbientLayer] = field(default_factory=list)

    def loss_db(
        self,
        azimuth_deg: float,
        elevation_deg: float,
        freq_hz: float,
        tx_distance_m: float,
    ) -> float:
        """Total obstruction loss for a ray, in dB."""
        total = 0.0
        for obs in self.obstructions:
            total += obs.loss_db(
                azimuth_deg, elevation_deg, freq_hz, tx_distance_m
            )
        for layer in self.ambient:
            total += layer.loss_db(elevation_deg, freq_hz)
        return total

    def loss_db_array(
        self,
        azimuth_deg: np.ndarray,
        elevation_deg: np.ndarray,
        freq_hz: float,
        tx_distance_m: np.ndarray,
    ) -> np.ndarray:
        """Batch :meth:`loss_db` over ray arrays.

        Per-element accumulation runs in the same structure/layer order
        as the scalar sum, so the totals agree term for term.
        """
        total = np.zeros(
            np.asarray(elevation_deg, dtype=np.float64).shape,
            dtype=np.float64,
        )
        for obs in self.obstructions:
            total += obs.loss_db_array(
                azimuth_deg, elevation_deg, freq_hz, tx_distance_m
            )
        for layer in self.ambient:
            total += layer.loss_db_array(elevation_deg, freq_hz)
        return total

    def loss_db_multifreq(
        self,
        azimuth_deg: np.ndarray,
        elevation_deg: np.ndarray,
        freq_hz: np.ndarray,
        tx_distance_m: np.ndarray,
    ) -> np.ndarray:
        """:meth:`loss_db_array` with a per-element carrier frequency.

        Accumulates in the same structure/layer order as the scalar
        sum, so per-tower totals agree term for term.
        """
        total = np.zeros(
            np.asarray(elevation_deg, dtype=np.float64).shape,
            dtype=np.float64,
        )
        for obs in self.obstructions:
            total += obs.loss_db_multifreq(
                azimuth_deg, elevation_deg, freq_hz, tx_distance_m
            )
        for layer in self.ambient:
            total += layer.loss_db_multifreq(elevation_deg, freq_hz)
        return total

    def is_clear(
        self,
        azimuth_deg: float,
        elevation_deg: float,
        threshold_db: float = 3.0,
        freq_hz: float = PROBE_FREQ_HZ,
        tx_distance_m: float = PROBE_DISTANCE_M,
    ) -> bool:
        """Whether a direction is effectively unobstructed.

        Used as ground truth when scoring field-of-view estimators: a
        direction is "clear" when the obstruction loss at the probe
        frequency stays under ``threshold_db``.
        """
        loss = self.loss_db(
            azimuth_deg, elevation_deg, freq_hz, tx_distance_m
        )
        return loss < threshold_db

    def clear_sectors(
        self,
        elevation_deg: float = 5.0,
        resolution_deg: float = 1.0,
        threshold_db: float = 3.0,
    ) -> List[AzimuthSector]:
        """Ground-truth open sectors at a probe elevation."""
        if resolution_deg <= 0.0:
            raise ValueError(
                f"resolution must be positive: {resolution_deg}"
            )
        from repro.engines.pathcache import get_path_cache

        # A pure function of the map's content and the probe — and
        # shared by every node installed at the same site — so the
        # 360-bin sweep runs once per distinct map per campaign.
        sectors = get_path_cache().get_or_compute(
            (
                "clear_sectors",
                self,
                elevation_deg,
                resolution_deg,
                threshold_db,
            ),
            lambda: tuple(
                self._clear_sectors_compute(
                    elevation_deg, resolution_deg, threshold_db
                )
            ),
        )
        return list(sectors)

    def _clear_sectors_compute(
        self,
        elevation_deg: float,
        resolution_deg: float,
        threshold_db: float,
    ) -> List[AzimuthSector]:
        # The :meth:`is_clear` sweep over bins ``i * resolution_deg``,
        # as one batch call at the probe frequency and distance.
        n = int(round(360.0 / resolution_deg))
        loss = self.loss_db_array(
            np.arange(n) * resolution_deg,
            np.full(n, elevation_deg),
            PROBE_FREQ_HZ,
            np.full(n, PROBE_DISTANCE_M),
        )
        flags = (loss < threshold_db).tolist()
        return flags_to_sectors(flags, resolution_deg)


def flags_to_sectors(
    flags: List[bool], resolution_deg: float
) -> List[AzimuthSector]:
    """Convert a per-bin open/closed ring into wrapped sectors."""
    n = len(flags)
    if not any(flags):
        return []
    if all(flags):
        return [AzimuthSector(0.0, 360.0)]
    # Find runs of True, treating the ring as circular.
    sectors: List[AzimuthSector] = []
    # Start scanning from a False bin so wrap-around runs stay whole.
    start = flags.index(False)
    i = 0
    while i < n:
        idx = (start + i) % n
        if flags[idx]:
            run = 0
            while i < n and flags[(start + i) % n]:
                run += 1
                i += 1
            sectors.append(
                AzimuthSector(
                    ((start + i - run) % n) * resolution_deg,
                    run * resolution_deg,
                )
            )
        else:
            i += 1
    return sectors
