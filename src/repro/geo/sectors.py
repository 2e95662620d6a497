"""Azimuth-sector arithmetic.

Obstruction maps and field-of-view estimates are expressed as sets of
azimuth sectors (compass-angle intervals that may wrap through north).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np


def normalize_bearing(bearing_deg: float) -> float:
    """Fold an angle into [0, 360)."""
    if not math.isfinite(bearing_deg):
        raise ValueError(f"bearing must be finite: {bearing_deg}")
    return bearing_deg % 360.0


def wrap_360_array(angle_deg: np.ndarray) -> np.ndarray:
    """``np.remainder(angle_deg, 360.0)``, bit for bit, and cheaper.

    ``np.remainder`` is ``fmod`` plus a sign fix-up that adds the
    divisor to negative remainders and turns every zero into +0.0;
    adding 0.0 to the other elements does the latter (``-0.0 + 0.0``
    is +0.0), so the result matches on every input, NaN and ±inf
    included (both give NaN). ``fmod`` returns every angle inside
    (-360, 360) unchanged, so it is skipped when all of them are,
    which is the usual case for bearings and longitudes.
    """
    m = np.asarray(angle_deg, dtype=np.float64)
    if not (m.size and -360.0 < m.min() and m.max() < 360.0):
        m = np.fmod(m, 360.0)
    return m + np.where(m < 0.0, 360.0, 0.0)


def bearing_difference(a_deg: float, b_deg: float) -> float:
    """Smallest absolute angular difference between two bearings.

    Result is in [0, 180].
    """
    diff = abs(normalize_bearing(a_deg) - normalize_bearing(b_deg))
    return min(diff, 360.0 - diff)


@dataclass(frozen=True)
class AzimuthSector:
    """A compass-angle interval [start, start+width), may wrap north.

    Attributes:
        start_deg: starting bearing of the sector, in [0, 360).
        width_deg: angular width in degrees, in (0, 360].
    """

    start_deg: float
    width_deg: float

    def __post_init__(self) -> None:
        if not 0.0 < self.width_deg <= 360.0:
            raise ValueError(f"width out of range: {self.width_deg}")
        object.__setattr__(
            self, "start_deg", normalize_bearing(self.start_deg)
        )

    @property
    def end_deg(self) -> float:
        """End bearing, normalized to [0, 360)."""
        return normalize_bearing(self.start_deg + self.width_deg)

    @property
    def center_deg(self) -> float:
        """Bearing of the sector's center."""
        return normalize_bearing(self.start_deg + self.width_deg / 2.0)

    def contains(self, bearing_deg: float) -> bool:
        """Whether ``bearing_deg`` falls inside the sector."""
        if self.width_deg >= 360.0:
            return True
        rel = normalize_bearing(bearing_deg - self.start_deg)
        return rel < self.width_deg

    def contains_array(self, bearing_deg: np.ndarray) -> np.ndarray:
        """Batch :meth:`contains` over a bearing array.

        Bearings must be finite (they come from ``atan2`` in the batch
        geometry kernels, so they always are); the scalar finiteness
        guard is skipped.
        """
        b = np.asarray(bearing_deg, dtype=np.float64)
        if self.width_deg >= 360.0:
            return np.ones(b.shape, dtype=bool)
        return wrap_360_array(b - self.start_deg) < self.width_deg

    def overlaps(self, other: "AzimuthSector") -> bool:
        """Whether two sectors share any bearing."""
        return (
            self.contains(other.start_deg)
            or other.contains(self.start_deg)
        )

    @classmethod
    def from_edges(
        cls, start_deg: float, end_deg: float
    ) -> "AzimuthSector":
        """Build a sector from start/end bearings (clockwise).

        ``from_edges(350, 10)`` is a 20°-wide sector through north.
        Equal start and end denote the full circle.
        """
        start = normalize_bearing(start_deg)
        end = normalize_bearing(end_deg)
        width = normalize_bearing(end - start)
        if width == 0.0:
            width = 360.0
        return cls(start, width)


def _intervals(sectors: Iterable[AzimuthSector]) -> List[Tuple[float, float]]:
    """Unwrap sectors into non-wrapping [start, end] intervals."""
    out: List[Tuple[float, float]] = []
    for s in sectors:
        end = s.start_deg + s.width_deg
        if end <= 360.0:
            out.append((s.start_deg, end))
        else:
            out.append((s.start_deg, 360.0))
            out.append((0.0, end - 360.0))
    return out


def sector_union_width(sectors: Sequence[AzimuthSector]) -> float:
    """Total angular width covered by the union of ``sectors``.

    Overlapping sectors are counted once. Result is in [0, 360].
    """
    intervals = sorted(_intervals(sectors))
    total = 0.0
    covered_to = -1.0
    for start, end in intervals:
        if start > covered_to:
            total += end - start
            covered_to = end
        elif end > covered_to:
            total += end - covered_to
            covered_to = end
    return min(total, 360.0)
