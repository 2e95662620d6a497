"""Per-capture ray geometry and obstruction loss, as arrays.

Bearing, elevation, clamped slant range and obstruction-map loss for
every squitter of a capture in one pass. The result is path-cached
under the producing schedule's key: a second capture with the same
node position, obstruction map, frequency and schedule replays the
arrays without recomputing a single ray.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.batch.schedule import BatchSquitters
from repro.engines.pathcache import StageValue, get_path_cache
from repro.environment.obstruction import ObstructionMap
from repro.geo.coords import GeoPoint, geo_to_enu_arrays
from repro.geo.sectors import wrap_360_array


@dataclass
class BatchRays(StageValue):
    """Per-event arrival geometry + obstruction loss.

    A path-cached :class:`StageValue`: the arrays are read-only and
    ``key`` names the ``batch_rays`` entry that produced them.

    Attributes:
        azimuth_deg / elevation_deg / slant_m: arrival geometry per
            event (slant clamped to >= 1 m like ``ray_geometry``).
        obstruction_db: obstruction-map loss per event.
    """

    azimuth_deg: np.ndarray
    elevation_deg: np.ndarray
    slant_m: np.ndarray
    obstruction_db: np.ndarray


def rays_from_enu(
    east: np.ndarray, north: np.ndarray, up: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ENU offsets -> (azimuth deg, elevation deg, clamped slant m).

    Mirrors the scalar ENU property chain, including
    ``atan2(0, 0) = 0`` for the degenerate straight-up ray and the
    >= 1 m slant clamp of ``ray_geometry``.
    """
    azimuth = wrap_360_array(np.degrees(np.arctan2(east, north)))
    horiz = np.hypot(east, north)
    elevation = np.degrees(np.arctan2(up, horiz))
    slant = np.sqrt(east**2 + north**2 + up**2)
    slant = np.maximum(slant, 1.0)
    return azimuth, elevation, slant


def batch_rays(
    origin: GeoPoint,
    obstruction_map: ObstructionMap,
    freq_hz: float,
    squitters: BatchSquitters,
) -> BatchRays:
    """Geometry + obstruction for every event of ``squitters``.

    Keyed on the schedule's token (its key, or its arrays when it was
    built outside the cache), not on re-hashed positions.
    """
    if squitters.n == 0:
        empty = np.empty(0, dtype=np.float64)
        return BatchRays(empty, empty, empty, empty)

    def compute() -> BatchRays:
        east, north, up = geo_to_enu_arrays(
            origin, squitters.lat_deg, squitters.lon_deg, squitters.alt_m
        )
        az, el, slant = rays_from_enu(east, north, up)
        obstruction = obstruction_map.loss_db_array(az, el, freq_hz, slant)
        return BatchRays(az, el, slant, obstruction)

    cache = get_path_cache()
    return cache.get_or_compute(
        (
            "batch_rays",
            origin,
            obstruction_map,
            freq_hz,
            squitters,
        ),
        cache.stamping(compute),
    )
