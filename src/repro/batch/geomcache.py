"""Per-capture ray geometry and obstruction loss, as arrays.

Bearing, elevation, clamped slant range and obstruction-map loss for
every squitter of a capture in one pass. The result is path-cached
under the producing schedule's key: a second capture with the same
node position, obstruction map, frequency and schedule replays the
arrays without recomputing a single ray.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

import numpy as np

from repro.batch.schedule import BatchSquitters
from repro.engines import kernels_numpy as _default_kernels
from repro.engines.pathcache import StageValue, get_path_cache
from repro.engines.registry import resolve_engine
from repro.environment.obstruction import ObstructionMap
from repro.geo.coords import GeoPoint, geo_to_enu_arrays


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


def ray_arrays(
    origin: GeoPoint,
    lat_deg: np.ndarray,
    lon_deg: np.ndarray,
    alt_m: np.ndarray,
    kernels: Any = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch ``ray_geometry``: (azimuth, elevation, clamped slant).

    Mirrors the scalar ENU property chain, including
    ``atan2(0, 0) = 0`` for the degenerate straight-up ray.
    ``kernels`` is an engine kernel namespace; the numpy baseline
    runs when none is given.
    """
    east, north, up = geo_to_enu_arrays(origin, lat_deg, lon_deg, alt_m)
    if kernels is None:
        kernels = _default_kernels
    return kernels.rays_from_enu(east, north, up)


def batch_rays(
    origin: GeoPoint,
    obstruction_map: ObstructionMap,
    freq_hz: float,
    squitters: BatchSquitters,
    engine: Any = None,
) -> BatchRays:
    """Geometry + obstruction for every event of ``squitters``.

    Keyed on the schedule's token (its key, or its arrays when it was
    built outside the cache), not on re-hashed positions.
    """
    if squitters.n == 0:
        empty = np.empty(0, dtype=np.float64)
        return BatchRays(empty, empty, empty, empty)
    eng = resolve_engine(engine)

    def compute() -> BatchRays:
        az, el, slant = ray_arrays(
            origin,
            squitters.lat_deg,
            squitters.lon_deg,
            squitters.alt_m,
            kernels=eng.kernels,
        )
        obstruction = obstruction_map.loss_db_array(az, el, freq_hz, slant)
        return BatchRays(az, el, slant, obstruction)

    cache = get_path_cache()
    return cache.get_or_compute(
        (
            "batch_rays",
            eng.kernel_token,
            origin,
            obstruction_map,
            freq_hz,
            squitters,
        ),
        cache.stamping(compute),
    )
