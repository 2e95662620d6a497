"""Great-circle distance, bearing, and line-of-sight geometry."""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from repro.geo.coords import EARTH_RADIUS_M, GeoPoint
from repro.geo.sectors import wrap_360_array


def haversine_m(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle ground distance between two points, in meters.

    Altitude is ignored; use :func:`slant_range_m` for the 3-D range.
    """
    dlat = b.lat_rad - a.lat_rad
    dlon = b.lon_rad - a.lon_rad
    sin_dlat = math.sin(dlat / 2.0)
    sin_dlon = math.sin(dlon / 2.0)
    h = (
        sin_dlat * sin_dlat
        + math.cos(a.lat_rad) * math.cos(b.lat_rad) * sin_dlon * sin_dlon
    )
    h = min(1.0, h)
    return 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(h))


def initial_bearing_deg(a: GeoPoint, b: GeoPoint) -> float:
    """Initial great-circle bearing from ``a`` to ``b`` in degrees.

    0 = north, 90 = east, normalized to [0, 360).
    """
    dlon = b.lon_rad - a.lon_rad
    x = math.sin(dlon) * math.cos(b.lat_rad)
    y = math.cos(a.lat_rad) * math.sin(b.lat_rad) - math.sin(
        a.lat_rad
    ) * math.cos(b.lat_rad) * math.cos(dlon)
    bearing = math.degrees(math.atan2(x, y))
    return bearing % 360.0


def destination_point(
    start: GeoPoint, bearing_deg: float, distance_m: float
) -> GeoPoint:
    """Point reached by travelling ``distance_m`` along ``bearing_deg``.

    Follows the great circle; altitude is carried over unchanged.
    """
    if distance_m < 0.0:
        raise ValueError(f"distance must be non-negative: {distance_m}")
    ang = distance_m / EARTH_RADIUS_M
    brg = math.radians(bearing_deg)
    sin_lat = math.sin(start.lat_rad) * math.cos(ang) + math.cos(
        start.lat_rad
    ) * math.sin(ang) * math.cos(brg)
    sin_lat = max(-1.0, min(1.0, sin_lat))
    lat2 = math.asin(sin_lat)
    y = math.sin(brg) * math.sin(ang) * math.cos(start.lat_rad)
    x = math.cos(ang) - math.sin(start.lat_rad) * sin_lat
    lon2 = start.lon_rad + math.atan2(y, x)
    return GeoPoint(math.degrees(lat2), math.degrees(lon2), start.alt_m)


def normalize_lon_deg_array(lon_deg: np.ndarray) -> np.ndarray:
    """Fold longitudes into [-180, 180) like ``GeoPoint.__post_init__``."""
    return wrap_360_array(lon_deg + 180.0) - 180.0


def destination_point_arrays(
    sin_lat0: np.ndarray,
    cos_lat0: np.ndarray,
    lon0_rad: np.ndarray,
    sin_brg: np.ndarray,
    cos_brg: np.ndarray,
    distance_m: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Batch :func:`destination_point` from per-element start points.

    Element i leaves the start whose latitude sine/cosine and
    longitude (radians) are ``sin_lat0[i]``, ``cos_lat0[i]`` and
    ``lon0_rad[i]``, along the bearing whose sine and cosine are
    ``sin_brg[i]`` and ``cos_brg[i]`` (``np.sin(np.radians(bearing))``
    and its cosine). Returns (lat_deg, lon_deg) arrays with longitudes
    normalized to [-180, 180), matching the :class:`GeoPoint` the
    scalar function would construct. Callers compute the start terms
    with ``math`` and the bearing terms with numpy once per start and
    gather them, so each element sees the exact operation sequence of
    a per-element evaluation.
    """
    ang = np.asarray(distance_m, dtype=np.float64) / EARTH_RADIUS_M
    sin_ang = np.sin(ang)
    cos_ang = np.cos(ang)
    sin_lat = sin_lat0 * cos_ang + cos_lat0 * sin_ang * cos_brg
    sin_lat = np.clip(sin_lat, -1.0, 1.0)
    lat2 = np.arcsin(sin_lat)
    y = sin_brg * sin_ang * cos_lat0
    x = cos_ang - sin_lat0 * sin_lat
    lon2 = lon0_rad + np.arctan2(y, x)
    return np.degrees(lat2), normalize_lon_deg_array(np.degrees(lon2))


def destination_points_fixed_leg(
    lat_deg: np.ndarray,
    lon_deg: np.ndarray,
    bearings_deg: Sequence[float],
    bearing_idx: np.ndarray,
    distance_m: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Batch :func:`destination_point` from many starts, one leg length.

    The dual of :func:`destination_point_arrays`: per-element start
    points (degree arrays, longitudes normalized), a single distance,
    and element i travelling along ``bearings_deg[bearing_idx[i]]``.
    Used to drop a reference point a fixed distance behind each
    sampled trajectory position.
    """
    lat_rad = np.radians(np.asarray(lat_deg, dtype=np.float64))
    lon_rad = np.radians(np.asarray(lon_deg, dtype=np.float64))
    ang = distance_m / EARTH_RADIUS_M
    brg = [math.radians(b) for b in bearings_deg]
    cos_brg = np.array([math.cos(r) for r in brg])[bearing_idx]
    sin_brg_ang = np.array([math.sin(r) * math.sin(ang) for r in brg])[
        bearing_idx
    ]
    sin_lat1 = np.sin(lat_rad)
    cos_lat1 = np.cos(lat_rad)
    sin_lat = sin_lat1 * math.cos(ang) + cos_lat1 * math.sin(ang) * cos_brg
    sin_lat = np.clip(sin_lat, -1.0, 1.0)
    lat2 = np.arcsin(sin_lat)
    y = sin_brg_ang * cos_lat1
    x = math.cos(ang) - sin_lat1 * sin_lat
    lon2 = lon_rad + np.arctan2(y, x)
    return np.degrees(lat2), normalize_lon_deg_array(np.degrees(lon2))


def initial_bearing_deg_arrays(
    lat_a_deg: np.ndarray,
    lon_a_deg: np.ndarray,
    lat_b_deg: np.ndarray,
    lon_b_deg: np.ndarray,
) -> np.ndarray:
    """Batch :func:`initial_bearing_deg` over degree arrays.

    Degree inputs (normalized longitudes) reproduce the scalar path's
    GeoPoint degree→radian round-trip, exactly like
    :func:`repro.geo.coords.geo_to_enu_arrays`.
    """
    lat_a = np.radians(np.asarray(lat_a_deg, dtype=np.float64))
    lon_a = np.radians(np.asarray(lon_a_deg, dtype=np.float64))
    lat_b = np.radians(np.asarray(lat_b_deg, dtype=np.float64))
    lon_b = np.radians(np.asarray(lon_b_deg, dtype=np.float64))
    dlon = lon_b - lon_a
    cos_lat_b = np.cos(lat_b)
    x = np.sin(dlon) * cos_lat_b
    y = np.cos(lat_a) * np.sin(lat_b) - np.sin(lat_a) * cos_lat_b * np.cos(
        dlon
    )
    return wrap_360_array(np.degrees(np.arctan2(x, y)))


def slant_range_m(a: GeoPoint, b: GeoPoint) -> float:
    """Straight-line (3-D) distance between two points in meters."""
    ground = haversine_m(a, b)
    dalt = b.alt_m - a.alt_m
    return math.hypot(ground, dalt)


def radio_horizon_m(
    antenna_height_m: float,
    target_height_m: float = 0.0,
    k_factor: float = 4.0 / 3.0,
) -> float:
    """Maximum line-of-sight range over a smooth Earth, in meters.

    Uses the standard-atmosphere effective Earth radius (k = 4/3,
    which bends VHF+ rays slightly around the curvature):
    ``d = sqrt(2*k*R*h1) + sqrt(2*k*R*h2)``. For a ground station and
    an aircraft at 12 km this is ~450 km — the physical ceiling on
    ADS-B reception range used by the position-claim checks.
    """
    if antenna_height_m < 0.0 or target_height_m < 0.0:
        raise ValueError("heights must be non-negative")
    if k_factor <= 0.0:
        raise ValueError(f"k factor must be positive: {k_factor}")
    effective_radius = k_factor * EARTH_RADIUS_M
    return math.sqrt(
        2.0 * effective_radius * antenna_height_m
    ) + math.sqrt(2.0 * effective_radius * target_height_m)


def elevation_angle_deg(observer: GeoPoint, target: GeoPoint) -> float:
    """Elevation angle of ``target`` above ``observer``'s horizontal.

    Positive when the target is above the observer's local horizon
    plane. Ignores Earth curvature drop, which is ≤0.8° at 100 km —
    small relative to the sector resolution used by obstruction maps.
    """
    ground = haversine_m(observer, target)
    dalt = target.alt_m - observer.alt_m
    if ground == 0.0:
        if dalt == 0.0:
            return 0.0
        return 90.0 if dalt > 0 else -90.0
    return math.degrees(math.atan2(dalt, ground))
