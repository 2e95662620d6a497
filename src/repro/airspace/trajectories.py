"""Flight trajectory generation.

Aircraft fly great-circle chords through the disk around the sensor
site at typical enroute speeds and altitudes. Chords are drawn so the
population is spread uniformly over the disk (uniform random chords
through a random interior point with a random heading), matching the
paper's observation that "airplanes fly in all directions".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence, Tuple

import numpy as np

from repro.geo.coords import GeoPoint
from repro.geo.distance import (
    destination_point,
    destination_point_arrays,
    destination_points_fixed_leg,
    initial_bearing_deg,
    initial_bearing_deg_arrays,
)

#: Typical enroute ground speeds, m/s (about 180-500 kt).
MIN_SPEED_MS = 90.0
MAX_SPEED_MS = 260.0

#: Altitude band for enroute/approach traffic, meters.
MIN_ALTITUDE_M = 1_500.0
MAX_ALTITUDE_M = 12_000.0


@dataclass(frozen=True)
class GreatCircleRoute:
    """Constant-speed, constant-altitude great-circle leg.

    Attributes:
        start: position at time ``start_time_s``.
        track_deg: initial great-circle bearing.
        speed_ms: ground speed.
        start_time_s: when the aircraft is at ``start``.
    """

    start: GeoPoint
    track_deg: float
    speed_ms: float
    start_time_s: float = 0.0

    def __post_init__(self) -> None:
        if self.speed_ms <= 0.0:
            raise ValueError(f"speed must be positive: {self.speed_ms}")

    def position_and_track(
        self, time_s: float
    ) -> Tuple[GeoPoint, float]:
        """Position and instantaneous track at ``time_s``.

        Negative elapsed time back-projects along the same great
        circle, so routes can be sampled before their nominal start.
        """
        elapsed = time_s - self.start_time_s
        distance = self.speed_ms * abs(elapsed)
        backwards = _backwards(self)
        bearing = self.track_deg if elapsed >= 0 else backwards
        point = destination_point(self.start, bearing, distance)
        if distance < 1.0:
            return point, self.track_deg
        # Instantaneous track = bearing from a point slightly behind.
        behind = destination_point(point, backwards, 1000.0)
        track = initial_bearing_deg(behind, point)
        return point, track


@dataclass(frozen=True)
class RouteLegs:
    """Per-element route constants for :func:`sample_routes`.

    Element i holds ``routes[route_idx[i]]``'s constants, gathered
    once so a schedule that samples the same routes at many jittered
    times pays for the gather (and the per-route trigonometry) only
    once.

    Attributes:
        sin_lat0 / cos_lat0: sine and cosine of the start latitude.
        lon0_rad: start longitude, radians.
        alt_m: constant altitude.
        sin_track / cos_track: sine and cosine of the initial
            great-circle bearing.
        sin_back / cos_back: sine and cosine of the reverse bearing,
            ``(track + 180) % 360``.
        speed_ms: ground speed.
        start_time_s: when the aircraft is at the start point.
    """

    sin_lat0: np.ndarray
    cos_lat0: np.ndarray
    lon0_rad: np.ndarray
    alt_m: np.ndarray
    sin_track: np.ndarray
    cos_track: np.ndarray
    sin_back: np.ndarray
    cos_back: np.ndarray
    speed_ms: np.ndarray
    start_time_s: np.ndarray

    @classmethod
    def gather(
        cls, routes: Sequence[GreatCircleRoute], route_idx: np.ndarray
    ) -> "RouteLegs":
        def per_route(values) -> np.ndarray:
            return np.array(list(values), dtype=np.float64)

        def per_element(values) -> np.ndarray:
            return per_route(values)[route_idx]

        # The bearing terms are the numpy ufuncs sample_routes would
        # otherwise apply per element, evaluated once per route.
        track = np.radians(per_route(r.track_deg for r in routes))
        back = np.radians(per_route(_backwards(r) for r in routes))
        return cls(
            sin_lat0=per_element(math.sin(r.start.lat_rad) for r in routes),
            cos_lat0=per_element(math.cos(r.start.lat_rad) for r in routes),
            lon0_rad=per_element(r.start.lon_rad for r in routes),
            alt_m=per_element(r.start.alt_m for r in routes),
            sin_track=np.sin(track)[route_idx],
            cos_track=np.cos(track)[route_idx],
            sin_back=np.sin(back)[route_idx],
            cos_back=np.cos(back)[route_idx],
            speed_ms=per_element(r.speed_ms for r in routes),
            start_time_s=per_element(r.start_time_s for r in routes),
        )

    def arrays(self) -> Tuple[np.ndarray, ...]:
        return tuple(getattr(self, f.name) for f in fields(self))


def _backwards(route: GreatCircleRoute) -> float:
    return (route.track_deg + 180.0) % 360.0


def _leg_distance_m(
    speed_ms: np.ndarray, start_time_s: np.ndarray, times_s: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(elapsed, distance)`` along each leg, as the scalar method."""
    elapsed = np.asarray(times_s, dtype=np.float64) - start_time_s
    return elapsed, speed_ms * np.abs(elapsed)


def sample_routes(
    legs: RouteLegs, times_s: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Batch positions of :meth:`GreatCircleRoute.position_and_track`.

    Element i samples the route whose constants ``legs`` holds at
    index i, at ``times_s[i]``. Returns (lat_deg, lon_deg) with
    longitudes normalized to [-180, 180); altitude is ``legs.alt_m``.
    The instantaneous track is not computed here: it costs two more
    great-circle passes and only decoded velocity squitters need it,
    so callers ask :func:`route_tracks_deg` for the events they keep.
    Replicates the scalar method's operation sequence, including the
    degree-radian round-trips of its intermediate :class:`GeoPoint`
    objects, so per-element results match the scalar path.
    """
    elapsed, distance = _leg_distance_m(
        legs.speed_ms, legs.start_time_s, times_s
    )
    forward = elapsed >= 0
    return destination_point_arrays(
        legs.sin_lat0,
        legs.cos_lat0,
        legs.lon0_rad,
        np.where(forward, legs.sin_track, legs.sin_back),
        np.where(forward, legs.cos_track, legs.cos_back),
        distance,
    )


def route_tracks_deg(
    routes: Sequence[GreatCircleRoute],
    route_idx: np.ndarray,
    times_s: np.ndarray,
    lat_deg: np.ndarray,
    lon_deg: np.ndarray,
) -> np.ndarray:
    """Batch track of :meth:`GreatCircleRoute.position_and_track`.

    Element i is ``routes[route_idx[i]]`` at ``times_s[i]``, whose
    position :func:`sample_routes` returned as ``(lat_deg[i],
    lon_deg[i])``: the bearing from a point 1 km behind it, or the
    route's initial track within 1 m of the start, as the scalar
    method computes it.
    """
    speed = np.array([r.speed_ms for r in routes], dtype=np.float64)
    start = np.array([r.start_time_s for r in routes], dtype=np.float64)
    track0 = np.array([r.track_deg for r in routes], dtype=np.float64)
    _, distance = _leg_distance_m(
        speed[route_idx], start[route_idx], times_s
    )
    blat, blon = destination_points_fixed_leg(
        lat_deg, lon_deg, [_backwards(r) for r in routes], route_idx, 1000.0
    )
    track = initial_bearing_deg_arrays(blat, blon, lat_deg, lon_deg)
    return np.where(distance < 1.0, track0[route_idx], track)


def random_route_through_disk(
    center: GeoPoint,
    radius_m: float,
    rng: np.random.Generator,
    start_time_s: float = 0.0,
) -> GreatCircleRoute:
    """Draw a route passing through the disk around ``center``.

    A waypoint is drawn uniformly over the disk area, a heading
    uniformly over [0, 360), a cruise speed and altitude uniformly over
    the enroute bands; the aircraft crosses the waypoint at
    ``start_time_s``.
    """
    if radius_m <= 0.0:
        raise ValueError(f"radius must be positive: {radius_m}")
    # Uniform over area: r ~ R*sqrt(u).
    r = radius_m * math.sqrt(rng.uniform())
    theta = rng.uniform(0.0, 360.0)
    waypoint = destination_point(center, theta, r)
    altitude = float(rng.uniform(MIN_ALTITUDE_M, MAX_ALTITUDE_M))
    waypoint = waypoint.with_altitude(altitude)
    heading = float(rng.uniform(0.0, 360.0))
    speed = float(rng.uniform(MIN_SPEED_MS, MAX_SPEED_MS))
    return GreatCircleRoute(
        start=waypoint,
        track_deg=heading,
        speed_ms=speed,
        start_time_s=start_time_s,
    )
