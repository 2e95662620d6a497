"""Flight trajectory generation.

Aircraft fly great-circle chords through the disk around the sensor
site at typical enroute speeds and altitudes. Chords are drawn so the
population is spread uniformly over the disk (uniform random chords
through a random interior point with a random heading), matching the
paper's observation that "airplanes fly in all directions".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
        backwards = (self.track_deg + 180.0) % 360.0
        bearing = self.track_deg if elapsed >= 0 else backwards
        point = destination_point(self.start, bearing, distance)
        if distance < 1.0:
            return point, self.track_deg
        # Instantaneous track = bearing from a point slightly behind.
        behind = destination_point(point, backwards, 1000.0)
        track = initial_bearing_deg(behind, point)
        return point, track


def sample_routes(
    routes: Sequence[GreatCircleRoute],
    route_idx: np.ndarray,
    times_s: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch :meth:`GreatCircleRoute.position_and_track` over many routes.

    Element i samples ``routes[route_idx[i]]`` at ``times_s[i]``.
    Returns (lat_deg, lon_deg, track_deg); altitude is each route's
    constant ``start.alt_m``. Replicates the scalar method's operation
    sequence — including the degree→radian round-trips the
    intermediate :class:`GeoPoint` objects introduce — so per-element
    results match the scalar path.
    """

    def per_element(values: Sequence[float]) -> np.ndarray:
        return np.array(values, dtype=np.float64)[route_idx]

    backwards = [(r.track_deg + 180.0) % 360.0 for r in routes]
    track0 = per_element([r.track_deg for r in routes])
    elapsed = np.asarray(times_s, dtype=np.float64) - per_element(
        [r.start_time_s for r in routes]
    )
    distance = per_element([r.speed_ms for r in routes]) * np.abs(elapsed)
    bearing = np.where(elapsed >= 0, track0, per_element(backwards))
    lat_deg, lon_deg = destination_point_arrays(
        [r.start for r in routes], route_idx, bearing, distance
    )
    # Instantaneous track = bearing from a point slightly behind.
    blat, blon = destination_points_fixed_leg(
        lat_deg, lon_deg, backwards, route_idx, 1000.0
    )
    track = initial_bearing_deg_arrays(blat, blon, lat_deg, lon_deg)
    track = np.where(distance < 1.0, track0, track)
    return lat_deg, lon_deg, track


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
