"""Tests for repro.airspace.trajectories."""

import numpy as np
import pytest

from repro.airspace.trajectories import (
    MAX_ALTITUDE_M,
    MAX_SPEED_MS,
    MIN_ALTITUDE_M,
    MIN_SPEED_MS,
    GreatCircleRoute,
    RouteLegs,
    random_route_through_disk,
    route_tracks_deg,
    sample_routes,
)
from repro.geo.coords import GeoPoint
from repro.geo.distance import haversine_m

CENTER = GeoPoint(37.8715, -122.2730)


class TestGreatCircleRoute:
    def test_position_at_start_time(self):
        start = GeoPoint(37.0, -122.0, 9000.0)
        route = GreatCircleRoute(start, 90.0, 200.0, start_time_s=10.0)
        pos, track = route.position_and_track(10.0)
        assert pos.lat_deg == pytest.approx(start.lat_deg)
        assert pos.lon_deg == pytest.approx(start.lon_deg)
        assert track == pytest.approx(90.0)

    def test_distance_travelled(self):
        start = GeoPoint(37.0, -122.0, 9000.0)
        route = GreatCircleRoute(start, 45.0, 200.0)
        pos, _ = route.position_and_track(100.0)
        assert haversine_m(start, pos) == pytest.approx(
            20_000.0, rel=1e-6
        )

    def test_back_projection_before_start(self):
        start = GeoPoint(37.0, -122.0, 9000.0)
        route = GreatCircleRoute(start, 0.0, 100.0)
        pos, _ = route.position_and_track(-50.0)
        assert pos.lat_deg < start.lat_deg  # south of start
        assert haversine_m(start, pos) == pytest.approx(5000.0, rel=1e-6)

    def test_altitude_constant(self):
        start = GeoPoint(37.0, -122.0, 8_500.0)
        route = GreatCircleRoute(start, 10.0, 150.0)
        for t in (-100.0, 0.0, 300.0):
            pos, _ = route.position_and_track(t)
            assert pos.alt_m == 8_500.0

    def test_track_consistent_with_motion(self):
        start = GeoPoint(37.0, -122.0, 9000.0)
        route = GreatCircleRoute(start, 135.0, 250.0)
        _, track = route.position_and_track(600.0)
        assert track == pytest.approx(135.0, abs=2.0)

    def test_invalid_speed(self):
        with pytest.raises(ValueError):
            GreatCircleRoute(CENTER, 0.0, 0.0)


class TestBatchSampling:
    def test_matches_position_and_track(self, rng):
        # Start times inside the sampled span, so elapsed time takes
        # both signs (back-projection) and is exactly 0 (the < 1 m
        # branch that keeps the initial track).
        routes = [
            GreatCircleRoute(
                random_route_through_disk(CENTER, 80_000.0, rng).start,
                float(rng.uniform(0.0, 360.0)),
                float(rng.uniform(MIN_SPEED_MS, MAX_SPEED_MS)),
                start_time_s=float(start),
            )
            for start in (0.0, 5.0, -3.0, 12.5)
        ]
        route_idx = rng.integers(0, len(routes), size=400)
        times = rng.uniform(-20.0, 30.0, size=route_idx.size)
        times[:4] = [r.start_time_s for r in routes]
        route_idx[:4] = np.arange(4)
        lat, lon = sample_routes(RouteLegs.gather(routes, route_idx), times)
        track = route_tracks_deg(routes, route_idx, times, lat, lon)
        for i, (r, t) in enumerate(zip(route_idx.tolist(), times.tolist())):
            pos, expected_track = routes[r].position_and_track(t)
            assert lat[i] == pytest.approx(pos.lat_deg, abs=1e-9)
            assert lon[i] == pytest.approx(pos.lon_deg, abs=1e-9)
            assert track[i] == pytest.approx(expected_track, abs=1e-9)
        assert track[:4].tolist() == [r.track_deg for r in routes]


class TestRandomRoutes:
    def test_waypoint_inside_disk(self, rng):
        for _ in range(50):
            route = random_route_through_disk(CENTER, 100_000.0, rng)
            assert haversine_m(CENTER, route.start) <= 100_500.0

    def test_parameter_ranges(self, rng):
        for _ in range(50):
            route = random_route_through_disk(CENTER, 50_000.0, rng)
            assert MIN_SPEED_MS <= route.speed_ms <= MAX_SPEED_MS
            assert MIN_ALTITUDE_M <= route.start.alt_m <= MAX_ALTITUDE_M

    def test_headings_cover_circle(self, rng):
        headings = [
            random_route_through_disk(CENTER, 50_000.0, rng).track_deg
            for _ in range(300)
        ]
        quadrants = {int(h // 90) for h in headings}
        assert quadrants == {0, 1, 2, 3}

    def test_area_uniformity(self, rng):
        # Uniform-over-area: about 1/4 of waypoints within R/2.
        radii = [
            haversine_m(
                CENTER,
                random_route_through_disk(CENTER, 80_000.0, rng).start,
            )
            for _ in range(800)
        ]
        inner = np.mean([r <= 40_000.0 for r in radii])
        assert inner == pytest.approx(0.25, abs=0.05)

    def test_invalid_radius(self, rng):
        with pytest.raises(ValueError):
            random_route_through_disk(CENTER, 0.0, rng)
