"""Exactness of the cold directional scan's cheaper per-event kernels.

Each kernel below replaced a slower formula on the batch hot path and
must give the same bits as the formula it replaced, so the batch ==
scalar and off == cold == warm contracts and the golden digests hold
unchanged:

- ``wrap_360_array`` is ``np.remainder(x, 360.0)``;
- ``received_power_dbm`` evaluates the leakage combination only on
  obstructed rays, with the leakage power taken once per aircraft,
  yet equals the whole-array, per-event ``np.where`` formula;
- ``ObstructionMap.clear_sectors`` is one ``loss_db_array`` call,
  yet equals the 360-bin scalar ``is_clear`` sweep;
- ``RouteLegs`` carries per-route bearing sines and cosines, gathered
  per event, equal to the per-event ufuncs ``sample_routes`` used;
- ``decode_frame_matrix`` defers its CPR pair-state update, yet a
  later scalar decode sees what an all-scalar decoder would.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adsb.decoder import Dump1090Decoder
from repro.adsb.icao import IcaoAddress
from repro.adsb.messages import (
    build_airborne_position,
    build_airborne_velocity,
)
from repro.airspace.trajectories import (
    GreatCircleRoute,
    RouteLegs,
    sample_routes,
)
from repro.batch.geomcache import batch_rays
from repro.batch.links import (
    batch_received_power_dbm,
    first_occurrence,
    received_power_dbm,
    relative_power,
)
from repro.batch.schedule import (
    build_batch_squitters,
    tick_grid,
    traffic_content_token,
)
from repro.engines import configure_path_cache
from repro.environment.links import ADSB_FREQ_HZ, AdsbLinkModel
from repro.environment.obstruction import (
    AmbientLayer,
    Obstruction,
    ObstructionMap,
    flags_to_sectors,
)
from repro.environment.scenarios import standard_testbed
from repro.geo.coords import GeoPoint
from repro.geo.sectors import AzimuthSector, wrap_360_array
from repro.rf.fading import rician_fading_db_from_normals
from repro.rf.pathloss import free_space_path_loss_db_array
from repro.rf.penetration import MATERIAL_LOSS_DB


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    """Equal float64 bit patterns; any NaN matches any NaN."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(
        got[~nan].view(np.int64), want[~nan].view(np.int64)
    )


def _neighbours(x: float):
    return (np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf))


class TestWrap360:
    TINY = 5e-324
    MIN_NORMAL = 2.2250738585072014e-308
    MAX = np.finfo(np.float64).max

    EDGES = (
        [0.0, -0.0, TINY, -TINY, MIN_NORMAL / 2, -MIN_NORMAL / 2]
        + [MIN_NORMAL, -MIN_NORMAL, 1e-300, -1e-300, 1e-20, -1e-20]
        + [v for k in range(-4, 5) for v in _neighbours(360.0 * k)]
        + [v for v in _neighbours(180.0)]
        + [v for v in _neighbours(-180.0)]
        + [v for v in _neighbours(360.0 * 2.0**40)]
        + [v for v in _neighbours(-360.0 * 2.0**40)]
        + [1e16, -1e16, 1e300, -1e300, MAX, -MAX]
        + [math.nan, -math.nan, math.inf, -math.inf]
    )

    def _check(self, values) -> None:
        x = np.array(values, dtype=np.float64)
        with np.errstate(invalid="ignore"):
            assert_same_bits(wrap_360_array(x), np.remainder(x, 360.0))

    def test_edge_values(self):
        self._check(self.EDGES)

    @pytest.mark.parametrize("value", EDGES)
    def test_each_edge_value_alone(self, value):
        # Alone, every value inside (-360, 360) takes the no-fmod path.
        self._check([value])
        self._check(np.full(3, value))

    def test_negative_zero_folds_to_positive_zero(self):
        out = wrap_360_array(np.array([-0.0, -360.0, -720.0]))
        assert not np.signbit(out).any()

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=True, allow_infinity=True, width=64),
            min_size=1,
            max_size=64,
        )
    )
    def test_matches_remainder(self, values):
        self._check(values)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(-1e4, 1e4, allow_subnormal=True, width=64),
            min_size=1,
            max_size=64,
        )
    )
    def test_matches_remainder_near_the_circle(self, values):
        self._check(values)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(
                -360.0,
                360.0,
                exclude_min=True,
                exclude_max=True,
                allow_subnormal=True,
            ),
            min_size=1,
            max_size=64,
        )
    )
    def test_matches_remainder_inside_one_turn(self, values):
        self._check(values)

    def test_empty_and_zero_dimensional(self):
        self._check([])
        assert wrap_360_array(np.float64(-30.0)) == 330.0

    def test_real_azimuths(self):
        rng = np.random.default_rng(3)
        east, north = rng.normal(0.0, 5e4, size=(2, 12_480))
        self._check(np.degrees(np.arctan2(east, north)))

    def test_sector_containment(self):
        sector = AzimuthSector(350.0, 20.0)
        b = np.linspace(-720.0, 720.0, 2881)
        want = np.remainder(b - sector.start_deg, 360.0) < sector.width_deg
        np.testing.assert_array_equal(sector.contains_array(b), want)


def full_received_power_dbm(
    unobstructed, obstruction, shadow, leak, leakage_base_db, fade
):
    """The whole-array formula the batch links kernel replaced."""
    direct_extra = obstruction - shadow
    leakage_extra = leakage_base_db + leak
    combined = -10.0 * np.log10(
        10.0 ** (-np.maximum(direct_extra, 0.0) / 10.0)
        + 10.0 ** (-np.maximum(leakage_extra, 0.0) / 10.0)
    )
    effective_extra = np.where(obstruction <= 0.5, direct_extra, combined)
    return unobstructed - effective_extra + fade


def per_event_power_dbm(env, antenna, squitters, rays, rng, k_db, coh_s):
    """The link stage with every candidate read and combined per event."""
    n = squitters.n
    tx_dbm = 10.0 * np.log10(squitters.tx_power_w * 1000.0)
    path = free_space_path_loss_db_array(rays.slant_m, ADSB_FREQ_HZ)
    unobstructed = (
        tx_dbm - path + antenna.gain_at_array(ADSB_FREQ_HZ, rays.azimuth_deg)
    )
    ai = squitters.aircraft_idx
    block = np.floor_divide(squitters.time_s, coh_s).astype(np.int64)
    b_min = int(block.min())
    b_span = int(block.max()) - b_min + 1
    n_keys = int(ai.max()) + 1
    fade_key = ai * b_span + (block - b_min)
    is_new = first_occurrence(fade_key, n_keys * b_span)[
        fade_key
    ] == np.arange(n)
    counts = 2 + 2 * is_new.astype(np.int64)
    ends = np.cumsum(counts)
    offsets = ends - counts
    z = rng.standard_normal(int(ends[-1]))
    a_first = offsets[first_occurrence(ai, n_keys)[ai]]
    shadow = env.shadowing_sigma_db * z[a_first]
    leak = env.leakage_sigma_db * z[a_first + 1]
    new = offsets[is_new]
    fade_by_key = np.empty(n_keys * b_span, dtype=np.float64)
    fade_by_key[fade_key[is_new]] = rician_fading_db_from_normals(
        z[new + 2], z[new + 3], k_db
    )
    return full_received_power_dbm(
        unobstructed,
        rays.obstruction_db,
        shadow,
        leak,
        env.leakage_base_db,
        fade_by_key[fade_key],
    )


class TestLeakageSubset:
    def _check(self, obstruction, seed, leakage_base_db) -> None:
        obstruction = np.asarray(obstruction, dtype=np.float64)
        rng = np.random.default_rng(seed)
        n = obstruction.size
        unobstructed = rng.uniform(-120.0, -40.0, n)
        shadow = rng.normal(0.0, 4.0, n)
        leak = rng.normal(0.0, 3.0, n)
        fade = rng.normal(0.0, 2.0, n)
        with np.errstate(invalid="ignore"):
            got = received_power_dbm(
                unobstructed,
                obstruction,
                shadow,
                relative_power(leakage_base_db + leak),
                fade,
            )
            want = full_received_power_dbm(
                unobstructed, obstruction, shadow, leak, leakage_base_db, fade
            )
        assert_same_bits(got, want)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(
                    [0.0, -0.0, 0.5, float(np.nextafter(0.5, 1.0)), 3.0]
                ),
                st.floats(-5.0, 80.0),
            ),
            min_size=1,
            max_size=80,
        ),
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 40.0),
    )
    def test_matches_full_formula(self, obstruction, seed, base_db):
        self._check(obstruction, seed, base_db)

    def test_all_clear_and_all_blocked(self):
        self._check(np.zeros(50), 1, 20.0)
        self._check(np.full(50, 30.0), 2, 20.0)

    def test_nan_obstruction_stays_nan(self):
        self._check([math.nan, 0.1, 12.0], 3, 15.0)

    def test_inputs_are_not_modified(self):
        obstruction = np.array([0.0, 10.0, 40.0])
        shadow = np.array([1.0, 2.0, 3.0])
        received_power_dbm(
            np.zeros(3), obstruction, shadow, np.zeros(3), np.zeros(3)
        )
        np.testing.assert_array_equal(obstruction, [0.0, 10.0, 40.0])
        np.testing.assert_array_equal(shadow, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("site", ["rooftop", "window", "indoor"])
    @pytest.mark.parametrize("window", [(0.0, 30.0), (17.0, 29.0)])
    def test_stage_matches_per_event_candidates(self, world, site, window):
        # Shadowing and leakage power are read per aircraft and
        # gathered; the result and the RNG state match reading them
        # per event.
        configure_path_cache(enabled=False, clear=True)
        try:
            node = world.node_at(site)
            link = AdsbLinkModel(
                env=node.environment, rx_antenna=node.antenna
            )
            squitters = build_batch_squitters(
                world.traffic, *window, np.random.default_rng(5)
            )
            rays = batch_rays(
                node.environment.position,
                node.environment.obstruction_map,
                ADSB_FREQ_HZ,
                squitters,
            )
            args = (link.rician_k_db, link.coherence_time_s)
            rng_b = np.random.default_rng(9)
            rng_e = np.random.default_rng(9)
            got = batch_received_power_dbm(
                node.environment, node.antenna, squitters, rays, rng_b, *args
            )
            want = per_event_power_dbm(
                node.environment, node.antenna, squitters, rays, rng_e, *args
            )
        finally:
            configure_path_cache(enabled=True, clear=True)
        assert_same_bits(got.dbm, want)
        assert rng_b.bit_generator.state == rng_e.bit_generator.state


def scalar_clear_sectors(
    m: ObstructionMap, elevation_deg, resolution_deg, threshold_db
):
    """The scalar ``is_clear`` sweep ``clear_sectors`` replaced."""
    n = int(round(360.0 / resolution_deg))
    flags = [
        m.is_clear(i * resolution_deg, elevation_deg, threshold_db)
        for i in range(n)
    ]
    return flags_to_sectors(flags, resolution_deg)


PROBES = [
    (5.0, 1.0, 3.0),
    (0.0, 1.0, 3.0),
    (-5.0, 0.5, 1.0),
    (20.0, 2.0, 6.0),
    (45.0, 10.0, 3.0),
]

MATERIALS = sorted(MATERIAL_LOSS_DB)

# Losses that land exactly on a probe threshold pin the strict ``<``.
extra_losses = st.one_of(
    st.sampled_from([0.0, 1.0, 3.0, 6.0]), st.floats(0.0, 10.0)
)

obstructions = st.builds(
    Obstruction,
    sector=st.builds(
        AzimuthSector,
        start_deg=st.floats(0.0, 359.9),
        width_deg=st.floats(0.5, 360.0),
    ),
    clear_elevation_deg=st.floats(-90.0, 90.0),
    materials=st.lists(st.sampled_from(MATERIALS), max_size=3).map(tuple),
    edge_distance_m=st.floats(0.5, 200.0),
    extra_loss_db=extra_losses,
)

ambient_layers = st.tuples(
    st.floats(-90.0, 89.0), st.floats(0.5, 90.0)
).flatmap(
    lambda lo_w: st.builds(
        AmbientLayer,
        min_elevation_deg=st.just(lo_w[0]),
        max_elevation_deg=st.just(lo_w[0] + lo_w[1]),
        materials=st.lists(st.sampled_from(MATERIALS), max_size=2).map(
            tuple
        ),
        extra_loss_db=extra_losses,
    )
)


class TestClearSectors:
    @pytest.fixture(autouse=True)
    def _cache_off(self):
        configure_path_cache(enabled=False, clear=True)
        yield
        configure_path_cache(enabled=True, clear=True)

    @pytest.mark.parametrize("site", ["rooftop", "window", "indoor"])
    @pytest.mark.parametrize("probe", PROBES)
    def test_standard_sites(self, site, probe):
        m = standard_testbed().site(site).obstruction_map
        assert m.clear_sectors(*probe) == scalar_clear_sectors(m, *probe)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(obstructions, max_size=4),
        st.lists(ambient_layers, max_size=2),
        st.sampled_from(PROBES),
    )
    def test_hypothesis_maps(self, obs, ambient, probe):
        m = ObstructionMap(obstructions=obs, ambient=ambient)
        assert m.clear_sectors(*probe) == scalar_clear_sectors(m, *probe)


def _routes(rng, n):
    return [
        GreatCircleRoute(
            start=GeoPoint(
                float(rng.uniform(-60.0, 60.0)),
                float(rng.uniform(-180.0, 180.0)),
                float(rng.uniform(1_500.0, 12_000.0)),
            ),
            track_deg=float(rng.uniform(0.0, 360.0)),
            speed_ms=float(rng.uniform(90.0, 260.0)),
            start_time_s=float(rng.uniform(-60.0, 60.0)),
        )
        for _ in range(n)
    ]


def _assert_bearing_terms_per_event(routes, route_idx, legs, times_s):
    """Gathered sin/cos == the per-event ufuncs on the chosen bearing."""
    track = np.array([r.track_deg for r in routes])[route_idx]
    back = np.array([(r.track_deg + 180.0) % 360.0 for r in routes])[
        route_idx
    ]
    assert_same_bits(legs.sin_track, np.sin(np.radians(track)))
    assert_same_bits(legs.cos_track, np.cos(np.radians(track)))
    assert_same_bits(legs.sin_back, np.sin(np.radians(back)))
    assert_same_bits(legs.cos_back, np.cos(np.radians(back)))
    start = np.array([r.start_time_s for r in routes])[route_idx]
    forward = times_s - start >= 0
    brg = np.radians(np.where(forward, track, back))
    assert_same_bits(
        np.where(forward, legs.sin_track, legs.sin_back), np.sin(brg)
    )
    assert_same_bits(
        np.where(forward, legs.cos_track, legs.cos_back), np.cos(brg)
    )


class TestRouteBearingTerms:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40))
    def test_random_routes(self, seed, n_routes):
        rng = np.random.default_rng(seed)
        routes = _routes(rng, n_routes)
        route_idx = rng.integers(0, n_routes, size=500)
        times = rng.uniform(-90.0, 90.0, size=500)
        legs = RouteLegs.gather(routes, route_idx)
        _assert_bearing_terms_per_event(routes, route_idx, legs, times)

    def test_world_tick_grid(self, world):
        traffic = world.traffic
        grid = tick_grid(traffic, traffic_content_token(traffic), 0.0, 30.0)
        routes = [ac.route for ac in traffic.aircraft]
        _assert_bearing_terms_per_event(
            routes, grid.aircraft_idx, grid.legs, grid.time_s
        )

    def test_sample_routes_matches_scalar_positions(self):
        rng = np.random.default_rng(11)
        routes = _routes(rng, 12)
        route_idx = rng.integers(0, 12, size=200)
        times = rng.uniform(-90.0, 90.0, size=200)
        lat, lon = sample_routes(RouteLegs.gather(routes, route_idx), times)
        for i in range(times.size):
            point, _ = routes[route_idx[i]].position_and_track(times[i])
            assert lat[i] == pytest.approx(point.lat_deg, abs=1e-9)
            assert lon[i] == pytest.approx(point.lon_deg, abs=1e-9)


def _position_rows():
    """Position frames of three aircraft, both parities, in time order."""
    rows, times = [], []
    icaos = [IcaoAddress(0xABC123), IcaoAddress(0x40621D), IcaoAddress(7)]
    t = 0.0
    for k in range(12):
        icao = icaos[k % 3]
        frame = build_airborne_position(
            icao,
            37.8 + 0.01 * k,
            -122.2 + 0.01 * k,
            30_000.0,
            odd=bool((k // 3) % 2),
        )
        rows.append(frame.data)
        times.append(t)
        t += 0.4
        if k % 4 == 0:
            rows.append(build_airborne_velocity(icao, 100.0, 50.0).data)
            times.append(t)
            t += 0.1
    return rows, times


def _matrix(rows):
    data = np.zeros((len(rows), 14), dtype=np.uint8)
    lengths = np.zeros(len(rows), dtype=np.int64)
    for i, row in enumerate(rows):
        data[i, : len(row)] = np.frombuffer(row, dtype=np.uint8)
        lengths[i] = len(row)
    return data, lengths


def _states(decoder):
    return {
        icao: (s.even, s.even_time_s, s.odd, s.odd_time_s)
        for icao, s in decoder._cpr.items()
    }


class TestDeferredCprState:
    RECEIVER = GeoPoint(37.87, -122.26, 10.0)

    @pytest.mark.parametrize("split", [0, 2, 5, 7])
    def test_batches_then_scalar_match_all_scalar(self, split):
        rows, times = _position_rows()
        half = len(rows) // 2
        scalar = Dump1090Decoder(receiver_position=self.RECEIVER)
        want = [
            scalar.decode_frame_bytes(row, t, -40.0)
            for row, t in zip(rows, times)
        ]

        mixed = Dump1090Decoder(receiver_position=self.RECEIVER)
        # Two queued batches, then scalar decodes of the rest.
        for lo, hi in ((0, split), (split, half)):
            data, lengths = _matrix(rows[lo:hi])
            mixed.decode_frame_matrix(data, lengths, np.array(times[lo:hi]))
        got = [
            mixed.decode_frame_bytes(row, t, -40.0)
            for row, t in zip(rows[half:], times[half:])
        ]
        assert got == want[half:]
        assert _states(mixed) == _states(scalar)

    def test_batch_times_are_copied(self):
        rows, times = _position_rows()
        data, lengths = _matrix(rows)
        batch_times = np.array(times)
        decoder = Dump1090Decoder()
        decoder.decode_frame_matrix(data, lengths, batch_times)
        batch_times[:] = -1.0
        scalar = Dump1090Decoder()
        for row, t in zip(rows, times):
            scalar.decode_frame_bytes(row, t, -40.0)
        assert _states(decoder) == _states(scalar)
