"""Batch engine vs. scalar path: fixed-seed equivalence.

The contract (ISSUE 4): with the same seed, the vectorized batch
engine and ``DirectionalEvaluator.run_scalar`` produce the same
``DirectionalScan`` — bit-identical decode set, powers within
1e-9 dB — because every kernel replicates the scalar op order and the
RNG draw-order discipline. These tests hold each layer to that
contract: schedule, link powers, frame synthesis, batch decode, and the
end-to-end scan.
"""

import numpy as np
import pytest

from repro.adsb.cpr import cpr_encode, cpr_encode_arrays
from repro.adsb.crc import crc24_bytes, crc24_matrix
from repro.adsb.decoder import Dump1090Decoder
from repro.adsb.icao import IcaoAddress
from repro.adsb.messages import (
    build_acquisition_squitter,
    build_airborne_position,
    build_airborne_velocity,
    build_identification,
)
from repro.airspace.traffic import TrafficConfig, TrafficSimulator
from repro.batch.geomcache import batch_rays
from repro.batch.links import batch_received_power_dbm
from repro.batch.schedule import (
    KIND_ACQUISITION,
    KIND_IDENTIFICATION,
    KIND_POSITION,
    KIND_VELOCITY,
    build_batch_squitters,
    squitter_velocity_kt,
)
from repro.core.directional import DirectionalEvaluator
from repro.environment.links import ADSB_FREQ_HZ, AdsbLinkModel
from repro.geo.coords import GeoPoint


def _evaluator(world, site, **kwargs):
    return DirectionalEvaluator(
        node=world.node_at(site),
        traffic=world.traffic,
        ground_truth=world.ground_truth,
        **kwargs,
    )


def _reset_parity(world, value=False):
    for ac in world.traffic.aircraft:
        ac.transponder._odd_next = value


def assert_scans_equivalent(scalar, batch, rssi_tol=1e-9):
    assert batch.decoded_message_count == scalar.decoded_message_count
    assert batch.ghost_icaos == scalar.ghost_icaos
    assert len(batch.observations) == len(scalar.observations)
    for obs_s, obs_b in zip(scalar.observations, batch.observations):
        assert obs_b.icao == obs_s.icao
        assert obs_b.received == obs_s.received
        assert obs_b.n_messages == obs_s.n_messages
        assert obs_b.bearing_deg == obs_s.bearing_deg
        assert obs_b.ground_range_m == obs_s.ground_range_m
        assert obs_b.elevation_deg == obs_s.elevation_deg
        if obs_s.mean_rssi_dbfs is None:
            assert obs_b.mean_rssi_dbfs is None
        else:
            assert obs_b.mean_rssi_dbfs == pytest.approx(
                obs_s.mean_rssi_dbfs, abs=rssi_tol
            )


class TestScanEquivalence:
    @pytest.mark.parametrize("site", ["rooftop", "window", "indoor"])
    @pytest.mark.parametrize("seed", [1, 12345])
    def test_fixed_seed_scan_matches(self, world, site, seed):
        _reset_parity(world)
        scalar = _evaluator(world, site, use_batch=False).run(
            np.random.default_rng(seed)
        )
        _reset_parity(world)
        batch = _evaluator(world, site, use_batch=True).run(
            np.random.default_rng(seed)
        )
        assert_scans_equivalent(scalar, batch)

    def test_transponder_parity_state_matches(self, world):
        _reset_parity(world)
        _evaluator(world, "rooftop", use_batch=False).run(
            np.random.default_rng(3)
        )
        scalar_parity = [
            ac.transponder._odd_next for ac in world.traffic.aircraft
        ]
        _reset_parity(world)
        _evaluator(world, "rooftop", use_batch=True).run(
            np.random.default_rng(3)
        )
        batch_parity = [
            ac.transponder._odd_next for ac in world.traffic.aircraft
        ]
        assert batch_parity == scalar_parity

    def test_rng_fully_synchronized_after_run(self, world):
        # Runs consume the generator identically, so a follow-up draw
        # must agree bit for bit.
        rng_s = np.random.default_rng(9)
        rng_b = np.random.default_rng(9)
        _reset_parity(world)
        _evaluator(world, "window", use_batch=False).run(rng_s)
        _reset_parity(world)
        _evaluator(world, "window", use_batch=True).run(rng_b)
        assert rng_s.bit_generator.state == rng_b.bit_generator.state


#: Capture windows: a full capture, an off-grid one, and an empty one.
_WINDOWS = [(0.0, 30.0), (3.7, 11.2), (5.0, 5.0)]

#: Traffic seeds for the schedule equivalence sweep.
_TRAFFIC_SEEDS = [0, 1, 2, 3, 4]


def _traffic(world, seed, n_aircraft=24):
    return TrafficSimulator(
        world.traffic.center,
        TrafficConfig(n_aircraft=n_aircraft),
        rng_seed=seed,
    )


def _kind(frame):
    if frame.downlink_format == 11:
        return KIND_ACQUISITION
    if frame.type_code == 19:
        return KIND_VELOCITY
    if 1 <= frame.type_code <= 4:
        return KIND_IDENTIFICATION
    return KIND_POSITION


def assert_schedule_matches_scalar(traffic, t0_s, t1_s, seed):
    """Every BatchSquitters field against squitters_between's events."""
    for ac in traffic.aircraft:
        ac.transponder._odd_next = False
    rng_s = np.random.default_rng(seed)
    rng_b = np.random.default_rng(seed)
    scalar = traffic.squitters_between(t0_s, t1_s, rng_s)
    batch = build_batch_squitters(traffic, t0_s, t1_s, rng_b)
    assert rng_b.bit_generator.state == rng_s.bit_generator.state
    assert batch.n == len(scalar)

    index = {ac.icao.value: i for i, ac in enumerate(traffic.aircraft)}
    aircraft_idx = [index[e.frame.icao.value] for e in scalar]
    np.testing.assert_array_equal(batch.time_s, [e.time_s for e in scalar])
    np.testing.assert_array_equal(batch.aircraft_idx, aircraft_idx)
    kinds = [_kind(e.frame) for e in scalar]
    np.testing.assert_array_equal(batch.kind_idx, kinds)
    # pos_seq counts each aircraft's position squitters in generation
    # order; its parity is the frame's CPR odd flag.
    seen = [0] * len(traffic.aircraft)
    pos_seq = []
    for ai, kind, e in zip(aircraft_idx, kinds, scalar):
        if kind != KIND_POSITION:
            pos_seq.append(-1)
            continue
        pos_seq.append(seen[ai])
        seen[ai] += 1
        odd = (int.from_bytes(e.frame.me, "big") >> 34) & 1
        assert odd == pos_seq[-1] % 2
    np.testing.assert_array_equal(batch.pos_seq, pos_seq)
    np.testing.assert_array_equal(batch.alt_m, [e.alt_m for e in scalar])
    np.testing.assert_array_equal(
        batch.tx_power_w, [e.tx_power_w for e in scalar]
    )
    # Trajectory kernels replicate the scalar op order but libm
    # arcsin/atan2 chains may differ by ~1 ulp: positions agree to
    # ~1e-11 degrees (sub-millimeter), far inside the 1e-9 dB power
    # contract. Velocities are the ones the scalar frames encode; the
    # engine computes them on demand, here for every event.
    np.testing.assert_allclose(
        batch.lat_deg, [e.lat_deg for e in scalar], atol=1e-9
    )
    np.testing.assert_allclose(
        batch.lon_deg, [e.lon_deg for e in scalar], atol=1e-9
    )
    velocity = np.array(
        [
            traffic.aircraft[ai].squitter_position_at(e.time_s)[3:]
            for ai, e in zip(aircraft_idx, scalar)
        ]
    ).reshape(-1, 2)
    east_kt, north_kt = squitter_velocity_kt(
        [ac.route for ac in traffic.aircraft], batch, np.arange(batch.n)
    )
    np.testing.assert_allclose(east_kt, velocity[:, 0], atol=1e-9)
    np.testing.assert_allclose(north_kt, velocity[:, 1], atol=1e-9)


class TestScheduleEquivalence:
    def test_times_and_rng_state_match_scalar(self, world):
        assert_schedule_matches_scalar(world.traffic, 0.0, 30.0, seed=21)

    @pytest.mark.parametrize("window", _WINDOWS)
    @pytest.mark.parametrize("traffic_seed", _TRAFFIC_SEEDS)
    def test_every_field_matches_across_seeds_and_windows(
        self, world, traffic_seed, window
    ):
        traffic = _traffic(world, traffic_seed)
        assert_schedule_matches_scalar(
            traffic, *window, seed=100 + traffic_seed
        )

    @pytest.mark.parametrize("window", _WINDOWS)
    def test_zero_aircraft(self, world, window):
        traffic = _traffic(world, 0, n_aircraft=0)
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        batch = build_batch_squitters(traffic, *window, rng)
        assert batch.n == 0
        assert batch.aircraft_idx.dtype == np.int64
        assert batch.tx_power_w.dtype == np.float64
        assert rng.bit_generator.state == before
        assert_schedule_matches_scalar(traffic, *window, seed=5)

    def test_reversed_window_raises(self, world):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="bad interval"):
            build_batch_squitters(world.traffic, 5.0, 4.0, rng)
        with pytest.raises(ValueError, match="bad interval"):
            world.traffic.squitters_between(5.0, 4.0, rng)


class TestPowerEquivalence:
    def test_powers_within_1e9_db(self, world):
        node = world.node_at("rooftop")
        link = AdsbLinkModel(
            env=node.environment, rx_antenna=node.antenna
        )
        rng_s = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        scalar_events = world.traffic.squitters_between(
            0.0, 10.0, rng_s
        )
        scalar_dbm = np.array(
            [
                link.message_received_power_dbm(
                    e.frame.icao,
                    GeoPoint(e.lat_deg, e.lon_deg, e.alt_m),
                    e.tx_power_w,
                    rng_s,
                    time_s=e.time_s,
                )
                for e in scalar_events
            ]
        )
        squitters = build_batch_squitters(
            world.traffic, 0.0, 10.0, rng_b
        )
        rays = batch_rays(
            node.environment.position,
            node.environment.obstruction_map,
            ADSB_FREQ_HZ,
            squitters,
        )
        batch_power = batch_received_power_dbm(
            node.environment,
            node.antenna,
            squitters,
            rays,
            rng_b,
            link.rician_k_db,
            link.coherence_time_s,
        )
        assert np.max(np.abs(batch_power.dbm - scalar_dbm)) < 1e-9


class TestKernelEquivalence:
    def test_crc24_matrix_matches_bytes(self):
        rng = np.random.default_rng(0)
        mat = rng.integers(0, 256, size=(64, 11), dtype=np.uint8)
        expected = [crc24_bytes(bytes(row)) for row in mat]
        np.testing.assert_array_equal(crc24_matrix(mat), expected)

    def test_crc24_matrix_empty_rows(self):
        np.testing.assert_array_equal(
            crc24_matrix(np.zeros((0, 11), dtype=np.uint8)),
            np.zeros(0, dtype=np.uint32),
        )

    def test_cpr_encode_arrays_matches_scalar(self):
        rng = np.random.default_rng(7)
        lat = rng.uniform(-89.0, 89.0, size=500)
        lon = rng.uniform(-180.0, 180.0, size=500)
        odd = rng.integers(0, 2, size=500).astype(bool)
        yz, xz = cpr_encode_arrays(lat, lon, odd)
        for i in range(lat.size):
            yz_s, xz_s = cpr_encode(
                float(lat[i]), float(lon[i]), bool(odd[i])
            )
            assert (int(yz[i]), int(xz[i])) == (yz_s, xz_s), i


class TestBatchDecoder:
    def _mixed_frames(self):
        icao_a = IcaoAddress(0xABC123)
        icao_b = IcaoAddress(0x40621D)
        frames = [
            build_airborne_position(
                icao_a, 37.9, -122.1, 30_000.0, odd=False
            ),
            build_airborne_velocity(icao_a, 120.0, -200.0),
            build_identification(icao_b, "TEST123"),
            build_acquisition_squitter(icao_b),
            build_airborne_position(
                icao_a, 37.91, -122.11, 30_000.0, odd=True
            ),
        ]
        rows = [f.data for f in frames]
        corrupted = bytearray(frames[0].data)
        corrupted[5] ^= 0x10
        rows.append(bytes(corrupted))
        return rows

    def _as_matrix(self, rows):
        data = np.zeros((len(rows), 14), dtype=np.uint8)
        lengths = np.zeros(len(rows), dtype=np.int64)
        for i, row in enumerate(rows):
            data[i, : len(row)] = np.frombuffer(row, dtype=np.uint8)
            lengths[i] = len(row)
        return data, lengths

    def test_matches_scalar_decode(self):
        rows = self._mixed_frames()
        times = [0.1 * i for i in range(len(rows))]
        scalar = Dump1090Decoder(
            receiver_position=GeoPoint(37.87, -122.26, 10.0)
        )
        scalar_decoded = [
            scalar.decode_frame_bytes(row, t, -40.0) is not None
            for row, t in zip(rows, times)
        ]
        batch = Dump1090Decoder(
            receiver_position=GeoPoint(37.87, -122.26, 10.0)
        )
        data, lengths = self._as_matrix(rows)
        result = batch.decode_frame_matrix(
            data, lengths, np.asarray(times)
        )
        assert result.decoded.tolist() == scalar_decoded
        assert batch.frames_seen == scalar.frames_seen
        assert batch.frames_bad_crc == scalar.frames_bad_crc
        assert batch.messages_decoded == scalar.messages_decoded
        for row, dec, icao24 in zip(
            rows, result.decoded, result.icao24
        ):
            if dec:
                assert int(icao24) == int.from_bytes(row[1:4], "big")

    def test_cpr_state_matches_scalar(self):
        rows = self._mixed_frames()
        times = [0.1 * i for i in range(len(rows))]
        scalar = Dump1090Decoder()
        for row, t in zip(rows, times):
            scalar.decode_frame_bytes(row, t, -40.0)
        batch = Dump1090Decoder()
        data, lengths = self._as_matrix(rows)
        batch.decode_frame_matrix(data, lengths, np.asarray(times))
        assert set(batch._cpr) == set(scalar._cpr)
        for icao, state_s in scalar._cpr.items():
            state_b = batch._cpr[icao]
            assert state_b.even == state_s.even
            assert state_b.even_time_s == state_s.even_time_s
            assert state_b.odd == state_s.odd
            assert state_b.odd_time_s == state_s.odd_time_s

    def test_fix_errors_matches_scalar(self):
        good = build_airborne_velocity(
            IcaoAddress(0x123456), 50.0, 60.0
        )
        flipped = bytearray(good.data)
        flipped[7] ^= 0x02  # single bit error: repairable
        garbage = bytes(14)  # all zeros: DF 0, unrepairable junk
        rows = [good.data, bytes(flipped), garbage]
        times = [0.0, 0.1, 0.2]
        scalar = Dump1090Decoder(fix_errors=True)
        scalar_decoded = [
            scalar.decode_frame_bytes(row, t, -40.0) is not None
            for row, t in zip(rows, times)
        ]
        batch = Dump1090Decoder(fix_errors=True)
        data, lengths = self._as_matrix(rows)
        result = batch.decode_frame_matrix(
            data, lengths, np.asarray(times)
        )
        assert result.decoded.tolist() == scalar_decoded
        assert batch.frames_fixed == scalar.frames_fixed == 1
        assert batch.frames_bad_crc == scalar.frames_bad_crc
        assert batch.messages_decoded == scalar.messages_decoded

    def test_empty_batch(self):
        decoder = Dump1090Decoder()
        result = decoder.decode_frame_matrix(
            np.zeros((0, 14), dtype=np.uint8),
            np.zeros(0, dtype=np.int64),
            np.zeros(0),
        )
        assert result.decoded.size == 0
        assert decoder.frames_seen == 0
