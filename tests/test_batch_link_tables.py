"""Dense first-occurrence tables in the batch link engine.

The link engine finds each aircraft's first event (whose draws become
its shadowing and leakage) and each (aircraft, coherence-block)
fading key's first event (which draws its Rician quadratures) with
dense tables over the key space instead of ``np.unique``. These tests
hold the tables to an ``np.unique`` reference, and the powers built
from them to the scalar link model, on the captures that stress a
dense table: aircraft indices with gaps, a window whose first
coherence block is not block 0, and a one-event capture.
"""

import dataclasses

import numpy as np
import pytest

from repro.adsb.icao import IcaoAddress
from repro.batch.geomcache import batch_rays
from repro.batch.links import batch_received_power_dbm, first_occurrence
from repro.batch.schedule import BatchSquitters, build_batch_squitters
from repro.engines import configure_path_cache
from repro.environment.links import ADSB_FREQ_HZ, AdsbLinkModel
from repro.geo.coords import GeoPoint


@pytest.fixture(autouse=True)
def fresh_cache():
    configure_path_cache(enabled=True, clear=True)
    yield
    configure_path_cache(enabled=True, clear=True)


def _assert_matches_unique(keys, n_keys):
    table = first_occurrence(keys, n_keys)
    assert table.shape == (n_keys,)
    uniq, first = np.unique(keys, return_index=True)
    np.testing.assert_array_equal(table[uniq], first)
    absent = np.setdiff1d(np.arange(n_keys), uniq)
    assert np.all(table[absent] == keys.size)


class TestFirstOccurrence:
    def test_keys_with_gaps(self):
        keys = np.array([5, 2, 5, 9, 2, 0, 9, 9], dtype=np.int64)
        _assert_matches_unique(keys, 12)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_keys_with_gaps(self, seed):
        rng = np.random.default_rng(seed)
        present = rng.choice(200, size=40, replace=False)
        keys = rng.choice(present, size=3000)
        _assert_matches_unique(keys, 200)

    def test_one_key(self):
        _assert_matches_unique(np.array([3], dtype=np.int64), 4)


def _subset(squitters, keep):
    return BatchSquitters(
        **{
            f.name: getattr(squitters, f.name)[keep]
            for f in dataclasses.fields(squitters)
        }
    )


def _assert_powers_match_scalar(world, squitters, seed):
    """Batch powers and RNG state against the scalar link model."""
    node = world.node_at("rooftop")
    link = AdsbLinkModel(env=node.environment, rx_antenna=node.antenna)
    icao = [ac.icao.value for ac in world.traffic.aircraft]
    rng_s = np.random.default_rng(seed)
    scalar_dbm = [
        link.message_received_power_dbm(
            IcaoAddress(icao[a]),
            GeoPoint(lat, lon, alt),
            power,
            rng_s,
            time_s=t,
        )
        for a, lat, lon, alt, power, t in zip(
            squitters.aircraft_idx.tolist(),
            squitters.lat_deg.tolist(),
            squitters.lon_deg.tolist(),
            squitters.alt_m.tolist(),
            squitters.tx_power_w.tolist(),
            squitters.time_s.tolist(),
        )
    ]
    rng_b = np.random.default_rng(seed)
    rays = batch_rays(
        node.environment.position,
        node.environment.obstruction_map,
        ADSB_FREQ_HZ,
        squitters,
    )
    batch = batch_received_power_dbm(
        node.environment,
        node.antenna,
        squitters,
        rays,
        rng_b,
        link.rician_k_db,
        link.coherence_time_s,
    )
    assert batch.dbm.shape == (squitters.n,)
    assert np.max(np.abs(batch.dbm - scalar_dbm)) < 1e-9
    assert rng_b.bit_generator.state == rng_s.bit_generator.state


class TestPowersFromTables:
    def test_aircraft_with_no_events(self, world):
        squitters = build_batch_squitters(
            world.traffic, 0.0, 10.0, np.random.default_rng(2)
        )
        # Aircraft 0, 7 and the last one fall silent in this capture.
        silent = [0, 7, len(world.traffic.aircraft) - 1]
        keep = ~np.isin(squitters.aircraft_idx, silent)
        gapped = _subset(squitters, keep)
        assert not np.isin(gapped.aircraft_idx, silent).any()
        _assert_powers_match_scalar(world, gapped, seed=31)

    def test_window_starting_at_17_s(self, world):
        squitters = build_batch_squitters(
            world.traffic, 17.0, 29.0, np.random.default_rng(3)
        )
        node = world.node_at("rooftop")
        link = AdsbLinkModel(env=node.environment, rx_antenna=node.antenna)
        assert squitters.time_s.min() // link.coherence_time_s > 0
        _assert_powers_match_scalar(world, squitters, seed=32)

    def test_one_event_capture(self, world):
        squitters = build_batch_squitters(
            world.traffic, 0.0, 10.0, np.random.default_rng(4)
        )
        one = _subset(squitters, [squitters.n // 2])
        assert one.n == 1
        _assert_powers_match_scalar(world, one, seed=33)
