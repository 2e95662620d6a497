"""Tests for the stream engine's sliding window.

The load-bearing property: every window close and every snapshot
reduces exactly the records the window holds, with the batch
estimators the rest of the pipeline trusts — so stream equals batch
exactly, after any interleaving of additions, ties, boundary-stamped
records, multi-window gaps and evictions.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adsb.icao import IcaoAddress
from repro.core.fov import SectorHistogramEstimator
from repro.core.network import TrustEvaluator
from repro.core.observations import AircraftObservation, DirectionalScan
from repro.geo.coords import GeoPoint
from repro.stream.engine import EngineConfig, OnlineCalibrationEngine
from repro.stream.online import OnlineSectorStats, SlidingWindow


def _obs(
    i: int,
    bearing_deg: float,
    range_km: float,
    received: bool,
    rssi: float = None,
) -> AircraftObservation:
    return AircraftObservation(
        icao=IcaoAddress(i + 1),
        callsign=f"OBS{i}",
        bearing_deg=bearing_deg,
        ground_range_m=range_km * 1000.0,
        elevation_deg=2.0,
        position=GeoPoint(37.9, -122.1, 9000.0),
        received=received,
        n_messages=3 if received else 0,
        mean_rssi_dbfs=rssi if received else None,
    )


def _random_obs(rng: np.random.Generator, i: int) -> AircraftObservation:
    return _obs(
        i,
        bearing_deg=float(rng.uniform(0.0, 360.0)),
        range_km=float(rng.uniform(0.0, 120.0)),
        received=bool(rng.random() < 0.6),
        rssi=float(rng.uniform(-60.0, -20.0)),
    )


def _scan(observations, ghosts=(), window_s=30.0):
    """The batch scan of a window holding these records."""
    observations = list(observations)
    return DirectionalScan(
        node_id="n",
        duration_s=window_s,
        radius_m=100_000.0,
        observations=observations,
        decoded_message_count=sum(
            o.n_messages for o in observations if o.received
        )
        + sum(n for _, n in ghosts),
        ghost_icaos=sorted(icao for icao, _ in ghosts),
    )


def _evidence(observations) -> int:
    floor = SectorHistogramEstimator().min_range_km
    return sum(1 for o in observations if o.ground_range_km >= floor)


def _engine(window_s=30.0, on_window_end=None):
    return OnlineCalibrationEngine(
        "n", EngineConfig(window_s=window_s), on_window_end=on_window_end
    )


class TestOnlineSectorStats:
    def test_matches_batch_on_static_set(self, rng):
        observations = [_random_obs(rng, i) for i in range(120)]
        engine = _engine()
        for i, obs in enumerate(observations):
            engine.add_observation(i * 0.1, obs)
        batch = SectorHistogramEstimator().estimate(_scan(observations))
        assert engine.snapshot().report.fov == batch

    def test_matches_batch_under_sliding_eviction(self, rng):
        """Slide a 50-record window over 300 observations; at every
        checkpoint the snapshot must equal a from-scratch batch run
        over the window's survivors."""
        observations = [_random_obs(rng, i) for i in range(300)]
        engine = _engine(window_s=24.5)
        checkpoints = 0
        for step, obs in enumerate(observations):
            engine.add_observation(step * 0.5, obs)
            if step % 37 == 0:
                window = observations[max(0, step - 49) : step + 1]
                batch = SectorHistogramEstimator().estimate(_scan(window))
                assert len(engine.window) == len(window)
                assert engine.snapshot().report.fov == batch
                checkpoints += 1
        assert checkpoints > 5

    def test_multipath_floor_excluded_from_evidence(self):
        engine = _engine(window_s=10.0)
        engine.add_observation(1.0, _obs(0, 10.0, 5.0, True, rssi=-40.0))
        engine.advance(10.0)
        engine.add_observation(11.0, _obs(1, 10.0, 5.0, True, rssi=-40.0))
        engine.add_observation(12.0, _obs(2, 10.0, 50.0, True, rssi=-40.0))
        engine.advance(20.0)
        assert [s.evidence for s in engine.summaries] == [0, 1]

    def test_remove_is_exact_inverse(self, rng):
        """Evicting everything leaves the empty window's verdicts."""
        observations = [_random_obs(rng, i) for i in range(60)]
        engine = _engine()
        for i, obs in enumerate(observations):
            engine.add_observation(i * 0.25, obs)
        engine.advance(90.0)
        assert len(engine.window) == 0
        empty = SectorHistogramEstimator().estimate(_scan([]))
        assert engine.snapshot().report.fov == empty
        assert engine.summaries[-1].evidence == 0
        assert engine.summaries[-1].open_fraction == 0.0


class TestOnlineTrustStats:
    """The trust checks the engine reports over its window."""

    def test_matches_batch_trust_evaluator(self, rng):
        observations = [_random_obs(rng, i) for i in range(80)]
        ghosts = [(IcaoAddress(0xF000 + i), 1) for i in range(4)]
        engine = _engine()
        for i, obs in enumerate(observations):
            engine.add_observation(i * 0.1, obs)
        for icao, n in ghosts:
            engine.add_ghost(8.0, icao, n)
        batch = TrustEvaluator().assess(_scan(observations, ghosts))
        assert engine.snapshot().trust.checks == batch.checks

    def test_ghost_eviction_reverses_fraction(self):
        engine = _engine()
        for i in range(6):
            engine.add_ghost(0.5, IcaoAddress(0xF000 + i), 2)
        for i in range(9):
            engine.add_observation(
                20.0, _obs(i, 10.0, 60.0, True, rssi=-40.0)
            )
        assert not engine.snapshot().trust.checks[0].passed
        engine.advance(40.0)
        snapshot = engine.snapshot()
        assert snapshot.trust.checks[0].passed
        assert snapshot.report.scan.ghost_icaos == []
        assert snapshot.report.scan.decoded_message_count == 9 * 3

    def test_empty_window_is_benign(self):
        checks = _engine().snapshot().trust.checks
        assert [c.name for c in checks] == [
            "ghost",
            "too_perfect",
            "rssi",
        ]
        assert all(c.passed for c in checks)


class TestSlidingWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            SlidingWindow(window_s=0.0)

    def test_eviction_expires_old_entries_only(self):
        window = SlidingWindow(window_s=30.0)
        window.add_observation(0.0, _obs(0, 10.0, 60.0, True, -40.0))
        window.add_ghost(5.0, IcaoAddress(0xBEEF))
        window.add_observation(20.0, _obs(1, 20.0, 60.0, True, -40.0))
        assert window.evict_until(40.0) == 2
        assert len(window) == 1
        scan = window.to_scan("n", 100_000.0)
        assert scan.ghost_icaos == []
        assert OnlineSectorStats().evidence(scan) == 1

    def test_entry_on_the_cutoff_survives(self):
        window = SlidingWindow(window_s=30.0)
        window.add_observation(10.0, _obs(0, 10.0, 60.0, True, -40.0))
        assert window.evict_until(40.0) == 0
        assert len(window) == 1

    def test_to_scan_shapes_batch_fields(self):
        window = SlidingWindow(window_s=30.0)
        window.add_observation(1.0, _obs(0, 10.0, 60.0, True, -40.0))
        window.add_ghost(2.0, IcaoAddress(0xBEEF), n_messages=4)
        scan = window.to_scan("node-1", 100_000.0)
        assert scan.node_id == "node-1"
        assert scan.decoded_message_count == 3 + 4
        assert scan.ghost_icaos == [IcaoAddress(0xBEEF)]
        assert len(scan.observations) == 1


class TestWindowCloses:
    def test_close_reduces_exactly_one_window(self):
        """A record stamped on a boundary belongs to the window that
        opens there, and is reduced at that window's close only."""
        engine = _engine(window_s=10.0)
        engine.add_observation(0.0, _obs(0, 10.0, 60.0, True, -40.0))
        engine.add_observation(10.0, _obs(1, 20.0, 60.0, True, -40.0))
        engine.add_observation(19.5, _obs(2, 30.0, 60.0, True, -40.0))
        engine.advance(30.0)
        assert [(s.end_s, s.evidence) for s in engine.summaries] == [
            (10.0, 1),
            (20.0, 2),
            (30.0, 0),
        ]

    def test_ghost_flush_lands_in_the_closing_window(self):
        """Ghosts flushed at a close join the closing window and
        expire with it."""
        icao = IcaoAddress(0xC0FFEE)

        def flush(boundary_s):
            if boundary_s == 10.0:
                engine.window.add_ghost(
                    engine.ghost_time_for_boundary(boundary_s), icao, 5
                )

        engine = _engine(window_s=10.0, on_window_end=flush)
        engine.add_observation(2.0, _obs(0, 10.0, 60.0, True, -40.0))
        engine.advance(10.0)
        scan = engine.snapshot().report.scan
        assert scan.ghost_icaos == [icao]
        assert scan.decoded_message_count == 3 + 5
        engine.advance(19.9)
        scan = engine.snapshot().report.scan
        assert scan.ghost_icaos == [icao]
        assert scan.observations == []
        engine.advance(20.0)
        assert engine.snapshot().report.scan.ghost_icaos == []

    def test_multi_window_gap_closes_empty_windows(self):
        engine = _engine(window_s=10.0)
        engine.add_observation(1.0, _obs(0, 10.0, 60.0, True, -40.0))
        engine.add_observation(45.0, _obs(1, 10.0, 60.0, True, -40.0))
        assert [(s.end_s, s.evidence) for s in engine.summaries] == [
            (10.0, 1),
            (20.0, 0),
            (30.0, 0),
            (40.0, 0),
        ]
        assert len(engine.window) == 1


# ----------------------------------------------------------------------
# property: stream == batch at every close and at the final snapshot

_WINDOW_S = 10.0
_HALVES_PER_WINDOW = 20

#: ``(bearing_deg, range_km, received, rssi)`` for :func:`_obs`.
_observations = st.tuples(
    st.floats(0.0, 359.99),
    st.floats(0.0, 120.0),
    st.booleans(),
    st.one_of(st.none(), st.floats(-60.0, -20.0)),
)

#: Time steps in half-seconds: ties (0), short steps, multi-window
#: gaps, or ``None`` to land exactly on the next window boundary.
_steps = st.one_of(
    st.just(0), st.integers(1, 12), st.integers(20, 70), st.none()
)

_events = st.lists(
    st.tuples(
        _steps,
        st.one_of(
            st.tuples(st.just("obs"), _observations),
            st.tuples(st.just("ghost"), st.integers(1, 8)),
            # decoded but unmatched: flushed as a ghost at the next close
            st.tuples(st.just("tally"), st.integers(1, 8)),
            st.tuples(st.just("beat"), st.none()),
        ),
    ),
    max_size=60,
)


def _feed(events):
    """Run events through an engine; return it, the model's log of
    ``(time_s, observation or (icao, n_messages))`` window entries,
    and the stream's last time."""
    log = []
    pending = []
    tallies = []

    def flush(boundary_s):
        stamp = engine.ghost_time_for_boundary(boundary_s)
        for icao, n in sorted(pending):
            engine.window.add_ghost(stamp, icao, n)
        pending.clear()

    engine = _engine(window_s=_WINDOW_S, on_window_end=flush)
    halves = 0
    for i, (step, (kind, payload)) in enumerate(events):
        if step is None:
            halves = (halves // _HALVES_PER_WINDOW + 1) * _HALVES_PER_WINDOW
        else:
            halves += step
        t = halves * 0.5
        if kind == "obs":
            bearing, range_km, received, rssi = payload
            obs = _obs(i, bearing, range_km, received, rssi)
            engine.add_observation(t, obs)
            log.append((t, obs))
        elif kind == "ghost":
            icao = IcaoAddress(0xF00000 + i)
            engine.add_ghost(t, icao, payload)
            log.append((t, (icao, payload)))
        elif kind == "tally":
            engine.advance(t)
            icao = IcaoAddress(0xE00000 + i)
            pending.append((icao, payload))
            # Flushed just inside the window that closes next.
            closes_at = (t // _WINDOW_S + 1) * _WINDOW_S
            tallies.append((closes_at, (icao, payload)))
        else:
            engine.advance(t)
    end_s = halves * 0.5
    log.extend(
        (math.nextafter(closes_at, -math.inf), ghost)
        for closes_at, ghost in tallies
        if closes_at <= end_s
    )
    return engine, log, end_s


def _window_scan(log, start_s, end_s):
    observations = []
    ghosts = []
    for t, entry in log:
        if start_s <= t < end_s:
            if isinstance(entry, AircraftObservation):
                observations.append(entry)
            else:
                ghosts.append(entry)
    return _scan(observations, ghosts, window_s=_WINDOW_S)


class TestStreamEqualsBatch:
    @settings(max_examples=200, deadline=None)
    @given(_events)
    def test_every_close_and_snapshot_equal_batch(self, events):
        engine, log, end_s = _feed(events)
        closes = [
            k * _WINDOW_S
            for k in range(1, int(end_s // _WINDOW_S) + 1)
        ]
        assert [s.end_s for s in engine.summaries] == closes
        for summary in engine.summaries:
            scan = _window_scan(
                log, summary.end_s - _WINDOW_S, summary.end_s
            )
            batch = SectorHistogramEstimator().estimate(scan)
            assert summary.evidence == _evidence(scan.observations)
            assert summary.open_fraction == batch.open_fraction()

        scan = _window_scan(log, end_s - _WINDOW_S, math.inf)
        snapshot = engine.snapshot()
        assert len(engine.window) == len(scan.observations) + len(
            scan.ghost_icaos
        )
        assert snapshot.report.scan.observations == scan.observations
        assert snapshot.report.scan.ghost_icaos == scan.ghost_icaos
        assert (
            snapshot.report.scan.decoded_message_count
            == scan.decoded_message_count
        )
        assert snapshot.report.fov == SectorHistogramEstimator().estimate(
            scan
        )
        assert snapshot.trust.checks == TrustEvaluator().assess(scan).checks
