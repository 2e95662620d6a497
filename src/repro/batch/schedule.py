"""Batched squitter schedule: the population's transmissions as arrays.

The scalar path (``TrafficSimulator.squitters_between``) materializes a
``SquitterEvent`` object per transmission — frame included — before the
link model has said whether the squitter is even receivable. Here the
schedule is flat arrays (times, positions, velocities, kinds), frames
are NOT built, and the engine constructs Python frame objects only for
the thresholded subset.

RNG discipline: the scalar path draws one uniform jitter per event, per
(aircraft, kind) block, aircraft in construction order, kinds in
``position, velocity, identification, acquisition`` order. This
module lays every block's tick grid out in exactly that order and
draws the whole capture's jitter as ONE ``rng.uniform`` call with
per-event bounds: numpy Generators fill batched draws in sequence
order, array bounds or scalar, so n batched draws consume the bit
stream identically to n scalar draws.

Sort discipline: the scalar path stable-sorts each aircraft's events by
time, then stable-sorts the concatenation. A single stable argsort of
the (aircraft-major, kind-block-minor) concatenation yields the same
permutation: ties keep concatenation order either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.adsb.transponder import SQUITTER_KINDS
from repro.airspace.aircraft import MS_TO_KT
from repro.airspace.traffic import TrafficSimulator
from repro.airspace.trajectories import sample_routes
from repro.engines.pathcache import StageValue, get_path_cache

#: Kind indices into :data:`KIND_INTERVALS`.
KIND_POSITION = 0
KIND_VELOCITY = 1
KIND_IDENTIFICATION = 2
KIND_ACQUISITION = 3

#: Kinds in the scalar path's RNG-draw order.
KIND_INTERVALS = tuple(interval_s for _, interval_s in SQUITTER_KINDS)


@dataclass
class BatchSquitters(StageValue):
    """Every squitter of a capture, as time-sorted parallel arrays.

    A path-cached :class:`StageValue`: the arrays are read-only and
    ``key`` names the ``batch_schedule`` entry that produced them.

    Attributes:
        time_s: jittered transmission times, ascending.
        aircraft_idx: index into ``traffic.aircraft`` per event.
        kind_idx: squitter kind per event (``KIND_*`` constants).
        pos_seq: for position squitters, the event's index within its
            aircraft's position block in generation order — this is
            what determines the CPR even/odd parity; -1 otherwise.
        lat_deg / lon_deg / alt_m: transmitter position per event
            (longitudes normalized to [-180, 180)).
        east_kt / north_kt: ground-velocity components per event.
        tx_power_w: transponder output power per event.
    """

    time_s: np.ndarray
    aircraft_idx: np.ndarray
    kind_idx: np.ndarray
    pos_seq: np.ndarray
    lat_deg: np.ndarray
    lon_deg: np.ndarray
    alt_m: np.ndarray
    east_kt: np.ndarray
    north_kt: np.ndarray
    tx_power_w: np.ndarray

    @property
    def n(self) -> int:
        return int(self.time_s.size)


def traffic_content_token(traffic: TrafficSimulator) -> tuple:
    """The content that determines a population's squitter schedule.

    Compact arrays (fast to hash) covering everything the schedule
    and the sampled trajectories depend on — deliberately EXCLUDING
    the transponder's mutable CPR parity state, which affects frame
    bits but never the schedule. Computed fresh on every call
    (sub-ms for a fleet-sized population) so in-place mutations of
    the traffic are always observed; memoizing by object identity
    would hide them.
    """
    aircraft = traffic.aircraft
    return (
        np.array(
            [ac.transponder.icao.value for ac in aircraft],
            dtype=np.int64,
        ),
        "\0".join(ac.transponder.callsign for ac in aircraft),
        np.array(
            [
                (
                    ac.transponder.tx_power_w,
                    ac.transponder.jitter_s,
                    ac.route.start.lat_deg,
                    ac.route.start.lon_deg,
                    ac.route.start.alt_m,
                    ac.route.track_deg,
                    ac.route.speed_ms,
                    ac.route.start_time_s,
                )
                for ac in aircraft
            ],
            dtype=np.float64,
        ),
    )


def build_batch_squitters(
    traffic: TrafficSimulator,
    t0_s: float,
    t1_s: float,
    rng: np.random.Generator,
) -> BatchSquitters:
    """The population's schedule in [t0, t1) as sorted arrays.

    Consumes exactly the jitter draws ``traffic.squitters_between``
    would, in the same order, and returns events in the same sorted
    order (ties included). The stage draws jitter, so its path-cache
    entry keys on the RNG bit-stream position; a hit replays the
    arrays and fast-forwards the generator past the jitter draws.
    """
    cache = get_path_cache()
    return cache.get_or_compute_rng(
        (
            "batch_schedule",
            traffic_content_token(traffic),
            t0_s,
            t1_s,
        ),
        rng,
        cache.stamping(
            lambda: _build_batch_squitters_compute(traffic, t0_s, t1_s, rng)
        ),
    )


def _build_batch_squitters_compute(
    traffic: TrafficSimulator,
    t0_s: float,
    t1_s: float,
    rng: np.random.Generator,
) -> BatchSquitters:
    if t1_s < t0_s:
        raise ValueError(f"bad interval [{t0_s}, {t1_s})")
    aircraft = traffic.aircraft
    n_kinds = len(KIND_INTERVALS)

    # Per (aircraft, kind) block, aircraft-major: each tick grid's
    # phase, first index and length, with the scalar path's float ops.
    interval = np.tile(KIND_INTERVALS, len(aircraft))
    icao = np.array(
        [ac.transponder.icao.value for ac in aircraft], dtype=np.int64
    )
    phase = np.repeat(icao % 997, n_kinds) / 997.0 * interval
    k0 = np.ceil((t0_s - phase) / interval)
    n_max = np.maximum(
        0, np.ceil((t1_s - phase) / interval) - k0 + 2
    ).astype(np.int64)

    # Expand every grid at once; ``offset`` is a tick's index within
    # its block.
    block = np.repeat(np.arange(interval.size), n_max)
    offset = np.arange(block.size) - np.repeat(
        np.cumsum(n_max) - n_max, n_max
    )
    ts = phase[block] + (k0[block] + offset) * interval[block]
    keep = ts < t1_s
    ts = ts[keep]
    block = block[keep]
    offset = offset[keep]
    aircraft_idx = block // n_kinds
    kind_idx = block % n_kinds

    # One jitter draw for the whole capture, in block order.
    jitter = np.array(
        [ac.transponder.jitter_s for ac in aircraft], dtype=np.float64
    )[aircraft_idx]
    u = rng.uniform(-jitter, jitter)
    t = np.minimum(np.maximum(ts + u, t0_s), t1_s - 1e-9)

    lat, lon, track = sample_routes(
        [ac.route for ac in aircraft], aircraft_idx, t
    )
    speed = np.array([ac.route.speed_ms for ac in aircraft])[aircraft_idx]
    track_rad = np.radians(track)
    east_kt = speed * np.sin(track_rad) * MS_TO_KT
    north_kt = speed * np.cos(track_rad) * MS_TO_KT
    alt = np.array([ac.route.start.alt_m for ac in aircraft])
    power = np.array([ac.transponder.tx_power_w for ac in aircraft])

    order = np.argsort(t, kind="stable")
    aircraft_idx = aircraft_idx[order]
    return BatchSquitters(
        time_s=t[order],
        aircraft_idx=aircraft_idx,
        kind_idx=kind_idx[order],
        pos_seq=np.where(kind_idx == KIND_POSITION, offset, -1)[order],
        lat_deg=lat[order],
        lon_deg=lon[order],
        alt_m=alt[aircraft_idx],
        east_kt=east_kt[order],
        north_kt=north_kt[order],
        tx_power_w=power[aircraft_idx],
    )
