"""Batched squitter schedule: the population's transmissions as arrays.

The scalar path (``TrafficSimulator.squitters_between``) materializes a
``SquitterEvent`` object per transmission — frame included — before the
link model has said whether the squitter is even receivable. Here the
schedule is flat arrays (times, positions, kinds), frames are NOT
built, and the engine constructs Python frame objects — and the
velocity of velocity squitters — only for the thresholded subset.

World grid: every node of a world hears the same sky, so the
RNG-free part of the schedule — each (aircraft, kind) block's tick
times and the per-event route and transponder constants — is one
path-cached :class:`TickGrid` per (traffic content, window). A node
adds only its jitter draw, the clamp, the great-circle positions and
the sort.

RNG discipline: the scalar path draws one uniform jitter per event, per
(aircraft, kind) block, aircraft in construction order, kinds in
``position, velocity, identification, acquisition`` order. The grid
lays every block's ticks out in exactly that order and the node draws
the whole capture's jitter as ONE ``rng.uniform`` call with per-event
bounds: numpy Generators fill batched draws in sequence order, array
bounds or scalar, so n batched draws consume the bit stream
identically to n scalar draws.

Sort discipline: the scalar path stable-sorts each aircraft's events by
time, then stable-sorts the concatenation. A stable argsort of the
(aircraft-major, kind-block-minor) concatenation yields the same
permutation: ties keep concatenation order either way. The schedule
gets that permutation from the faster default sort by putting every
run of equal times back in concatenation order.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

import numpy as np

from repro.adsb.transponder import SQUITTER_KINDS
from repro.airspace.aircraft import MS_TO_KT
from repro.airspace.traffic import TrafficSimulator
from repro.airspace.trajectories import (
    GreatCircleRoute,
    RouteLegs,
    route_tracks_deg,
    sample_routes,
)
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
        tx_power_w: transponder output power per event.
    """

    time_s: np.ndarray
    aircraft_idx: np.ndarray
    kind_idx: np.ndarray
    pos_seq: np.ndarray
    lat_deg: np.ndarray
    lon_deg: np.ndarray
    alt_m: np.ndarray
    tx_power_w: np.ndarray

    @property
    def n(self) -> int:
        return int(self.time_s.size)


#: The token of the traffic a :func:`single_traffic_token` block on
#: this thread is scanning, as ``(traffic, token)``.
_scoped_token = threading.local()


def traffic_content_token(traffic: TrafficSimulator) -> tuple:
    """The content that determines a population's squitter schedule.

    Compact arrays (fast to hash) covering everything the schedule
    and the sampled trajectories depend on — deliberately EXCLUDING
    the transponder's mutable CPR parity state, which affects frame
    bits but never the schedule. Computed fresh on every call
    (sub-ms for a fleet-sized population) so in-place mutations of
    the traffic are always observed; memoizing by object identity
    would hide them. The one exception is inside
    :func:`single_traffic_token`, which builds it once for a run that
    does not mutate the traffic.
    """
    scoped = getattr(_scoped_token, "value", None)
    if scoped is not None and scoped[0] is traffic:
        return scoped[1]
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


@contextmanager
def single_traffic_token(traffic: TrafficSimulator) -> Iterator[None]:
    """Build ``traffic``'s content token once for the enclosed block.

    A directional run keys both its schedule and its ground-truth
    query on the token and changes no content the token covers in
    between, so the block's calls on this thread share one build.
    """
    outer = getattr(_scoped_token, "value", None)
    _scoped_token.value = (traffic, traffic_content_token(traffic))
    try:
        yield
    finally:
        _scoped_token.value = outer


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
    token = traffic_content_token(traffic)
    return cache.get_or_compute_rng(
        ("batch_schedule", token, t0_s, t1_s),
        rng,
        cache.stamping(
            lambda: _build_batch_squitters_compute(
                traffic, token, t0_s, t1_s, rng
            )
        ),
    )


@dataclass(frozen=True)
class TickGrid:
    """The RNG-free part of a population's schedule in [t0, t1).

    Every (aircraft, kind) block's nominal tick times, aircraft-major
    and kind-minor (the scalar path's draw order), with the per-event
    constants the jittered schedule needs. Every node of a world
    hears the same sky, so the grid is path-cached per (traffic
    content, window) and shared; its arrays are read-only.

    Attributes:
        time_s: nominal (unjittered) tick times.
        aircraft_idx / kind_idx / pos_seq: as in :class:`BatchSquitters`.
        jitter_s: the transponder's jitter amplitude per event.
        tx_power_w: transponder output power per event.
        legs: the route constants per event, for :func:`sample_routes`.
    """

    time_s: np.ndarray
    aircraft_idx: np.ndarray
    kind_idx: np.ndarray
    pos_seq: np.ndarray
    jitter_s: np.ndarray
    tx_power_w: np.ndarray
    legs: RouteLegs

    def __post_init__(self) -> None:
        for array in (
            self.time_s,
            self.aircraft_idx,
            self.kind_idx,
            self.pos_seq,
            self.jitter_s,
            self.tx_power_w,
            *self.legs.arrays(),
        ):
            array.flags.writeable = False


def tick_grid(
    traffic: TrafficSimulator, token: tuple, t0_s: float, t1_s: float
) -> TickGrid:
    """The path-cached :class:`TickGrid` of ``traffic`` in [t0, t1).

    ``token`` is ``traffic_content_token(traffic)``, which covers
    every input of the grid: addresses (tick phases), jitter bounds,
    routes and transmit powers.
    """
    return get_path_cache().get_or_compute(
        ("batch_tick_grid", token, t0_s, t1_s),
        lambda: _tick_grid_compute(traffic, t0_s, t1_s),
    )


def _tick_grid_compute(
    traffic: TrafficSimulator, t0_s: float, t1_s: float
) -> TickGrid:
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
    block = block[keep]
    aircraft_idx = block // n_kinds
    kind_idx = block % n_kinds

    def per_event(values) -> np.ndarray:
        return np.array(list(values), dtype=np.float64)[aircraft_idx]

    return TickGrid(
        time_s=ts[keep],
        aircraft_idx=aircraft_idx,
        kind_idx=kind_idx,
        pos_seq=np.where(kind_idx == KIND_POSITION, offset[keep], -1),
        jitter_s=per_event(ac.transponder.jitter_s for ac in aircraft),
        tx_power_w=per_event(ac.transponder.tx_power_w for ac in aircraft),
        legs=RouteLegs.gather([ac.route for ac in aircraft], aircraft_idx),
    )


def _build_batch_squitters_compute(
    traffic: TrafficSimulator,
    token: tuple,
    t0_s: float,
    t1_s: float,
    rng: np.random.Generator,
) -> BatchSquitters:
    if t1_s < t0_s:
        raise ValueError(f"bad interval [{t0_s}, {t1_s})")
    grid = tick_grid(traffic, token, t0_s, t1_s)

    # One jitter draw for the whole capture, in block order.
    u = rng.uniform(-grid.jitter_s, grid.jitter_s)
    t = np.minimum(np.maximum(grid.time_s + u, t0_s), t1_s - 1e-9)
    lat, lon = sample_routes(grid.legs, t)

    order = _stable_time_order(t)
    return BatchSquitters(
        time_s=t[order],
        aircraft_idx=grid.aircraft_idx[order],
        kind_idx=grid.kind_idx[order],
        pos_seq=grid.pos_seq[order],
        lat_deg=lat[order],
        lon_deg=lon[order],
        alt_m=grid.legs.alt_m[order],
        tx_power_w=grid.tx_power_w[order],
    )


def _stable_time_order(t: np.ndarray) -> np.ndarray:
    """``np.argsort(t, kind="stable")``, from the faster default sort.

    The default sort may permute equal times; ties are common (events
    clamp to exactly t0 and t1 - 1e-9), so each run of equal times is
    put back in index order, which is the block-major order the
    stable sort keeps.
    """
    order = np.argsort(t)
    ts = t[order]
    tie = ts[1:] == ts[:-1]
    if not tie.any():
        return order
    in_run = np.zeros(t.size, dtype=bool)
    in_run[1:] = tie
    in_run[:-1] |= tie
    runs = np.flatnonzero(in_run)
    members = order[runs]
    order[runs] = members[np.lexsort((members, ts[runs]))]
    return order


def squitter_velocity_kt(
    routes: Sequence[GreatCircleRoute],
    squitters: BatchSquitters,
    sel: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Ground velocity ``(east_kt, north_kt)`` of the events ``sel``.

    ``routes`` are the routes of the traffic that produced
    ``squitters``, in aircraft order. The scalar path computes every
    event's track; the batch engine asks only for the velocity
    squitters it decodes.
    """
    ai = squitters.aircraft_idx[sel]
    track = route_tracks_deg(
        routes,
        ai,
        squitters.time_s[sel],
        squitters.lat_deg[sel],
        squitters.lon_deg[sel],
    )
    speed = np.array([r.speed_ms for r in routes], dtype=np.float64)[ai]
    track_rad = np.radians(track)
    east_kt = speed * np.sin(track_rad) * MS_TO_KT
    north_kt = speed * np.cos(track_rad) * MS_TO_KT
    return east_kt, north_kt
