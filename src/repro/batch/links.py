"""Batch 1090 MHz link engine: every squitter's power in one pass.

Replicates :class:`repro.environment.links.AdsbLinkModel` draw for
draw. The scalar model consumes, per event in time order:

1. a shadowing candidate ``normal(0, shadow_sigma)`` — ``setdefault``
   evaluates its argument eagerly, so this is drawn on EVERY event and
   discarded unless the event is its aircraft's first;
2. a leakage candidate ``normal(0, leak_sigma)`` — same eager draw;
3. iff the event opens a new (aircraft, coherence-block) fading key:
   two normals (Rician I then Q).

``Generator.normal(loc, scale)`` is ``loc + scale*standard_normal()``
and a batched ``standard_normal(n)`` consumes the bit stream exactly
like n scalar calls, so the whole capture's randomness is ONE
``standard_normal(total)`` call indexed by per-event offsets. This is
the draw-order discipline documented in docs/performance.md; the
equivalence suite holds it to fixed-seed agreement with the scalar
path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.batch.geomcache import BatchRays
from repro.batch.schedule import BatchSquitters
from repro.engines.pathcache import StageValue, get_path_cache
from repro.environment.links import ADSB_FREQ_HZ
from repro.environment.site import SiteEnvironment
from repro.rf.fading import rician_fading_db_from_normals
from repro.rf.pathloss import free_space_path_loss_db_array
from repro.sdr.antenna import Antenna


@dataclass
class BatchPower(StageValue):
    """Received power at the SDR input per event, in dBm (read-only)."""

    dbm: np.ndarray


def batch_received_power_dbm(
    env: SiteEnvironment,
    rx_antenna: Antenna,
    squitters: BatchSquitters,
    rays: BatchRays,
    rng: np.random.Generator,
    rician_k_db: float,
    coherence_time_s: float,
) -> BatchPower:
    """Received power at the SDR input for every event, in dBm.

    Events must be time-sorted (as :func:`build_batch_squitters`
    returns them); the RNG is advanced exactly as the scalar model
    would advance it over the same events. The stage consumes
    randomness, so its path-cache entry keys on the generator's
    bit-stream position alongside the static content — a hit replays
    the stored powers and fast-forwards the RNG to the saved
    post-stage state. The events and their rays enter the key as
    their stage tokens.
    """
    if squitters.n == 0:
        return BatchPower(np.empty(0, dtype=np.float64))
    cache = get_path_cache()
    return cache.get_or_compute_rng(
        (
            "batch_rx_power",
            env.shadowing_sigma_db,
            env.leakage_sigma_db,
            env.leakage_base_db,
            rx_antenna,
            squitters,
            rays,
            rician_k_db,
            coherence_time_s,
        ),
        rng,
        cache.stamping(
            lambda: _received_power_compute(
                env,
                rx_antenna,
                squitters,
                rays,
                rng,
                rician_k_db,
                coherence_time_s,
            )
        ),
    )


def _received_power_compute(
    env: SiteEnvironment,
    rx_antenna: Antenna,
    squitters: BatchSquitters,
    rays: BatchRays,
    rng: np.random.Generator,
    rician_k_db: float,
    coherence_time_s: float,
) -> BatchPower:
    n = squitters.n
    tx_dbm = 10.0 * np.log10(squitters.tx_power_w * 1000.0)
    path = free_space_path_loss_db_array(rays.slant_m, ADSB_FREQ_HZ)
    rx_gain = rx_antenna.gain_at_array(ADSB_FREQ_HZ, rays.azimuth_deg)
    unobstructed_dbm = tx_dbm - path + rx_gain

    ai = squitters.aircraft_idx
    block = np.floor_divide(
        squitters.time_s, coherence_time_s
    ).astype(np.int64)
    b_min = int(block.min())
    b_span = int(block.max()) - b_min + 1
    n_keys = int(ai.max()) + 1
    fade_key = ai * b_span + (block - b_min)
    first_by_key = first_occurrence(fade_key, n_keys * b_span)
    is_new_fade = first_by_key[fade_key] == np.arange(n)
    # An aircraft's first event opens its earliest fading key.
    first = first_by_key.reshape(n_keys, b_span).min(axis=1)

    # One batched draw covering the whole capture: 2 candidates per
    # event + 2 Rician quadratures per new fading key, laid out in
    # event order. So event i's draws start at 2 * i plus 2 per key
    # opened before it; only the key-opening events' offsets are read.
    opened = np.flatnonzero(is_new_fade)
    new = 2 * opened + 2 * np.arange(opened.size)
    z = rng.standard_normal(2 * n + 2 * opened.size)

    # Every event reads its aircraft's first-event candidates, so the
    # shadowing and the leakage path's relative power are per-aircraft
    # values. A first event opens a key; an aircraft without events
    # reads event 0's, unused.
    a_first = new[np.searchsorted(opened, np.where(first < n, first, 0))]
    shadow = (env.shadowing_sigma_db * z[a_first])[ai]
    leak = env.leakage_sigma_db * z[a_first + 1]
    leakage_power = relative_power(env.leakage_base_db + leak)[ai]
    # Fading once per key, at the event that opened it.
    fade_by_key = np.empty(n_keys * b_span, dtype=np.float64)
    fade_by_key[fade_key[opened]] = rician_fading_db_from_normals(
        z[new + 2], z[new + 3], rician_k_db
    )
    fade = fade_by_key[fade_key]

    return BatchPower(
        received_power_dbm(
            unobstructed_dbm, rays.obstruction_db, shadow, leakage_power, fade
        )
    )


def first_occurrence(keys: np.ndarray, n_keys: int) -> np.ndarray:
    """Dense table: the first index of each key in ``keys``.

    ``keys`` are integers in [0, n_keys); a key that never occurs
    maps to ``keys.size``.
    """
    first = np.full(n_keys, keys.size, dtype=np.int64)
    np.minimum.at(first, keys, np.arange(keys.size))
    return first


def relative_power(extra_db: np.ndarray) -> np.ndarray:
    """A path's power relative to the unobstructed path.

    ``extra_db`` is the path's loss beyond free space; a negative
    extra counts as none: ``10 ** (-max(extra, 0) / 10)``.
    """
    return 10.0 ** (-np.maximum(extra_db, 0.0) / 10.0)


def received_power_dbm(
    unobstructed_dbm: np.ndarray,
    obstruction_db: np.ndarray,
    shadow_db: np.ndarray,
    leakage_power: np.ndarray,
    fade_db: np.ndarray,
) -> np.ndarray:
    """Combine direct and leakage paths into per-event power (dBm).

    The :class:`~repro.environment.links.AdsbLinkModel` combination:
    the obstructed direct path (shadowing applied) in parallel with
    the urban leakage path (``leakage_power`` per event, from
    :func:`relative_power`), leakage ignored on clear rays, Rician
    fading added last. The combination is evaluated only on the
    obstructed rays; the ufuncs are elementwise, so each value equals
    the whole-array evaluation masked with ``np.where``.
    """
    effective_extra = obstruction_db - shadow_db
    blocked = np.flatnonzero(obstruction_db > 0.5)
    if blocked.size:
        effective_extra[blocked] = -10.0 * np.log10(
            relative_power(effective_extra[blocked]) + leakage_power[blocked]
        )
    return unobstructed_dbm - effective_extra + fade_db
