"""Batch execution of the §3.1 directional scan.

``DirectionalEvaluator.run`` dispatches here by default. The scalar
pipeline (``run_scalar``) handles one squitter at a time; this engine
runs the same capture as five array passes:

1. schedule + positions as arrays over the world's shared tick grid
   (no frame objects built);
2. ray geometry + obstruction per event;
3. received power for every event with one batched RNG call;
4. threshold mask — only the surviving events get frames, synthesized
   as one uint8 matrix (:mod:`repro.batch.frames`), and only their
   velocity squitters get a track;
5. one vectorized decoder pass (`decode_frame_matrix`) and bincount
   tallies.

The per-aircraft CPR parity bookkeeping the scalar path does while
building every position frame is reproduced arithmetically: position
frame k of an aircraft uses parity ``initial ^ (k odd)``, and the
transponder's parity state is advanced afterwards exactly as if every
frame had been built.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.adsb.decoder import Dump1090Decoder
from repro.adsb.icao import IcaoAddress
from repro.adsb.messages import identification_me_bits
from repro.airspace.trajectories import GreatCircleRoute
from repro.batch.frames import (
    pack_frame_matrix,
    position_me_bits,
    velocity_me_bits,
)
from repro.batch.geomcache import batch_rays
from repro.batch.links import batch_received_power_dbm
from repro.batch.schedule import (
    KIND_ACQUISITION,
    KIND_IDENTIFICATION,
    KIND_POSITION,
    KIND_VELOCITY,
    BatchSquitters,
    build_batch_squitters,
    squitter_velocity_kt,
)
from repro.core.observations import DirectionalScan
from repro.engines.pathcache import get_path_cache
from repro.environment.links import ADSB_FREQ_HZ, AdsbLinkModel
from repro.geo.coords import GeoPoint
from repro.interference.collisions import (
    CollisionStats,
    frame_durations_s,
    resolve_collisions,
)

if TYPE_CHECKING:
    from repro.core.directional import DirectionalEvaluator


def run_directional_scan_batch(
    evaluator: "DirectionalEvaluator", rng: np.random.Generator
) -> DirectionalScan:
    """Run one full directional evaluation through the batch engine.

    Consumes the RNG exactly as ``run_scalar`` does (jitter draws,
    then link draws, then the ground-truth query), so a fixed seed
    yields the same decode set on both paths.
    """
    from repro.core.directional import _AircraftTally

    node = evaluator.node
    link = AdsbLinkModel(
        env=node.environment, rx_antenna=node.antenna
    )
    threshold = evaluator.decode_threshold_dbm()

    squitters = build_batch_squitters(
        evaluator.traffic, 0.0, evaluator.duration_s, rng
    )
    aircraft = evaluator.traffic.aircraft
    rays = batch_rays(
        node.environment.position,
        node.environment.obstruction_map,
        ADSB_FREQ_HZ,
        squitters,
    )
    rx_power = batch_received_power_dbm(
        node.environment,
        node.antenna,
        squitters,
        rays,
        rng,
        link.rician_k_db,
        link.coherence_time_s,
    )

    initial_parity = np.array(
        [ac.transponder._odd_next for ac in aircraft], dtype=bool
    )
    icao_by_ac = np.array(
        [ac.transponder.icao.value for ac in aircraft],
        dtype=np.int64,
    )
    callsigns = tuple(ac.transponder.callsign for ac in aircraft)
    routes = tuple(ac.route for ac in aircraft)
    if evaluator.interference_enabled():
        assert evaluator.interference is not None
        interference_params: Optional[Tuple[float, float]] = (
            evaluator.noise_floor_dbm(),
            evaluator.interference.capture_margin_db,
        )
    else:
        interference_params = None

    # Frame synthesis + CRC decode are deterministic given the event
    # set, powers, and CPR parity snapshot. Events and powers enter
    # the key as their stage tokens (the events' token is their
    # batch_schedule key, which covers the routes the velocity frames
    # are computed from); the parity joins it (it
    # alternates between two states across repeated runs, so at most
    # two variants get cached and later rounds replay fully).
    decoded_count, uniq, n_messages, rssi_sums, collision_stats = (
        get_path_cache().get_or_compute(
            (
                "batch_decode",
                squitters,
                rx_power,
                threshold,
                initial_parity,
                icao_by_ac,
                "\0".join(callsigns),
                interference_params,
                node.position,
                node.sdr,
            ),
            lambda: _decode_stage(
                squitters,
                rx_power.dbm,
                threshold,
                initial_parity,
                icao_by_ac,
                callsigns,
                routes,
                interference_params,
                node.position,
                node.sdr,
            ),
        )
    )
    per_aircraft: Dict[IcaoAddress, _AircraftTally] = {}
    for u, c, s in zip(
        uniq.tolist(), n_messages.tolist(), rssi_sums.tolist()
    ):
        per_aircraft[IcaoAddress(int(u))] = _AircraftTally(
            n_messages=int(c), rssi_sum_dbfs=float(s)
        )

    # Advance every transponder's CPR parity as if all position frames
    # had been built, keeping object state identical to a scalar run.
    n_pos = np.bincount(
        squitters.aircraft_idx[squitters.kind_idx == KIND_POSITION],
        minlength=len(aircraft),
    )
    for a, ac in enumerate(aircraft):
        ac.transponder._odd_next = bool(initial_parity[a]) ^ (
            int(n_pos[a]) % 2 == 1
        )

    return evaluator._finalize(
        per_aircraft,
        decoded_count,
        rng,
        collision_stats=collision_stats,
    )


def _decode_stage(
    squitters: BatchSquitters,
    rx_dbm: np.ndarray,
    threshold: float,
    initial_parity: np.ndarray,
    icao_by_ac: np.ndarray,
    callsigns: Tuple[str, ...],
    routes: Tuple[GreatCircleRoute, ...],
    interference_params: Optional[Tuple[float, float]],
    receiver_position: GeoPoint,
    sdr,
) -> Tuple[
    int, np.ndarray, np.ndarray, np.ndarray, Optional[CollisionStats]
]:
    """Threshold, synthesize, and decode one capture's frames.

    Returns ``(decoded_count, unique icao24 values, message counts,
    RSSI sums, collision stats)`` — the pure-array products the
    caller folds into per-aircraft tallies.
    """
    collision_stats: Optional[CollisionStats] = None
    if interference_params is not None:
        noise_dbm, capture_margin_db = interference_params
        decodable, collision_stats = resolve_collisions(
            squitters.time_s,
            frame_durations_s(squitters.kind_idx),
            rx_dbm,
            threshold,
            noise_dbm,
            capture_margin_db,
        )
        sel = np.flatnonzero(decodable)
    else:
        sel = np.flatnonzero(rx_dbm >= threshold)

    decoded_count = 0
    uniq = np.empty(0, dtype=np.int64)
    n_messages = np.empty(0, dtype=np.int64)
    rssi_sums = np.empty(0, dtype=np.float64)
    if sel.size:
        ai = squitters.aircraft_idx[sel]
        kind = squitters.kind_idx[sel]

        me64 = np.zeros(sel.size, dtype=np.uint64)
        pos_m = kind == KIND_POSITION
        if pos_m.any():
            odd = initial_parity[ai[pos_m]] ^ (
                squitters.pos_seq[sel][pos_m] % 2 == 1
            )
            me64[pos_m] = position_me_bits(
                squitters.lat_deg[sel][pos_m],
                squitters.lon_deg[sel][pos_m],
                squitters.alt_m[sel][pos_m] / 0.3048,
                odd,
            )
        vel_m = kind == KIND_VELOCITY
        if vel_m.any():
            me64[vel_m] = velocity_me_bits(
                *squitter_velocity_kt(routes, squitters, sel[vel_m])
            )
        id_m = kind == KIND_IDENTIFICATION
        if id_m.any():
            ident_me = np.zeros(len(callsigns), dtype=np.uint64)
            for a in np.unique(ai[id_m]).tolist():
                ident_me[a] = identification_me_bits(callsigns[a])
            me64[id_m] = ident_me[ai[id_m]]

        data, lengths = pack_frame_matrix(
            kind != KIND_ACQUISITION, icao_by_ac[ai], me64
        )
        times = squitters.time_s[sel]
        decoder = Dump1090Decoder(receiver_position=receiver_position)
        result = decoder.decode_frame_matrix(data, lengths, times)

        rssi_dbfs = sdr.input_dbm_to_dbfs_array(rx_dbm[sel])
        dec = result.decoded
        decoded_count = int(dec.sum())
        uniq, inverse = np.unique(
            result.icao24[dec], return_inverse=True
        )
        n_messages = np.bincount(inverse)
        # bincount accumulates in row order — the same per-aircraft
        # time-ordered float additions the scalar tally performs.
        rssi_sums = np.bincount(inverse, weights=rssi_dbfs[dec])
    return decoded_count, uniq, n_messages, rssi_sums, collision_stats
