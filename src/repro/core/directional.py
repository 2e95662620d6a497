"""Directional reception evaluation (paper §3.1).

The procedure, verbatim from the paper: run the ADS-B decoder on the
sensor node for 30 seconds; 15 seconds in, retrieve all flights within
100 km from the ground-truth service; at the end, join the two sets on
ICAO address. Every ground-truth aircraft becomes an observation at
(bearing, range) marked received (≥1 decoded message) or missed —
the blue and gray points of Figure 1.

The physical path of every squitter is simulated: the transponder
emits a bit-exact DF17 frame, the link model computes its received
power through the site's obstruction map (with shadowing, multipath
leakage, and per-message fading), and frames that clear the decode
threshold go through the same dump1090-style decoder (CRC check, CPR
resolution) a real deployment would run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.adsb.decoder import Dump1090Decoder
from repro.adsb.icao import IcaoAddress
from repro.airspace.flightradar import FlightRadarService
from repro.airspace.traffic import TrafficSimulator
from repro.batch.schedule import (
    single_traffic_token,
    traffic_content_token,
)
from repro.core.observations import AircraftObservation, DirectionalScan
from repro.engines.pathcache import get_path_cache
from repro.environment.links import AdsbLinkModel, ray_geometry
from repro.geo.coords import GeoPoint
from repro.interference.collisions import (
    LONG_FRAME_DURATION_S,
    SHORT_FRAME_DURATION_S,
    CollisionStats,
    resolve_collisions_scalar,
)
from repro.interference.config import InterferenceConfig
from repro.node.sensor import SensorNode

#: Effective noise bandwidth of the 2 Msps ADS-B receive chain.
ADSB_BANDWIDTH_HZ = 2e6

#: SNR needed for preamble detection + correct bit slicing.
DECODE_SNR_DB = 10.0


@dataclass
class DirectionalEvaluator:
    """Runs the §3.1 measurement procedure against one node.

    Attributes:
        node: the sensor node under evaluation.
        traffic: simulated traffic picture around the node.
        ground_truth: the FlightRadar24-style service.
        duration_s: capture length (paper: 30 s).
        ground_truth_query_s: when the ground truth is queried
            (paper: 15 s into the measurement).
        radius_m: ground-truth query radius (paper: 100 km).
        use_batch: run the capture through the vectorized batch
            engine (:mod:`repro.batch`). The batch path is
            equivalence-tested against :meth:`run_scalar`: same seed,
            same decode set.
        interference: shared-medium collision model
            (:class:`repro.interference.InterferenceConfig`). ``None``
            or disabled keeps the single-transmitter pipeline
            bit-identical.
    """

    node: SensorNode
    traffic: TrafficSimulator
    ground_truth: FlightRadarService
    duration_s: float = 30.0
    ground_truth_query_s: float = 15.0
    radius_m: float = 100_000.0
    use_batch: bool = True
    interference: Optional[InterferenceConfig] = None

    def __post_init__(self) -> None:
        if self.duration_s <= 0.0:
            raise ValueError(
                f"duration must be positive: {self.duration_s}"
            )
        if not 0.0 <= self.ground_truth_query_s <= self.duration_s:
            raise ValueError(
                "ground-truth query time must fall inside the capture"
            )
        if self.radius_m <= 0.0:
            raise ValueError(f"radius must be positive: {self.radius_m}")

    def decode_threshold_dbm(self) -> float:
        """Minimum received power for a squitter to decode."""
        floor = self.node.sdr.noise_floor_dbm(ADSB_BANDWIDTH_HZ)
        return floor + DECODE_SNR_DB

    def noise_floor_dbm(self) -> float:
        """Receiver noise over the ADS-B bandwidth (SINR denominator)."""
        return self.node.sdr.noise_floor_dbm(ADSB_BANDWIDTH_HZ)

    def interference_enabled(self) -> bool:
        """Whether the shared-medium collision model is active."""
        return self.interference is not None and self.interference.enabled

    def run(self, rng: np.random.Generator) -> DirectionalScan:
        """Execute one full evaluation and return the scan.

        Dispatches to the vectorized batch engine unless
        ``use_batch`` is off; both paths consume the RNG identically
        and produce the same decode set for the same seed. The batch
        run's schedule and ground-truth query share one traffic
        content token.
        """
        if self.use_batch:
            from repro.batch.engine import run_directional_scan_batch

            with single_traffic_token(self.traffic):
                return run_directional_scan_batch(self, rng)
        return self.run_scalar(rng)

    def run_scalar(self, rng: np.random.Generator) -> DirectionalScan:
        """The per-squitter reference pipeline.

        Kept as the equivalence oracle for the batch engine (and for
        profiling): one Python object per squitter, one link-model
        call per event.
        """
        link = AdsbLinkModel(
            env=self.node.environment, rx_antenna=self.node.antenna
        )
        decoder = Dump1090Decoder(receiver_position=self.node.position)
        threshold = self.decode_threshold_dbm()

        per_aircraft: Dict[IcaoAddress, _AircraftTally] = {}
        decoded_count = 0
        collision_stats: Optional[CollisionStats] = None
        squitters = self.traffic.squitters_between(
            0.0, self.duration_s, rng
        )
        shared_medium = self.interference_enabled()
        decodable: Optional[List[bool]] = None
        powers_dbm: List[float] = []
        if shared_medium:
            # Two passes: the link draws happen first, in event order
            # (identical RNG consumption to the single-pass loop),
            # then the shared medium decides who survives.
            for event in squitters:
                powers_dbm.append(
                    link.message_received_power_dbm(
                        event.frame.icao,
                        GeoPoint(
                            event.lat_deg, event.lon_deg, event.alt_m
                        ),
                        event.tx_power_w,
                        rng,
                        time_s=event.time_s,
                    )
                )
            assert self.interference is not None
            decodable, collision_stats = resolve_collisions_scalar(
                [event.time_s for event in squitters],
                [
                    SHORT_FRAME_DURATION_S
                    if len(event.frame.data) == 7
                    else LONG_FRAME_DURATION_S
                    for event in squitters
                ],
                powers_dbm,
                threshold,
                self.noise_floor_dbm(),
                self.interference.capture_margin_db,
            )
        for i, event in enumerate(squitters):
            if shared_medium:
                assert decodable is not None
                if not decodable[i]:
                    continue
                rx_dbm = powers_dbm[i]
            else:
                tx_position = GeoPoint(
                    event.lat_deg, event.lon_deg, event.alt_m
                )
                rx_dbm = link.message_received_power_dbm(
                    event.frame.icao,
                    tx_position,
                    event.tx_power_w,
                    rng,
                    time_s=event.time_s,
                )
                if rx_dbm < threshold:
                    continue
            rssi_dbfs = self.node.sdr.input_dbm_to_dbfs(rx_dbm)
            message = decoder.decode_frame_bytes(
                event.frame.data, event.time_s, rssi_dbfs
            )
            if message is None:
                continue
            decoded_count += 1
            tally = per_aircraft.setdefault(
                message.icao, _AircraftTally()
            )
            tally.n_messages += 1
            tally.rssi_sum_dbfs += rssi_dbfs

        return self._finalize(
            per_aircraft,
            decoded_count,
            rng,
            collision_stats=collision_stats,
        )

    def _finalize(
        self,
        per_aircraft: Dict[IcaoAddress, "_AircraftTally"],
        decoded_count: int,
        rng: np.random.Generator,
        collision_stats: Optional[CollisionStats] = None,
    ) -> DirectionalScan:
        """Join decode tallies against ground truth into a scan.

        Shared tail of the scalar and batch paths: the ground-truth
        query (which may consume RNG draws) must happen after every
        link draw, in both paths, for seed equivalence.
        """
        reports = self._query_ground_truth(rng)
        # The per-report arrival geometry depends only on static
        # content (node position, reported positions), so warm runs
        # replay it from the path cache — same scalar math on a miss.
        geoms = get_path_cache().get_or_compute(
            (
                "finalize_geometry",
                self.node.position,
                np.array(
                    [
                        (
                            r.position.lat_deg,
                            r.position.lon_deg,
                            r.position.alt_m,
                        )
                        for r in reports
                    ],
                    dtype=np.float64,
                ),
            ),
            lambda: tuple(
                ray_geometry(self.node.position, report.position)
                for report in reports
            ),
        )
        observations: List[AircraftObservation] = []
        gt_icaos = set()
        for report, geom in zip(reports, geoms):
            gt_icaos.add(report.icao)
            tally = per_aircraft.get(report.icao)
            received = tally is not None and tally.n_messages > 0
            observations.append(
                AircraftObservation(
                    icao=report.icao,
                    callsign=report.callsign,
                    bearing_deg=geom.azimuth_deg,
                    ground_range_m=geom.ground_m,
                    elevation_deg=geom.elevation_deg,
                    position=report.position,
                    received=received,
                    n_messages=tally.n_messages if received else 0,
                    mean_rssi_dbfs=(
                        tally.mean_rssi_dbfs() if received else None
                    ),
                )
            )
        ghosts = [
            icao for icao in per_aircraft if icao not in gt_icaos
        ]
        return DirectionalScan(
            node_id=self.node.node_id,
            duration_s=self.duration_s,
            radius_m=self.radius_m,
            observations=observations,
            decoded_message_count=decoded_count,
            ghost_icaos=sorted(ghosts),
            collision_stats=collision_stats,
        )

    def _query_ground_truth(self, rng: np.random.Generator):
        """The §3.1 ground-truth snapshot, path-cached when RNG-free.

        ``FlightRadarService.query`` consumes no randomness when its
        coverage model is off (the default), making the report list a
        pure function of the traffic picture and the query — so warm
        runs replay it. Any nonzero miss rate consumes one draw per
        aircraft; those queries always execute.
        """
        if self.ground_truth.coverage_miss_rate > 0.0:
            return self.ground_truth.query(
                self.node.position,
                self.radius_m,
                self.ground_truth_query_s,
                rng,
            )
        return get_path_cache().get_or_compute(
            (
                "ground_truth_query",
                traffic_content_token(self.ground_truth.traffic),
                self.ground_truth.latency_s,
                self.node.position,
                self.radius_m,
                self.ground_truth_query_s,
            ),
            lambda: tuple(
                self.ground_truth.query(
                    self.node.position,
                    self.radius_m,
                    self.ground_truth_query_s,
                    rng,
                )
            ),
        )

    def run_repeated(
        self, n_runs: int, seed: int = 0
    ) -> List[DirectionalScan]:
        """Repeat the evaluation with independent randomness.

        The paper repeated its experiments "over 10 times ...
        obtaining similar results"; this is the hook the repeatability
        experiment uses.
        """
        if n_runs <= 0:
            raise ValueError(f"n_runs must be positive: {n_runs}")
        scans = []
        for i in range(n_runs):
            rng = np.random.default_rng(seed + i)
            scans.append(self.run(rng))
        return scans


@dataclass
class _AircraftTally:
    """Decoded-message statistics for one aircraft."""

    n_messages: int = 0
    rssi_sum_dbfs: float = 0.0

    def mean_rssi_dbfs(self) -> Optional[float]:
        if self.n_messages == 0:
            return None
        return self.rssi_sum_dbfs / self.n_messages
