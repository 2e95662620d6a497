"""Frequency-response evaluation (paper §3.2).

ADS-B characterizes a node at 1090 MHz only; this evaluation measures
known signals across the rest of the spectrum — cellular RSRP via the
srsUE-style scanner (Figure 3) and broadcast-TV channel power via the
GNU Radio-style meter (Figure 4) — and converts each into an
*excess attenuation* relative to what an unobstructed installation at
the same place would measure. The verifier can compute that reference
because transmitter locations and powers are public knowledge (tower
databases, station databases); the per-band excess is the quantity
that reveals how the obstructions found in §3.1 behave at other
frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cellular.cellmapper import TowerDatabase
from repro.cellular.scanner import CellMeasurement, SrsUeScanner
from repro.engines.pathcache import get_path_cache
from repro.environment.links import ray_geometry, ray_geometry_arrays
from repro.fm.meter import FmPowerMeter
from repro.fm.tower import FmTower
from repro.interference.aggregate import (
    dbfs_to_linear,
    dbm_to_mw,
    linear_to_dbfs,
    mw_to_dbm,
)
from repro.interference.config import InterferenceConfig
from repro.interference.sources import (
    cell_cochannel_interference_mw,
    tv_adjacent_interference_mw,
)
from repro.node.sensor import SensorNode
from repro.rf.pathloss import (
    free_space_path_loss_db,
    free_space_path_loss_db_multifreq,
)
from repro.sdr.antenna import WIDEBAND_700_2700, Antenna
from repro.tv.meter import TvPowerMeter
from repro.tv.tower import TvTower
from repro.tv.waveform import VSB_OCCUPIED_HZ

#: LTE resource-element bandwidth — one OFDM subcarrier. RSRP and the
#: co-channel interference it competes with are both per-RE figures.
LTE_RE_BANDWIDTH_HZ = 15e3


@dataclass(frozen=True)
class BandMeasurement:
    """One known-signal measurement, normalized to excess attenuation.

    Attributes:
        source: "cellular" or "tv".
        label: transmitter label ("Tower 1", "K22CC", ...).
        freq_hz: carrier frequency measured.
        measured: the raw reading (RSRP dBm for cellular, dBFS for
            TV), or None when the signal could not be decoded.
        expected: the unobstructed-installation reference in the same
            unit.
        excess_attenuation_db: expected - measured; None when not
            decodable (the attenuation exceeded the measurable range).
        decoded: whether the signal was received at all.
        interference_dbm: co-channel/adjacent-channel interferer power
            at the SDR input competing with this signal, when the run
            modelled interference and any interferer was present;
            ``None`` otherwise.
    """

    source: str
    label: str
    freq_hz: float
    measured: Optional[float]
    expected: float
    excess_attenuation_db: Optional[float]
    decoded: bool
    interference_dbm: Optional[float] = None


@dataclass
class FrequencyProfile:
    """The node's reception capability across frequency bands."""

    node_id: str
    measurements: List[BandMeasurement] = field(default_factory=list)

    def by_source(self, source: str) -> List[BandMeasurement]:
        return [m for m in self.measurements if m.source == source]

    def decoded(self) -> List[BandMeasurement]:
        return [m for m in self.measurements if m.decoded]

    def band(
        self, low_hz: float, high_hz: float
    ) -> List[BandMeasurement]:
        """Measurements whose carrier lies in [low, high]."""
        return [
            m
            for m in self.measurements
            if low_hz <= m.freq_hz <= high_hz
        ]

    def mean_excess_attenuation_db(
        self, low_hz: float = 0.0, high_hz: float = float("inf")
    ) -> Optional[float]:
        """Mean excess attenuation over decoded signals in a band.

        None when no signal in the band was decoded.
        """
        values = [
            m.excess_attenuation_db
            for m in self.band(low_hz, high_hz)
            if m.excess_attenuation_db is not None
        ]
        if not values:
            return None
        return float(np.mean(values))

    def decode_fraction(
        self, low_hz: float = 0.0, high_hz: float = float("inf")
    ) -> float:
        """Fraction of known signals in a band that decoded."""
        in_band = self.band(low_hz, high_hz)
        if not in_band:
            return 0.0
        return sum(1 for m in in_band if m.decoded) / len(in_band)

    def usable_bands(
        self, max_excess_db: float = 15.0
    ) -> List[BandMeasurement]:
        """Signals received with acceptable degradation."""
        return [
            m
            for m in self.decoded()
            if m.excess_attenuation_db is not None
            and m.excess_attenuation_db <= max_excess_db
        ]


@dataclass
class FrequencyEvaluator:
    """Runs the §3.2 measurements against one node.

    The *expected* reference for each signal is what a nominal,
    healthy installation at the claimed position would measure —
    computed with ``reference_antenna``, **not** the node's actual
    hardware. Referencing the node's own antenna would let hardware
    faults cancel out of the excess-attenuation arithmetic (a damaged
    feedline lowers measured and expected alike); the verifier does
    not trust the node's hardware, that is the thing being evaluated.

    Attributes:
        node: the sensor under evaluation.
        cell_towers: known cellular towers (the cellmapper role).
        tv_towers: known TV transmitters.
        fm_towers: known FM stations (§5 "additional RF sources").
        reference_antenna: the nominal healthy antenna used for the
            expected references.
        use_batch: run the vectorized one-capture-per-band pipeline
            (:meth:`run`); ``False`` keeps the per-tower scalar path.
            :meth:`run_scalar` is always available as the equivalence
            oracle regardless of this flag.
        interference: co-channel interference model
            (:class:`repro.interference.InterferenceConfig`). ``None``
            or disabled keeps the interference-free profile
            bit-identical.
    """

    node: SensorNode
    cell_towers: TowerDatabase
    tv_towers: Sequence[TvTower] = ()
    fm_towers: Sequence[FmTower] = ()
    reference_antenna: Optional[Antenna] = None
    use_batch: bool = True
    interference: Optional[InterferenceConfig] = None

    def __post_init__(self) -> None:
        if self.reference_antenna is None:
            self.reference_antenna = WIDEBAND_700_2700

    def interference_enabled(self) -> bool:
        """Whether the co-channel interference model is active."""
        return self.interference is not None and self.interference.enabled

    def _expected_cell_rsrp_dbm(self, tower) -> float:
        """Reference RSRP for a healthy unobstructed install here."""
        geom = ray_geometry(self.node.position, tower.position)
        path = free_space_path_loss_db(
            geom.slant_m, tower.downlink_freq_hz
        )
        gain = self.reference_antenna.gain_at(
            tower.downlink_freq_hz, geom.azimuth_deg
        )
        return tower.eirp_per_re_dbm() - path + gain

    def _expected_tv_dbfs(self, tower: TvTower) -> float:
        """Reference channel power for a healthy unobstructed install."""
        geom = ray_geometry(self.node.position, tower.position)
        path = free_space_path_loss_db(
            geom.slant_m, tower.center_freq_hz
        )
        gain = self.reference_antenna.gain_at(
            tower.center_freq_hz, geom.azimuth_deg
        )
        power_dbm = tower.erp_dbm - path + gain
        return self.node.sdr.input_dbm_to_dbfs(power_dbm)

    def run(
        self,
        rng: Optional[np.random.Generator] = None,
        tv_iq_mode: bool = False,
    ) -> FrequencyProfile:
        """Measure every known signal and build the profile.

        Dispatches to the vectorized one-capture-per-band pipeline
        when ``use_batch`` is set, else to :meth:`run_scalar`. Budget
        paths agree to float roundoff; the IQ path agrees within the
        tolerance documented in ``docs/performance.md``.

        Args:
            rng: randomness for shadowing and the IQ path; None runs
                the deterministic median-budget variant.
            tv_iq_mode: run the TV measurements through the full
                GNU Radio-style DSP chain instead of the fast budget
                path (requires ``rng``).
        """
        if tv_iq_mode and rng is None:
            raise ValueError("tv_iq_mode requires an rng")
        if not self.use_batch:
            return self.run_scalar(rng, tv_iq_mode)
        # The whole profile is a function of static content (site,
        # hardware, emitter layouts, interference config) plus the RNG
        # bit-stream position, so warm runs replay it from the path
        # cache; BandMeasurement is frozen, so entries are shareable.
        key_parts = (
            "frequency_profile",
            self.node.environment,
            self.node.sdr,
            self.node.antenna,
            self.reference_antenna,
            tuple(self.cell_towers.towers),
            tuple(self.tv_towers),
            tuple(self.fm_towers),
            self.interference,
            tv_iq_mode,
        )
        cache = get_path_cache()
        if rng is None:
            measurements = cache.get_or_compute(
                key_parts, lambda: self._run_batch(rng, tv_iq_mode)
            )
        else:
            measurements = cache.get_or_compute_rng(
                key_parts,
                rng,
                lambda: self._run_batch(rng, tv_iq_mode),
            )
        profile = FrequencyProfile(node_id=self.node.node_id)
        profile.measurements.extend(measurements)
        return profile

    def _run_batch(
        self,
        rng: Optional[np.random.Generator],
        tv_iq_mode: bool,
    ) -> tuple:
        """One uncached pass of the vectorized pipeline."""
        cellular = self._run_cellular_batch(rng)
        tv = self._run_tv_batch(rng, tv_iq_mode)
        if self.interference_enabled():
            cellular = self._apply_cell_interference(cellular)
            tv = self._apply_tv_interference(tv)
        measurements = cellular + tv + self._run_fm_batch()
        measurements.sort(key=lambda m: m.freq_hz)
        return tuple(measurements)

    def run_scalar(
        self,
        rng: Optional[np.random.Generator] = None,
        tv_iq_mode: bool = False,
    ) -> FrequencyProfile:
        """Per-tower scalar pipeline: the equivalence oracle."""
        if tv_iq_mode and rng is None:
            raise ValueError("tv_iq_mode requires an rng")
        profile = FrequencyProfile(node_id=self.node.node_id)
        cellular = self._run_cellular(rng)
        tv = self._run_tv(rng, tv_iq_mode)
        if self.interference_enabled():
            # The interference terms are deterministic verifier-side
            # budgets; both paths call the identical vectorized
            # sources so run()/run_scalar() stay bit-equal.
            cellular = self._apply_cell_interference(cellular)
            tv = self._apply_tv_interference(tv)
        profile.measurements.extend(cellular)
        profile.measurements.extend(tv)
        profile.measurements.extend(self._run_fm())
        profile.measurements.sort(key=lambda m: m.freq_hz)
        return profile

    def _apply_tv_interference(
        self, measurements: List[BandMeasurement]
    ) -> List[BandMeasurement]:
        """Fold adjacent-channel bleed into the TV measurements.

        ``measurements`` is ordered like ``self.tv_towers`` (both
        pipelines produce one entry per tower, in tower order). A
        victim with bleed sees its channel power biased up by the
        leaked energy — the power meter integrates everything in the
        band — and only counts as decoded if the wanted signal clears
        noise *plus* bleed by ``tv_min_sinr_db``.
        """
        assert self.interference is not None
        towers = list(self.tv_towers)
        interference_mw = tv_adjacent_interference_mw(
            self.node.environment,
            self.node.antenna,
            towers,
            self.interference.tv_adjacent_rejection_db,
        )
        noise_dbfs = self.node.sdr.input_dbm_to_dbfs(
            self.node.sdr.noise_floor_dbm(VSB_OCCUPIED_HZ)
        )
        noise_linear = dbfs_to_linear(noise_dbfs)
        out: List[BandMeasurement] = []
        for m, int_mw in zip(measurements, interference_mw):
            if int_mw <= 0.0:
                out.append(m)
                continue
            int_dbm = mw_to_dbm(float(int_mw))
            if not m.decoded:
                out.append(replace(m, interference_dbm=int_dbm))
                continue
            # TV powers are reported in dBFS; dBm -> dBFS is an
            # affine offset so full-scale fractions preserve every
            # power ratio the SINR needs.
            int_linear = dbfs_to_linear(
                self.node.sdr.input_dbm_to_dbfs(int_dbm)
            )
            signal_linear = dbfs_to_linear(m.measured)
            sinr_db = 10.0 * np.log10(
                signal_linear / (noise_linear + int_linear)
            )
            if sinr_db <= self.interference.tv_min_sinr_db:
                out.append(
                    replace(
                        m,
                        measured=None,
                        excess_attenuation_db=None,
                        decoded=False,
                        interference_dbm=int_dbm,
                    )
                )
                continue
            measured = linear_to_dbfs(signal_linear + int_linear)
            out.append(
                replace(
                    m,
                    measured=measured,
                    excess_attenuation_db=m.expected - measured,
                    interference_dbm=int_dbm,
                )
            )
        return out

    def _apply_cell_interference(
        self, measurements: List[BandMeasurement]
    ) -> List[BandMeasurement]:
        """Fold same-EARFCN neighbour power into the cellular scans.

        ``measurements`` is ordered like ``self.cell_towers.towers``.
        RSRP itself stays unbiased (reference-signal sequences are
        near-orthogonal across PCIs); what co-channel power destroys
        is synchronization, so a cell whose per-RE SINR falls below
        ``cell_min_sinr_db`` drops out of the scan entirely.
        """
        assert self.interference is not None
        interference_mw = cell_cochannel_interference_mw(
            self.node.environment,
            self.node.antenna,
            self.cell_towers.towers,
        )
        noise_mw = dbm_to_mw(
            self.node.sdr.noise_floor_dbm(LTE_RE_BANDWIDTH_HZ)
        )
        out: List[BandMeasurement] = []
        for m, int_mw in zip(measurements, interference_mw):
            if int_mw <= 0.0:
                out.append(m)
                continue
            int_dbm = mw_to_dbm(float(int_mw))
            if not m.decoded:
                out.append(replace(m, interference_dbm=int_dbm))
                continue
            sinr_db = 10.0 * np.log10(
                dbm_to_mw(m.measured) / (noise_mw + float(int_mw))
            )
            if sinr_db < self.interference.cell_min_sinr_db:
                out.append(
                    replace(
                        m,
                        measured=None,
                        excess_attenuation_db=None,
                        decoded=False,
                        interference_dbm=int_dbm,
                    )
                )
                continue
            out.append(replace(m, interference_dbm=int_dbm))
        return out

    def _run_cellular(
        self, rng: Optional[np.random.Generator]
    ) -> List[BandMeasurement]:
        scanner = SrsUeScanner(
            env=self.node.environment,
            sdr=self.node.sdr,
            antenna=self.node.antenna,
        )
        # Each distinct EARFCN is scanned once; towers sharing a
        # channel are joined by PCI out of the same scan, like a real
        # srsUE pass over the channel list.
        scans: Dict[int, List[CellMeasurement]] = {}
        out: List[BandMeasurement] = []
        for tower in self.cell_towers.towers:
            expected = self._expected_cell_rsrp_dbm(tower)
            if tower.earfcn not in scans:
                scans[tower.earfcn] = scanner.scan_earfcn(
                    tower.earfcn, self.cell_towers, rng
                )
            results = scans[tower.earfcn]
            match = next(
                (r for r in results if r.pci == tower.pci), None
            )
            if match is not None and match.decoded:
                out.append(
                    BandMeasurement(
                        source="cellular",
                        label=tower.tower_id,
                        freq_hz=tower.downlink_freq_hz,
                        measured=match.rsrp_dbm,
                        expected=expected,
                        excess_attenuation_db=expected - match.rsrp_dbm,
                        decoded=True,
                    )
                )
            else:
                out.append(
                    BandMeasurement(
                        source="cellular",
                        label=tower.tower_id,
                        freq_hz=tower.downlink_freq_hz,
                        measured=None,
                        expected=expected,
                        excess_attenuation_db=None,
                        decoded=False,
                    )
                )
        return out

    def _expected_cell_rsrp_dbm_batch(
        self, towers: Sequence
    ) -> np.ndarray:
        """Batch :meth:`_expected_cell_rsrp_dbm` (same budget terms)."""
        geom = ray_geometry_arrays(
            self.node.position, [t.position for t in towers]
        )
        freq = np.array(
            [t.downlink_freq_hz for t in towers], dtype=np.float64
        )
        path = free_space_path_loss_db_multifreq(geom.slant_m, freq)
        gain = self.reference_antenna.gain_at_multifreq(
            freq, geom.azimuth_deg
        )
        eirp = np.array(
            [t.eirp_per_re_dbm() for t in towers], dtype=np.float64
        )
        return eirp - path + gain

    def _expected_dbfs_batch(
        self, positions, erp_dbm: np.ndarray, freq_hz: np.ndarray
    ) -> np.ndarray:
        """Unobstructed-reference dBFS for broadcast transmitters."""
        geom = ray_geometry_arrays(self.node.position, positions)
        path = free_space_path_loss_db_multifreq(geom.slant_m, freq_hz)
        gain = self.reference_antenna.gain_at_multifreq(
            freq_hz, geom.azimuth_deg
        )
        return self.node.sdr.input_dbm_to_dbfs_array(
            erp_dbm - path + gain
        )

    def _run_cellular_batch(
        self, rng: Optional[np.random.Generator]
    ) -> List[BandMeasurement]:
        if not self.cell_towers.towers:
            return []
        scanner = SrsUeScanner(
            env=self.node.environment,
            sdr=self.node.sdr,
            antenna=self.node.antenna,
        )
        # One array scan covering every distinct EARFCN, channels in
        # first-encounter order and towers within a channel in
        # database order — the scalar path's shadow-draw order.
        ordered: List = []
        seen_earfcns = set()
        for tower in self.cell_towers.towers:
            if tower.earfcn not in seen_earfcns:
                seen_earfcns.add(tower.earfcn)
                ordered.extend(
                    self.cell_towers.by_earfcn(tower.earfcn)
                )
        results = scanner.scan_towers_batch(ordered, rng)
        by_earfcn: Dict[int, List[CellMeasurement]] = {}
        for tower, result in zip(ordered, results):
            by_earfcn.setdefault(tower.earfcn, []).append(result)
        expected = self._expected_cell_rsrp_dbm_batch(
            self.cell_towers.towers
        )
        out: List[BandMeasurement] = []
        for tower, exp in zip(self.cell_towers.towers, expected):
            match = next(
                (
                    r
                    for r in by_earfcn.get(tower.earfcn, [])
                    if r.pci == tower.pci
                ),
                None,
            )
            decoded = match is not None and match.decoded
            out.append(
                BandMeasurement(
                    source="cellular",
                    label=tower.tower_id,
                    freq_hz=tower.downlink_freq_hz,
                    measured=match.rsrp_dbm if decoded else None,
                    expected=float(exp),
                    excess_attenuation_db=(
                        float(exp) - match.rsrp_dbm
                        if decoded
                        else None
                    ),
                    decoded=decoded,
                )
            )
        return out

    def _run_tv_batch(
        self,
        rng: Optional[np.random.Generator],
        iq_mode: bool,
    ) -> List[BandMeasurement]:
        if not self.tv_towers:
            return []
        meter = TvPowerMeter(
            env=self.node.environment,
            sdr=self.node.sdr,
            antenna=self.node.antenna,
        )
        towers = list(self.tv_towers)
        expected = self._expected_dbfs_batch(
            [t.position for t in towers],
            np.array([t.erp_dbm for t in towers], dtype=np.float64),
            np.array(
                [t.center_freq_hz for t in towers], dtype=np.float64
            ),
        )
        tunable = [
            t
            for t in towers
            if self.node.sdr.can_tune(t.center_freq_hz)
        ]
        if iq_mode:
            measured = meter.measure_iq_batch(tunable, rng)
        else:
            measured = meter.measure_budget_batch(tunable)
        by_callsign = {m.callsign: m for m in measured}
        out: List[BandMeasurement] = []
        for tower, exp in zip(towers, expected):
            measurement = by_callsign.get(tower.callsign)
            decoded = (
                measurement is not None
                and measurement.above_noise_db > 3.0
            )
            out.append(
                BandMeasurement(
                    source="tv",
                    label=tower.callsign,
                    freq_hz=tower.center_freq_hz,
                    measured=(
                        measurement.power_dbfs if decoded else None
                    ),
                    expected=float(exp),
                    excess_attenuation_db=(
                        float(exp) - measurement.power_dbfs
                        if decoded
                        else None
                    ),
                    decoded=decoded,
                )
            )
        return out

    def _run_fm_batch(self) -> List[BandMeasurement]:
        if not self.fm_towers:
            return []
        meter = FmPowerMeter(
            env=self.node.environment,
            sdr=self.node.sdr,
            antenna=self.node.antenna,
        )
        towers = list(self.fm_towers)
        expected = self._expected_dbfs_batch(
            [t.position for t in towers],
            np.array([t.erp_dbm for t in towers], dtype=np.float64),
            np.array(
                [t.center_freq_hz for t in towers], dtype=np.float64
            ),
        )
        tunable = [
            t
            for t in towers
            if self.node.sdr.can_tune(t.center_freq_hz)
        ]
        measured = meter.measure_budget_batch(tunable)
        by_callsign = {m.callsign: m for m in measured}
        out: List[BandMeasurement] = []
        for tower, exp in zip(towers, expected):
            measurement = by_callsign.get(tower.callsign)
            decoded = (
                measurement is not None
                and measurement.above_noise_db > 3.0
            )
            out.append(
                BandMeasurement(
                    source="fm",
                    label=tower.callsign,
                    freq_hz=tower.center_freq_hz,
                    measured=(
                        measurement.power_dbfs if decoded else None
                    ),
                    expected=float(exp),
                    excess_attenuation_db=(
                        float(exp) - measurement.power_dbfs
                        if decoded
                        else None
                    ),
                    decoded=decoded,
                )
            )
        return out

    def _expected_fm_dbfs(self, tower: FmTower) -> float:
        """Reference FM channel power for a healthy install."""
        geom = ray_geometry(self.node.position, tower.position)
        path = free_space_path_loss_db(
            geom.slant_m, tower.center_freq_hz
        )
        gain = self.reference_antenna.gain_at(
            tower.center_freq_hz, geom.azimuth_deg
        )
        power_dbm = tower.erp_dbm - path + gain
        return self.node.sdr.input_dbm_to_dbfs(power_dbm)

    def _run_fm(self) -> List[BandMeasurement]:
        meter = FmPowerMeter(
            env=self.node.environment,
            sdr=self.node.sdr,
            antenna=self.node.antenna,
        )
        out: List[BandMeasurement] = []
        for tower in self.fm_towers:
            expected = self._expected_fm_dbfs(tower)
            if not self.node.sdr.can_tune(tower.center_freq_hz):
                out.append(
                    BandMeasurement(
                        source="fm",
                        label=tower.callsign,
                        freq_hz=tower.center_freq_hz,
                        measured=None,
                        expected=expected,
                        excess_attenuation_db=None,
                        decoded=False,
                    )
                )
                continue
            measurement = meter.measure_budget(tower)
            decoded = measurement.above_noise_db > 3.0
            out.append(
                BandMeasurement(
                    source="fm",
                    label=tower.callsign,
                    freq_hz=tower.center_freq_hz,
                    measured=measurement.power_dbfs if decoded else None,
                    expected=expected,
                    excess_attenuation_db=(
                        expected - measurement.power_dbfs
                        if decoded
                        else None
                    ),
                    decoded=decoded,
                )
            )
        return out

    def _run_tv(
        self,
        rng: Optional[np.random.Generator],
        iq_mode: bool,
    ) -> List[BandMeasurement]:
        meter = TvPowerMeter(
            env=self.node.environment,
            sdr=self.node.sdr,
            antenna=self.node.antenna,
        )
        out: List[BandMeasurement] = []
        for tower in self.tv_towers:
            if not self.node.sdr.can_tune(tower.center_freq_hz):
                out.append(
                    BandMeasurement(
                        source="tv",
                        label=tower.callsign,
                        freq_hz=tower.center_freq_hz,
                        measured=None,
                        expected=self._expected_tv_dbfs(tower),
                        excess_attenuation_db=None,
                        decoded=False,
                    )
                )
                continue
            if iq_mode:
                measurement = meter.measure_iq(tower, rng)
            else:
                measurement = meter.measure_budget(tower)
            expected = self._expected_tv_dbfs(tower)
            # A TV channel indistinguishable from receiver noise is a
            # failed measurement, like srsUE's failed decode.
            decoded = measurement.above_noise_db > 3.0
            out.append(
                BandMeasurement(
                    source="tv",
                    label=tower.callsign,
                    freq_hz=tower.center_freq_hz,
                    measured=measurement.power_dbfs if decoded else None,
                    expected=expected,
                    excess_attenuation_db=(
                        expected - measurement.power_dbfs
                        if decoded
                        else None
                    ),
                    decoded=decoded,
                )
            )
        return out
