"""Absolute received-power calibration (§5 "other types of calibration").

"If precise measurements of absolute received signal power are needed,
further techniques would be necessary as SDRs are not inherently
calibrated for this purpose."

The technique here is the signals-of-opportunity version: known
broadcast transmitters have public EIRPs and locations, so the
absolute power arriving at an unobstructed antenna is computable from
physics. Comparing those predictions with the node's dBFS readings
estimates the node's dBFS→dBm offset (its effective full-scale input
power). Obstructed paths only ever *reduce* the measured value, so the
offset estimate uses a low quantile of the per-signal offsets — the
least-obstructed signals anchor it (for the window node that is the
in-view 521 MHz TV tower).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.fov import FieldOfViewEstimate
from repro.core.frequency import FrequencyProfile
from repro.environment.links import RayGeometry, ray_geometry
from repro.fm.tower import FmTower
from repro.node.sensor import SensorNode
from repro.rf.pathloss import free_space_path_loss_db
from repro.sdr.antenna import WIDEBAND_700_2700, Antenna
from repro.tv.tower import TvTower


@dataclass(frozen=True)
class AbsolutePowerCalibration:
    """Estimated dBFS→dBm conversion for one node.

    Attributes:
        full_scale_dbm_estimate: estimated input power at 0 dBFS.
        spread_db: spread (90th - 10th percentile) of the per-signal
            offsets — a diagnostic of how unevenly obstructed the
            contributing signals are, *not* a reliability signal: a
            uniformly obstructed (indoor) node shows a small spread
            around a badly biased estimate.
        anchor_label: the least-obstructed contributing signal.
        anchor_bearing_deg: its arrival bearing.
        n_signals: how many known signals contributed.
        reliable: the anchor signal arrives through the node's
            estimated-open field of view, so its path is genuinely
            unobstructed and the offset is a true calibration rather
            than an upper bound.
    """

    full_scale_dbm_estimate: Optional[float]
    spread_db: float
    anchor_label: Optional[str]
    anchor_bearing_deg: Optional[float]
    n_signals: int
    reliable: bool

    def to_dbm(self, dbfs: float) -> float:
        """Convert a node reading to absolute power."""
        if self.full_scale_dbm_estimate is None:
            raise ValueError("no calibration available")
        return dbfs + self.full_scale_dbm_estimate


@dataclass
class AbsolutePowerCalibrator:
    """Estimates a node's dBFS→dBm offset from known broadcasters.

    Attributes:
        reference_antenna: nominal antenna used for the physics
            predictions (the verifier does not trust node hardware).
        quantile: which quantile of the per-signal offsets to use.
            Obstruction only ever *adds* loss, so the minimum
            (quantile 0) is the estimator — any higher quantile mixes
            obstructed paths into the estimate the moment only one or
            two signals are clear. Shadowing on the anchor path puts
            the residual error at a couple of dB; the FoV gate, not
            the quantile, supplies the trust.
        min_signals: fewest contributing signals for any estimate.
    """

    reference_antenna: Antenna = None
    quantile: float = 0.0
    min_signals: int = 3

    def __post_init__(self) -> None:
        if self.reference_antenna is None:
            self.reference_antenna = WIDEBAND_700_2700
        if not 0.0 <= self.quantile <= 1.0:
            raise ValueError(f"quantile must be in [0,1]: {self.quantile}")

    def _predicted_dbm(
        self, geom: RayGeometry, erp_dbm: float, freq_hz: float
    ) -> float:
        path = free_space_path_loss_db(geom.slant_m, freq_hz)
        gain = self.reference_antenna.gain_at(
            freq_hz, geom.azimuth_deg
        )
        return erp_dbm - path + gain

    def calibrate(
        self,
        node: SensorNode,
        profile: FrequencyProfile,
        tv_towers: Sequence[TvTower] = (),
        fm_towers: Sequence[FmTower] = (),
        fov: Optional[FieldOfViewEstimate] = None,
    ) -> AbsolutePowerCalibration:
        """Estimate the node's full-scale input power.

        Uses the TV and FM rows of ``profile`` (whose measured values
        are in the node's dBFS) against physics predictions for the
        same transmitters. When a ``fov`` estimate is supplied, the
        result is marked reliable only if the anchor (least-obstructed)
        signal arrives through an open bearing — without a clear path
        the offset is only an upper bound on the true full scale.
        """
        towers = {t.callsign: t for t in tv_towers}
        towers.update({t.callsign: t for t in fm_towers})
        offsets: List[float] = []
        bearings: List[float] = []
        labels: List[str] = []
        for m in profile.measurements:
            if m.source not in ("tv", "fm") or not m.decoded:
                continue
            tower = towers.get(m.label)
            if tower is None:
                continue
            geom = ray_geometry(node.position, tower.position)
            predicted = self._predicted_dbm(geom, tower.erp_dbm, m.freq_hz)
            offsets.append(predicted - m.measured)
            bearings.append(geom.azimuth_deg)
            labels.append(m.label)
        if len(offsets) < self.min_signals:
            return AbsolutePowerCalibration(
                full_scale_dbm_estimate=None,
                spread_db=0.0,
                anchor_label=None,
                anchor_bearing_deg=None,
                n_signals=len(offsets),
                reliable=False,
            )
        arr = np.asarray(offsets)
        q, q90, q10 = np.quantile(arr, [self.quantile, 0.9, 0.1])
        estimate = float(q)
        spread = float(q90 - q10)
        anchor = int(np.argmin(arr))
        reliable = False
        if fov is not None:
            reliable = fov.is_open(bearings[anchor])
        return AbsolutePowerCalibration(
            full_scale_dbm_estimate=estimate,
            spread_db=spread,
            anchor_label=labels[anchor],
            anchor_bearing_deg=bearings[anchor],
            n_signals=len(offsets),
            reliable=reliable,
        )
