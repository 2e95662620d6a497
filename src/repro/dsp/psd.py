"""Power spectral density estimation (Welch) and occupancy detection.

The paper's §2: sensor hosts "may perform various processing tasks on
the I/Q data, such as signal detection or computing the Fast Fourier
Transform, before transmitting the data to the cloud". This module is
that host-side processing: a Welch PSD over a capture and a
noise-floor-relative occupancy detector.

Only :func:`welch_psd` needs scipy, so it imports ``scipy.signal``
when it first runs. Importing this module (every ``repro`` command
does, through the monitoring service) costs no scipy start-up, and a
host that never estimates a PSD never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np


def welch_psd(
    samples: np.ndarray,
    sample_rate_hz: float,
    nperseg: int = 1024,
) -> Tuple[np.ndarray, np.ndarray]:
    """Welch PSD of a complex capture.

    Returns (freqs_hz, psd) with frequencies centered on zero
    (baseband) and PSD in power per Hz, both sorted ascending.
    """
    from scipy import signal as sp_signal

    if len(samples) < nperseg:
        raise ValueError(
            f"need at least nperseg={nperseg} samples, "
            f"got {len(samples)}"
        )
    freqs, psd = sp_signal.welch(
        samples,
        fs=sample_rate_hz,
        nperseg=nperseg,
        return_onesided=False,
        detrend=False,
    )
    order = np.argsort(freqs)
    return freqs[order], psd[order]


@dataclass(frozen=True)
class OccupiedBand:
    """One detected emission in a PSD.

    Attributes:
        low_hz / high_hz: band edges (baseband, relative to capture
            center).
        peak_power_db: peak PSD inside the band, dB relative to the
            estimated noise floor.
    """

    low_hz: float
    high_hz: float
    peak_power_db: float

    @property
    def bandwidth_hz(self) -> float:
        return self.high_hz - self.low_hz

    @property
    def center_hz(self) -> float:
        return 0.5 * (self.low_hz + self.high_hz)


def estimate_noise_floor(psd: np.ndarray, quantile: float = 0.2) -> float:
    """Noise-floor estimate: a low quantile of the PSD bins.

    A wideband emission (e.g. a 5.38 MHz ATSC channel in an 8 MHz
    capture) can occupy most of the bins, so the median would land
    inside the signal; the 20th percentile stays on the noise as long
    as at least that fraction of the capture is quiet.
    """
    if len(psd) == 0:
        raise ValueError("empty PSD")
    if not 0.0 < quantile < 1.0:
        raise ValueError(f"quantile must be in (0, 1): {quantile}")
    return float(np.quantile(psd, quantile))


def detect_occupied_bands(
    freqs_hz: np.ndarray,
    psd: np.ndarray,
    threshold_db: float = 6.0,
    min_bins: int = 2,
) -> List[OccupiedBand]:
    """Find contiguous PSD regions above the noise floor.

    A bin is "hot" when it exceeds the median noise floor by
    ``threshold_db``; runs of at least ``min_bins`` hot bins become
    detected emissions.
    """
    if len(freqs_hz) != len(psd):
        raise ValueError("freqs and psd must align")
    if min_bins < 1:
        raise ValueError(f"min_bins must be >= 1: {min_bins}")
    floor = estimate_noise_floor(psd)
    if floor <= 0.0:
        raise ValueError("degenerate noise floor")
    hot = psd > floor * 10.0 ** (threshold_db / 10.0)
    bands: List[OccupiedBand] = []
    start = None
    for i, flag in enumerate(hot):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            if i - start >= min_bins:
                seg = psd[start:i]
                bands.append(
                    OccupiedBand(
                        low_hz=float(freqs_hz[start]),
                        high_hz=float(freqs_hz[i - 1]),
                        peak_power_db=float(
                            10.0 * np.log10(np.max(seg) / floor)
                        ),
                    )
                )
            start = None
    if start is not None and len(hot) - start >= min_bins:
        seg = psd[start:]
        bands.append(
            OccupiedBand(
                low_hz=float(freqs_hz[start]),
                high_hz=float(freqs_hz[-1]),
                peak_power_db=float(
                    10.0 * np.log10(np.max(seg) / floor)
                ),
            )
        )
    return bands
