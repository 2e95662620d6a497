"""FFT-based wideband channelizer.

Crowd-sourced sensing platforms (Electrosense, RadioHound) capture a
wide band once and read every channel of interest out of the same IQ
block, because per-channel sweeps do not scale to fleet-sized
workloads. This module is that shape for the §3.2 pipeline: a
:class:`Channelizer` takes one wideband capture, runs one FFT, and
reports per-channel band power with the exact bin convention of
:func:`repro.dsp.power.parseval_band_power`; polyphase-style channel
extraction (:meth:`Channelizer.extract_channel`) recovers a decimated
baseband time series for any channel from the same spectrum.

:func:`plan_capture_groups` decides how many captures a band needs:
channels are greedily packed into windows no wider than the SDR's
usable sample rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Smallest power reported by the dBFS readers (= -150 dBFS), matching
#: repro.dsp.power's floor.
_POWER_FLOOR = 1e-15


@dataclass(frozen=True)
class ChannelSpec:
    """One channel inside a wideband capture.

    Attributes:
        label: channel name, for reports ("K22CC", "ch36", ...).
        offset_hz: channel center relative to the capture center.
        bandwidth_hz: occupied bandwidth to integrate over.
    """

    label: str
    offset_hz: float
    bandwidth_hz: float

    def __post_init__(self) -> None:
        if self.bandwidth_hz <= 0.0:
            raise ValueError(
                f"bandwidth must be positive: {self.bandwidth_hz}"
            )

    @property
    def low_hz(self) -> float:
        return self.offset_hz - self.bandwidth_hz / 2.0

    @property
    def high_hz(self) -> float:
        return self.offset_hz + self.bandwidth_hz / 2.0


@dataclass
class Channelizer:
    """Reads every configured channel out of one wideband IQ block.

    One FFT per block; each channel's power is the Parseval sum over
    its frequency bins — the same ``(freqs >= low) & (freqs <= high)``
    mask :func:`repro.dsp.power.parseval_band_power` uses, so the two
    agree channel for channel on the same samples.

    Attributes:
        sample_rate_hz: capture sample rate.
        channels: channels to extract; all must fit inside the
            capture's Nyquist band.
    """

    sample_rate_hz: float
    channels: Sequence[ChannelSpec]
    _masks: Dict[int, np.ndarray] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        if self.sample_rate_hz <= 0.0:
            raise ValueError(
                f"sample rate must be positive: {self.sample_rate_hz}"
            )
        self.channels = tuple(self.channels)
        if not self.channels:
            raise ValueError("need at least one channel")
        nyquist = self.sample_rate_hz / 2.0
        for spec in self.channels:
            if abs(spec.offset_hz) + spec.bandwidth_hz / 2.0 > nyquist:
                raise ValueError(
                    f"channel {spec.label!r} at offset {spec.offset_hz}"
                    f" Hz does not fit in a {self.sample_rate_hz} Hz"
                    " capture"
                )

    def _channel_masks(self, n: int) -> np.ndarray:
        """(n_channels, n) boolean bin masks for an n-point FFT."""
        if n not in self._masks:
            freqs = np.fft.fftfreq(n, d=1.0 / self.sample_rate_hz)
            self._masks[n] = np.stack(
                [
                    (freqs >= spec.low_hz) & (freqs <= spec.high_hz)
                    for spec in self.channels
                ]
            )
        return self._masks[n]

    def band_powers(self, samples: np.ndarray) -> np.ndarray:
        """Linear power per channel from one FFT of the block."""
        n = len(samples)
        if n == 0:
            raise ValueError("cannot measure power of an empty block")
        psd = np.abs(np.fft.fft(samples)) ** 2
        masks = self._channel_masks(n)
        return masks @ psd / (n * n)

    def band_powers_dbfs(
        self, samples: np.ndarray, full_scale: float = 1.0
    ) -> np.ndarray:
        """Per-channel band power in dBFS."""
        if full_scale <= 0.0:
            raise ValueError(
                f"full scale must be positive: {full_scale}"
            )
        powers = self.band_powers(samples) / (full_scale**2)
        return 10.0 * np.log10(np.maximum(powers, _POWER_FLOOR))

    def extract_channel(
        self, samples: np.ndarray, index: int
    ) -> Tuple[np.ndarray, float]:
        """Polyphase-style extraction of one channel at a reduced rate.

        Selects the channel's FFT bins, recenters them at baseband, and
        inverse-transforms at the decimated rate. The extracted block's
        mean power equals the channel's bin power (amplitudes are
        rescaled by the decimation ratio), so power read either way
        agrees.

        Returns:
            (baseband samples, decimated sample rate in Hz).
        """
        n = len(samples)
        if n == 0:
            raise ValueError("cannot extract from an empty block")
        spec = self.channels[index]
        df = self.sample_rate_hz / n
        half_bins = int(math.ceil((spec.bandwidth_hz / 2.0) / df))
        center_bin = int(round(spec.offset_hz / df))
        nsub = 2 * half_bins + 1
        if nsub > n:
            raise ValueError(
                f"channel {spec.label!r} needs {nsub} bins but the"
                f" block only has {n}"
            )
        spectrum = np.fft.fft(samples)
        # Sub-spectrum bins in FFT order: 0, +1, ..., +half, -half, ..., -1.
        order = np.fft.fftfreq(nsub, d=1.0 / nsub).astype(np.int64)
        sub = spectrum[(center_bin + order) % n]
        baseband = np.fft.ifft(sub) * (nsub / n)
        return baseband, nsub * df


def plan_capture_groups(
    edges_hz: Sequence[Tuple[float, float]], max_span_hz: float
) -> List[List[int]]:
    """Pack channels into capture windows no wider than ``max_span_hz``.

    Greedy over channels sorted by lower edge: a channel joins the
    current window while the combined span still fits; otherwise it
    opens a new one. Returns groups of indices into ``edges_hz``
    (each group sorted by frequency).
    """
    if max_span_hz <= 0.0:
        raise ValueError(
            f"max span must be positive: {max_span_hz}"
        )
    for low, high in edges_hz:
        if high <= low:
            raise ValueError(f"need low < high, got [{low}, {high}]")
        if high - low > max_span_hz:
            raise ValueError(
                f"channel [{low}, {high}] is wider than the"
                f" {max_span_hz} Hz capture limit"
            )
    order = sorted(
        range(len(edges_hz)), key=lambda i: edges_hz[i]
    )
    groups: List[List[int]] = []
    group_low = 0.0
    for i in order:
        low, high = edges_hz[i]
        if groups and high - group_low <= max_span_hz:
            groups[-1].append(i)
        else:
            groups.append([i])
            group_low = low
    return groups
