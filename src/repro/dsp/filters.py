"""FIR filter design and application (windowed-sinc, as GNU Radio uses).

Taps are designed in numpy alone: :func:`_hamming_sinc` is the
Hamming-windowed sinc that ``scipy.signal.firwin`` builds for a
low-pass, computed in the same operation order so the taps are equal
to scipy's bit for bit (the test suite keeps scipy as the oracle), and
importing this module, or any ``repro`` command, loads no scipy.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


def design_lowpass_fir(
    cutoff_hz: float, sample_rate_hz: float, num_taps: int = 129
) -> np.ndarray:
    """Hamming-windowed low-pass FIR prototype.

    ``num_taps`` must be odd so the filter has integer group delay.
    """
    _check_taps(num_taps)
    _check_finite(cutoff_hz=cutoff_hz, sample_rate_hz=sample_rate_hz)
    nyquist = sample_rate_hz / 2.0
    if not 0.0 < cutoff_hz < nyquist:
        raise ValueError(
            f"cutoff {cutoff_hz} Hz outside (0, {nyquist}) Hz"
        )
    return _hamming_sinc(num_taps, cutoff_hz, sample_rate_hz)


def design_bandpass_fir(
    low_hz: float,
    high_hz: float,
    sample_rate_hz: float,
    num_taps: int = 257,
) -> np.ndarray:
    """Hamming-windowed band-pass FIR for a complex baseband signal.

    Designed as a real band-pass over [low, high]; for baseband IQ the
    band edges may be negative, in which case a frequency-shifted
    low-pass is built instead.
    """
    _check_taps(num_taps)
    _check_finite(
        low_hz=low_hz, high_hz=high_hz, sample_rate_hz=sample_rate_hz
    )
    if high_hz <= low_hz:
        raise ValueError(f"need low < high, got [{low_hz}, {high_hz}]")
    nyquist = sample_rate_hz / 2.0
    if high_hz >= nyquist or low_hz <= -nyquist:
        raise ValueError(
            f"band [{low_hz}, {high_hz}] outside (+/-{nyquist}) Hz"
        )
    center = 0.5 * (low_hz + high_hz)
    half_width = 0.5 * (high_hz - low_hz)
    lowpass = _hamming_sinc(num_taps, half_width, sample_rate_hz)
    if center == 0.0:
        return lowpass
    n = np.arange(num_taps)
    shift = np.exp(1j * 2.0 * np.pi * center * n / sample_rate_hz)
    return lowpass * shift


def _hamming_sinc(
    num_taps: int, cutoff_hz: float, sample_rate_hz: float
) -> np.ndarray:
    """``scipy.signal.firwin(num_taps, cutoff_hz, fs=sample_rate_hz)``.

    The same arithmetic in the same order, so the taps match scipy's
    bit for bit. scipy accumulates the window into zeros and scales by
    ``sum(h * cos(pi * m * 0.0))``; adding to 0.0 and multiplying by
    ``cos(±0.0) == 1.0`` are exact, so the shorter forms below round
    identically. Like firwin, a normalised cutoff outside (0, 1) is
    rejected (it can underflow to 0 for a tiny cutoff at a huge rate).
    """
    cutoff = float(cutoff_hz) / (0.5 * float(sample_rate_hz))
    if not 0.0 < cutoff < 1.0:
        raise ValueError(
            f"normalised cutoff {cutoff} outside (0, 1) "
            f"({cutoff_hz} Hz at {sample_rate_hz} Hz)"
        )
    m = np.arange(num_taps) - 0.5 * (num_taps - 1)
    h = cutoff * np.sinc(cutoff * m)
    h *= 0.54 + (1.0 - 0.54) * np.cos(np.linspace(-np.pi, np.pi, num_taps))
    return h / np.sum(h)


@lru_cache(maxsize=256)
def _lowpass_taps(
    cutoff_hz: float, sample_rate_hz: float, num_taps: int
) -> np.ndarray:
    taps = design_lowpass_fir(cutoff_hz, sample_rate_hz, num_taps)
    taps.setflags(write=False)
    return taps


@lru_cache(maxsize=256)
def _bandpass_taps(
    low_hz: float, high_hz: float, sample_rate_hz: float, num_taps: int
) -> np.ndarray:
    taps = design_bandpass_fir(low_hz, high_hz, sample_rate_hz, num_taps)
    taps.setflags(write=False)
    return taps


def design_lowpass_fir_cached(
    cutoff_hz: float, sample_rate_hz: float, num_taps: int = 129
) -> np.ndarray:
    """Memoized :func:`design_lowpass_fir`.

    Tap design repeats with the same (cutoff, rate, taps) key across
    towers and runs; the returned array is shared and read-only, so
    callers must copy before mutating (none do — taps feed straight
    into convolution).
    """
    return _lowpass_taps(
        float(cutoff_hz), float(sample_rate_hz), int(num_taps)
    )


def design_bandpass_fir_cached(
    low_hz: float,
    high_hz: float,
    sample_rate_hz: float,
    num_taps: int = 257,
) -> np.ndarray:
    """Memoized :func:`design_bandpass_fir` (read-only shared array)."""
    return _bandpass_taps(
        float(low_hz), float(high_hz), float(sample_rate_hz), int(num_taps)
    )


def scaled_num_taps(
    base_num_taps: int, base_rate_hz: float, sample_rate_hz: float
) -> int:
    """Tap count that keeps a design's transition width in Hz.

    A Hamming-windowed FIR's transition band is ~3.3/N of the sample
    rate, so a prototype designed with ``base_num_taps`` at
    ``base_rate_hz`` needs proportionally more taps at a wider rate to
    shape the same spectrum. Result is odd (integer group delay) and
    never below the prototype length.
    """
    _check_finite(base_rate_hz=base_rate_hz, sample_rate_hz=sample_rate_hz)
    if base_rate_hz <= 0.0 or sample_rate_hz <= 0.0:
        raise ValueError("sample rates must be positive")
    _check_taps(base_num_taps)
    n = int(round(base_num_taps * sample_rate_hz / base_rate_hz))
    n = max(n, base_num_taps)
    return n if n % 2 == 1 else n + 1


def fir_filter(taps: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Apply an FIR filter (same-length output, zero-padded edges)."""
    if len(taps) == 0:
        raise ValueError("empty tap vector")
    return np.convolve(samples, taps, mode="same")


def fft_fir_filter(
    taps: np.ndarray,
    samples: np.ndarray,
    nfft: int = 0,
) -> np.ndarray:
    """Overlap-save frequency-domain equivalent of :func:`fir_filter`.

    Computes the identical ``np.convolve(samples, taps, mode="same")``
    result in O(N log B) instead of O(N*M) by filtering fixed-size
    blocks in the frequency domain, which is what makes long filters
    affordable at wideband capture rates (a 915-tap channel-shaping
    filter over 64k samples at 56 Msps).

    Tolerance vs. the scalar path: both routes accumulate in float64;
    FFT rounding bounds the difference at ~1e-12 relative to the
    signal's RMS (the equivalence suite asserts 1e-9). Output dtype
    matches ``fir_filter``: real when both inputs are real, complex
    otherwise.

    Args:
        taps: FIR coefficients.
        samples: input block.
        nfft: FFT block size; 0 picks a power of two sized for the
            filter (>= 4x the tap count, at least 4096).
    """
    if len(taps) == 0:
        raise ValueError("empty tap vector")
    taps_arr = np.asarray(taps)
    x = np.asarray(samples)
    m = len(taps_arr)
    n = len(x)
    complex_out = np.iscomplexobj(taps_arr) or np.iscomplexobj(x)
    if n == 0:
        return np.zeros(
            0, dtype=np.complex128 if complex_out else np.float64
        )
    if m > n:
        # np.convolve's "same" output is max(n, m) long here; keep the
        # exact scalar semantics for this degenerate shape.
        return fir_filter(taps_arr, x)
    full = n + m - 1
    if nfft <= 0:
        nfft = 1 << int(np.ceil(np.log2(max(4 * m, 4096))))
        nfft = min(nfft, 1 << int(np.ceil(np.log2(full))))
    if nfft < m:
        raise ValueError(f"nfft {nfft} shorter than the {m}-tap filter")
    step = nfft - (m - 1)
    h = np.fft.fft(taps_arr, nfft)
    padded = np.zeros(m - 1 + n, dtype=np.complex128)
    padded[m - 1 :] = x
    out = np.empty(full, dtype=np.complex128)
    pos = 0
    while pos < full:
        block = padded[pos : pos + nfft]
        if len(block) < nfft:
            block = np.concatenate(
                [block, np.zeros(nfft - len(block), dtype=np.complex128)]
            )
        y = np.fft.ifft(np.fft.fft(block) * h)
        take = min(step, full - pos)
        out[pos : pos + take] = y[m - 1 : m - 1 + take]
        pos += step
    lead = (m - 1) // 2
    result = out[lead : lead + n]
    return result if complex_out else result.real.copy()


def moving_average(samples: np.ndarray, window: int) -> np.ndarray:
    """Causal moving average with a growing-edge start.

    The paper's TV power meter uses "a very long moving average filter"
    over magnitude-squared samples. Output[i] is the mean of the last
    ``window`` inputs (fewer at the start).
    """
    if window <= 0:
        raise ValueError(f"window must be positive: {window}")
    samples = np.asarray(samples, dtype=np.float64)
    csum = np.cumsum(samples)
    out = np.empty_like(samples)
    if window >= len(samples):
        denom = np.arange(1, len(samples) + 1)
        return csum / denom
    out[:window] = csum[:window] / np.arange(1, window + 1)
    out[window:] = (csum[window:] - csum[:-window]) / window
    return out


def _check_finite(**values: float) -> None:
    """Reject a rate or band edge that is not one finite number.

    NaN compares false, so a check written as ``if high <= low: raise``
    lets it through, and an infinite rate turns every cutoff into 0 Hz
    of normalised band. Like firwin's ``fs``, an array is refused.
    """
    for name, value in values.items():
        if not (np.isscalar(value) and math.isfinite(value)):
            raise ValueError(f"{name} must be a finite number: {value!r}")


def _check_taps(num_taps: int) -> None:
    if num_taps < 3 or num_taps % 2 == 0:
        raise ValueError(
            f"num_taps must be an odd integer >= 3: {num_taps}"
        )
