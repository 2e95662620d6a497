"""Tests for repro.dsp.filters."""

import numpy as np
import pytest
from scipy import signal as sp_signal

from repro.dsp.filters import (
    design_bandpass_fir,
    design_bandpass_fir_cached,
    design_lowpass_fir,
    design_lowpass_fir_cached,
    fir_filter,
    moving_average,
    scaled_num_taps,
)
from repro.dsp.iq import complex_tone
from repro.dsp.power import ParsevalPowerMeter
from repro.fm.meter import FM_SAMPLE_RATE_HZ
from repro.fm.waveform import FM_AUDIO_BW_HZ, FM_OCCUPIED_HZ
from repro.node.monitoring import _RB_BANDWIDTH_HZ
from repro.sdr.frontend import BLADERF_XA9
from repro.tv.meter import TV_SAMPLE_RATE_HZ
from repro.tv.waveform import VSB_OCCUPIED_HZ

NAN = float("nan")
INF = float("inf")


def _scipy_lowpass(cutoff_hz, sample_rate_hz, num_taps=129):
    """The low-pass design as it was built on scipy: the test oracle."""
    if num_taps < 3 or num_taps % 2 == 0:
        raise ValueError("num_taps")
    if not 0.0 < cutoff_hz < sample_rate_hz / 2.0:
        raise ValueError("cutoff")
    return sp_signal.firwin(num_taps, cutoff_hz, fs=sample_rate_hz)


def _scipy_bandpass(low_hz, high_hz, sample_rate_hz, num_taps=257):
    """The band-pass design as it was built on scipy: the test oracle."""
    if num_taps < 3 or num_taps % 2 == 0:
        raise ValueError("num_taps")
    if high_hz <= low_hz:
        raise ValueError("order")
    nyquist = sample_rate_hz / 2.0
    if high_hz >= nyquist or low_hz <= -nyquist:
        raise ValueError("band")
    center = 0.5 * (low_hz + high_hz)
    half_width = 0.5 * (high_hz - low_hz)
    lowpass = sp_signal.firwin(num_taps, half_width, fs=sample_rate_hz)
    if center == 0.0:
        return lowpass
    n = np.arange(num_taps)
    with np.errstate(invalid="ignore"):  # NaN edges, as scipy allowed
        return lowpass * np.exp(
            1j * 2.0 * np.pi * center * n / sample_rate_hz
        )


def _outcome(design, *args):
    """Tap bytes, or ``"ValueError"`` when the design rejects its input."""
    try:
        taps = design(*args)
    except ValueError:
        return "ValueError"
    return taps.dtype.str, taps.tobytes()


def _tone_gain(taps, freq_hz, fs):
    tone = complex_tone(freq_hz, fs, 8192)
    out = fir_filter(taps, tone)
    # Ignore edges where convolution hasn't settled.
    steady = out[1000:-1000]
    return float(np.mean(np.abs(steady)))


class TestLowpass:
    def test_passband_unity(self):
        taps = design_lowpass_fir(100e3, 1e6, 129)
        assert _tone_gain(taps, 10e3, 1e6) == pytest.approx(1.0, abs=0.02)

    def test_stopband_rejection(self):
        taps = design_lowpass_fir(100e3, 1e6, 129)
        assert _tone_gain(taps, 400e3, 1e6) < 0.01

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            design_lowpass_fir(600e3, 1e6)
        with pytest.raises(ValueError):
            design_lowpass_fir(0.0, 1e6)

    def test_tap_count_validation(self):
        with pytest.raises(ValueError):
            design_lowpass_fir(100e3, 1e6, 128)  # even
        with pytest.raises(ValueError):
            design_lowpass_fir(100e3, 1e6, 1)


class TestBandpass:
    def test_passband_and_stopband(self):
        taps = design_bandpass_fir(100e3, 300e3, 1e6, 257)
        assert _tone_gain(taps, 200e3, 1e6) == pytest.approx(1.0, abs=0.03)
        assert _tone_gain(taps, 0.0, 1e6) < 0.02
        assert _tone_gain(taps, 450e3, 1e6) < 0.02

    def test_negative_band_for_baseband(self):
        taps = design_bandpass_fir(-300e3, -100e3, 1e6, 257)
        assert _tone_gain(taps, -200e3, 1e6) == pytest.approx(
            1.0, abs=0.03
        )
        assert _tone_gain(taps, 200e3, 1e6) < 0.02

    def test_symmetric_band_is_real_lowpass(self):
        taps = design_bandpass_fir(-100e3, 100e3, 1e6, 129)
        assert np.allclose(taps.imag if np.iscomplexobj(taps) else 0, 0)

    def test_band_validation(self):
        with pytest.raises(ValueError):
            design_bandpass_fir(300e3, 100e3, 1e6)
        with pytest.raises(ValueError):
            design_bandpass_fir(100e3, 600e3, 1e6)


def _random_triples(count, seed):
    """Seeded (taps, cutoff, rate) designs across every scale in use.

    Rates span 1 kHz-100 MHz log-uniformly; cutoffs span the whole
    open (0, nyquist) interval, including fractions within 1e-9 of
    either end; tap counts are odd, 3-1001.
    """
    rng = np.random.default_rng(seed)
    rates = 10.0 ** rng.uniform(3.0, 8.0, count)
    fractions = rng.uniform(0.0, 1.0, count)
    fractions[::50] = rng.uniform(1e-12, 1e-9, len(fractions[::50]))
    fractions[1::50] = 1.0 - rng.uniform(1e-12, 1e-9, len(fractions[1::50]))
    taps = 2 * rng.integers(1, 501, count) + 1
    for n, frac, rate in zip(taps, fractions, rates):
        cutoff = float(frac * rate / 2.0)
        if 0.0 < cutoff < rate / 2.0:
            yield int(n), cutoff, float(rate)


class TestTapsMatchScipy:
    """numpy tap design equals ``scipy.signal.firwin`` by ``tobytes()``."""

    def test_random_lowpass_designs_bit_identical(self):
        checked = 0
        for n, cutoff, rate in _random_triples(5100, seed=2024):
            ours = design_lowpass_fir(cutoff, rate, n)
            oracle = sp_signal.firwin(n, cutoff, fs=rate)
            assert ours.dtype == oracle.dtype
            assert ours.tobytes() == oracle.tobytes(), (n, cutoff, rate)
            checked += 1
        assert checked >= 5000

    def test_random_bandpass_designs_bit_identical(self):
        rng = np.random.default_rng(7)
        for n, cutoff, rate in _random_triples(500, seed=2025):
            # A band of width 2 * cutoff' placed anywhere inside (±nyq).
            half = 0.5 * cutoff
            center = rng.uniform(-0.5, 0.5) * (rate / 2.0 - half)
            args = (center - half, center + half, rate, n)
            assert _outcome(design_bandpass_fir, *args) == _outcome(
                _scipy_bandpass, *args
            ), args

    @pytest.mark.parametrize(
        "cutoff, rate, n",
        [
            # TV waveform shaping low-pass, at 8 Msps and scaled to the
            # wideband capture rates up to the BladeRF's maximum.
            *[
                (
                    VSB_OCCUPIED_HZ / 2.0,
                    rate,
                    scaled_num_taps(129, TV_SAMPLE_RATE_HZ, rate),
                )
                for rate in (
                    TV_SAMPLE_RATE_HZ,
                    12e6,
                    20e6,
                    30.72e6,
                    BLADERF_XA9.max_sample_rate_hz,
                )
            ],
            # FM waveform audio low-pass, at 1 Msps and scaled up.
            *[
                (
                    FM_AUDIO_BW_HZ,
                    rate,
                    scaled_num_taps(101, FM_SAMPLE_RATE_HZ, rate),
                )
                for rate in (
                    FM_SAMPLE_RATE_HZ,
                    2.4e6,
                    8e6,
                    20e6,
                    BLADERF_XA9.max_sample_rate_hz,
                )
            ],
            # Monitoring's 129-tap LTE shaping filter, every bandwidth.
            *[
                (rb * _RB_BANDWIDTH_HZ / 2.0, rate, 129)
                for rb in (6, 15, 25, 50, 75, 100)
                for rate in (20e6, 30.72e6, BLADERF_XA9.max_sample_rate_hz)
            ],
            # The channelizer benchmark's 991-tap wideband filter.
            (2.69e6, 61.44e6, 991),
        ],
    )
    def test_lowpass_designs_in_use(self, cutoff, rate, n):
        oracle = _scipy_lowpass(cutoff, rate, n).tobytes()
        assert design_lowpass_fir(cutoff, rate, n).tobytes() == oracle
        assert design_lowpass_fir_cached(cutoff, rate, n).tobytes() == oracle

    @pytest.mark.parametrize(
        "half_width, rate",
        [
            (VSB_OCCUPIED_HZ / 2.0, TV_SAMPLE_RATE_HZ),
            (FM_OCCUPIED_HZ / 2.0, FM_SAMPLE_RATE_HZ),
        ],
    )
    def test_parseval_meter_bandpass(self, half_width, rate):
        meter = ParsevalPowerMeter(
            sample_rate_hz=rate,
            band_low_hz=-half_width,
            band_high_hz=half_width,
        )
        oracle = _scipy_bandpass(-half_width, half_width, rate, 257)
        assert meter._taps.tobytes() == oracle.tobytes()

    def test_cached_bandpass_matches(self):
        for args in [(-2e6, 2e6, 8e6, 257), (100e3, 300e3, 1e6, 257)]:
            oracle = _scipy_bandpass(*args).tobytes()
            assert design_bandpass_fir(*args).tobytes() == oracle
            assert design_bandpass_fir_cached(*args).tobytes() == oracle


# Values that probe every range check: non-finite, zero, negative,
# the Nyquist edge, and magnitudes that underflow the normalised cutoff.
_PROBES = [NAN, INF, -INF, 0.0, -0.0, -1e5, 1e-300, 5e-324, 1e5, 5e5,
           4.999999e5, 1e6, 1e300]


class TestRejectsWhereScipyRejected:
    """Every input the scipy design rejected is still a ValueError."""

    @pytest.mark.parametrize("rate", _PROBES)
    @pytest.mark.parametrize("cutoff", _PROBES)
    def test_lowpass(self, cutoff, rate):
        ours = _outcome(design_lowpass_fir, cutoff, rate, 65)
        oracle = _outcome(_scipy_lowpass, cutoff, rate, 65)
        assert ours == oracle

    @pytest.mark.parametrize("rate", [NAN, INF, 0.0, -1e6, 1e6, 1e300])
    @pytest.mark.parametrize("high", _PROBES)
    @pytest.mark.parametrize("low", [NAN, -INF, -5e5, -1e5, 0.0, 1e-300])
    def test_bandpass(self, low, high, rate):
        ours = _outcome(design_bandpass_fir, low, high, rate, 33)
        oracle = _outcome(_scipy_bandpass, low, high, rate, 33)
        if oracle == "ValueError":
            assert ours == "ValueError"
        elif not np.all(np.isfinite(np.frombuffer(oracle[1], oracle[0]))):
            # scipy returned NaN taps here; such an input is rejected now.
            assert ours == "ValueError"
        else:
            assert ours == oracle


class TestNonFiniteInputs:
    """A NaN or infinite rate or band edge is a ValueError, never taps."""

    def test_bandpass_nan_low_edge(self):
        with pytest.raises(ValueError, match="low_hz"):
            design_bandpass_fir(NAN, 1e5, 1e6)

    def test_bandpass_nan_high_edge(self):
        with pytest.raises(ValueError, match="high_hz"):
            design_bandpass_fir(-1e5, NAN, 1e6)

    def test_bandpass_infinite_rate(self):
        with pytest.raises(ValueError, match="sample_rate_hz"):
            design_bandpass_fir(-1e5, 1e5, INF)

    def test_lowpass_infinite_rate(self):
        with pytest.raises(ValueError, match="sample_rate_hz"):
            design_lowpass_fir(1e5, INF)

    def test_lowpass_nan_cutoff(self):
        with pytest.raises(ValueError, match="cutoff_hz"):
            design_lowpass_fir(NAN, 1e6)

    def test_cached_designs_reject_too(self):
        with pytest.raises(ValueError):
            design_lowpass_fir_cached(1e5, INF)
        with pytest.raises(ValueError):
            design_bandpass_fir_cached(NAN, 1e5, 1e6)

    def test_scaled_num_taps_nan_rate(self):
        with pytest.raises(ValueError, match="sample_rate_hz"):
            scaled_num_taps(129, 8e6, NAN)

    def test_scaled_num_taps_infinite_rate(self):
        with pytest.raises(ValueError, match="sample_rate_hz"):
            scaled_num_taps(129, 8e6, INF)

    def test_scaled_num_taps_infinite_base_rate(self):
        with pytest.raises(ValueError, match="base_rate_hz"):
            scaled_num_taps(129, INF, 8e6)


class TestFirFilter:
    def test_same_length_output(self):
        taps = design_lowpass_fir(100e3, 1e6, 65)
        x = np.ones(500, dtype=complex)
        assert len(fir_filter(taps, x)) == 500

    def test_empty_taps_rejected(self):
        with pytest.raises(ValueError):
            fir_filter(np.array([]), np.ones(10))


class TestMovingAverage:
    def test_constant_input(self):
        out = moving_average(np.full(100, 3.0), 10)
        assert np.allclose(out, 3.0)

    def test_step_response(self):
        x = np.concatenate([np.zeros(50), np.ones(50)])
        out = moving_average(x, 10)
        assert out[49] == 0.0
        assert out[59] == pytest.approx(1.0)
        assert out[54] == pytest.approx(0.5)

    def test_growing_edge(self):
        x = np.arange(1.0, 6.0)
        out = moving_average(x, 3)
        assert out[0] == 1.0
        assert out[1] == pytest.approx(1.5)
        assert out[2] == pytest.approx(2.0)
        assert out[4] == pytest.approx(4.0)

    def test_window_longer_than_input(self):
        x = np.array([2.0, 4.0, 6.0])
        out = moving_average(x, 100)
        assert out[2] == pytest.approx(4.0)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            moving_average(np.ones(10), 0)
