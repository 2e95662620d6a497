"""Tests for repro.dsp.psd."""

import numpy as np
import pytest

from repro.dsp.iq import awgn, complex_tone, mix_signals
from repro.dsp.psd import (
    detect_occupied_bands,
    estimate_noise_floor,
    welch_psd,
)


class TestWelchPsd:
    def test_white_noise_flat(self, rng):
        noise = awgn(rng, 1 << 16, 1.0)
        freqs, psd = welch_psd(noise, 1e6)
        assert len(freqs) == len(psd)
        assert freqs[0] < 0 < freqs[-1]
        # Flat within a few dB across the band.
        spread = 10 * np.log10(np.max(psd) / np.min(psd))
        assert spread < 6.0

    def test_parseval_total_power(self, rng):
        noise = awgn(rng, 1 << 16, 0.5)
        freqs, psd = welch_psd(noise, 1e6)
        df = freqs[1] - freqs[0]
        assert float(np.sum(psd) * df) == pytest.approx(0.5, rel=0.05)

    def test_tone_peak_at_frequency(self, rng):
        fs = 1e6
        tone = complex_tone(200e3, fs, 1 << 15)
        noise = awgn(rng, 1 << 15, 1e-4)
        freqs, psd = welch_psd(mix_signals(tone, noise), fs)
        assert freqs[int(np.argmax(psd))] == pytest.approx(
            200e3, abs=2e3
        )

    def test_equals_scipy_welch_sorted(self, rng):
        # welch_psd is scipy's Welch, frequency-sorted, bit for bit.
        from scipy import signal as sp_signal

        samples = awgn(rng, 1 << 14, 1.0)
        freqs, psd = welch_psd(samples, 2e6, nperseg=512)
        ref_f, ref_p = sp_signal.welch(
            samples,
            fs=2e6,
            nperseg=512,
            return_onesided=False,
            detrend=False,
        )
        order = np.argsort(ref_f)
        assert freqs.tobytes() == ref_f[order].tobytes()
        assert psd.tobytes() == ref_p[order].tobytes()

    def test_too_short_rejected(self, rng):
        with pytest.raises(ValueError):
            welch_psd(awgn(rng, 100, 1.0), 1e6, nperseg=1024)


class TestNoiseFloor:
    def test_quantile_of_flat_noise(self, rng):
        _freqs, psd = welch_psd(awgn(rng, 1 << 15, 1.0), 1e6)
        floor = estimate_noise_floor(psd)
        assert floor == pytest.approx(np.quantile(psd, 0.2))
        # On flat noise the floor sits near the true level.
        assert floor == pytest.approx(np.median(psd), rel=0.2)

    def test_wideband_signal_does_not_inflate_floor(self, rng):
        # A signal occupying ~2/3 of the bins must not drag the floor
        # estimate up (the ATSC-in-8-MHz case).
        from repro.dsp.filters import design_lowpass_fir, fir_filter

        noise = awgn(rng, 1 << 15, 1e-4)
        wide = fir_filter(
            design_lowpass_fir(330e3, 1e6, 129),
            awgn(rng, 1 << 15, 1.0),
        )
        _freqs, psd = welch_psd(noise + wide, 1e6)
        _freqs, psd_noise = welch_psd(noise, 1e6)
        floor = estimate_noise_floor(psd)
        true_floor = float(np.median(psd_noise))
        assert floor < 4.0 * true_floor

    def test_quantile_validation(self, rng):
        _freqs, psd = welch_psd(awgn(rng, 1 << 12, 1.0), 1e6)
        with pytest.raises(ValueError):
            estimate_noise_floor(psd, quantile=0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate_noise_floor(np.array([]))


class TestOccupancyDetection:
    def _capture(self, rng, offsets_hz, powers_db):
        fs = 2e6
        n = 1 << 16
        parts = [awgn(rng, n, 1e-3)]
        for offset, p_db in zip(offsets_hz, powers_db):
            amp = 10.0 ** (p_db / 20.0) * np.sqrt(1e-3)
            parts.append(complex_tone(offset, fs, n, amplitude=amp))
        return mix_signals(*parts), fs

    def test_single_emission_detected(self, rng):
        samples, fs = self._capture(rng, [300e3], [30.0])
        freqs, psd = welch_psd(samples, fs)
        bands = detect_occupied_bands(freqs, psd, min_bins=1)
        assert len(bands) >= 1
        best = max(bands, key=lambda b: b.peak_power_db)
        assert best.center_hz == pytest.approx(300e3, abs=10e3)
        assert best.peak_power_db > 20.0

    def test_two_emissions_separate_bands(self, rng):
        samples, fs = self._capture(
            rng, [-400e3, 500e3], [25.0, 25.0]
        )
        freqs, psd = welch_psd(samples, fs)
        bands = detect_occupied_bands(freqs, psd, min_bins=1)
        centers = sorted(b.center_hz for b in bands)
        assert any(abs(c + 400e3) < 15e3 for c in centers)
        assert any(abs(c - 500e3) < 15e3 for c in centers)

    def test_quiet_band_no_detections(self, rng):
        noise = awgn(rng, 1 << 15, 1.0)
        freqs, psd = welch_psd(noise, 1e6)
        bands = detect_occupied_bands(freqs, psd, threshold_db=8.0)
        assert bands == []

    def test_threshold_controls_sensitivity(self, rng):
        samples, fs = self._capture(rng, [200e3], [8.0])
        freqs, psd = welch_psd(samples, fs)
        sensitive = detect_occupied_bands(
            freqs, psd, threshold_db=4.0, min_bins=1
        )
        strict = detect_occupied_bands(
            freqs, psd, threshold_db=20.0, min_bins=1
        )
        assert len(sensitive) >= len(strict)

    def test_validation(self, rng):
        freqs, psd = welch_psd(awgn(rng, 1 << 12, 1.0), 1e6)
        with pytest.raises(ValueError):
            detect_occupied_bands(freqs[:-1], psd)
        with pytest.raises(ValueError):
            detect_occupied_bands(freqs, psd, min_bins=0)

    def test_band_properties(self):
        from repro.dsp.psd import OccupiedBand

        band = OccupiedBand(-100e3, 100e3, 12.0)
        assert band.bandwidth_hz == 200e3
        assert band.center_hz == 0.0
