"""Tests for repro.rf.diffraction."""

import warnings

import numpy as np
import pytest

from repro.rf.diffraction import (
    fresnel_v,
    knife_edge_loss_db,
    knife_edge_loss_db_array,
)


class TestFresnelV:
    def test_zero_height_zero_v(self):
        assert fresnel_v(0.0, 100.0, 10_000.0, 1e9) == 0.0

    def test_sign_follows_height(self):
        above = fresnel_v(10.0, 100.0, 10_000.0, 1e9)
        below = fresnel_v(-10.0, 100.0, 10_000.0, 1e9)
        assert above > 0.0
        assert below == pytest.approx(-above)

    def test_higher_frequency_larger_v(self):
        low = fresnel_v(5.0, 100.0, 10_000.0, 700e6)
        high = fresnel_v(5.0, 100.0, 10_000.0, 2.6e9)
        assert high > low

    def test_invalid_distances(self):
        with pytest.raises(ValueError):
            fresnel_v(1.0, 0.0, 100.0, 1e9)
        with pytest.raises(ValueError):
            fresnel_v(1.0, 100.0, -1.0, 1e9)


class TestKnifeEdgeLoss:
    def test_clear_path_no_loss(self):
        assert knife_edge_loss_db(-1.0) == 0.0
        assert knife_edge_loss_db(-0.79) == 0.0

    def test_grazing_loss_about_6db(self):
        # v = 0: the edge exactly on the ray costs ~6 dB.
        assert knife_edge_loss_db(0.0) == pytest.approx(6.0, abs=0.1)

    def test_itu_reference_point(self):
        # J(1.0) ~ 13.9 dB per the P.526 approximation.
        assert knife_edge_loss_db(1.0) == pytest.approx(13.9, abs=0.3)

    def test_monotonic_in_v(self):
        values = [knife_edge_loss_db(v) for v in (-0.5, 0.0, 1.0, 3.0, 10.0)]
        assert values == sorted(values)

    def test_asymptotic_20log_v(self):
        # Deep shadow: J(v) ~ 13 + 20 log10(v).
        loss = knife_edge_loss_db(100.0)
        assert loss == pytest.approx(13.0 + 40.0, abs=0.5)

    def test_continuous_at_cutoff(self):
        just_below = knife_edge_loss_db(-0.781)
        just_above = knife_edge_loss_db(-0.779)
        assert just_below == 0.0
        assert just_above < 1.0


class TestKnifeEdgeLossArray:
    #: Fresnel v from deep shadow to far below the -0.78 cutoff; -1.6e16
    #: is what an obstruction cleared at -90 degrees elevation yields.
    V = np.array(
        [50.0, 3.0, 0.0, -0.5, -0.7799, -0.78, -0.781, -1.0, -1e3,
         -1e8, -1e9, -1e12, -1.6e16, -1e300, -np.inf]
    )

    def test_no_warnings_for_very_negative_v(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss = knife_edge_loss_db_array(self.V)
        assert np.all(np.isfinite(loss))
        assert np.all(loss[self.V <= -0.78] == 0.0)

    def test_matches_scalar_bit_for_bit(self):
        loss = knife_edge_loss_db_array(self.V[np.isfinite(self.V)])
        for v, got in zip(self.V[np.isfinite(self.V)], loss):
            assert got == knife_edge_loss_db(float(v))
