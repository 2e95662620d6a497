"""Single knife-edge diffraction loss (ITU-R P.526 approximation).

Obstruction maps convert "a building blocks this bearing by h meters
above the ray" into a frequency-dependent extra loss through this
model. Higher frequencies diffract less, which is exactly the effect
the paper measures in Figures 3 and 4: the same physical obstruction
costs more dB at 2.6 GHz than at 700 MHz.
"""

from __future__ import annotations

import math

import numpy as np

from repro.rf.units import wavelength_m, wavelength_m_array


def fresnel_v(
    obstacle_height_m: float,
    dist_tx_m: float,
    dist_rx_m: float,
    freq_hz: float,
) -> float:
    """Fresnel-Kirchhoff diffraction parameter ``v``.

    ``obstacle_height_m`` is the height of the knife edge above the
    straight line between transmitter and receiver (negative when the
    edge is below the line, i.e. the path is clear).
    """
    if dist_tx_m <= 0.0 or dist_rx_m <= 0.0:
        raise ValueError("edge-to-endpoint distances must be positive")
    lam = wavelength_m(freq_hz)
    return obstacle_height_m * math.sqrt(
        2.0 * (dist_tx_m + dist_rx_m) / (lam * dist_tx_m * dist_rx_m)
    )


def knife_edge_loss_db(v: float) -> float:
    """Diffraction loss for Fresnel parameter ``v``.

    Uses the ITU-R P.526 closed-form approximation
    ``J(v) = 6.9 + 20 log10(sqrt((v-0.1)^2 + 1) + v - 0.1)`` for
    v > -0.78 and zero loss below (unobstructed path).
    """
    if v <= -0.78:
        return 0.0
    term = math.sqrt((v - 0.1) ** 2 + 1.0) + v - 0.1
    return 6.9 + 20.0 * math.log10(term)


def fresnel_v_array(
    obstacle_height_m: np.ndarray,
    dist_tx_m: float,
    dist_rx_m: np.ndarray,
    freq_hz: float,
) -> np.ndarray:
    """Batch :func:`fresnel_v` over edge heights and RX distances.

    ``dist_tx_m`` (sensor-to-edge) stays scalar: one obstruction has
    one edge distance. Operation order matches the scalar function per
    element.
    """
    if dist_tx_m <= 0.0:
        raise ValueError("edge-to-endpoint distances must be positive")
    lam = wavelength_m(freq_hz)
    return obstacle_height_m * np.sqrt(
        2.0 * (dist_tx_m + dist_rx_m) / (lam * dist_tx_m * dist_rx_m)
    )


def fresnel_v_multifreq(
    obstacle_height_m: np.ndarray,
    dist_tx_m: float,
    dist_rx_m: np.ndarray,
    freq_hz: np.ndarray,
) -> np.ndarray:
    """:func:`fresnel_v_array` with a per-element carrier frequency.

    The §3.2 batch kernels diffract every tower at its own carrier in
    one pass; ``dist_tx_m`` (sensor-to-edge) stays scalar as in the
    array form.
    """
    if dist_tx_m <= 0.0:
        raise ValueError("edge-to-endpoint distances must be positive")
    lam = wavelength_m_array(freq_hz)
    return obstacle_height_m * np.sqrt(
        2.0 * (dist_tx_m + dist_rx_m) / (lam * dist_tx_m * dist_rx_m)
    )


def knife_edge_loss_db_array(v: np.ndarray) -> np.ndarray:
    """Batch :func:`knife_edge_loss_db`.

    The log10 is evaluated everywhere and masked afterwards, on ``v``
    clamped to -0.78 from below: unclamped, ``sqrt((v-0.1)^2 + 1) + v
    - 0.1`` cancels to 0 in floating point for very negative v (by
    -1e9). No warnings; identical values where v > -0.78.
    """
    vc = np.maximum(v, -0.78)
    term = np.sqrt((vc - 0.1) ** 2 + 1.0) + vc - 0.1
    return np.where(v <= -0.78, 0.0, 6.9 + 20.0 * np.log10(term))
