"""Free-space link gains and per-link information weights."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ZeroDistance
from .geometry import Link
from .scene import Scene


@dataclass(frozen=True)
class LinkGain:
    """Complex amplitude gain and information weight of one active link."""

    h: complex  # dimensionless amplitude gain
    g: float  # 2 N_rx n_symbols total_power gamma_t |h|^2 / noise_variance
    snr_after_bf_db: float  # receive SNR after Rx beamforming, dB


def free_space_gain(distance, wavelength: float):
    """Free-space amplitude gain wavelength/(4 pi d) with carrier phase,
    elementwise over the distances."""
    if np.any(np.asarray(distance) <= 0.0):
        raise ZeroDistance(f"distance must be positive, got {distance}")
    if wavelength <= 0.0:
        raise ValueError("wavelength must be positive")
    amplitude = wavelength / (4.0 * math.pi * distance)
    phase = -2.0 * math.pi * distance / wavelength
    return amplitude * np.exp(1j * phase)


def information_weight(distance, wavelength, n_rx, gamma_t, n_symbols, noise_variance):
    """Elementwise information weight g = 2 N_rx n_symbols gamma_t |h|^2 /
    noise_variance at total_power = 1, with |h| = wavelength / (4 pi d)."""
    amplitude = wavelength / (4.0 * math.pi * distance)
    return 2.0 * n_rx * n_symbols * gamma_t * amplitude**2 / noise_variance


def link_gains(scene: Scene, links: Sequence[Link]) -> list[LinkGain]:
    """Per-link complex gains and information weights, aligned with ``links``."""
    gains = []
    for link in links:
        h = free_space_gain(link.distance, scene.ofdm.wavelength)
        g = scene.ofdm.total_power * information_weight(
            link.distance, scene.ofdm.wavelength, scene.rx_vehicle.panels[link.rx_panel].n_elements,
            scene.allocation.array_power_fractions[link.tx_panel], scene.ofdm.n_symbols,
            scene.noise_variance)
        n_sub = len(scene.allocation.per_array_sets[link.tx_panel])
        snr_db = 10.0 * math.log10(g / n_sub) if n_sub else -math.inf
        gains.append(LinkGain(h=h, g=g, snr_after_bf_db=snr_db))
    return gains

