"""Free-space link gains, information weights, and the pose-free link context."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ZeroDistance
from .geometry import Link, VehicleSpec, read_only
from .waveform import Allocation, OfdmSpec, effective_bandwidths

if TYPE_CHECKING:  # pragma: no cover
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


@dataclass(frozen=True, eq=False)
class LinkContext:
    """Everything about two vehicles' links that no placement changes; shared, read-only."""

    tx_vehicle: VehicleSpec
    rx_vehicle: VehicleSpec
    ofdm: OfdmSpec
    allocation: Allocation
    noise_variance: float
    betas: np.ndarray  # (K,) effective bandwidth per Tx array, rad/s
    omega: np.ndarray  # (K, S_max) baseband angular frequency of each Allocation.arrays slot
    power: np.ndarray  # (K, S_max) power of each slot, zero on padding
    # Per link (Tx panel t, Rx panel r) in Kt*Kr order, each (Kt*Kr, ...):
    link_panels: tuple[np.ndarray, np.ndarray]  # t and r
    link_gd2: np.ndarray  # information weight g times distance^2
    link_beta: np.ndarray  # betas[t]
    link_saaf: np.ndarray  # the Rx panel's (2, 2) SAAF matrix


def link_context(tx_vehicle: VehicleSpec, rx_vehicle: VehicleSpec, ofdm: OfdmSpec,
                 allocation: Allocation, noise_variance: float = 1.0) -> LinkContext:
    """The context every kernel reads, of links from tx_vehicle to rx_vehicle."""
    rx, fractions = rx_vehicle.arrays, np.array(allocation.array_power_fractions)
    betas = read_only(np.array(effective_bandwidths(allocation, ofdm)))
    t, r = (read_only(i.ravel()) for i in np.indices((len(tx_vehicle.panels), len(rx.saaf_s))))
    gd2 = ofdm.total_power * information_weight(1.0, ofdm.wavelength, rx.n_elements[r],
                                                fractions[t], ofdm.n_symbols, noise_variance)
    return LinkContext(
        tx_vehicle, rx_vehicle, ofdm, allocation, noise_variance, betas,
        read_only(2.0 * math.pi * ofdm.subcarrier_spacing * allocation.arrays.indices),
        read_only(fractions[:, None] * allocation.arrays.fractions * ofdm.total_power),
        (t, r), read_only(gd2), read_only(betas[t]), read_only(rx.saaf_s[r]))


def link_gains(scene: Scene, links: Sequence[Link]) -> list[LinkGain]:
    """Per-link complex gains and information weights, aligned with ``links``;
    g is the batched ``link_gd2 / d^2`` of the scene's context."""
    ctx, gains = scene.context, []
    for link in links:
        h = free_space_gain(link.distance, ctx.ofdm.wavelength)
        # bound_table's g = link_gd2 / d**2, whose numpy d**2 is d * d.
        g = float(ctx.link_gd2[link.tx_panel * len(ctx.rx_vehicle.panels) + link.rx_panel]
                  / (link.distance * link.distance))
        n_sub = len(ctx.allocation.per_array_sets[link.tx_panel])
        snr_db = 10.0 * math.log10(g / n_sub) if n_sub else -math.inf
        gains.append(LinkGain(h=h, g=g, snr_after_bf_db=snr_db))
    return gains
