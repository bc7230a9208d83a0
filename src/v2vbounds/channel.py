"""Free-space link gains, information weights, the pose-free link context,
and a Scene: one link context at two poses."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Link, Pose, VehicleSpec, read_only
from .waveform import Allocation, OfdmSpec, effective_bandwidths


@dataclass(frozen=True)
class LinkGain:
    """Complex amplitude gain and information weight of one active link."""

    h: complex  # dimensionless amplitude gain
    g: float  # 2 N_rx n_symbols total_power gamma_t |h|^2, noise unit
    snr_after_bf_db: float  # receive SNR after Rx beamforming, dB


def free_space_gain(distance, wavelength: float):
    """Free-space amplitude gain wavelength/(4 pi d) with carrier phase,
    elementwise over the distances."""
    if np.any(np.asarray(distance) <= 0.0):
        raise ValueError(f"distance must be positive, got {distance}")
    if wavelength <= 0.0:
        raise ValueError("wavelength must be positive")
    amplitude = wavelength / (4.0 * math.pi * distance)
    phase = -2.0 * math.pi * distance / wavelength
    return amplitude * np.exp(1j * phase)


def information_weight(distance, wavelength, n_rx, gamma_t, n_symbols):
    """Elementwise information weight g = 2 N_rx n_symbols gamma_t |h|^2 at
    total_power = 1 and unit noise, with |h| = wavelength / (4 pi d)."""
    amplitude = wavelength / (4.0 * math.pi * distance)
    return 2.0 * n_rx * n_symbols * gamma_t * amplitude**2


@dataclass(frozen=True, eq=False)
class LinkContext:
    """Everything about two vehicles' links that no placement changes, at
    unit noise; shared, read-only."""

    tx_vehicle: VehicleSpec
    rx_vehicle: VehicleSpec
    ofdm: OfdmSpec
    allocation: Allocation
    betas: np.ndarray  # (K,) effective bandwidth per Tx array, rad/s
    omega: np.ndarray  # (K, S_max) baseband angular frequency of each Allocation.arrays slot
    power: np.ndarray  # (K, S_max) power of each slot, zero on padding
    tx_moments: np.ndarray  # (K, 3) each Tx array's power moments sum P omega^p, p = 0, 1, 2
    # Per link (Tx panel t, Rx panel r) in Kt*Kr order, each (Kt*Kr,):
    link_gd2: np.ndarray  # information weight g times distance^2
    link_beta: np.ndarray  # betas[t]
    link_sends: np.ndarray  # link_gd2 > 0: the Tx array has signal
    link_saaf: np.ndarray  # (3, Kt, Kr) the Rx panel's (S00, S01 + S10, S11) of saaf_s


def link_context(tx_vehicle: VehicleSpec, rx_vehicle: VehicleSpec, ofdm: OfdmSpec,
                 allocation: Allocation) -> LinkContext:
    """The context every kernel reads, of links from tx_vehicle to rx_vehicle;
    raises ValueError unless the allocation has one subcarrier set per Tx
    panel."""
    if allocation.n_arrays != len(tx_vehicle.panels):
        raise ValueError("allocation must provide one subcarrier set per Tx panel "
                         f"({allocation.n_arrays} sets, {len(tx_vehicle.panels)} panels)")
    rx, fractions = rx_vehicle.arrays, np.array(allocation.array_power_fractions)
    betas = read_only(np.array(effective_bandwidths(allocation, ofdm)))
    omega = read_only(2.0 * math.pi * ofdm.subcarrier_spacing * allocation.arrays.indices)
    power = read_only(fractions[:, None] * allocation.arrays.fractions * ofdm.total_power)
    # Summed along the contiguous axis, which numpy adds pairwise.
    moments = np.sum(power[:, None] * omega[:, None] ** np.arange(3)[:, None], -1)
    t, r = np.indices((len(tx_vehicle.panels), len(rx.saaf_s)))
    gd2 = ofdm.total_power * information_weight(1.0, ofdm.wavelength, rx.n_elements[r.ravel()],
                                                fractions[t.ravel()], ofdm.n_symbols)
    (s00, s01), (s10, s11) = rx.saaf_s[r].transpose(2, 3, 0, 1)
    return LinkContext(tx_vehicle, rx_vehicle, ofdm, allocation, betas, omega, power,
                       read_only(moments), read_only(gd2), read_only(betas[t.ravel()]),
                       read_only(gd2 > 0.0), read_only(np.array([s00, s01 + s10, s11])))


@dataclass(frozen=True)
class Scene:
    """One relative placement of two vehicles: their link context and both poses.

    The context's vehicles and allocation read through, for callers that
    walk a scene's panels or subcarrier sets.
    """

    context: LinkContext
    tx_pose: Pose
    rx_pose: Pose

    tx_vehicle = property(lambda self: self.context.tx_vehicle)
    rx_vehicle = property(lambda self: self.context.rx_vehicle)
    allocation = property(lambda self: self.context.allocation)


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
