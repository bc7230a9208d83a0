"""Brute-force reference constructions that only the tests use as oracles.

Each one builds a quantity the package computes in moment or batched form
the long way, from the model objects alone (the allocation's dicts and
tuples, the panels' element offsets, one placement at a time), so a
comparison checks the shortcut and not a shared helper.
"""

from __future__ import annotations

import math

import numpy as np

from v2vbounds.errors import NoActiveLinks
from v2vbounds.fim_closed import RANK_EPS
from v2vbounds.fim_general import link_order
from v2vbounds.geometry import SPEED_OF_LIGHT, Vec2, active_links
from v2vbounds.scenarios import calibrated_scene


def link_samples(scene, link, delay, angle, gain):
    """The link's (subcarrier, Rx element) mean, its subcarriers' angular
    frequencies and its element phases' angle derivatives, sample by sample."""
    subset = scene.allocation.per_array_sets[link.tx_panel]
    omega = 2.0 * math.pi * scene.ofdm.subcarrier_spacing * np.array(subset, dtype=float)
    gamma_t = scene.allocation.array_power_fractions[link.tx_panel]
    fracs = np.array([scene.allocation.per_subcarrier_fractions[p] for p in subset], dtype=float)
    amps = np.sqrt(gamma_t * fracs * scene.ofdm.total_power)
    elements = scene.rx_vehicle.panels[link.rx_panel].elements
    dist = np.array([e.distance for e in elements])
    ang = np.array([e.angle for e in elements])
    phase = scene.ofdm.omega_c * dist * np.cos(ang - angle) / SPEED_OF_LIGHT
    dphase = scene.ofdm.omega_c * dist * np.sin(ang - angle) / SPEED_OF_LIGHT
    mean = (amps * np.exp(-1j * omega * delay))[:, None] * (gain * np.exp(1j * phase))[None, :]
    return mean, omega, dphase


def _folded_information(scene, blocks):
    """Channel FIM from each link's 4 x 4 Gram in link order: the blocks on
    the diagonal, then the timing offset, which shifts every link's delay,
    folded into column 0."""
    n = 4 * len(blocks)
    j = np.zeros((n, n))
    for k, block in enumerate(blocks):
        j[4 * k:4 * k + 4, 4 * k:4 * k + 4] = block
    offset = np.eye(n)
    offset[0::4, 0] = 1.0
    j = 2.0 * scene.ofdm.n_symbols / scene.noise_variance * (offset.T @ j @ offset)
    return 0.5 * (j + j.T)


def brute_force_fim_channel(scene, links, gains, reference=None):
    """Channel FIM from each link's full (samples, 4) derivative stack, one
    link at a time, in the fim_channel layout."""
    order = link_order(links, reference)
    ref_delay = links[order[0]].delay
    blocks = []
    for i in order:
        link, h = links[i], gains[i].h
        mean, omega, dphase = link_samples(scene, link, link.delay - ref_delay,
                                           link.theta_R_local, h)
        grad = np.stack((
            -1j * omega[:, None] * mean,  # timing offset / delay difference
            1j * dphase[None, :] * mean,  # arrival angle
            mean / h,  # Re gain
            1j * mean / h,  # Im gain
        ), axis=-1).reshape(-1, 4)
        blocks.append((grad.conj().T @ grad).real)
    return _folded_information(scene, blocks)


def per_link_fim_channel_fd(scene, links, gains, step=1e-7):
    """Central-FD channel FIM one link and one parameter at a time, each of a
    link's four parameters stepped in its sample-by-sample mean with the
    steps of fim_channel_fd (1/omega_c for the delay, |h| for the gain)."""
    order = link_order(links)
    ref_delay = links[order[0]].delay
    blocks = []
    for i in order:
        link, h = links[i], gains[i].h
        delay, angle, h_step = link.delay - ref_delay, link.theta_R_local, step * abs(h)
        columns = []
        for d_tau, d_theta, d_h in ((step / scene.ofdm.omega_c, 0.0, 0.0), (0.0, step, 0.0),
                                    (0.0, 0.0, h_step), (0.0, 0.0, 1j * h_step)):
            plus = link_samples(scene, link, delay + d_tau, angle + d_theta, h + d_h)[0]
            minus = link_samples(scene, link, delay - d_tau, angle - d_theta, h - d_h)[0]
            columns.append((plus - minus).ravel() / (2.0 * abs(d_tau + d_theta + d_h)))
        grad = np.column_stack(columns)
        blocks.append((grad.conj().T @ grad).real)
    return _folded_information(scene, blocks)


def einsum_information(v_tau, v_theta, aperture, g, distance, beta, omega_c):
    """AOA-only and AOA+TDOA EFIMs as einsum sums over the links: the
    reference for the batched matmul form of ``fim_closed.information``."""
    c2 = SPEED_OF_LIGHT**2
    w_theta = g * omega_c**2 * aperture / (c2 * distance**2)
    j_aoa = np.einsum("...k,...ki,...kj->...ij", w_theta, v_theta, v_theta)
    w_tau = g * beta**2 / c2
    total = np.sum(w_tau, axis=-1, keepdims=True)
    mean = np.einsum("...k,...ki->...i", w_tau, v_tau) / np.where(total > 0.0, total, 1.0)
    centered = v_tau - mean[..., None, :]
    return j_aoa, j_aoa + np.einsum("...k,...ki,...kj->...ij", w_tau, centered, centered)


def inverse_bound_arrays(j_po):
    """Ranks and bounds of (..., 3, 3) EFIMs from eigvalsh and a LAPACK
    inverse: the reference for ``fim_closed.bound_arrays`` on finite
    matrices, without its position-block rank rule."""
    sym = 0.5 * (j_po + np.swapaxes(j_po, -1, -2))
    diag = sym.diagonal(0, -2, -1)
    scale = np.sqrt(np.divide(1.0, diag, where=diag > 0.0, out=np.zeros(diag.shape)))
    eigvals = np.linalg.eigvalsh(sym * (scale[..., :, None] * scale[..., None, :]))
    lam_max = eigvals[..., -1:]
    rank = np.where(lam_max[..., 0] > 0.0, np.sum(eigvals > RANK_EPS * lam_max, axis=-1), 0)
    full = (rank == 3)[..., None]
    inv = np.linalg.inv(np.where(full[..., None], sym, np.eye(3)))
    with np.errstate(invalid="ignore"):
        bounds = np.sqrt(np.diagonal(inv, axis1=-2, axis2=-1))
    return rank, np.where(full, bounds, math.inf)


def format_cell(value: float) -> str:
    """One CSV cell formatted on its own: the per-cell reference for the row
    format of ``app.emit_csv``."""
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return f"{value:.9g}"


def sequential_placements(rng, presets, n_scenes):
    """The selfcheck's scenes drawn one placement at a time: scene i under
    presets[i % len(presets)] is the first draw (radius, bearing, Tx heading)
    whose calibrated scene has a link, as (preset, q, alpha_t)."""
    accepted = []
    for i in range(n_scenes):
        preset = presets[i % len(presets)]
        while True:
            radius = rng.uniform(5.0, 40.0)
            bearing = rng.uniform(-math.pi, math.pi)
            alpha_t = rng.uniform(-math.pi, math.pi)
            q = Vec2(radius * math.cos(bearing), radius * math.sin(bearing))
            scene = calibrated_scene(preset, q, alpha_t=alpha_t)
            try:
                active_links(scene)
            except NoActiveLinks:
                continue
            accepted.append((preset, q.as_tuple(), scene.tx_pose.orientation))
            break
    return accepted
