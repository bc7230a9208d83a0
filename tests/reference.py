"""Brute-force reference constructions that only the tests use as oracles.

Each one builds a quantity the package computes in moment or batched form
the long way, from the model objects alone (the allocation's dicts and
tuples, the panels' element offsets, one placement at a time), so a
comparison checks the shortcut and not a shared helper. The scalar
geometry (panel world states, line of sight, link geometry) and the scalar
effective bandwidth and power calibration live here too: the package
computes them on arrays only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from v2vbounds.errors import NoActiveLinks
from v2vbounds.fim_closed import RANK_EPS
from v2vbounds.fim_general import link_order
from v2vbounds.geometry import SPEED_OF_LIGHT, Link, Pose, Vec2, active_links, wrap_angle
from v2vbounds.scenarios import _build_vehicle, calibrated_scene
from v2vbounds.waveform import OfdmSpec, interleaved_allocation


def unit_dir(psi: float) -> Vec2:
    """Unit vector [cos(psi), sin(psi)]."""
    return Vec2(math.cos(psi), math.sin(psi))


def unit_perp(psi: float) -> Vec2:
    """Unit vector orthogonal to unit_dir(psi), equal to unit_dir(psi - pi/2)."""
    return unit_dir(psi - math.pi / 2.0)


@dataclass(frozen=True)
class PanelState:
    """A panel resolved into the world frame."""

    centroid: Vec2
    elements: tuple[Vec2, ...]
    blocked_center: float  # rad, world frame
    blocked_halfwidth: float  # rad


def panel_world_state(vehicle, pose, panel_index: int) -> PanelState:
    """Resolve a panel (0-based index) into world-frame centroid and elements."""
    panel = vehicle.panels[panel_index]
    alpha = pose.orientation
    centroid = pose.position + panel.mount_distance * unit_dir(panel.mount_angle + alpha)
    elements = tuple(
        centroid + e.distance * unit_dir(e.angle + alpha) for e in panel.elements
    )
    return PanelState(
        centroid=centroid,
        elements=elements,
        blocked_center=wrap_angle(panel.fov_blocked_center + alpha),
        blocked_halfwidth=panel.fov_blocked_halfwidth,
    )


def tx_panel_state(scene, t: int) -> PanelState:
    return panel_world_state(scene.tx_vehicle, scene.tx_pose, t)


def rx_panel_state(scene, r: int) -> PanelState:
    return panel_world_state(scene.rx_vehicle, scene.rx_pose, r)


def link_geometry(tx_centroid: Vec2, rx_centroid: Vec2, alpha_R: float, tx_panel: int = 0,
                  rx_panel: int = 0) -> Link:
    """Distances, world/local angles, and delay for one panel pair; alpha_R
    is the Rx vehicle heading. The centroids must not coincide."""
    offset = rx_centroid - tx_centroid
    distance = offset.norm()
    theta_r = offset.angle()
    return Link(tx_panel=tx_panel, rx_panel=rx_panel, distance=distance, theta_R=theta_r,
                theta_T=wrap_angle(theta_r + math.pi), theta_R_local=wrap_angle(theta_r - alpha_R),
                delay=distance / SPEED_OF_LIGHT)


def body(vehicle, pose) -> tuple:
    """A vehicle's footprint at a pose, as geometry.los_mask and _crosses_body take it."""
    return (*pose.arrays(), vehicle.length, vehicle.width)


def reference_segment_crosses(vehicle, pose, a: Vec2, b: Vec2) -> bool:
    """Does the open segment a-b meet the open interior of the vehicle's body
    at the pose? A scalar Liang-Barsky clip, the reference for the vectorised
    geometry._crosses_body; running along an edge or touching only a corner
    does not count."""
    pa = (a - pose.position).rotated(-pose.orientation)
    pb = (b - pose.position).rotated(-pose.orientation)
    hw, hl = vehicle.width / 2.0, vehicle.length / 2.0
    t0, t1 = 0.0, 1.0
    for start, delta, lo, hi in ((pa.x, pb.x - pa.x, -hw, hw), (pa.y, pb.y - pa.y, -hl, hl)):
        if delta == 0.0:
            if start < lo or start > hi:
                return False
            continue
        ta, tb = sorted(((lo - start) / delta, (hi - start) / delta))
        t0, t1 = max(t0, ta), min(t1, tb)
        if t0 >= t1:
            return False
    tm = 0.5 * (t0 + t1)
    mx, my = pa.x + tm * (pb.x - pa.x), pa.y + tm * (pb.y - pa.y)
    eps = 1e-12
    return (-hw + eps < mx < hw - eps) and (-hl + eps < my < hl - eps)


def reference_los_visible(tx: PanelState, rx: PanelState, tx_body, rx_body) -> bool:
    """Line of sight from the Tx to the Rx panel, bodies as (vehicle, pose):
    the scalar reference for geometry.los_mask."""
    offset = rx.centroid - tx.centroid
    if offset.norm() < 1e-9:
        return False
    towards_rx = offset.angle()
    towards_tx = wrap_angle(towards_rx + math.pi)
    for direction, state in ((towards_rx, tx), (towards_tx, rx)):
        if abs(wrap_angle(direction - state.blocked_center)) <= state.blocked_halfwidth + 1e-12:
            return False
    return not (reference_segment_crosses(*tx_body, tx.centroid, rx.centroid)
                or reference_segment_crosses(*rx_body, tx.centroid, rx.centroid))


def reference_effective_bandwidth(alloc, spec, t: int) -> float:
    """Power-weighted standard deviation of array t's subcarrier angular
    frequencies, in centered form, one subcarrier at a time from the
    allocation's tuples and dicts. Squares are products: a float's ** 2 goes
    through the C library's pow, which can miss the correctly rounded square
    (numpy's ** 2) in the last bit."""
    subset = alloc.per_array_sets[t]
    if not subset:
        return 0.0
    weights = [alloc.per_subcarrier_fractions[p] for p in subset]
    omegas = [2.0 * math.pi * p * spec.subcarrier_spacing for p in subset]
    mean = sum(w * o for w, o in zip(weights, omegas))
    var = sum(w * ((o - mean) * (o - mean)) for w, o in zip(weights, omegas))
    return math.sqrt(max(var, 0.0))


def reference_calibrated_power(preset) -> float:
    """The preset's transmit power from the scalar objects alone: side by
    side in neighboring lanes, the shortest line-of-sight link (ties to the
    smallest (t, r)) gets the target SNR g / (its Tx array's subcarrier
    count), g = 2 N_rx n_symbols gamma_t |h|^2 P / noise_variance with unit
    noise. Raises NoActiveLinks when no panel pair has line of sight."""
    vehicle = _build_vehicle(preset)
    allocation = interleaved_allocation(preset.occupied, len(vehicle.panels))
    ofdm = OfdmSpec(preset.n_fft, preset.subcarrier_spacing, preset.carrier_frequency,
                    preset.occupied)
    tx_pose, rx_pose = Pose(Vec2(0.0, 0.0), 0.0), Pose(Vec2(-preset.lane_width, 0.0), 0.0)
    links = []
    for t in range(len(vehicle.panels)):
        for r in range(len(vehicle.panels)):
            tx = panel_world_state(vehicle, tx_pose, t)
            rx = panel_world_state(vehicle, rx_pose, r)
            if reference_los_visible(tx, rx, (vehicle, tx_pose), (vehicle, rx_pose)):
                links.append(link_geometry(tx.centroid, rx.centroid, 0.0, t, r))
    if not links:
        raise NoActiveLinks("no Tx-Rx panel pair has line of sight")
    shortest = min(links, key=lambda lk: (lk.distance, lk.tx_panel, lk.rx_panel))
    amplitude = ofdm.wavelength / (4.0 * math.pi * shortest.distance)
    unit_g = (2.0 * vehicle.panels[shortest.rx_panel].n_elements * ofdm.n_symbols
              * allocation.array_power_fractions[shortest.tx_panel] * amplitude**2)
    n_sub = len(allocation.per_array_sets[shortest.tx_panel])
    return 10.0 ** (preset.target_snr_db / 10.0) * n_sub / unit_g


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
    steps of fim_channel_fd (1/omega_max for the delay, omega_max the largest
    |omega| of the allocation's subcarriers, 1 rad/s without one off DC, and
    |h| for the gain)."""
    order = link_order(links)
    ref_delay = links[order[0]].delay
    omega_max = 2.0 * math.pi * scene.ofdm.subcarrier_spacing * max(
        abs(p) for subset in scene.allocation.per_array_sets for p in subset)
    blocks = []
    for i in order:
        link, h = links[i], gains[i].h
        delay, angle, h_step = link.delay - ref_delay, link.theta_R_local, step * abs(h)
        columns = []
        for d_tau, d_theta, d_h in ((step / (omega_max or 1.0), 0.0, 0.0), (0.0, step, 0.0),
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
