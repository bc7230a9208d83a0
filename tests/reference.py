"""Brute-force reference constructions that only the tests use as oracles.

Each one builds a quantity the package computes in moment or batched form
the long way, from the model objects alone (the allocation's subcarrier
tuples and its power rule, the panels' element offsets, one placement at a
time), so a comparison checks the shortcut and not a shared helper. The scalar
geometry (panel world states, line of sight, link geometry) and the scalar
effective bandwidth and power calibration live here too: the package
computes them on arrays only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from v2vbounds.errors import NoActiveLinks
from v2vbounds.fim_closed import RANK_EPS, information, link_vectors
from v2vbounds.geometry import (
    SPEED_OF_LIGHT, Link, Pose, Vec2, active_links, visibility, wrap_angle,
)
from v2vbounds.scenarios import _build_vehicle, calibrated_scene
from v2vbounds.waveform import OfdmSpec, interleaved_allocation


def polar(offsets) -> np.ndarray:
    """Distances and angles (2, ...) of complex offsets (...): the polar form
    of a panel's mount or elements that the cos/sin oracles here read."""
    offsets = np.asarray(offsets)
    return np.array([np.abs(offsets), np.angle(offsets)])


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
    alpha, (mount_distance, mount_angle) = pose.orientation, polar(panel.mount).tolist()
    centroid = pose.position + mount_distance * unit_dir(mount_angle + alpha)
    elements = tuple(
        centroid + d * unit_dir(psi + alpha) for d, psi in zip(*polar(panel.elements).tolist())
    )
    return PanelState(
        centroid=centroid,
        elements=elements,
        blocked_center=wrap_angle(panel.fov_blocked_center + alpha),
        blocked_halfwidth=panel.fov_blocked_halfwidth,
    )


def reference_aperture(elements, theta: float) -> float:
    """SAAF(theta) = (1/N) sum_i d_i^2 sin^2(theta - psi_i) of a panel's
    (2, N) element distances and angles (``polar`` of its offsets), one
    element at a time."""
    distances, angles = elements.tolist()
    across = [d * math.sin(theta - psi) for d, psi in zip(distances, angles)]
    return math.fsum(a * a for a in across) / len(distances)


def reference_d_perp(elements) -> tuple[float, float]:
    """d_perp = sum_i d_i (sin psi_i, -cos psi_i) of a panel's (2, N) element
    distances and angles, one element at a time: the sum of the element phases'
    angle derivatives over k, zero when the phase centre is the centroid."""
    distances, angles = elements.tolist()
    return (math.fsum(d * math.sin(psi) for d, psi in zip(distances, angles)),
            -math.fsum(d * math.cos(psi) for d, psi in zip(distances, angles)))


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
    """A vehicle's footprint at a pose, as geometry.los_mask and _crosses_body
    take it: complex position, e^(i heading), length and width."""
    heading = pose.orientation
    return (complex(*pose.position.as_tuple()), complex(math.cos(heading), math.sin(heading)),
            vehicle.length, vehicle.width)


def reference_centroids(vehicle, position, heading):
    """World-frame panel centroids (..., K, 2) of a VehicleSpec at poses
    (..., 2) and (...), each coordinate the panel's mount distance times the
    cos or sin of its mount angle plus heading: the oracle of the complex
    mounts that VehicleArrays.turned turns."""
    distance, angle = polar([p.mount for p in vehicle.panels])
    angle = angle + heading[..., None]
    return np.stack((distance * np.cos(angle), distance * np.sin(angle)), -1) + position[..., None, :]


def reference_sector_centers(vehicle, heading):
    """cos and sin (2, ..., K) of a VehicleSpec's world-frame blocked-sector
    centers at headings (...): the oracle of the turned blocked_dir."""
    center = np.array([p.fov_blocked_center for p in vehicle.panels]) + heading[..., None]
    return np.array([np.cos(center), np.sin(center)])


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


def reference_los_visible(tx: PanelState, rx: PanelState, tx_body, rx_body,
                          offset: Vec2 | None = None) -> bool:
    """Line of sight from the Tx to the Rx panel, bodies as (vehicle, pose):
    the scalar reference for geometry.los_mask. The sectors read the offset
    from the Tx to the Rx panel (the centroids' difference if none is given),
    the body test the segment between the centroids."""
    if offset is None:
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
    allocation's tuples, each of array t's subcarriers weighted 1/len(subset).
    Squares are products: a float's ** 2 goes through the C library's pow,
    which can miss the correctly rounded square (numpy's ** 2) in the last bit."""
    subset = alloc.per_array_sets[t]
    if not subset:
        return 0.0
    weights = [1.0 / len(subset)] * len(subset)
    omegas = [2.0 * math.pi * p * spec.subcarrier_spacing for p in subset]
    mean = sum(w * o for w, o in zip(weights, omegas))
    var = sum(w * ((o - mean) * (o - mean)) for w, o in zip(weights, omegas))
    return math.sqrt(max(var, 0.0))


def reference_calibrated_power(preset) -> float:
    """The preset's transmit power from the scalar objects alone: side by
    side in neighboring lanes, the shortest line-of-sight link from a Tx
    array with subcarriers (ties to the smallest (t, r)) gets the target SNR
    g / (its Tx array's subcarrier count), g = 2 N_rx n_symbols gamma_t |h|^2
    P at unit noise. Raises NoActiveLinks without one."""
    vehicle = _build_vehicle(preset)
    allocation = interleaved_allocation(preset.occupied, len(vehicle.panels))
    ofdm = OfdmSpec(preset.subcarrier_spacing, preset.carrier_frequency)
    tx_pose, rx_pose = Pose(Vec2(0.0, 0.0), 0.0), Pose(Vec2(-preset.lane_width, 0.0), 0.0)
    links = []
    for t in range(len(vehicle.panels)):
        if not allocation.per_array_sets[t]:
            continue  # a Tx array without subcarriers sends nothing
        for r in range(len(vehicle.panels)):
            tx = panel_world_state(vehicle, tx_pose, t)
            rx = panel_world_state(vehicle, rx_pose, r)
            if reference_los_visible(tx, rx, (vehicle, tx_pose), (vehicle, rx_pose)):
                links.append(link_geometry(tx.centroid, rx.centroid, 0.0, t, r))
    if not links:
        raise NoActiveLinks("no Tx-Rx panel pair with signal has line of sight")
    shortest = min(links, key=lambda lk: (lk.distance, lk.tx_panel, lk.rx_panel))
    amplitude = ofdm.wavelength / (4.0 * math.pi * shortest.distance)
    unit_g = (2.0 * vehicle.panels[shortest.rx_panel].n_elements * ofdm.n_symbols
              * allocation.array_power_fractions[shortest.tx_panel] * amplitude**2)
    n_sub = len(allocation.per_array_sets[shortest.tx_panel])
    return 10.0 ** (preset.target_snr_db / 10.0) * n_sub / unit_g


def link_offsets(tx, tx_pose, rx, rx_pose, t, r):
    """Complex offsets (n, L) from Tx panel t to Rx panel r, per link, for n
    placements: the Rx mount's turn from the Tx heading, expm1(i turn) m_r,
    plus the mounts' difference, turned by the Tx heading and shifted by the
    Rx position, in the operation order of ``geometry.visibility``."""
    (tx_p, tx_h), (rx_p, rx_h) = tx_pose, rx_pose
    m_r = rx.mount[r]
    turned = np.expm1(1j * (rx_h - tx_h))[:, None] * m_r
    return ((turned + (m_r - tx.mount[t])) * np.exp(1j * tx_h)[:, None]
            + (rx_p - tx_p).view(complex))


def dense_link_efims(ctx, tx_pose, rx_pose):
    """The EFIMs of ``scenarios.placement_efims`` from a dense link block of
    their own: the Tx mounts turned and the offsets taken per link (Kt*Kr, in
    (t, r) order), the offsets' modulus and distance inf where
    ``geometry.visibility`` sees no line of sight."""
    (_, tx_h), (_, rx_h) = tx_pose, rx_pose
    tx, rx = ctx.tx_vehicle.arrays, ctx.rx_vehicle.arrays
    t, r = (i.ravel() for i in np.indices((len(tx.mount), len(rx.mount))))
    tx_at = tx.mount[t] * np.exp(1j * tx_h)[:, None]
    offset = link_offsets(tx, tx_pose, rx, rx_pose, t, r)
    visible = visibility(tx, tx_pose, rx, rx_pose)[2]
    distance = np.where(visible.reshape(len(visible), -1), np.abs(offset), np.inf)
    vectors = link_vectors(offset / distance, tx_at, rx_h[:, None],
                           ctx.link_saaf.reshape(3, -1))
    return information(*vectors, ctx.link_gd2 / distance**2, distance**2, ctx.link_beta,
                       ctx.ofdm.omega_c)


def link_order(links, first=0):
    """Indices of links (in (t, r) order) with ``links[first]`` first, then
    the others in their given order. The default is the given order."""
    return [first] + [i for i in range(len(links)) if i != first]


def reference_phases(elements, theta: float, omega_c: float) -> tuple[np.ndarray, np.ndarray]:
    """Element phases k d_i cos(psi_i - theta) and their angle derivatives
    k d_i sin(psi_i - theta), k = omega_c / c, of a panel's (2, N) element
    distances and angles (``polar`` of its offsets) for a link arriving at
    vehicle-frame angle theta: the cos/sin oracle of link_means' complex product."""
    distances, angles = np.asarray(elements)
    k = omega_c / SPEED_OF_LIGHT
    return k * distances * np.cos(angles - theta), k * distances * np.sin(angles - theta)


def link_samples(scene, link, delay, angle, gain):
    """The link's (subcarrier, Rx element) mean, its subcarriers' angular
    frequencies and its element phases' angle derivatives, sample by sample.
    The phases take link_means' arithmetic, one complex product per element,
    so that a finite difference of these samples rounds as the stacked FD
    kernel's does: at its 1e-7 step, the cos/sin of reference_phases moves an
    FD column by eps / step, about 2e-9 relative."""
    ofdm, allocation = scene.context.ofdm, scene.allocation
    subset = allocation.per_array_sets[link.tx_panel]
    omega = 2.0 * math.pi * ofdm.subcarrier_spacing * np.array(subset, dtype=float)
    gamma_t = allocation.array_power_fractions[link.tx_panel]
    fracs = np.full(len(subset), 1.0 / max(len(subset), 1))
    amps = np.sqrt(gamma_t * fracs * ofdm.total_power)
    elements = scene.rx_vehicle.panels[link.rx_panel].elements
    z = elements * (ofdm.omega_c / SPEED_OF_LIGHT * np.exp(-1j * angle))
    phase, dphase = z.real, z.imag
    mean = (amps * np.exp(-1j * omega * delay))[:, None] * (gain * np.exp(1j * phase))[None, :]
    return mean, omega, dphase


def _information(scene, grams):
    """Each link's Fisher information at unit noise from its real 4 x 4 Gram:
    2 n_symbols times it, symmetrised, stacked (L, 4, 4) in link order."""
    j = 2.0 * scene.context.ofdm.n_symbols * np.array(grams)
    return 0.5 * (j + j.swapaxes(-1, -2))


def brute_force_fim_channel(scene, links, gains):
    """Per-link channel FIMs (L, 4, 4) in each link's own [delay, angle, Re
    gain, Im gain], from its full (samples, 4) derivative stack, one link at a
    time, in the order of ``links``."""
    grams = []
    for link, gain in zip(links, gains):
        h = gain.h
        mean, omega, dphase = link_samples(scene, link, link.delay, link.theta_R_local, h)
        grad = np.stack((
            -1j * omega[:, None] * mean,  # delay
            1j * dphase[None, :] * mean,  # arrival angle
            mean / h,  # Re gain
            1j * mean / h,  # Im gain
        ), axis=-1).reshape(-1, 4)
        grams.append((grad.conj().T @ grad).real)
    return _information(scene, grams)


def per_link_fim_channel_fd(scene, links, gains, step=1e-7):
    """Central-FD channel FIMs (L, 4, 4), one link and one parameter at a
    time, each of a link's four parameters stepped in its sample-by-sample
    mean with the steps of fim_channel_fd (1/omega_max for the delay,
    omega_max the largest |omega| of the allocation's subcarriers, 1 rad/s
    without one off DC, and |h| for the gain)."""
    omega_max = 2.0 * math.pi * scene.context.ofdm.subcarrier_spacing * max(
        abs(p) for subset in scene.allocation.per_array_sets for p in subset)
    grams = []
    for link, gain in zip(links, gains):
        h = gain.h
        delay, angle, h_step = link.delay, link.theta_R_local, step * abs(h)
        columns = []
        for d_tau, d_theta, d_h in ((step / (omega_max or 1.0), 0.0, 0.0), (0.0, step, 0.0),
                                    (0.0, 0.0, h_step), (0.0, 0.0, 1j * h_step)):
            plus = link_samples(scene, link, delay + d_tau, angle + d_theta, h + d_h)[0]
            minus = link_samples(scene, link, delay - d_tau, angle - d_theta, h - d_h)[0]
            columns.append((plus - minus).ravel() / (2.0 * abs(d_tau + d_theta + d_h)))
        grad = np.column_stack(columns)
        grams.append((grad.conj().T @ grad).real)
    return _information(scene, grams)


def block_diagonal(blocks):
    """Dense (..., 4L, 4L) matrices with the links' 4 x 4 blocks (..., L, 4,
    4) on the diagonal, link k in columns 4k..4k+3."""
    n_links = blocks.shape[-3]
    return np.einsum("...kab,kl->...kalb", blocks, np.eye(n_links)).reshape(
        *blocks.shape[:-3], 4 * n_links, 4 * n_links)


def delay_difference_fims(blocks):
    """Dense channel FIMs (..., 4L, 4L) in the delay-difference layout from
    per-link blocks: the first link is the reference, its delay column the
    common timing offset (column 0), every other link's the delay difference
    to the first. The offset map O (the identity plus ones at [0::4, 0])
    folds the offset into column 0: O^T J O sums the delay columns into
    column 0, then the delay rows into row 0."""
    j = block_diagonal(blocks)
    j[..., :, 0] = j[..., :, 0::4].sum(axis=-1)
    j[..., 0, :] = j[..., 0::4, :].sum(axis=-2)
    return j


def delay_difference_transforms(v_tau, v_theta, distance, measurement):
    """Geometric Jacobians (n, R, 4L) in the layout of delay_difference_fims,
    from channel parameters (columns) to estimation parameters (rows,
    [q_x, q_y, alpha_T] first): angles carry geometry in both measurement
    sets, delay differences only in "aoa_tdoa"; every other channel parameter
    (the timing offset, the gains and, for "aoa", the delay differences) is a
    nuisance parameter with an identity row, in column order."""
    n = 4 * distance.shape[-1]
    t_po = np.zeros(distance.shape[:-1] + (3, n))
    t_po[..., 1::4] = (v_theta / distance[..., None]).swapaxes(-1, -2)
    geometric = np.arange(n) % 4 == 1
    if measurement == "aoa_tdoa":
        delay_rows = (v_tau[..., 1:, :] - v_tau[..., :1, :]) / SPEED_OF_LIGHT
        t_po[..., 4::4] = delay_rows.swapaxes(-1, -2)
        geometric[4::4] = True
    nuisance = np.eye(n)[~geometric]
    return np.concatenate((t_po, np.broadcast_to(nuisance, t_po.shape[:-2] + nuisance.shape)), -2)


# Per measurement set, the nuisance parameters among each link's own [delay,
# angle, Re gain, Im gain]: the gains, and in AOA-only the delay too.
NUISANCE = {"aoa_tdoa": np.array([False, False, True, True]),
            "aoa": np.array([True, False, True, True])}


def padded_jacobians(jacobians, measurement):
    """The kernel's Jacobians (..., L, 4, 2) of each link's [delay, angle] as
    (..., L, 4, 4) over its [delay, angle, Re gain, Im gain] in one
    measurement set: the columns of its NUISANCE parameters zero."""
    padded = np.concatenate((jacobians, np.zeros(jacobians.shape)), axis=-1)
    return np.where(NUISANCE[measurement], 0.0, padded)


def dense_arrow(blocks, jacobians, measurement):
    """The kernels' per-link blocks (..., L, 4, 4) and Jacobians (..., L, 4,
    2) in one measurement set as a dense channel FIM (..., 4L, 4L) and T
    (..., R, 4L), as reference_schur_efims takes them: rows [q_x, q_y,
    alpha_T, offset] on every link's columns (padded_jacobians), then an
    identity row per NUISANCE column, in column order."""
    n_links = blocks.shape[-3]
    jacobians = padded_jacobians(jacobians, measurement)
    rows = jacobians.swapaxes(-3, -2).reshape(*jacobians.shape[:-3], 4, 4 * n_links)
    nuisance = np.eye(4 * n_links)[np.tile(NUISANCE[measurement], n_links)]
    t_matrix = np.concatenate(
        (rows, np.broadcast_to(nuisance, rows.shape[:-2] + nuisance.shape)), -2)
    return block_diagonal(blocks), t_matrix


def einsum_information(v_tau, v_theta, aperture, g, distance2, beta, omega_c):
    """AOA+TDOA and AOA-only EFIMs (MEASUREMENTS order) as einsum sums over
    the links, distance2 the squared distances: the reference for the batched
    matmul form of ``fim_closed.information``."""
    c2 = SPEED_OF_LIGHT**2
    w_theta = g * omega_c**2 * aperture / (c2 * distance2)
    j_aoa = np.einsum("...k,...ki,...kj->...ij", w_theta, v_theta, v_theta)
    w_tau = g * beta**2 / c2
    total = np.sum(w_tau, axis=-1, keepdims=True)
    mean = np.einsum("...k,...ki->...i", w_tau, v_tau) / np.where(total > 0.0, total, 1.0)
    centered = v_tau - mean[..., None, :]
    return j_aoa + np.einsum("...k,...ki,...kj->...ij", w_tau, centered, centered), j_aoa


def _complement(full, k):
    """full[..., :k, :k] - B N^+ B^T over the rows from k on, in the units
    where full has a unit diagonal (1 where not positive), N pseudo-inverted
    from one eigh at RANK_EPS lambda_max(N)."""
    diag = full.diagonal(0, -2, -1)
    scale = np.sqrt(np.where(diag > 0.0, diag, 1.0))
    scale = scale[..., :, None] * scale[..., None, :]
    full = full / scale
    eigvals, vectors = np.linalg.eigh(full[..., k:, k:])
    c = full[..., :k, k:] @ vectors
    inverse = np.divide(1.0, eigvals, where=eigvals > RANK_EPS * eigvals[..., -1:],
                        out=np.zeros(eigvals.shape))
    complement = full[..., :k, :k] - (c * inverse[..., None, :]) @ c.swapaxes(-1, -2)
    return complement * scale[..., :k, :k]


def reference_schur_efims(j_phi, t_matrix):
    """``fim_general.schur_efims`` from dense channel FIMs (n, 4L, 4L) and
    Jacobians (n, R, 4L), rows [:3] geometric, [3] the timing offset and [4:]
    the other nuisance parameters, a whole nuisance block at a time. The
    geometric rows are centred as the kernel centres them, on m = g_po / g_oo
    of the information g left once rows [4:] are gone (where g_oo is above
    RANK_EPS of its value before); then A - B N^+ B^T over rows [3:], ranked
    as the kernel ranks it. The reference for the kernel's per-link
    elimination, on dense_arrow's layout or the delay-difference one."""
    full = t_matrix @ j_phi @ t_matrix.swapaxes(-1, -2)
    g = _complement(full, 4)
    m = np.divide(g[..., :3, 3], g[..., 3, 3:], where=g[..., 3, 3:] > RANK_EPS * full[..., 3, 3:4],
                  out=np.zeros(g.shape[:-2] + (3,)))
    centred = np.concatenate((t_matrix[..., :3, :] - m[..., None] * t_matrix[..., 3:4, :],
                              t_matrix[..., 3:, :]), axis=-2)
    full_c = centred @ j_phi @ centred.swapaxes(-1, -2)
    units = np.maximum(full_c.diagonal(0, -2, -1)[..., :3],
                       RANK_EPS * full.diagonal(0, -2, -1)[..., :3])
    unit = np.sqrt(np.where(units > 0.0, units, 1.0))
    unit = unit[..., :, None] * unit[..., None, :]
    eigvals, vectors = np.linalg.eigh(_complement(full_c, 3) / unit)
    eigvals[eigvals <= RANK_EPS] = 0.0
    return (vectors * eigvals[..., None, :]) @ vectors.swapaxes(-1, -2) * unit


def padded_schur_efims(blocks, jacobians, measurement):
    """One measurement set of ``fim_general.schur_efims`` in its padded form:
    each link's whole nuisance block (NUISANCE, the delay and the gains
    together in AOA-only) padded to 4 x 4 with unit pivots for its kept
    parameters through np.where, pseudo-inverted from one eigh of the
    equilibrated (n, L, 4, 4) blocks at RANK_EPS of their largest eigenvalue,
    and the Jacobians' zero nuisance columns (padded_jacobians) carried
    through every product. The reference for the kernel's kept-parameter
    blocks and its delay elimination after the gains."""
    nuisance = NUISANCE[measurement]
    jacobians = padded_jacobians(jacobians, measurement)
    d = np.where(nuisance[:, None] & nuisance, blocks, np.eye(4))
    diag = d.diagonal(0, -2, -1)
    scale = np.sqrt(np.where(diag > 0.0, diag, 1.0))
    eigvals, vectors = np.linalg.eigh(d / (scale[..., :, None] * scale[..., None, :]))
    c = (blocks * nuisance / scale[..., None, :]) @ vectors
    inverse = np.divide(1.0, eigvals, where=eigvals > RANK_EPS * eigvals[..., -1:],
                        out=np.zeros(eigvals.shape))
    free = blocks - (c * inverse[..., None, :]) @ c.swapaxes(-1, -2)
    before, after = ((jacobians @ j[..., :1]).sum(axis=1)[..., 0] for j in (blocks, free))
    m = np.divide(after[:, :3], after[:, 3:], where=after[:, 3:] > RANK_EPS * before[:, 3:],
                  out=np.zeros((len(after), 3)))
    w = jacobians[..., :3, :] - m[:, None, :, None] * jacobians[..., 3:, :]
    units = np.maximum(((w @ blocks) * w).sum(axis=(1, 3)), RANK_EPS * (
        (jacobians[..., :3, :] @ blocks) * jacobians[..., :3, :]).sum(axis=(1, 3)))
    unit = np.sqrt(np.where(units > 0.0, units, 1.0))
    unit = unit[:, :, None] * unit[:, None, :]
    eigvals, vectors = np.linalg.eigh((w @ free @ w.swapaxes(-1, -2)).sum(axis=1) / unit)
    eigvals[eigvals <= RANK_EPS] = 0.0
    return (vectors * eigvals[..., None, :]) @ vectors.swapaxes(-1, -2) * unit


def moment_gram(rows, moments):
    """sum_s w_s f(x_s)^H f(x_s), f(x) = rows[0] + x rows[1], as
    rows^H [[M0, M1], [M1, M2]] rows from the moments (..., 3) = sum_s w_s
    x_s^p: the reference for ``fim_general._moment_gram``'s kernel product."""
    return rows.conj().T @ np.stack((moments[..., :2], moments[..., 1:]), axis=-2) @ rows


def inverse_bound_arrays(j_po):
    """Ranks and bounds of (..., 3, 3) EFIMs from eigvalsh and a LAPACK
    inverse: the reference for ``fim_closed.bound_arrays`` on finite
    matrices, without its position-block rank rule. Both run on the
    equilibrated A = D^-1/2 J D^-1/2, D = diag(J), and J^-1 = D^-1/2 A^-1
    D^-1/2, so the inverse errs by eps times A's condition number, not J's."""
    sym = 0.5 * (j_po + np.swapaxes(j_po, -1, -2))
    diag = sym.diagonal(0, -2, -1)
    scale = np.sqrt(np.divide(1.0, diag, where=diag > 0.0, out=np.zeros(diag.shape)))
    a = sym * (scale[..., :, None] * scale[..., None, :])
    eigvals = np.linalg.eigvalsh(a)
    lam_max = eigvals[..., -1:]
    rank = np.where(lam_max[..., 0] > 0.0, np.sum(eigvals > RANK_EPS * lam_max, axis=-1), 0)
    full = (rank == 3)[..., None]
    inv = np.linalg.inv(np.where(full[..., None], a, np.eye(3)))
    with np.errstate(invalid="ignore"):
        bounds = scale * np.sqrt(np.diagonal(inv, axis1=-2, axis2=-1))
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
