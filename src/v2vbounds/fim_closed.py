"""Closed-form position/orientation information matrices and error bounds.

The 3x3 information matrix is laid out over [q_x, q_y, alpha_T]: lateral
position, longitudinal position, and Tx-vehicle heading. Each active link
contributes a rank-one delay (TDOA) term along the link direction and a
rank-one angle (AOA) term along the orthogonal direction, weighted by the
link SNR, the effective baseband bandwidth, and the squared array aperture
function. Referencing all delay differences to a common link costs a
weighted-mean correction, implemented here in covariance form so the result
is independent of the reference choice and numerically stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import LinkGain
from .errors import NoActiveLinks
from .geometry import SPEED_OF_LIGHT, ArrayPanel, Link, saaf_matrix, unit_dir
from .scene import Scene

# Eigenvalues below RANK_EPS * lambda_max count as zero when ranking.
RANK_EPS = 1e-10


@dataclass(frozen=True, eq=False)
class FimResult:
    """3x3 position/orientation information matrix with extracted bounds.

    Position entries are 1/m^2, the orientation entry 1/rad^2. When the
    matrix is singular the bounds are +inf sentinels.
    """

    j_po: np.ndarray
    peb_lat: float
    peb_lon: float
    oeb: float
    rank: int
    singular: bool


def saaf(panel: ArrayPanel, theta_local: float) -> float:
    """Squared array aperture function of a panel at a vehicle-frame angle.

    Mean squared projection of the element offsets orthogonal to the arrival
    direction; zero for a single-element panel, and the quantity that scales
    the angle information of a link.
    """
    u = np.array(unit_dir(theta_local).as_tuple())
    return float(u @ saaf_matrix(panel) @ u)


def bound_arrays(j_po: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetrised EFIMs, ranks and [peb_lat, peb_lon, oeb] of (..., 3, 3)
    EFIMs; below full rank (see RANK_EPS) the bounds are +inf. The rank is
    that of D^-1/2 J D^-1/2, D = diag(J), so no unit of position or heading
    can change it; a non-positive diagonal entry is a missing direction."""
    sym = 0.5 * (j_po + np.swapaxes(j_po, -1, -2))
    diag = sym.diagonal(0, -2, -1)
    scale = np.sqrt(np.divide(1.0, diag, where=diag > 0.0, out=np.zeros(diag.shape)))
    eigvals = np.linalg.eigvalsh(sym * (scale[..., :, None] * scale[..., None, :]))
    lam_max = eigvals[..., -1:]
    rank = np.where(lam_max[..., 0] > 0.0, np.sum(eigvals > RANK_EPS * lam_max, axis=-1), 0)
    full = (rank == 3)[..., None]
    inv = np.linalg.inv(np.where(full[..., None], sym, np.eye(3)))
    with np.errstate(invalid="ignore"):  # a negative variance becomes NaN, not an error
        bounds = np.sqrt(np.diagonal(inv, axis1=-2, axis2=-1))
    return sym, rank, np.where(full, bounds, math.inf)


def bounds_from_fim(j_po: np.ndarray) -> FimResult:
    """Extract lateral/longitudinal/orientation bounds from a 3x3 EFIM."""
    sym, rank, (peb_lat, peb_lon, oeb) = bound_arrays(np.asarray(j_po, dtype=float))
    return FimResult(j_po=sym, peb_lat=float(peb_lat), peb_lon=float(peb_lon),
                     oeb=float(oeb), rank=int(rank), singular=bool(rank < 3))


def link_vectors(
    direction: np.ndarray, tx_offset: np.ndarray, rx_heading: np.ndarray, saaf_s: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`link_info_vectors` from (..., 2) arrays: the unit direction from
    the Tx toward the Rx panel, the Tx panel's offset from the Tx reference
    point, the Rx vehicle heading and the Rx panel's (..., 2, 2) SAAF matrix."""
    perp = np.stack((-direction[..., 1], direction[..., 0]), axis=-1)  # unit_perp(theta_T)
    v_tau = np.concatenate((direction, np.sum(perp * tx_offset, axis=-1)[..., None]), axis=-1)
    v_theta = np.concatenate((perp, -np.sum(direction * tx_offset, axis=-1)[..., None]), axis=-1)
    c, s = np.cos(rx_heading), np.sin(rx_heading)
    local = np.stack((c * direction[..., 0] + s * direction[..., 1],
                      c * direction[..., 1] - s * direction[..., 0]), axis=-1)
    return v_tau, v_theta, np.einsum("...i,...ij,...j->...", local, saaf_s, local)


def link_info_vectors(
    scene: Scene, links: Sequence[Link]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-link delay and angle information directions plus angle weights.

    Returns (v_tau, v_theta, aperture) where v_tau[k] spans the information
    of link k's absolute delay, v_theta[k] that of its arrival angle (both as
    gradients of c*delay and distance*angle w.r.t. [q_x, q_y, alpha_T]), and
    aperture[k] is the Rx panel's squared array aperture function at the
    link's local arrival angle.
    """
    t = [link.tx_panel for link in links]
    r = [link.rx_panel for link in links]
    tx_position, tx_heading = scene.tx_pose.arrays()
    rx_position, rx_heading = scene.rx_pose.arrays()
    rx = scene.rx_vehicle.arrays
    tx_c = scene.tx_vehicle.arrays.centroids(tx_position, tx_heading)[t]
    offset = rx.centroids(rx_position, rx_heading)[r] - tx_c
    direction = offset / np.hypot(offset[:, 0], offset[:, 1])[:, None]
    return link_vectors(direction, tx_c - tx_position, rx_heading, rx.saaf_s[r])


def information(
    v_tau: np.ndarray, v_theta: np.ndarray, aperture: np.ndarray,
    g: np.ndarray, distance: np.ndarray, beta: np.ndarray, omega_c: float,
) -> tuple[np.ndarray, np.ndarray]:
    """AOA-only and AOA+TDOA EFIMs (..., 3, 3) from per-link arrays, links
    along the last axis of the weights; a link with g = 0 adds nothing.

    The angle part sums rank-one terms weighted by g omega_c^2 SAAF / (c d)^2.
    The delay part is the weighted covariance of the delay vectors with
    weights g beta^2 / c^2, zero when all betas are.
    """
    c2 = SPEED_OF_LIGHT**2
    w_theta = g * omega_c**2 * aperture / (c2 * distance**2)
    j_aoa = np.einsum("...k,...ki,...kj->...ij", w_theta, v_theta, v_theta)
    w_tau = g * beta**2 / c2
    total = np.sum(w_tau, axis=-1, keepdims=True)
    mean = np.einsum("...k,...ki->...i", w_tau, v_tau) / np.where(total > 0.0, total, 1.0)
    centered = v_tau - mean[..., None, :]
    return j_aoa, j_aoa + np.einsum("...k,...ki,...kj->...ij", w_tau, centered, centered)


def _scene_information(
    scene: Scene, links: Sequence[Link], gains: Sequence[LinkGain], betas: Sequence[float] | None
) -> tuple[np.ndarray, np.ndarray]:
    if len(links) == 0:
        raise NoActiveLinks("cannot assemble an EFIM without active links")
    return information(
        *link_info_vectors(scene, links),
        np.array([gain.g for gain in gains]),
        np.array([link.distance for link in links]),
        np.array([0.0 if betas is None else betas[link.tx_panel] for link in links]),
        scene.ofdm.omega_c,
    )


def efim_aoa_tdoa(
    scene: Scene,
    links: Sequence[Link],
    gains: Sequence[LinkGain],
    betas: Sequence[float],
) -> FimResult:
    """Closed-form EFIM using both arrival angles and delay differences."""
    return bounds_from_fim(_scene_information(scene, links, gains, betas)[1])


def efim_aoa_only(scene: Scene, links: Sequence[Link], gains: Sequence[LinkGain]) -> FimResult:
    """Closed-form EFIM using arrival angles only."""
    return bounds_from_fim(_scene_information(scene, links, gains, None)[0])
