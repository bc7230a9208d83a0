"""Closed-form position/orientation information matrices and error bounds.

The 3x3 EFIM over [q_x, q_y, alpha_T] (lateral and longitudinal position, Tx
heading) sums, per active link, a rank-one delay (TDOA) term along the link
direction and a rank-one angle (AOA) term orthogonal to it, weighted by the
link SNR, the effective bandwidth and the squared array aperture function;
the delay terms enter in covariance form (weighted mean removed), so the
result does not depend on a reference link. Stacks of EFIMs are assembled by
batched matmul and their bounds read from LDL^T factors as elementwise 3x3
algebra. The same factors certify full rank; LAPACK (eigvalsh) ranks only the
rows the certificate leaves open.

Every EFIM stack of both paths holds the measurement sets along its first
axis in MEASUREMENTS order: AOA+TDOA, then AOA-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence, get_args

import numpy as np

from .channel import LinkGain, Scene
from .geometry import SPEED_OF_LIGHT, Link, read_only, scene_placement, visible_links

Measurement = Literal["aoa_tdoa", "aoa"]
# The measurement sets in the order of every EFIM stack.
MEASUREMENTS: tuple[Measurement, ...] = get_args(Measurement)

# Eigenvalues below RANK_EPS * lambda_max count as zero when ranking.
RANK_EPS = 1e-10
# A unit-diagonal A with positive LDL^T pivots has lambda_max <= 3 and
# lambda_min >= 1 / trace(A^-1): below this trace, rank 3 with a 10x margin.
_CERTIFIED_TRACE = 1.0 / (30.0 * RANK_EPS)
# The smallest normal float (a diagonal entry below it is a missing direction), the roundoff.
_TINY, _EPS = np.finfo(float).tiny, np.finfo(float).eps
# A link's v_tau + i v_theta is conj(u) (_UNIT + _TURN t): see link_vectors.
_UNIT, _TURN = read_only(np.array([1.0, 1j, 0.0])), read_only(np.array([0.0, 0.0, -1j]))


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


def bound_arrays(j_po: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetrised EFIMs, ranks and [peb_lat, peb_lon, oeb] of (..., 3, 3)
    EFIMs: +inf below full rank, NaN where an entry is not finite (rank 0).
    The rank is that of A = D^-1/2 J D^-1/2, D = diag(J) (see RANK_EPS), so no
    unit of position or heading can change it; a diagonal entry below the
    smallest normal float is a missing direction. The position block, in one
    unit, is ranked as it stands: an eigenvalue ratio below RANK_EPS caps the
    rank at 2. The bounds are sqrt([A^-1]_ii / D_ii), from A's LDL^T factors.
    Positive pivots and trace(A^-1) < _CERTIFIED_TRACE prove rank 3; eigvalsh
    ranks only the other rows, which include every row with a non-finite,
    zero or subnormal diagonal entry (a pivot is then not positive)."""
    sym = 0.5 * (j_po + np.swapaxes(j_po, -1, -2))
    diag = sym.diagonal(0, -2, -1)
    scale = np.sqrt(np.divide(1.0, diag, where=diag >= _TINY, out=np.zeros(diag.shape)))
    with np.errstate(divide="ignore", invalid="ignore"):  # rows below full rank are masked
        # A non-finite entry leaves a pivot NaN or -inf: every certified row is finite.
        a = sym * (scale[..., :, None] * scale[..., None, :])
        a00, a01, a02, _, a11, a12, _, _, a22 = a.reshape(-1, 9).T.copy()
        scale = scale.reshape(-1, 3).T
        # A = L diag(a00, d1, d2) L^T, L unit lower triangular: [A^-1]_ii is
        # sum_k [L^-1]_ki^2 / d_k, a sum of positive terms.
        l10, l20 = a01 / a00, a02 / a00
        d1, e12 = a11 - l10 * a01, a12 - l20 * a01
        l21 = e12 / d1
        d2 = a22 - l20 * a02 - l21 * e12
        inv = (1.0 / a00 + l10 * l10 / d1 + (l10 * l21 - l20)**2 / d2, 1.0 / d1 + l21 * l21 / d2,
               1.0 / d2)
        # The position block over sqrt(J_xx J_yy): [[a00 r, a01], [a01, a11 / r]], r the
        # ratio sqrt(J_xx / J_yy): determinant a00 d1, larger eigenvalue lam (lam^2 may overflow).
        u, w = a00 * scale[1] / scale[0], a11 * scale[0] / scale[1]
        lam = 0.5 * (u + w) + np.hypot(0.5 * (u - w), a01)
        flat = a00 * d1 / lam < RANK_EPS * lam
        bounds = (scale * np.sqrt(inv)).T.reshape(j_po.shape[:-1])
        certified = ((np.minimum(np.minimum(a00, d1), d2) > 0.0)
                     & (inv[0] + inv[1] + inv[2] < _CERTIFIED_TRACE))
    rank, fill = 3 - flat, math.inf  # a flat position block caps the rank at 2
    if not certified.all():
        finite = np.isfinite(sym).all(axis=(-2, -1))
        fill = np.where(finite, math.inf, math.nan)[..., None]
        rows = ~certified
        eigvals = np.linalg.eigvalsh(np.where(finite.reshape(-1, 1, 1)[rows],
                                              a.reshape(-1, 3, 3)[rows], 0.0))
        lam_max = eigvals[..., -1:]
        rank[rows] = np.minimum(rank[rows], np.where(
            lam_max[..., 0] > 0.0, np.sum(eigvals > RANK_EPS * lam_max, axis=-1), 0))
    rank = rank.reshape(j_po.shape[:-2])
    return sym, rank, np.where((rank == 3)[..., None], bounds, fill)


def bounds_from_fim(j_po: np.ndarray) -> FimResult:
    """Extract lateral/longitudinal/orientation bounds from a 3x3 EFIM."""
    sym, rank, (peb_lat, peb_lon, oeb) = bound_arrays(np.asarray(j_po, dtype=float))
    return FimResult(j_po=sym, peb_lat=float(peb_lat), peb_lon=float(peb_lon),
                     oeb=float(oeb), rank=int(rank), singular=bool(rank < 3))


def link_vectors(
    direction: np.ndarray, tx_offset: np.ndarray, rx_heading: np.ndarray, saaf: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`link_info_vectors` from the complex unit direction u from the Tx
    toward the Rx panel, the Tx panel's complex offset t from the Tx reference
    point, the Rx vehicle heading and the Rx panel's SAAF terms (3, ...): with
    p = conj(t) u, v_tau = (Re u, Im u, -Im p) and v_theta = (-Im u, Re u, -Re p),
    one product conj(u) (1, i, -i t) = v_tau + i v_theta. SAAF reads u e^(-i alpha_R)."""
    vectors = np.conj(direction)[..., None] * (_UNIT + np.multiply.outer(tx_offset, _TURN))
    return vectors.real, vectors.imag, saaf_form(saaf, direction * np.exp(-1j * rx_heading))


def saaf_form(saaf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """u^T S u at complex unit directions u (...) from S's terms (S00, S01 + S10, S11)."""
    (s00, s01, s11), x, y = saaf, u.real, u.imag
    return s00 * x * x + s01 * x * y + s11 * y * y


def link_info_vectors(
    scene: Scene, links: Sequence[Link]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-link delay and angle information directions plus angle weights.

    Returns (v_tau, v_theta, aperture) where v_tau[k] spans the information
    of link k's absolute delay, v_theta[k] that of its arrival angle (both as
    gradients of c*delay and distance*angle w.r.t. [q_x, q_y, alpha_T]), and
    aperture[k] is the Rx panel's squared array aperture function at the
    link's local arrival angle. ``links`` are in (t, r) order, as
    active_links gives them; the links are those of the placement kernels
    (geometry.scene_placement, visible_links, link_vectors).
    """
    *placement, rx_heading = scene_placement(scene, links)
    t, r, tx_at, offset, distance, _ = visible_links(*placement)
    vectors = link_vectors(offset / distance, tx_at, rx_heading[:, None],
                           scene.context.link_saaf[:, t, r])
    return tuple(v[0] for v in vectors)


def information(
    v_tau: np.ndarray, v_theta: np.ndarray, aperture: np.ndarray,
    g: np.ndarray, distance2: np.ndarray, beta: np.ndarray, omega_c: float,
) -> np.ndarray:
    """AOA+TDOA and AOA-only EFIMs (2, ..., 3, 3), in MEASUREMENTS order,
    from per-link arrays, links along the last axis of the weights, distance2
    the squared distances; a link with g = 0 adds nothing.

    The angle part sums rank-one terms weighted by g omega_c^2 SAAF / (c d)^2.
    The delay part is the weighted covariance of the delay vectors with
    weights g beta^2 / c^2, zero when all betas are or the vectors agree.
    """
    c2 = SPEED_OF_LIGHT**2
    w_theta = g * omega_c**2 * aperture / (c2 * distance2)
    # Allocated before the temporaries below: after them, glibc's heap trimming cost 2-3%.
    # np.broadcast of two views gives the batch shape faster than np.broadcast_shapes.
    j = np.empty((2,) + np.broadcast(v_theta[..., 0, 0], w_theta[..., 0]).shape + (3, 3))
    np.matmul((v_theta * w_theta[..., None]).swapaxes(-1, -2), v_theta, out=j[1])
    w_tau = g * beta**2 / c2
    total = np.add.reduce(w_tau, axis=-1, keepdims=True)
    mean = (w_tau[..., None, :] @ v_tau) / np.where(total > 0.0, total, 1.0)[..., None]
    centered = v_tau - mean
    # An entry within the mean's rounding, L ulps of the link's own, is no information.
    np.copyto(centered, 0.0, where=abs(centered) <= v_tau.shape[-2] * _EPS * abs(v_tau))
    np.matmul((centered * w_tau[..., None]).swapaxes(-1, -2), centered, out=j[0])
    j[0] += j[1]
    return j


def _scene_information(scene: Scene, links: Sequence[Link], gains: Sequence[LinkGain],
                       betas: Sequence[float]) -> np.ndarray:
    """:func:`information` (n = 1) of the links (as link_info_vectors takes
    them) from their link_gains and the Tx arrays' effective bandwidths."""
    g, distance = np.array([[gain.g for gain in gains], [link.distance for link in links]])
    beta = np.asarray(betas, dtype=float)[[link.tx_panel for link in links]]
    return information(*link_info_vectors(scene, links), g, distance**2, beta,
                       scene.context.ofdm.omega_c)


def efim_aoa_tdoa(
    scene: Scene,
    links: Sequence[Link],
    gains: Sequence[LinkGain],
    betas: Sequence[float],
) -> FimResult:
    """Closed-form EFIM using both arrival angles and delay differences."""
    return bounds_from_fim(_scene_information(scene, links, gains, betas)[0])


def efim_aoa_only(scene: Scene, links: Sequence[Link], gains: Sequence[LinkGain]) -> FimResult:
    """Closed-form EFIM using arrival angles only, which reads no bandwidth."""
    return bounds_from_fim(_scene_information(scene, links, gains, scene.context.betas)[1])
