"""General-path information pipeline from the received-signal model.

Assembles the Fisher information of the raw channel parameters (common
timing offset, per-link delay differences, arrival angles, and complex
gains), maps it onto position/orientation through the geometric Jacobian,
and removes nuisance parameters with a Schur complement. A central-finite-
difference twin of the channel FIM serves as a numerical oracle for the
analytic derivatives.

Parameter layout for L active links, decided by :func:`link_order`: the
reference link first (the active link of minimum delay, ties broken by
(t, r)), then the remaining links in (t, r) order. Each link holds four
consecutive columns [delay, angle, Re gain, Im gain]; the reference link's
delay column is the common timing offset (column 0), every other link's the
delay difference to the reference link. 4L parameters in total.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .channel import LinkGain
from .errors import NoActiveLinks, NuisanceSingular
from .fim_closed import FimResult, bounds_from_fim, link_info_vectors
from .geometry import SPEED_OF_LIGHT, Link
from .scene import Scene

AOA_TDOA = "AOA_TDOA"
AOA_ONLY = "AOA_ONLY"

# Equilibrated condition number beyond which the nuisance block is treated
# as singular.
NUISANCE_COND_LIMIT = 1e12


def link_order(links: Sequence[Link], reference: int | None = None) -> list[int]:
    """Indices of ``links`` in parameter order: the reference link first, then
    the others in their given (t, r) order. ``reference`` forces a reference
    link (default: minimum delay, ties by (t, r))."""
    if len(links) == 0:
        raise NoActiveLinks("cannot parameterize an empty link set")
    if reference is None:
        reference = min(range(len(links)),
                        key=lambda i: (links[i].delay, links[i].tx_panel, links[i].rx_panel))
    elif not 0 <= reference < len(links):
        raise IndexError(f"reference link index {reference} out of range")
    return [reference, *(i for i in range(len(links)) if i != reference)]


def link_mean(
    scene: Scene, link: Link, delay: float, angle: float, gain: complex
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Noiseless received samples of one link as a function of its channel
    parameters: delay difference, vehicle-frame arrival angle and complex gain.

    The (subcarrier, Rx element) mean is the outer product
    ``np.multiply.outer(a, b)`` of a factor ``a`` over the link's Tx
    subcarrier set and a factor ``b`` over its Rx elements. Returns ``(a,
    omega, b, dphase)``: the subcarriers' baseband angular frequencies (the
    delay derivative of ``a`` is ``-1j * omega * a``) and the angle
    derivative of the per-element phases (that of ``b`` is ``1j * dphase *
    b``). The pilot symbols carry the same energy on every OFDM symbol, so
    the mean does not depend on the symbol.
    """
    count = len(scene.allocation.per_array_sets[link.tx_panel])
    omega, amps = _subcarriers(scene, link.tx_panel)
    omega, amps = omega[:count], amps[:count]
    dist, ang = scene.rx_vehicle.arrays.elements[link.rx_panel]
    phase, dphase = _element_phases(scene, dist, ang, angle)
    return amps * np.exp(-1j * omega * delay), omega, gain * np.exp(1j * phase), dphase


def _subcarriers(scene: Scene, tx_panels) -> tuple[np.ndarray, np.ndarray]:
    """Baseband angular frequencies and amplitudes of the subcarriers of one
    Tx array (S_max,) or several (len(tx_panels), S_max); a padded slot has
    zero amplitude."""
    alloc = scene.allocation
    gamma_t = np.array(alloc.array_power_fractions)[tx_panels, None]
    omega = 2.0 * math.pi * scene.ofdm.subcarrier_spacing * alloc.arrays.indices[tx_panels]
    return omega, np.sqrt(gamma_t * alloc.arrays.fractions[tx_panels] * scene.ofdm.total_power)


def _element_phases(scene: Scene, dist, ang, angle) -> tuple[np.ndarray, np.ndarray]:
    """Element phases d_i cos(psi_i - theta) omega_c / c and their theta
    derivatives, for element offsets (d_i, psi_i) and arrival angle theta."""
    omega_c = scene.ofdm.omega_c
    return (omega_c * dist * np.cos(ang - angle) / SPEED_OF_LIGHT,
            omega_c * dist * np.sin(ang - angle) / SPEED_OF_LIGHT)


def _gram(columns: np.ndarray) -> np.ndarray:
    """Gram matrices F^H F of stacked column sets (..., columns, samples)."""
    return columns.conj() @ columns.swapaxes(-1, -2)


def _channel_information(scene: Scene, blocks: np.ndarray) -> np.ndarray:
    """Channel FIM (4L x 4L) from each link's 4 x 4 Gram (real part) of the
    derivatives of its mean in its own (delay, angle, Re gain, Im gain),
    stacked (L, 4, 4) in :func:`link_order`.

    Links at different Rx panels or on disjoint subcarrier sets only couple
    through the shared timing offset, so each link's Gram block sits on the
    diagonal; the offset map then folds the timing offset, which shifts every
    link's delay, into column 0.
    """
    n_links = len(blocks)
    n = 4 * n_links
    j = np.zeros((n, n))
    diagonal = np.arange(n_links)
    j.reshape(n_links, 4, n_links, 4)[diagonal, :, diagonal, :] = blocks
    offset = np.eye(n)
    offset[0::4, 0] = 1.0
    j = 2.0 * scene.ofdm.n_symbols / scene.noise_variance * (offset.T @ j @ offset)
    return 0.5 * (j + j.T)


def fim_channel(
    scene: Scene,
    links: Sequence[Link],
    gains: Sequence[LinkGain],
    reference: int | None = None,
) -> np.ndarray:
    """Analytic Fisher information of the channel parameters (4L x 4L), in
    the :func:`link_order` layout; ``reference`` forces a reference link.

    A link's mean is a ⊗ b (:func:`link_mean`), so each of its derivative
    columns is fa_k ⊗ fb_k, with Fa = [-1j omega a, a, a/h, 1j a/h] and
    Fb = [b, 1j dphase b, b, b], and its Gram is Re((Fa^H Fa) ∘ (Fb^H Fb)).
    Every link's factors are formed in one pass, on subcarrier and element
    axes zero-padded to the largest set; zero entries add nothing to a Gram.
    """
    order = link_order(links, reference)
    ordered = [links[i] for i in order]
    delay = np.array([link.delay for link in ordered])
    angle = np.array([link.theta_R_local for link in ordered])
    h = np.array([gains[i].h for i in order])[:, None]

    omega, amps = _subcarriers(scene, [link.tx_panel for link in ordered])
    a = amps * np.exp(-1j * omega * (delay - delay[0])[:, None])
    a_h = a / h
    fa = np.stack((-1j * omega * a, a, a_h, 1j * a_h), axis=1)

    rx = scene.rx_vehicle.arrays
    elements = np.zeros((2, len(rx.elements), rx.n_elements.max()))
    for r, panel in enumerate(rx.elements):
        elements[:, r, :panel.shape[1]] = panel
    rx_panels = [link.rx_panel for link in ordered]
    phase, dphase = _element_phases(scene, *elements[:, rx_panels], angle[:, None])
    present = np.arange(elements.shape[2]) < rx.n_elements[rx_panels, None]
    b = np.where(present, h * np.exp(1j * phase), 0.0)
    fb = np.stack((b, 1j * dphase * b, b, b), axis=1)

    return _channel_information(scene, (_gram(fa) * _gram(fb)).real)


def fim_channel_fd(
    scene: Scene,
    links: Sequence[Link],
    gains: Sequence[LinkGain],
    step: float = 1e-7,
) -> np.ndarray:
    """Central-finite-difference twin of :func:`fim_channel`.

    Each of a link's four parameters is stepped in its full samples
    ``np.multiply.outer(a, b)`` from :func:`link_mean`, in proportion to its
    own scale (1/omega_c for the delay, |h| for the gain), so the twin does
    not rely on the factorisation :func:`fim_channel` uses.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    order = link_order(links)
    ref_delay = links[order[0]].delay

    def samples(link, delay, angle, h):
        a, _, b, _ = link_mean(scene, link, delay, angle, h)
        return np.multiply.outer(a, b).ravel()

    blocks = []
    for i in order:
        link, h = links[i], gains[i].h
        delay, angle, h_step = link.delay - ref_delay, link.theta_R_local, step * abs(h)
        columns = []
        for d_tau, d_theta, d_h in ((step / scene.ofdm.omega_c, 0.0, 0.0), (0.0, step, 0.0),
                                    (0.0, 0.0, h_step), (0.0, 0.0, 1j * h_step)):
            plus = samples(link, delay + d_tau, angle + d_theta, h + d_h)
            minus = samples(link, delay - d_tau, angle - d_theta, h - d_h)
            columns.append((plus - minus) / (2.0 * abs(d_tau + d_theta + d_h)))
        grad = np.column_stack(columns)
        blocks.append((grad.conj().T @ grad).real)
    return _channel_information(scene, np.array(blocks))


def transform_matrix(
    scene: Scene, links: Sequence[Link], variant: str, reference: int | None = None
) -> np.ndarray:
    """Geometric Jacobian from channel parameters (columns, :func:`link_order`
    layout) to estimation parameters (rows, [q_x, q_y, alpha_T] first).

    Angles carry geometry in both variants, delay differences only under
    AOA_TDOA; every other channel parameter (the timing offset, the gains
    and, for AOA_ONLY, the delay differences) is a nuisance parameter with
    an identity row, in column order.
    """
    if variant not in (AOA_TDOA, AOA_ONLY):
        raise ValueError(f"unknown variant {variant!r}")
    order = link_order(links, reference)
    v_tau, v_theta, _ = link_info_vectors(scene, links)
    distance = np.array([link.distance for link in links])
    n = 4 * len(order)
    geometric = np.zeros(n, dtype=bool)
    t_po = np.zeros((3, n))
    geometric[1::4] = True
    t_po[:, 1::4] = (v_theta[order] / distance[order, None]).T
    if variant == AOA_TDOA:
        geometric[4::4] = True
        t_po[:, 4::4] = ((v_tau[order[1:]] - v_tau[order[0]]) / SPEED_OF_LIGHT).T
    return np.vstack((t_po, np.eye(n)[~geometric]))


def efim_schur(j_phi: np.ndarray, t_matrix: np.ndarray) -> FimResult:
    """Schur-complement EFIM over position and orientation, from the channel
    FIM and a :func:`transform_matrix` (rows [:3] geometric, [3:] nuisance).

    The nuisance information block is Jacobi-equilibrated before the
    condition check so that the mixed parameter units (seconds, radians,
    linear gains) do not masquerade as degeneracy; a genuinely singular
    block raises NuisanceSingular rather than being pseudo-inverted.
    """
    t_po, t_np = t_matrix[:3], t_matrix[3:]
    a = t_po @ j_phi @ t_po.T
    b = t_po @ j_phi @ t_np.T
    n = t_np @ j_phi @ t_np.T
    n = 0.5 * (n + n.T)
    diag = np.diag(n).copy()
    if np.any(diag <= 0.0):
        raise NuisanceSingular("nuisance block has a non-positive diagonal entry")
    scale = np.sqrt(diag)
    n_eq = n / np.outer(scale, scale)
    eigvals = np.linalg.eigvalsh(n_eq)
    if eigvals[0] <= 0.0 or eigvals[-1] / eigvals[0] > NUISANCE_COND_LIMIT:
        cond = math.inf if eigvals[0] <= 0.0 else eigvals[-1] / eigvals[0]
        raise NuisanceSingular(
            f"nuisance block condition {cond:.3e} exceeds the invertibility limit"
        )
    b_eq = b / scale[None, :]
    correction = b_eq @ np.linalg.solve(n_eq, b_eq.T)
    j_po = a - correction
    return bounds_from_fim(0.5 * (j_po + j_po.T))


def efim_general(
    scene: Scene,
    links: Sequence[Link],
    gains: Sequence[LinkGain],
    variant: str,
    reference: int | None = None,
) -> FimResult:
    """Full general-path EFIM: channel FIM, transform, Schur complement."""
    j_phi = fim_channel(scene, links, gains, reference)
    t = transform_matrix(scene, links, variant, reference)
    return efim_schur(j_phi, t)
