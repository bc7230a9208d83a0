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
from typing import Callable, Sequence

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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Noiseless received samples of one link as a function of its channel
    parameters: delay difference, vehicle-frame arrival angle and complex gain.

    Returns the (subcarrier, Rx element) mean over the link's Tx subcarrier
    set, the subcarriers' baseband angular frequencies, and the angle
    derivative of the per-element phases (the angle derivative of the mean
    is ``1j * dphase * mean``). The pilot symbols carry the same energy on
    every OFDM symbol, so the mean does not depend on the symbol.
    """
    subset = scene.allocation.per_array_sets[link.tx_panel]
    omega = 2.0 * math.pi * scene.ofdm.subcarrier_spacing * np.array(subset)
    gamma_t = scene.allocation.array_power_fractions[link.tx_panel]
    fracs = np.array([scene.allocation.per_subcarrier_fractions[p] for p in subset])
    amps = np.sqrt(gamma_t * fracs * scene.ofdm.total_power)
    dist, ang = scene.rx_vehicle.arrays.elements[link.rx_panel]
    # Element phase d_i cos(psi_i - theta) omega_c / c and its theta derivative.
    phase = scene.ofdm.omega_c * dist * np.cos(ang - angle) / SPEED_OF_LIGHT
    dphase = scene.ofdm.omega_c * dist * np.sin(ang - angle) / SPEED_OF_LIGHT
    mean = (amps * np.exp(-1j * omega * delay))[:, None] * (gain * np.exp(1j * phase))[None, :]
    return mean, omega, dphase


def _channel_information(
    scene: Scene,
    links: Sequence[Link],
    gains: Sequence[LinkGain],
    reference: int | None,
    derivatives: Callable[[Link, float, float, complex], np.ndarray],
) -> np.ndarray:
    """Channel FIM (4L x 4L) from each link's (samples, 4) derivatives of its
    mean in its own (delay, angle, Re gain, Im gain).

    Links at different Rx panels or on disjoint subcarrier sets only couple
    through the shared timing offset, so each link's Gram block sits on the
    diagonal; the offset map then folds the timing offset, which shifts every
    link's delay, into column 0.
    """
    order = link_order(links, reference)
    ref_delay = links[order[0]].delay
    n = 4 * len(order)
    j = np.zeros((n, n))
    for k, i in enumerate(order):
        link = links[i]
        grad = derivatives(link, link.delay - ref_delay, link.theta_R_local, gains[i].h)
        j[4 * k:4 * k + 4, 4 * k:4 * k + 4] = (grad.conj().T @ grad).real
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
    the :func:`link_order` layout; ``reference`` forces a reference link."""

    def derivatives(link, delay, angle, h):
        mean, omega, dphase = link_mean(scene, link, delay, angle, h)
        return np.stack((
            -1j * omega[:, None] * mean,  # timing offset / delay difference
            1j * dphase[None, :] * mean,  # arrival angle
            mean / h,  # Re gain
            1j * mean / h,  # Im gain
        ), axis=-1).reshape(-1, 4)

    return _channel_information(scene, links, gains, reference, derivatives)


def fim_channel_fd(
    scene: Scene,
    links: Sequence[Link],
    gains: Sequence[LinkGain],
    step: float = 1e-7,
) -> np.ndarray:
    """Central-finite-difference twin of :func:`fim_channel`.

    Each of a link's four parameters is stepped in :func:`link_mean`, in
    proportion to its own scale (1/omega_c for the delay, |h| for the gain).
    """
    if step <= 0.0:
        raise ValueError("step must be positive")

    def derivatives(link, delay, angle, h):
        h_step = step * abs(h)
        columns = []
        for d_tau, d_theta, d_h in ((step / scene.ofdm.omega_c, 0.0, 0.0), (0.0, step, 0.0),
                                    (0.0, 0.0, h_step), (0.0, 0.0, 1j * h_step)):
            plus = link_mean(scene, link, delay + d_tau, angle + d_theta, h + d_h)[0]
            minus = link_mean(scene, link, delay - d_tau, angle - d_theta, h - d_h)[0]
            columns.append((plus - minus).ravel() / (2.0 * abs(d_tau + d_theta + d_h)))
        return np.column_stack(columns)

    return _channel_information(scene, links, gains, None, derivatives)


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
