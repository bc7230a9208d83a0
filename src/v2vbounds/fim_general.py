"""General-path information pipeline from the received-signal model.

Assembles the Fisher information of the raw channel parameters (common
timing offset, per-link delay differences, arrival angles, and complex
gains), maps it onto position/orientation through the geometric Jacobian,
and removes nuisance parameters with a Schur complement. A central-finite-
difference twin of the channel FIM serves as a numerical oracle for the
analytic derivatives.

Parameter layout for L active links (reference link first, then the
remaining links in (t, r) order): the reference link contributes
[timing offset, angle, Re gain, Im gain], every other link
[delay difference, angle, Re gain, Im gain], 4L parameters total. The
reference link is the active link of minimum delay, ties broken by (t, r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import LinkGain, free_space_gain
from .errors import NoActiveLinks, NuisanceSingular, SubcarrierNotAllocated
from .fim_closed import FimResult, bounds_from_fim, link_info_vectors
from .geometry import SPEED_OF_LIGHT, Link, LinkSet
from .scene import Scene

AOA_TDOA = "AOA_TDOA"
AOA_ONLY = "AOA_ONLY"

# Equilibrated condition number beyond which the nuisance block is treated
# as singular.
NUISANCE_COND_LIMIT = 1e12


@dataclass(frozen=True)
class ChannelParamVector:
    """Ordering of the channel parameters for a set of active links."""

    link_order: tuple[int, ...]  # indices into the LinkSet, reference first
    reference: int  # index into the LinkSet

    @property
    def size(self) -> int:
        return 4 * len(self.link_order)

    def columns(self, position: int) -> tuple[int, int, int, int]:
        """Column indices (delay, angle, re gain, im gain) of the link at
        ``position`` in ``link_order``; position 0 holds the timing offset in
        the delay slot."""
        base = 4 * position
        return (base, base + 1, base + 2, base + 3)


@dataclass(frozen=True, eq=False)
class TransformMatrix:
    """Jacobian mapping channel parameters onto the estimation parameters.

    Rows are the transformed parameters with position/orientation first;
    columns follow the ChannelParamVector layout.
    """

    matrix: np.ndarray

    @property
    def t_po(self) -> np.ndarray:
        return self.matrix[:3]

    @property
    def t_np(self) -> np.ndarray:
        return self.matrix[3:]


def build_param_vector(links: LinkSet, reference: int | None = None) -> ChannelParamVector:
    """Parameter ordering with the reference link first."""
    if len(links) == 0:
        raise NoActiveLinks("cannot parameterize an empty link set")
    ref = links.reference_index if reference is None else reference
    if not 0 <= ref < len(links):
        raise IndexError(f"reference link index {ref} out of range")
    rest = [i for i in range(len(links)) if i != ref]
    return ChannelParamVector(link_order=(ref, *rest), reference=ref)


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
    dist, ang = np.array([(e.distance, e.angle)
                          for e in scene.rx_vehicle.panels[link.rx_panel].elements]).T
    # Element phase d_i cos(psi_i - theta) omega_c / c and its theta derivative.
    phase = scene.ofdm.omega_c * dist * np.cos(ang - angle) / SPEED_OF_LIGHT
    dphase = scene.ofdm.omega_c * dist * np.sin(ang - angle) / SPEED_OF_LIGHT
    mean = (amps * np.exp(-1j * omega * delay))[:, None] * (gain * np.exp(1j * phase))[None, :]
    return mean, omega, dphase


def mean_vector(scene: Scene, links: LinkSet, link: Link, b: int, p: int) -> np.ndarray:
    """Noiseless received vector at one Rx panel, symbol, and subcarrier:
    the row of :func:`link_mean` at subcarrier ``p``, at the link's actual
    parameters. ``b`` is checked but, as in link_mean, changes nothing."""
    subset = scene.allocation.per_array_sets[link.tx_panel]
    if p not in subset:
        raise SubcarrierNotAllocated(
            f"subcarrier {p} is not allocated to Tx array {link.tx_panel}"
        )
    if not 1 <= b <= scene.ofdm.n_symbols:
        raise IndexError(f"symbol index {b} out of range 1..{scene.ofdm.n_symbols}")
    delta_tau = link.delay - links[links.reference_index].delay
    h = free_space_gain(link.distance, scene.ofdm.wavelength)
    return link_mean(scene, link, delta_tau, link.theta_R_local, h)[0][subset.index(p)]


def _lift(params: ChannelParamVector, position: int) -> np.ndarray:
    """(4, 4L) map from a link's own (delay, angle, Re gain, Im gain)
    derivatives to the parameter vector: the timing offset shifts every
    link's delay, so it shares each link's delay derivative."""
    lift = np.zeros((4, params.size))
    lift[range(4), params.columns(position)] = 1.0
    lift[0, 0] = 1.0
    return lift


def fim_channel(
    scene: Scene,
    links: LinkSet,
    gains: Sequence[LinkGain],
    reference: int | None = None,
) -> np.ndarray:
    """Analytic Fisher information of the channel parameters (4L x 4L).

    Links at different Rx panels or on disjoint subcarrier sets only couple
    through the shared timing offset, so each link's 4x4 Gram block of its
    stacked derivatives is lifted into the parameter layout. ``reference``
    forces a reference link (default: minimum delay).
    """
    if len(links) == 0:
        raise NoActiveLinks("cannot assemble a FIM without active links")
    params = build_param_vector(links, reference)
    j = np.zeros((params.size, params.size))
    scale = 2.0 * scene.ofdm.n_symbols / scene.noise_variance
    for position, link_index in enumerate(params.link_order):
        link, h = links[link_index], gains[link_index].h
        delta_tau = link.delay - links[params.reference].delay
        mean, omega, dphase = link_mean(scene, link, delta_tau, link.theta_R_local, h)
        flat = np.stack((
            -1j * omega[:, None] * mean,  # timing offset / delay difference
            1j * dphase[None, :] * mean,  # arrival angle
            mean / h,  # Re gain
            1j * mean / h,  # Im gain
        )).reshape(4, -1)
        lift = _lift(params, position)
        j += lift.T @ (scale * (flat.conj() @ flat.T).real) @ lift
    return 0.5 * (j + j.T)


def fim_channel_fd(
    scene: Scene,
    links: LinkSet,
    gains: Sequence[LinkGain],
    step: float = 1e-7,
    reference: int | None = None,
) -> np.ndarray:
    """Central-finite-difference twin of :func:`fim_channel`.

    Each of a link's four parameters is stepped in :func:`link_mean`, in
    proportion to its own scale (1/omega_c for the delay, |h| for the gain).
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    params = build_param_vector(links, reference)
    weight = math.sqrt(2.0 * scene.ofdm.n_symbols / scene.noise_variance)
    blocks = []
    for position, link_index in enumerate(params.link_order):
        link, h = links[link_index], gains[link_index].h
        tau, theta = link.delay - links[params.reference].delay, link.theta_R_local
        h_step = step * abs(h)
        columns = []
        for d_tau, d_theta, d_h in ((step / scene.ofdm.omega_c, 0.0, 0.0), (0.0, step, 0.0),
                                    (0.0, 0.0, h_step), (0.0, 0.0, 1j * h_step)):
            plus = link_mean(scene, link, tau + d_tau, theta + d_theta, h + d_h)[0]
            minus = link_mean(scene, link, tau - d_tau, theta - d_theta, h - d_h)[0]
            columns.append(weight * (plus - minus).ravel() / (2.0 * abs(d_tau + d_theta + d_h)))
        blocks.append(np.column_stack(columns) @ _lift(params, position))
    grad = np.concatenate(blocks)
    return (grad.conj().T @ grad).real


def transform_matrix(
    scene: Scene, links: LinkSet, variant: str, reference: int | None = None
) -> TransformMatrix:
    """Geometric Jacobian from channel parameters to estimation parameters.

    For AOA_TDOA the estimation vector is [q_x, q_y, alpha_T, timing offset,
    gains...]; delay differences and angles both carry geometric rows. For
    AOA_ONLY the delay differences are kept as free nuisance parameters, so
    only the angles carry geometry.
    """
    if variant not in (AOA_TDOA, AOA_ONLY):
        raise ValueError(f"unknown variant {variant!r}")
    params = build_param_vector(links, reference)
    v_tau, v_theta, _ = link_info_vectors(scene, links)
    n_links = len(links)
    c = SPEED_OF_LIGHT

    if variant == AOA_TDOA:
        n_rows = 4 + 2 * n_links
    else:
        n_rows = 3 + 3 * n_links
    t = np.zeros((n_rows, params.size))

    # Shared rows: position/orientation (0..2) and the timing offset (3),
    # which is the delay-slot parameter of the reference link.
    t[3, 0] = 1.0
    nuisance_row = 4
    ref = params.reference
    for position, link_index in enumerate(params.link_order):
        cols = params.columns(position)
        # Angle columns carry geometry in both variants.
        t[0:3, cols[1]] = v_theta[link_index] / links[link_index].distance
        if position > 0:
            if variant == AOA_TDOA:
                t[0:3, cols[0]] = (v_tau[link_index] - v_tau[ref]) / c
            else:
                t[nuisance_row, cols[0]] = 1.0
                nuisance_row += 1
        t[nuisance_row, cols[2]] = 1.0
        t[nuisance_row + 1, cols[3]] = 1.0
        nuisance_row += 2
    return TransformMatrix(matrix=t)


def efim_schur(j_phi: np.ndarray, t_matrix: TransformMatrix) -> FimResult:
    """Schur-complement EFIM over position and orientation.

    The nuisance information block is Jacobi-equilibrated before the
    condition check so that the mixed parameter units (seconds, radians,
    linear gains) do not masquerade as degeneracy; a genuinely singular
    block raises NuisanceSingular rather than being pseudo-inverted.
    """
    t_po = t_matrix.t_po
    t_np = t_matrix.t_np
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
    links: LinkSet,
    gains: Sequence[LinkGain],
    variant: str,
    reference: int | None = None,
) -> FimResult:
    """Full general-path EFIM: channel FIM, transform, Schur complement."""
    j_phi = fim_channel(scene, links, gains, reference)
    t = transform_matrix(scene, links, variant, reference)
    return efim_schur(j_phi, t)
