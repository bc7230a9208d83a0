"""General-path information pipeline from the received-signal model.

Assembles the Fisher information of the raw channel parameters (common
timing offset, per-link delay differences, arrival angles, and complex
gains), maps it onto position/orientation through the geometric Jacobian,
and removes nuisance parameters with a Schur complement. A central-finite-
difference twin of the channel FIM serves as a numerical oracle for the
analytic derivatives. The three stages are kernels over a stack of
placements with equal link counts (:func:`channel_fims`,
:func:`transform_matrices`, :func:`schur_efims`); :func:`fim_channel`,
:func:`transform_matrix` and :func:`efim_schur` are their one-placement calls.

Parameter layout for L active links, decided by :func:`link_order`: the
reference link first (the active link of minimum delay, ties broken by
(t, r)), then the remaining links in (t, r) order. Each link holds four
consecutive columns [delay, angle, Re gain, Im gain]; the reference link's
delay column is the common timing offset (column 0), every other link's the
delay difference to the reference link. 4L parameters in total.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .channel import LinkContext, LinkGain
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
    link (default: minimum delay, ties by (t, r); see :func:`link_orders`)."""
    if len(links) == 0:
        raise NoActiveLinks("cannot parameterize an empty link set")
    if reference is not None and not 0 <= reference < len(links):
        raise IndexError(f"reference link index {reference} out of range")
    return link_orders(*(np.array([[getattr(link, name) for link in links]])
                         for name in ("delay", "tx_panel", "rx_panel")),
                       None if reference is None else [reference])[0].tolist()


def link_orders(delay: np.ndarray, t: np.ndarray, r: np.ndarray,
                reference: np.ndarray | None = None) -> np.ndarray:
    """:func:`link_order` of each row of links given as delays and Tx and Rx
    panels (n, L): the reference link first, then the others in their given
    order. ``reference`` (n,) forces each row's reference link (default: the
    link of minimum delay, ties broken by (t, r))."""
    first = np.lexsort((r, t, delay))[..., 0] if reference is None else np.asarray(reference)
    return np.argsort(np.arange(delay.shape[-1]) != first[..., None], axis=-1, kind="stable")


def link_means(ctx: LinkContext, t: np.ndarray, r: np.ndarray, delay: np.ndarray, angle: np.ndarray,
               gain: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Noiseless received samples of links (n, L) from their Tx and Rx panels,
    delay differences, vehicle-frame arrival angles and complex gains.

    A link's (subcarrier, Rx element) mean is ``a ⊗ b``, ``a`` (n, L, S_max)
    over the subcarrier slots of ``Allocation.arrays`` and ``b`` (n, L, E_max)
    over the Rx elements, both zero on padding. Returns ``(a, omega, b,
    dphase)``: the slots' baseband angular frequencies (the delay derivative
    of ``a`` is ``-1j * omega * a``) and the angle derivative of the element
    phases (that of ``b`` is ``1j * dphase * b``). Equal pilot energy on every
    OFDM symbol makes the mean symbol-independent.
    """
    omega, amps = ctx.omega[t], np.sqrt(ctx.power[t])
    rx = ctx.rx_vehicle.arrays
    dist, ang = rx.elements[:, r]
    angle, omega_c = angle[..., None], ctx.ofdm.omega_c
    phase = omega_c * dist * np.cos(ang - angle) / SPEED_OF_LIGHT
    dphase = omega_c * dist * np.sin(ang - angle) / SPEED_OF_LIGHT
    b = np.where(np.arange(dist.shape[-1]) < rx.n_elements[r][..., None],
                 gain[..., None] * np.exp(1j * phase), 0.0)
    return amps * np.exp(-1j * omega * delay[..., None]), omega, b, dphase


def link_mean(
    scene: Scene, link: Link, delay: float, angle: float, gain: complex
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One link's :func:`link_means` ``(a, omega, b, dphase)``, sliced to its
    own subcarriers and Rx elements."""
    stacks = link_means(scene.context, *(np.array([[x]]) for x in (
        link.tx_panel, link.rx_panel, delay, angle, gain)))
    count = len(scene.allocation.per_array_sets[link.tx_panel])
    n_e = scene.rx_vehicle.arrays.n_elements[link.rx_panel]
    return tuple(x[0, 0, :size] for x, size in zip(stacks, (count, count, n_e, n_e)))


# Per subcarrier a link's derivative columns are a (row 0 + omega row 1), its
# gain columns then divided by h; per element b (row 0 + dphase row 1).
_FA = np.array([[0.0, 1.0, 1.0, 1j], [-1j, 0.0, 0.0, 0.0]])
_FB = np.array([[1.0, 0.0, 1.0, 1.0], [0.0, 1j, 0.0, 0.0]])


def _moment_gram(rows: np.ndarray, moments: np.ndarray) -> np.ndarray:
    """sum_s w_s f(x_s)^H f(x_s), f(x) = rows[0] + x rows[1], from the
    moments (..., 3) = sum_s w_s x_s^p, p = 0, 1, 2."""
    return rows.conj().T @ np.stack((moments[..., :2], moments[..., 1:]), axis=-2) @ rows


def _channel_information(ctx: LinkContext, blocks: np.ndarray) -> np.ndarray:
    """Channel FIMs (..., 4L, 4L) from each link's 4 x 4 Gram (real part) of
    the derivatives of its mean in its own (delay, angle, Re gain, Im gain),
    stacked (..., L, 4, 4) in :func:`link_order`.

    Links at different Rx panels or on disjoint subcarrier sets only couple
    through the shared timing offset, so each link's Gram block sits on the
    diagonal. The timing offset shifts every link's delay, so the offset map
    O (the identity plus ones at [0::4, 0]) folds it into column 0: O^T J O
    sums the delay columns into column 0, then the delay rows into row 0.
    """
    n_links = blocks.shape[-3]
    n = 4 * n_links
    j = np.einsum("...kab,kl->...kalb", blocks, np.eye(n_links)).reshape(*blocks.shape[:-3], n, n)
    j[..., :, 0] = j[..., :, 0::4].sum(axis=-1)
    j[..., 0, :] = j[..., 0::4, :].sum(axis=-2)
    j *= 2.0 * ctx.ofdm.n_symbols / ctx.noise_variance
    return 0.5 * (j + j.swapaxes(-1, -2))


def channel_fims(
    ctx: LinkContext, t: np.ndarray, r: np.ndarray, angle: np.ndarray, h: np.ndarray
) -> np.ndarray:
    """Analytic channel FIMs (n, 4L, 4L) of n placements from their links' Tx
    and Rx panels, vehicle-frame arrival angles and complex gains (n, L), in
    :func:`link_order`, under one link context.

    A link's mean is a ⊗ b (:func:`link_mean`), so each of its derivative
    columns is fa_k ⊗ fb_k, with Fa = [-1j omega a, a, a/h, 1j a/h] and
    Fb = [b, 1j dphase b, b, b], and its Gram is Re((Fa^H Fa) ∘ (Fb^H Fb)).
    As |a_s|^2 is the subcarrier power P_s and |b_e| = |h|, these need only
    the Tx array's moments sum P omega^p (p = 0, 1, 2), |h|^2 and the Rx
    panel's (N_r, sum dphase, sum dphase^2): no subcarrier or element axis.
    """
    # Summed along the contiguous axis, which numpy adds pairwise.
    tx = _moment_gram(_FA, np.sum(
        ctx.power[:, None] * ctx.omega[:, None] ** np.arange(3)[:, None], -1))
    rx, k = ctx.rx_vehicle.arrays, ctx.ofdm.omega_c / SPEED_OF_LIGHT
    # dphase_i = k d_perp_i . u, u = (cos, sin)(angle), so sum dphase = k u . sum d_perp
    # and sum dphase^2 = k^2 N_r u^T S u, with S the panel's saaf_matrix.
    u = np.stack((np.cos(angle), np.sin(angle)), axis=-1)
    n_r = rx.n_elements[r]
    sums = (k * np.sum(rx.d_perp[r] * u, axis=-1),
            k**2 * n_r * np.einsum("...i,...ij,...j", u, rx.saaf_s[r], u))
    rx_gram = _moment_gram(_FB, np.stack((n_r, *sums), axis=-1))
    # |h|^2 times the 1/h of the gain columns: conj(v_k) v_l, v = [h, h, 1, 1].
    v = np.stack((h, h, np.ones_like(h), np.ones_like(h)), axis=-1)
    weight = v.conj()[..., :, None] * v[..., None, :]
    return _channel_information(ctx, (weight * tx[t] * rx_gram).real)


def _link_stacks(
    links: Sequence[Link], gains: Sequence[LinkGain], reference: int | None = None
) -> tuple[np.ndarray, ...]:
    """One placement's (t, r, delay difference, angle, h) as (1, L) stacks in
    :func:`link_order`, the input of the stacked kernels."""
    order = link_order(links, reference)
    t, r, delay, angle = (np.array([[getattr(links[i], name) for i in order]])
                          for name in ("tx_panel", "rx_panel", "delay", "theta_R_local"))
    return t, r, delay - delay[:, :1], angle, np.array([[gains[i].h for i in order]])


def fim_channel(
    scene: Scene,
    links: Sequence[Link],
    gains: Sequence[LinkGain],
    reference: int | None = None,
) -> np.ndarray:
    """Analytic Fisher information of the channel parameters (4L x 4L), in
    the :func:`link_order` layout; ``reference`` forces a reference link.
    The one-placement call of :func:`channel_fims`."""
    t, r, _, angle, h = _link_stacks(links, gains, reference)
    return channel_fims(scene.context, t, r, angle, h)[0]


def channel_fims_fd(ctx: LinkContext, t: np.ndarray, r: np.ndarray, delay: np.ndarray,
                    angle: np.ndarray, h: np.ndarray, step: float = 1e-7) -> np.ndarray:
    """Central-finite-difference twin of :func:`channel_fims`, from the same
    (n, L) stacks plus the links' delay differences to the reference link.
    Each parameter is stepped in the full samples ``a ⊗ b`` of
    :func:`link_means`, in proportion to its own scale (1/max|omega| for
    the delay, |h| for the gain), so the twin uses no factorisation or moments.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    # One column per parameter: steps (n, L, 4) of delay, angle and gain,
    # taken both ways in one link_means call on (2, n, L, 4) stacks; on DC
    # alone no delay turns a phase, so any delay step gives the zero column.
    d_tau, d_theta = np.eye(4)[:2] * [[step / (np.abs(ctx.omega).max() or 1.0)], [step]]
    d_h = step * np.abs(h)[..., None] * np.array([0.0, 0.0, 1.0, 1j])
    sign = np.array([1.0, -1.0])[:, None, None, None]
    a, _, b, _ = link_means(ctx, t[..., None], r[..., None], delay[..., None] + sign * d_tau,
                            angle[..., None] + sign * d_theta, h[..., None] + sign * d_h)
    grad = a[0][..., :, None] * b[0][..., None, :]  # (n, L, 4, S_max, E_max)
    for k in range(4):  # a column at a time keeps the temporary small
        grad[..., k, :, :] -= a[1][..., k, :, None] * b[1][..., k, None, :]
    grad = grad.reshape(d_h.shape + (-1,))
    grad /= 2.0 * np.abs(d_tau + d_theta + d_h)[..., None]
    # Viewed as (re, im) pairs, g g^T sums Re(conj(g_k) g_l) over the samples.
    g = grad.view(float)
    return _channel_information(ctx, g @ g.swapaxes(-1, -2))


def fim_channel_fd(
    scene: Scene,
    links: Sequence[Link],
    gains: Sequence[LinkGain],
    step: float = 1e-7,
) -> np.ndarray:
    """Central-finite-difference twin of :func:`fim_channel`, the
    one-placement call of :func:`channel_fims_fd`."""
    return channel_fims_fd(scene.context, *_link_stacks(links, gains), step)[0]


def transform_matrices(
    v_tau: np.ndarray, v_theta: np.ndarray, distance: np.ndarray, variant: str
) -> np.ndarray:
    """Geometric Jacobians (n, R, 4L) from channel parameters (columns,
    :func:`link_order` layout) to estimation parameters (rows, [q_x, q_y,
    alpha_T] first), from the links' delay and angle information vectors
    (n, L, 3) (:func:`link_info_vectors`) and distances (n, L) in link order.

    Angles carry geometry in both variants, delay differences only under
    AOA_TDOA; every other channel parameter (the timing offset, the gains
    and, for AOA_ONLY, the delay differences) is a nuisance parameter with
    an identity row, in column order.
    """
    if variant not in (AOA_TDOA, AOA_ONLY):
        raise ValueError(f"unknown variant {variant!r}")
    n = 4 * distance.shape[-1]
    t_po = np.zeros(distance.shape[:-1] + (3, n))
    t_po[..., 1::4] = (v_theta / distance[..., None]).swapaxes(-1, -2)
    geometric = np.arange(n) % 4 == 1
    if variant == AOA_TDOA:
        delay_rows = (v_tau[..., 1:, :] - v_tau[..., :1, :]) / SPEED_OF_LIGHT
        t_po[..., 4::4] = delay_rows.swapaxes(-1, -2)
        geometric[4::4] = True
    nuisance = np.eye(n)[~geometric]
    return np.concatenate((t_po, np.broadcast_to(nuisance, t_po.shape[:-2] + nuisance.shape)), -2)


def transform_matrix(
    scene: Scene, links: Sequence[Link], variant: str, reference: int | None = None
) -> np.ndarray:
    """Geometric Jacobian (R x 4L) of one placement's links, the one-placement
    call of :func:`transform_matrices`."""
    ordered = [links[i] for i in link_order(links, reference)]
    v_tau, v_theta, _ = link_info_vectors(scene, ordered)
    distance = np.array([[link.distance for link in ordered]])
    return transform_matrices(v_tau[None], v_theta[None], distance, variant)[0]


def schur_efims(j_phi: np.ndarray, t_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Schur-complement EFIMs (n, 3, 3) over position and orientation, and
    nuisance-singular flags (n,), from channel FIMs (n, 4L, 4L) and
    :func:`transform_matrices` (rows [:3] geometric, [3:] nuisance).

    The nuisance information block is Jacobi-equilibrated before the
    condition check so that the mixed parameter units (seconds, radians,
    linear gains) do not masquerade as degeneracy. A flagged block has a
    non-positive diagonal entry or a condition above NUISANCE_COND_LIMIT.
    """
    full = t_matrix @ j_phi @ t_matrix.swapaxes(-1, -2)
    a, b, n = full[..., :3, :3], full[..., :3, 3:], full[..., 3:, 3:]
    n = 0.5 * (n + n.swapaxes(-1, -2))
    diag = n.diagonal(0, -2, -1)
    positive = np.all(diag > 0.0, axis=-1)
    scale = np.sqrt(np.where(positive[..., None], diag, 1.0))
    n_eq = n / (scale[..., :, None] * scale[..., None, :])
    eigvals = np.linalg.eigvalsh(n_eq)
    regular = positive & (eigvals[..., 0] > 0.0) & (
        eigvals[..., -1] <= NUISANCE_COND_LIMIT * eigvals[..., 0])
    b_eq = b / scale[..., None, :]
    # The right-hand side stays (..., M, 3), a stack of matrices on every numpy.
    n_eq = np.where(regular[..., None, None], n_eq, np.eye(n.shape[-1]))
    j_po = a - b_eq @ np.linalg.solve(n_eq, b_eq.swapaxes(-1, -2))
    return 0.5 * (j_po + j_po.swapaxes(-1, -2)), ~regular


def efim_schur(j_phi: np.ndarray, t_matrix: np.ndarray) -> FimResult:
    """Schur-complement EFIM of one placement (:func:`schur_efims`); a
    singular nuisance block raises NuisanceSingular rather than being
    pseudo-inverted."""
    j_po, singular = schur_efims(j_phi[None], t_matrix[None])
    if singular[0]:
        raise NuisanceSingular("nuisance block is singular or beyond NUISANCE_COND_LIMIT")
    return bounds_from_fim(j_po[0])


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
