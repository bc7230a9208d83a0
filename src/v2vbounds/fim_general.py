"""General-path information pipeline from the received-signal model.

Assembles each link's Fisher information in its channel parameters (delay,
arrival angle, complex gain), maps it onto position/orientation and the common
timing offset through the geometric Jacobian, and removes nuisance parameters
with a Schur complement through a pseudo-inverse, so that a singular nuisance
block still gives the closed form's EFIM: each link's gains go once, on their
own block, its delay then too for AOA-only, and only its kept parameters meet
the offset. One pass gives both measurement sets, in the closed form's order
(``fim_closed.MEASUREMENTS``). A central-finite-difference twin of the
channel FIM serves as a numerical oracle for the analytic derivatives. The
three stages are kernels over a stack of placements under one link context,
padded to one link count with silent links, which change no bit of an EFIM;
:func:`placement_links` builds their inputs from a visibility pass and
:func:`placement_schur_efims` chains them, the general-path twin of
``scenarios.placement_efims``. The one-scene functions are n = 1 calls.

A panel's phase centre is its centroid, where ``geometry.ArrayPanel`` centres
its elements, so each link's angle decouples from its delay and gains.

Parameter layout: each of L links, in the order given (:func:`placement_links`
takes (t, r) order from ``geometry.visible_links``), has its own [delay, angle,
Re gain, Im gain]. Links couple only through the timing offset, which shifts
every link's delay, so the channel FIMs are per-link 4 x 4 blocks (n, L, 4, 4)
and each link's Jacobian (n, L, 4, 2) maps [q_x, q_y, alpha_T, offset] onto
its delay and angle. No link is a reference.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .channel import LinkContext, Scene, free_space_gain
from .fim_closed import RANK_EPS, FimResult, bounds_from_fim, link_vectors, saaf_form
from .geometry import SPEED_OF_LIGHT, Link, scene_placement, visible_links


def link_means(ctx: LinkContext, t: np.ndarray, r: np.ndarray, delay: np.ndarray, angle: np.ndarray,
               gain: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Noiseless received samples of links (n, L) from their Tx and Rx panels,
    delays, vehicle-frame arrival angles and complex gains.

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
    # An offset d e^(i psi) turned by k e^(-i angle): phases k d cos and k d sin of psi - angle.
    z = rx.elements[r] * (ctx.ofdm.omega_c / SPEED_OF_LIGHT * np.exp(-1j * angle[..., None]))
    phase, dphase = z.real, z.imag
    b = np.where(np.arange(z.shape[-1]) < rx.n_elements[r][..., None],
                 gain[..., None] * np.exp(1j * phase), 0.0)
    return amps * np.exp(-1j * omega * delay[..., None]), omega, b, dphase


# Per subcarrier a link's derivative columns are a (row 0 + omega row 1), its
# gain columns then divided by h; per element b (row 0 + dphase row 1).
_FA = np.array([[0.0, 1.0, 1.0, 1j], [-1j, 0.0, 0.0, 0.0]])
_FB = np.array([[1.0, 0.0, 1.0, 1.0], [0.0, 1j, 0.0, 0.0]])


def _gram_kernel(rows: np.ndarray) -> np.ndarray:
    """The (3, 16) complex kernel K of f(x) = rows[0] + x rows[1]: f(x)^H f(x),
    flattened, is (1, x, x^2) @ K, so a weighted sum over x is the moments' product."""
    outer = rows.conj()[:, None, :, None] * rows[None, :, None, :]
    return np.stack((outer[0, 0], outer[0, 1] + outer[1, 0], outer[1, 1])).reshape(3, 16)


_KA, _KB = _gram_kernel(_FA), _gram_kernel(_FB)


def _moment_gram(kernel: np.ndarray, moments: np.ndarray) -> np.ndarray:
    """sum_s w_s f(x_s)^H f(x_s) (..., 4, 4) of a :func:`_gram_kernel`, from
    the moments (..., 3) = sum_s w_s x_s^p, p = 0, 1, 2. The two rows of _FA,
    and of _FB, have disjoint supports, so each entry is one moment times 0,
    +-1 or +-1j: exact."""
    return (moments @ kernel).reshape(moments.shape[:-1] + (4, 4))


def _information(ctx: LinkContext, grams: np.ndarray) -> np.ndarray:
    """Fisher information at unit noise: the real Grams times 2 n_symbols, symmetrised."""
    j = grams * (2.0 * ctx.ofdm.n_symbols)
    return 0.5 * (j + j.swapaxes(-1, -2))


def channel_fims(
    ctx: LinkContext, t: np.ndarray, r: np.ndarray, angle: np.ndarray, h: np.ndarray
) -> np.ndarray:
    """Analytic channel FIMs of n placements, one 4 x 4 block per link (n, L,
    4, 4) in its own [delay, angle, Re gain, Im gain], from the links' Tx and
    Rx panels, vehicle-frame arrival angles and complex gains (n, L) under one
    link context.

    A link's mean is a ⊗ b (:func:`link_means`), so each of its derivative
    columns is fa_k ⊗ fb_k, with Fa = [-1j omega a, a, a/h, 1j a/h] and
    Fb = [b, 1j dphase b, b, b], and its Gram is Re((Fa^H Fa) ∘ (Fb^H Fb)).
    As |a_s|^2 is the subcarrier power P_s and |b_e| = |h|, these need only
    the Tx array's moments sum P omega^p (p = 0, 1, 2, ``ctx.tx_moments``),
    |h|^2 and the Rx panel's (N_r, sum dphase, sum dphase^2): no subcarrier
    or element axis. With the phase centre at the centroid, sum dphase is 0
    and sum dphase^2 is k^2 N_r SAAF(angle), k = omega_c / c.
    """
    tx = _moment_gram(_KA, ctx.tx_moments)
    n_r, k = ctx.rx_vehicle.arrays.n_elements[r], ctx.ofdm.omega_c / SPEED_OF_LIGHT
    square = k**2 * n_r * saaf_form(ctx.link_saaf[:, t, r], np.exp(1j * angle))
    rx_gram = _moment_gram(_KB, np.stack((n_r, np.zeros_like(square), square), axis=-1))
    # |h|^2 times the 1/h of the gain columns: conj(v_k) v_l, v = [h, h, 1, 1].
    v = np.stack((h, h, np.ones_like(h), np.ones_like(h)), axis=-1)
    weight = v.conj()[..., :, None] * v[..., None, :]
    return _information(ctx, (weight * tx[t] * rx_gram).real)


def channel_fims_fd(ctx: LinkContext, t: np.ndarray, r: np.ndarray, delay: np.ndarray,
                    angle: np.ndarray, h: np.ndarray, step: float = 1e-7) -> np.ndarray:
    """Central-finite-difference twin of :func:`channel_fims`, from the same
    (n, L) stacks plus the links' own delays.
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
    return _information(ctx, g @ g.swapaxes(-1, -2))


def transform_matrices(v_tau: np.ndarray, v_theta: np.ndarray, distance: np.ndarray) -> np.ndarray:
    """Geometric Jacobians (n, L, 4, 2) of each link's delay and angle
    (columns) in [q_x, q_y, alpha_T, offset] (rows), from the links' delay and
    angle information vectors (n, L, 3) (``fim_closed.link_vectors``) and
    distances (n, L).

    The delay column is v_tau / c, plus 1 in the offset row, as the timing
    offset shifts every link's delay; the angle column is v_theta / d. No
    gain depends on the geometry, so the gains have no column.
    """
    w = np.zeros(distance.shape + (4, 2))
    w[..., :3, 0] = v_tau / SPEED_OF_LIGHT
    w[..., 3, 0] = 1.0
    w[..., :3, 1] = v_theta / distance[..., None]
    return w


def schur_efims(blocks: np.ndarray, jacobians: np.ndarray) -> np.ndarray:
    """Schur-complement EFIMs (2, n, 3, 3) over position and orientation, in
    MEASUREMENTS order, from the links' channel FIMs (n, L, 4, 4) and their
    :func:`transform_matrices`, once the timing offset and the links' nuisance
    parameters are gone: the gains, and in AOA-only each link's delay too.

    Links couple only through the offset, so by the quotient property each
    link's nuisance parameters go first, on its own block. The gains N
    (blocks[..., 2:, 2:]) go once: with B the coupling of the delay and angle
    to them and A their block, what is left is A - B N^+ B^T, N equilibrated
    and pseudo-inverted from one batched eigh (n, L, 2, 2) at RANK_EPS
    max(1, lambda_max), the 1 the unit pivot of a kept parameter, so the zero
    N of an array without subcarriers inverts nothing, not even rounding
    residue (for a PSD FIM, N z = 0 forces B z = 0: one subcarrier per array
    turns a delay like its gain phase). For AOA-only the delay then goes from
    that 2 x 2 remainder, where its information is above RANK_EPS of what it
    was before the gains went, and its Jacobian column is zero. Both sets
    share the rest. The offset goes where its remaining information is above
    RANK_EPS of what it was: as in the closed form, the delays' geometry is
    centred on the mean m their remaining information weighs, which moves
    the offset by m . eta and decouples it with no difference of large terms;
    in AOA-only the offset meets no kept parameter, so m is 0. Sums run in
    link order, so a silent link adds exact zeros and padding changes no bit.
    Ranked where the centred information, no smaller than RANK_EPS of the
    uncentred (the centring's rounding), has a unit diagonal: eigenvalues up
    to RANK_EPS are residue.
    """
    a, b, d = blocks[..., :2, :2], blocks[..., :2, 2:], blocks[..., 2:, 2:]
    diag = d.diagonal(0, -2, -1)
    scale = np.sqrt(np.where(diag > 0.0, diag, 1.0))
    eigvals, vectors = np.linalg.eigh(d / (scale[..., :, None] * scale[..., None, :]))
    c = (b / scale[..., None, :]) @ vectors
    inverse = np.divide(1.0, eigvals, where=eigvals > RANK_EPS * np.maximum(eigvals[..., -1:], 1.0),
                        out=np.zeros(eigvals.shape))
    free = a - (c * inverse[..., None, :]) @ c.swapaxes(-1, -2)
    delay = free[..., :1, :1]
    drop = np.divide(free[..., :1], delay, where=delay > RANK_EPS * a[..., :1, :1],
                     out=np.zeros_like(free[..., :1]))
    free = np.stack((free, free - drop * free[..., :1, :]))
    w = np.stack((jacobians, jacobians))
    w[1, ..., 0] = 0.0
    # The offset's column of the links' information before and after the nuisance
    # parameters go; zero in AOA-only, where the offset shifts no kept parameter.
    before, after = ((w @ x @ w[..., 3, :, None]).sum(axis=-3)[..., 0] for x in (a, free))
    m = np.divide(after[..., :3], after[..., 3:], where=after[..., 3:] > RANK_EPS * before[..., 3:],
                  out=np.zeros(after.shape[:-1] + (3,)))
    geometric = w[..., :3, :]
    w = geometric - m[..., None, :, None] * w[..., 3:, :]
    units = np.maximum(((w @ a) * w).sum(axis=(-3, -1)),
                       RANK_EPS * ((geometric @ a) * geometric).sum(axis=(-3, -1)))
    unit = np.sqrt(np.where(units > 0.0, units, 1.0))
    unit = unit[..., :, None] * unit[..., None, :]
    eigvals, vectors = np.linalg.eigh((w @ free @ w.swapaxes(-1, -2)).sum(axis=-3) / unit)
    eigvals[eigvals <= RANK_EPS] = 0.0
    return (vectors * eigvals[..., None, :]) @ vectors.swapaxes(-1, -2) * unit


def placement_links(ctx: LinkContext, tx_m: np.ndarray, offset: np.ndarray, visible: np.ndarray,
                    rx_heading: np.ndarray) -> tuple:
    """The kernels' per-link inputs of n placements, from the Tx panel offsets
    (n, Kt), pair offsets (n, Kt, Kr) and any LOS mask (n, Kt, Kr) of
    geometry.visibility, and the Rx headings (n,): Tx and Rx panels (n, L),
    delay and angle information vectors (n, L, 3), distances, Rx-frame
    arrival angles and free-space gains (n, L). The visible links come first;
    silent links (h = 0, unit distance) pad to the largest link count."""
    t, r, tx_at, offset, distance, angle = visible_links(tx_m, offset, visible)
    silent = np.arange(t.shape[-1]) >= visible.sum(axis=(1, 2))[:, None]
    distance[silent] = 1.0
    heading = rx_heading[:, None]
    v_tau, v_theta, _ = link_vectors(offset / distance, tx_at, heading, ctx.link_saaf[:, t, r])
    return (t, r, v_tau, v_theta, distance, angle - heading,
            np.where(silent, 0.0, free_space_gain(distance, ctx.ofdm.wavelength)))


def placement_schur_efims(ctx: LinkContext, tx_m: np.ndarray, offset: np.ndarray,
                          visible: np.ndarray, rx_heading: np.ndarray) -> np.ndarray:
    """Schur-path EFIMs (2, n, 3, 3), in MEASUREMENTS order, of n placements
    given as :func:`placement_links` takes them."""
    t, r, v_tau, v_theta, distance, angle, h = placement_links(
        ctx, tx_m, offset, visible, rx_heading)
    return schur_efims(channel_fims(ctx, t, r, angle, h),
                       transform_matrices(v_tau, v_theta, distance))


def _scene_links(scene: Scene, links: Sequence[Link]) -> tuple:
    """:func:`placement_links` of one scene (n = 1) for the panel pairs of
    ``links`` (geometry.scene_placement)."""
    return placement_links(scene.context, *scene_placement(scene, links))


def fim_channel(scene: Scene, links: Sequence[Link]) -> np.ndarray:
    """Analytic Fisher information of the channel parameters, one 4 x 4 block
    per link (L x 4 x 4), the one-placement call of :func:`channel_fims`."""
    t, r, _, _, _, angle, h = _scene_links(scene, links)
    return channel_fims(scene.context, t, r, angle, h)[0]


def fim_channel_fd(scene: Scene, links: Sequence[Link], step: float = 1e-7) -> np.ndarray:
    """Central-finite-difference twin of :func:`fim_channel`, the
    one-placement call of :func:`channel_fims_fd`."""
    t, r, _, _, distance, angle, h = _scene_links(scene, links)
    return channel_fims_fd(scene.context, t, r, distance / SPEED_OF_LIGHT, angle, h, step)[0]


def transform_matrix(scene: Scene, links: Sequence[Link]) -> np.ndarray:
    """Geometric Jacobians (L x 4 x 2) of one placement's links, the
    one-placement call of :func:`transform_matrices`."""
    _, _, v_tau, v_theta, distance, _, _ = _scene_links(scene, links)
    return transform_matrices(v_tau, v_theta, distance)[0]


def efim_schur(blocks: np.ndarray, jacobians: np.ndarray) -> tuple[FimResult, ...]:
    """Schur-complement EFIMs of one placement, one per set in MEASUREMENTS
    order, the n = 1 call of :func:`schur_efims`."""
    return tuple(map(bounds_from_fim, schur_efims(blocks[None], jacobians[None])[:, 0]))
