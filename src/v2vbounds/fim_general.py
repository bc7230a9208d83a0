"""General-path information pipeline from the received-signal model.

Assembles the Fisher information of the raw channel parameters (common
timing offset, per-link delay differences, arrival angles, and complex
gains), maps it onto position/orientation through the geometric Jacobian,
and removes nuisance parameters with a Schur complement through a
pseudo-inverse, so that a singular nuisance block still gives the closed
form's EFIM. A central-finite-difference twin of the channel FIM serves as
a numerical oracle for the analytic derivatives. The three stages are
kernels over a stack of placements, padded to one link count, under one link
context; :func:`placement_links` builds their inputs from a visibility pass
and :func:`placement_schur_efims` chains them, the general-path twin of
``scenarios.placement_efims``, with the measurement sets in the same order
(``fim_closed.MEASUREMENTS``). The one-scene functions are n = 1 calls.

Parameter layout for L links: the links in the order they are given, which
:func:`placement_links` takes from ``geometry.visible_links`` ((t, r) order).
Column block k, four consecutive columns [delay, angle, Re gain, Im gain],
belongs to the k-th link. The first link is the reference: its delay column is
the common timing offset (column 0), every other link's the delay difference
to the first link. 4L parameters in total.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .channel import LinkContext, Scene, free_space_gain
from .fim_closed import (
    MEASUREMENTS, RANK_EPS, FimResult, Measurement, bounds_from_fim, link_vectors,
)
from .geometry import SPEED_OF_LIGHT, Link, scene_placement, visible_links


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
    stacked (..., L, 4, 4) in link order.

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
    link order, under one link context.

    A link's mean is a ⊗ b (:func:`link_means`), so each of its derivative
    columns is fa_k ⊗ fb_k, with Fa = [-1j omega a, a, a/h, 1j a/h] and
    Fb = [b, 1j dphase b, b, b], and its Gram is Re((Fa^H Fa) ∘ (Fb^H Fb)).
    As |a_s|^2 is the subcarrier power P_s and |b_e| = |h|, these need only
    the Tx array's moments sum P omega^p (p = 0, 1, 2, ``ctx.tx_moments``),
    |h|^2 and the Rx panel's (N_r, sum dphase, sum dphase^2): no subcarrier
    or element axis.
    """
    tx = _moment_gram(_FA, ctx.tx_moments)
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


def channel_fims_fd(ctx: LinkContext, t: np.ndarray, r: np.ndarray, delay: np.ndarray,
                    angle: np.ndarray, h: np.ndarray, step: float = 1e-7) -> np.ndarray:
    """Central-finite-difference twin of :func:`channel_fims`, from the same
    (n, L) stacks plus the links' delay differences to the first link.
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


def transform_matrices(
    v_tau: np.ndarray, v_theta: np.ndarray, distance: np.ndarray, measurement: Measurement
) -> np.ndarray:
    """Geometric Jacobians (n, R, 4L) from channel parameters (columns, in
    the module's layout) to estimation parameters (rows, [q_x, q_y,
    alpha_T] first), from the links' delay and angle information vectors
    (n, L, 3) (``fim_closed.link_vectors``) and distances (n, L) in link order.

    ``measurement`` is one of MEASUREMENTS: angles carry geometry in both,
    delay differences only in "aoa_tdoa"; every other channel parameter (the
    timing offset, the gains and, for "aoa", the delay differences) is a
    nuisance parameter with an identity row, in column order.
    """
    if measurement not in MEASUREMENTS:
        raise ValueError(f"unknown measurement {measurement!r}, expected one of {MEASUREMENTS}")
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


def schur_efims(j_phi: np.ndarray, t_matrix: np.ndarray) -> np.ndarray:
    """Schur-complement EFIMs (n, 3, 3) over position and orientation from
    channel FIMs (n, 4L, 4L) and :func:`transform_matrices` (rows [:3]
    geometric, [3:] nuisance): A - B N^+ B^T of the blocks of T J T^T.

    N is an arrow matrix: links couple only through the offset (row 3), and
    each later row is the identity row of a column of link column // 4. By
    the quotient property each link's nuisance block (its 4 x 4 block of J,
    unit pivots for its other parameters) goes first, pseudo-inverted from
    one batched eigh at RANK_EPS times its largest eigenvalue, then the
    offset, at a pivot above RANK_EPS; all in the units where T J T^T has a
    unit diagonal (1 where not positive), and no sum mixes links but in link
    order, so a silent link adds exact zeros. For a PSD FIM, N z = 0 forces
    B z = 0, so the complement is the EFIM even where N is singular (one
    subcarrier per array turns a delay like its gain phase). It is ranked
    where A has a unit diagonal: eigenvalues up to RANK_EPS are the
    subtraction's rounding residue, set to 0.
    """
    n_links = t_matrix.shape[-1] // 4
    nuisance = np.zeros((n_links, 4), bool)
    nuisance.flat[t_matrix[0, 4:].argmax(axis=-1)] = True
    # Per link: its block of J and the rows [q_x, q_y, alpha_T, offset] of T on its columns.
    j = np.moveaxis(np.diagonal(j_phi.reshape(-1, n_links, 4, n_links, 4), 0, 1, 3), -1, 1)
    w = t_matrix[:, :4].reshape(-1, 4, n_links, 4).swapaxes(1, 2).copy()
    w[..., 3, 0] = 1.0  # the offset shifts every link's delay
    wj = w @ j
    f = (wj @ w.swapaxes(-1, -2)).sum(axis=1)
    f[:, 3, 3] = j_phi[:, 0, 0]  # link 0's block holds every link's offset term
    d = np.where(nuisance[:, :, None] & nuisance[:, None, :], j, np.eye(4))
    scale, scale_d = (np.sqrt(np.where(diag > 0.0, diag, 1.0))
                      for diag in (f.diagonal(0, -2, -1), d.diagonal(0, -2, -1)))
    f /= scale[:, :, None] * scale[:, None, :]
    eigvals, vectors = np.linalg.eigh(d / (scale_d[..., :, None] * scale_d[..., None, :]))
    c = (wj * nuisance[:, None, :] / (scale[:, None, :, None] * scale_d[..., None, :])) @ vectors
    inverse = np.divide(1.0, eigvals, where=eigvals > RANK_EPS * eigvals[..., -1:],
                        out=np.zeros(eigvals.shape))
    f -= ((c * inverse[..., None, :]) @ c.swapaxes(-1, -2)).sum(axis=1)
    f = f[:, :3, :3] - np.divide(f[:, :3, 3:] * f[:, 3:, :3], f[:, 3:, 3:],
                                 where=f[:, 3:, 3:] > RANK_EPS, out=np.zeros((len(f), 3, 3)))
    eigvals, vectors = np.linalg.eigh(f)
    eigvals[eigvals <= RANK_EPS] = 0.0
    return (vectors * eigvals[..., None, :]) @ vectors.swapaxes(-1, -2) * (
        scale[:, :3, None] * scale[:, None, :3])


def placement_links(ctx: LinkContext, tx_c: np.ndarray, offset: np.ndarray, visible: np.ndarray,
                    rx_heading: np.ndarray) -> tuple:
    """The kernels' per-link inputs of n placements, from the Tx centroids
    (n, Kt, 2), pair offsets (n, Kt, Kr, 2) and any LOS mask (n, Kt, Kr) of
    geometry.visibility, the Tx reference point at the origin, and the Rx
    headings (n,): Tx and Rx panels (n, L), delay and angle information
    vectors (n, L, 3), distances, Rx-frame arrival angles and free-space
    gains (n, L). The visible links come first, so the reference is visible;
    silent links (h = 0, unit distance) pad to the largest link count."""
    t, r, tx_at, offset, distance, angle = visible_links(tx_c, offset, visible)
    silent = np.arange(t.shape[-1]) >= visible.sum(axis=(1, 2))[:, None]
    distance[silent] = 1.0
    heading = rx_heading[:, None]
    v_tau, v_theta, _ = link_vectors(offset / distance[..., None], tx_at, heading,
                                     ctx.rx_vehicle.arrays.saaf_s[r])
    return (t, r, v_tau, v_theta, distance, angle - heading,
            np.where(silent, 0.0, free_space_gain(distance, ctx.ofdm.wavelength)))


def placement_schur_efims(ctx: LinkContext, tx_c: np.ndarray, offset: np.ndarray,
                          visible: np.ndarray, rx_heading: np.ndarray) -> np.ndarray:
    """Schur-path EFIMs (2, n, 3, 3), in MEASUREMENTS order, of n placements
    given as :func:`placement_links` takes them."""
    t, r, v_tau, v_theta, distance, angle, h = placement_links(
        ctx, tx_c, offset, visible, rx_heading)
    j_phi = channel_fims(ctx, t, r, angle, h)
    return np.stack([schur_efims(j_phi, transform_matrices(v_tau, v_theta, distance, measurement))
                     for measurement in MEASUREMENTS])


def _scene_links(scene: Scene, links: Sequence[Link]) -> tuple:
    """:func:`placement_links` of one scene (n = 1) for the panel pairs of
    ``links`` (geometry.scene_placement)."""
    return placement_links(scene.context, *scene_placement(scene, links))


def fim_channel(scene: Scene, links: Sequence[Link]) -> np.ndarray:
    """Analytic Fisher information of the channel parameters (4L x 4L), the
    one-placement call of :func:`channel_fims`."""
    t, r, _, _, _, angle, h = _scene_links(scene, links)
    return channel_fims(scene.context, t, r, angle, h)[0]


def fim_channel_fd(scene: Scene, links: Sequence[Link], step: float = 1e-7) -> np.ndarray:
    """Central-finite-difference twin of :func:`fim_channel`, the
    one-placement call of :func:`channel_fims_fd`."""
    t, r, _, _, distance, angle, h = _scene_links(scene, links)
    delay = distance / SPEED_OF_LIGHT
    return channel_fims_fd(scene.context, t, r, delay - delay[:, :1], angle, h, step)[0]


def transform_matrix(scene: Scene, links: Sequence[Link], measurement: Measurement) -> np.ndarray:
    """Geometric Jacobian (R x 4L) of one placement's links, the one-placement
    call of :func:`transform_matrices`."""
    _, _, v_tau, v_theta, distance, _, _ = _scene_links(scene, links)
    return transform_matrices(v_tau, v_theta, distance, measurement)[0]


def efim_schur(j_phi: np.ndarray, t_matrix: np.ndarray) -> FimResult:
    """Schur-complement EFIM of one placement, the n = 1 call of
    :func:`schur_efims`."""
    return bounds_from_fim(schur_efims(j_phi[None], t_matrix[None])[0])


def efim_general(scene: Scene, links: Sequence[Link], measurement: Measurement) -> FimResult:
    """Full general-path EFIM of one measurement set: channel FIM, transform,
    Schur complement, from one build of the scene's links."""
    t, r, v_tau, v_theta, distance, angle, h = _scene_links(scene, links)
    return efim_schur(channel_fims(scene.context, t, r, angle, h)[0],
                      transform_matrices(v_tau, v_theta, distance, measurement)[0])
