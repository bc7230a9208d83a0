"""Internal consistency suites: closed form vs general path, analytic vs FD,
and reference-link invariance, all on the stacked kernels of ``fim_general``.

Scenes are drawn with a fixed, documented seed (SELFCHECK_SEED) from an
annulus of relative positions 5..40 m around the Tx vehicle with a uniform
random Tx heading, so every run checks the same scene family. The draws come
in blocks with one visibility call per block and preset, accepted in order
(:func:`random_placements`), and their links are rebuilt from the panel
centroids apart from the Scene path (:func:`_placement_links`). The
closed-form vs Schur suite checks the EFIM assembly behind every sweep row
(``scenarios.placement_efims``) against the Schur kernels, on those scenes
and on each preset's fixed edge set (:func:`edge_placements`): bumper
overlap, short gaps, blocked-sector edges. A NaN error fails every suite.

The kernels run once per preset and link count, on the whole stack of those
placements, cut only where its largest array would pass _STACK_BYTES
(:func:`_link_count_chunks`): the fixed cost of a kernel call, not its
arithmetic, dominates these suites, and the budget still bounds memory for
any n_scenes.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np

from .channel import free_space_gain
from .fim_closed import link_vectors
from .fim_general import (
    AOA_ONLY, AOA_TDOA, channel_fims, channel_fims_fd, link_orders, schur_efims,
    transform_matrices,
)
from .geometry import SPEED_OF_LIGHT, visibility, visible_links, wrap_angles
from .scenarios import PRESETS, PresetConfig, placement_efims, preset_context

SELFCHECK_SEED = 20240311

CLOSED_VS_SCHUR_TOL = 1e-8
ANALYTIC_VS_FD_TOL = 1e-7
REFERENCE_INVARIANCE_TOL = 1e-10

# Bytes of the largest stack one kernel call may build: the Schur kernels'
# (n, 4L, 4L) floats, the FD twin's (n, L, 4, S_max, E_max) complex gradient.
# At 1 MiB every default Schur group runs in one call and the 28 GHz FD
# groups about 4 placements at a time.
_STACK_BYTES = 1 << 20


def random_placements(
    rng: np.random.Generator, presets: list[PresetConfig], n_scenes: int
) -> list[tuple[PresetConfig, np.ndarray, float]]:
    """The first n_scenes drawn placements (preset, q, alpha_t) with a link,
    scene i under presets[i % len(presets)]. Each draw takes a radius, a
    bearing and a Tx heading from the stream, so the scenes are those of
    drawing one placement at a time and redrawing those without a link."""
    accepted = []
    vehicles = [(c.tx_vehicle.arrays, c.rx_vehicle.arrays) for c in map(preset_context, presets)]
    while len(accepted) < n_scenes:  # each block draws one placement per missing scene
        radius, bearing, alpha_t = rng.uniform([5.0, -math.pi, -math.pi], [40.0, math.pi, math.pi],
                                               size=(n_scenes - len(accepted), 3)).T
        q = np.column_stack((radius * np.cos(bearing), radius * np.sin(bearing)))
        # The LOS mask of placement_efims, without its EFIM assembly.
        tx_pose, rx_pose = (np.zeros_like(q), wrap_angles(alpha_t)), (q, np.zeros(len(q)))
        linked = [visibility(tx, tx_pose, rx, rx_pose)[2].any(axis=(1, 2)) for tx, rx in vehicles]
        for j in range(len(q)):
            i = len(accepted) % len(presets)
            if linked[i][j]:
                accepted.append((presets[i], q[j], float(alpha_t[j])))
    return accepted


def edge_placements(preset: PresetConfig) -> tuple[np.ndarray, np.ndarray]:
    """Placements q (M, 2) and Tx headings (M,) that the annulus never reaches:
    overtaking at q_y in {0, +-0.5, +-2.25, +-length}, platooning at gaps
    0.25..1 m, and Tx headings pi/4 and atan2(width, length) with the Rx rear
    left panel 8 m ahead of the Tx front right corner along the Tx's right
    side, so the link from the Tx rear right panel lies on its sector edge."""
    length, width = preset.vehicle_length, preset.vehicle_width
    q = [(-preset.lane_width, y) for y in (0.0, 0.5, -0.5, 2.25, -2.25, length, -length)]
    q += [(0.0, -(length + gap)) for gap in (0.25, 0.5, 0.75, 1.0)]
    headings, y = [0.0] * len(q), length / 2.0 + 8.0
    for heading in (math.pi / 4.0, math.atan2(width, length)):
        c, s = math.cos(heading), math.sin(heading)
        q.append((c * width / 2.0 - s * y + width / 2.0, s * width / 2.0 + c * y + length / 2.0))
        headings.append(heading)
    return np.array(q), np.array(headings)


def relative_frobenius(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """||a - b|| / ||a|| over the last two axes (||a - b|| where a is zero)."""
    denom = np.linalg.norm(a, axis=(-2, -1))
    return np.linalg.norm(a - b, axis=(-2, -1)) / np.where(denom == 0.0, 1.0, denom)


def equilibrated_frobenius(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """relative_frobenius of D^-1/2 a D^-1/2 and D^-1/2 b D^-1/2, D = diag(a):
    every parameter weighs the same, so the delay entries (~ omega^2) cannot
    hide an error in the angle or gain entries. A parameter without
    information (zero diagonal) keeps scale 1, as in schur_efims."""
    diag = a.diagonal(0, -2, -1)
    scale = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))
    weight = scale[..., :, None] * scale[..., None, :]
    return relative_frobenius(a * weight, b * weight)


def _link_count_chunks(visible: np.ndarray, scene_bytes):
    """Indices of placements with equal link counts, as many at a time as fit
    _STACK_BYTES when one placement with L links takes scene_bytes(L) > 0
    bytes; a placement that alone takes more comes on its own."""
    n_links = visible.sum(axis=(1, 2))
    for count in sorted(set(n_links.tolist())):
        group = np.flatnonzero(n_links == count)
        size = max(1, _STACK_BYTES // scene_bytes(count))
        yield from np.split(group, range(size, len(group), size))


def _placement_links(
    preset: PresetConfig, tx_c: np.ndarray, rx_c: np.ndarray, visible: np.ndarray,
    ref: np.ndarray | None = None,
) -> tuple[np.ndarray, ...]:
    """Links of n placements with equal link counts from their panel centroids
    and LOS masks (geometry.visible_links), in link_orders (``ref`` (n,)
    forces each row's reference, by its index in (t, r) order): Tx and Rx
    panels, Tx centroids and offsets to the Rx centroids (n, L, 2),
    distances, arrival angles and free-space gains."""
    t, r, tx_at, offset, distance, angle = visible_links(tx_c, rx_c, visible)
    order = link_orders(distance / SPEED_OF_LIGHT, t, r, ref)
    rows = np.arange(len(visible))[:, None]
    links = tuple(column[rows, order] for column in (t, r, tx_at, offset, distance, angle))
    return (*links, free_space_gain(links[4], preset_context(preset).ofdm.wavelength))


def _schur_efims(
    preset: PresetConfig, tx_c: np.ndarray, rx_c: np.ndarray, visible: np.ndarray,
    ref: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Schur-path EFIMs (2, n, 3, 3) and nuisance-singular flags (2, n),
    AOA+TDOA then AOA-only, of n placements with equal link counts, from
    their links as :func:`_placement_links` rebuilds them (``ref`` as there)."""
    ctx = preset_context(preset)
    t, r, tx_at, offset, distance, angle, h = _placement_links(preset, tx_c, rx_c, visible, ref)
    v_tau, v_theta, _ = link_vectors(offset / distance[..., None], tx_at, np.zeros(()),
                                     ctx.rx_vehicle.arrays.saaf_s[r])
    j_phi = channel_fims(ctx, t, r, angle, h)
    schur = [schur_efims(j_phi, transform_matrices(v_tau, v_theta, distance, variant))
             for variant in (AOA_TDOA, AOA_ONLY)]
    return tuple(np.stack(parts) for parts in zip(*schur))


def closed_vs_schur_errors(
    n_scenes: int = 100, seed: int = SELFCHECK_SEED
) -> tuple[float, float]:
    """Max relative Frobenius error, AOA+TDOA and AOA-only, of the batched
    closed-form EFIMs vs the Schur path over n_scenes seeded scenes and both
    presets' edge sets; a singular nuisance block counts as inf."""
    presets = [PRESETS["cfg_3p5GHz"], PRESETS["cfg_28GHz"]]
    drawn = random_placements(np.random.default_rng(seed), presets, n_scenes)
    worst = np.zeros(2)
    for preset in presets:
        edge_q, edge_alpha = edge_placements(preset)
        q = np.array([q for p, q, _ in drawn if p is preset] + edge_q.tolist())
        alpha_t = np.array([a for p, _, a in drawn if p is preset] + edge_alpha.tolist())
        tx_c, rx_c, visible, j_aoa, j_both = placement_efims(preset, q, alpha_t)
        for chunk in _link_count_chunks(visible, lambda n_links: 8 * (4 * n_links)**2):
            j_po, singular = _schur_efims(preset, tx_c[chunk], rx_c[chunk], visible[chunk])
            error = relative_frobenius(np.stack((j_both[chunk], j_aoa[chunk])), j_po)
            worst = np.maximum(worst, np.where(singular, math.inf, error).max(axis=1))
    return float(worst[0]), float(worst[1])


def analytic_vs_fd_errors(n_scenes: int = 20, seed: int = SELFCHECK_SEED) -> float:
    """Max equilibrated relative Frobenius error (see equilibrated_frobenius)
    of the analytic channel FIMs vs their central-FD twin.

    Uses a narrower subcarrier grid than the full presets; the derivative
    structure is identical and the finite-difference sweep stays fast.
    """
    light = [
        dataclasses.replace(PRESETS["cfg_3p5GHz"], name="fd_3p5", max_occupied_index=30),
        dataclasses.replace(PRESETS["cfg_28GHz"], name="fd_28", max_occupied_index=30),
    ]
    drawn = random_placements(np.random.default_rng(seed), light, n_scenes)
    worst = np.zeros(())
    for preset in light:
        q = np.array([q for p, q, _ in drawn if p is preset]).reshape(-1, 2)
        alpha_t = np.array([a for p, _, a in drawn if p is preset])
        tx_c, rx_c, visible, _, _ = placement_efims(preset, q, alpha_t)
        ctx = preset_context(preset)
        samples = ctx.omega.shape[-1] * ctx.rx_vehicle.arrays.elements.shape[-1]
        for chunk in _link_count_chunks(visible, lambda n_links: 16 * 4 * n_links * samples):
            t, r, _, _, distance, angle, h = _placement_links(
                preset, tx_c[chunk], rx_c[chunk], visible[chunk])
            delay = distance / SPEED_OF_LIGHT
            fd = channel_fims_fd(ctx, t, r, delay - delay[:, :1], angle, h)
            error = equilibrated_frobenius(channel_fims(ctx, t, r, angle, h), fd)
            worst = np.maximum(worst, error.max())
    return float(worst)


def reference_invariance_error(seed: int = SELFCHECK_SEED) -> float:
    """Max relative deviation of the Schur EFIM (AOA+TDOA) over all
    reference choices, as one stack: row k takes link k as the reference,
    the others in (t, r) order."""
    [(preset, q, alpha_t)] = random_placements(np.random.default_rng(seed),
                                               [PRESETS["cfg_3p5GHz"]], 1)
    tx_c, rx_c, visible, _, _ = placement_efims(preset, q[None], alpha_t)
    n_links = int(visible.sum())
    (j_po, _), (singular, _) = _schur_efims(
        preset, *(np.repeat(x, n_links, axis=0) for x in (tx_c, rx_c, visible)),
        np.arange(n_links))
    if singular.any():
        return math.inf
    return float(relative_frobenius(j_po[:1], j_po[1:]).max(initial=0.0))


def run_selfcheck() -> int:
    """Run every suite, print max errors, and return a process exit code."""
    t0 = time.monotonic()
    worst_both, worst_aoa = closed_vs_schur_errors()
    print(f"closed vs Schur, AOA+TDOA : max rel Frobenius {worst_both:.3e} "
          f"(tol {CLOSED_VS_SCHUR_TOL:.0e})")
    print(f"closed vs Schur, AOA-only : max rel Frobenius {worst_aoa:.3e} "
          f"(tol {CLOSED_VS_SCHUR_TOL:.0e})")
    worst_fd = analytic_vs_fd_errors()
    print(f"analytic vs FD channel FIM: max equilibrated rel Frobenius {worst_fd:.3e} "
          f"(tol {ANALYTIC_VS_FD_TOL:.0e})")
    worst_ref = reference_invariance_error()
    print(f"reference-link invariance : max rel Frobenius {worst_ref:.3e} "
          f"(tol {REFERENCE_INVARIANCE_TOL:.0e})")
    print(f"selfcheck completed in {time.monotonic() - t0:.1f} s")
    ok = (
        worst_both < CLOSED_VS_SCHUR_TOL
        and worst_aoa < CLOSED_VS_SCHUR_TOL
        and worst_fd < ANALYTIC_VS_FD_TOL
        and worst_ref < REFERENCE_INVARIANCE_TOL
    )
    print("selfcheck PASS" if ok else "selfcheck FAIL")
    return 0 if ok else 3
