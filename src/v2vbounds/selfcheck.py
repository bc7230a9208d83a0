"""Internal consistency suites: closed form vs general path, analytic vs FD,
and link-order invariance, all on the stacked kernels of ``fim_general``.

Scenes are drawn with a fixed, documented seed (SELFCHECK_SEED) from an
annulus of relative positions 5..40 m around the Tx vehicle with a uniform
random Tx heading, so every run checks the same scene family. The draws come
in blocks with one visibility call per block and preset, accepted in order
(:func:`random_placements`). Every suite builds the general path's links
(``fim_general.placement_links``) from one ``geometry.visibility`` pass per
preset; the closed-form vs Schur suite takes the pass inside
``scenarios.placement_efims`` and compares the EFIM stack behind every sweep
row with its general-path twin (``fim_general.placement_schur_efims``, both
measurement sets from one Schur pass), set by set in
``fim_closed.MEASUREMENTS`` order, on those scenes and on each
preset's fixed edge set (:func:`edge_placements`): bumper overlap, short
gaps, blocked-sector edges. The Schur path answers for every placement, a
singular nuisance block included, so every one is compared. A NaN error
fails every suite.

A Schur call's fixed cost, not its arithmetic, dominates, so one call takes
a draw block's placements of a preset, links padded. The FD twin's
arithmetic grows with its samples (at 28 GHz a (4, 9) stack takes 1.4 ms
against 0.05 ms for its analytic twin on a 2-vCPU Xeon), so it runs per
preset and link count (:func:`_link_count_chunks`), padding nothing, cut only
where its gradient would pass _STACK_BYTES. Memory does not grow with
n_scenes.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np

from .fim_general import (
    channel_fims, channel_fims_fd, placement_links, placement_schur_efims, schur_efims,
    transform_matrices,
)
from .geometry import SPEED_OF_LIGHT, visibility
from .scenarios import (
    PRESETS, PresetConfig, placement_efims, placement_poses, preset_context, scenario_placements,
)

SELFCHECK_SEED = 20240311

CLOSED_VS_SCHUR_TOL = 1e-8
ANALYTIC_VS_FD_TOL = 1e-7
REFERENCE_INVARIANCE_TOL = 1e-10

# Bytes of the largest (n, L, 4, S_max, E_max) complex gradient of one FD twin call (28 GHz
# groups take about 4 placements at a time); a draw block holds _STACK_BYTES // 8192 (128) scenes.
_STACK_BYTES = 1 << 20


def random_placements(rng: np.random.Generator, presets: list[PresetConfig], n_scenes: int):
    """The first n_scenes drawn placements (preset, q, alpha_t) with a link,
    scene i under presets[i % len(presets)], in lists of _STACK_BYTES // 8192
    (128), one empty list for n_scenes = 0. Each draw takes a radius, a bearing
    and a Tx heading, as drawing one at a time and redrawing those unlinked."""
    pairs = [ctx.pairs for ctx in map(preset_context, presets)]
    size = max(1, _STACK_BYTES // 8192)
    for start in range(0, max(n_scenes, 1), size):
        block, end = [], min(start + size, n_scenes)
        while start + len(block) < end:  # each round draws one placement per missing scene
            radius, bearing, alpha_t = rng.uniform([5.0, -math.pi, -math.pi],
                                                   [40.0, math.pi, math.pi],
                                                   size=(end - start - len(block), 3)).T
            q = np.column_stack((radius * np.cos(bearing), radius * np.sin(bearing)))
            # The LOS mask of placement_efims, without its EFIM assembly.
            tx_pose, rx_pose = placement_poses(q, alpha_t)
            linked = [visibility(p, tx_pose, rx_pose)[2].any(axis=(1, 2)) for p in pairs]
            for j in range(len(q)):
                i = (start + len(block)) % len(presets)
                if linked[i][j]:
                    block.append((presets[i], q[j], float(alpha_t[j])))
        yield block


def _preset_stacks(presets: list[PresetConfig], n_scenes: int, seed: int, extra=None):
    """Per block of :func:`random_placements` and preset, its placements q (m, 2)
    and Tx headings (m,), the (q, alpha_t) pairs extra[preset] after its first."""
    extra = dict(extra or {})
    for block in random_placements(np.random.default_rng(seed), presets, n_scenes):
        for preset in presets:
            scenes = [(q, a) for p, q, a in block if p is preset] + extra.pop(preset, [])
            if scenes:
                q, alpha_t = zip(*scenes)
                yield preset, np.array(q), np.array(alpha_t)


def edge_placements(preset: PresetConfig) -> tuple[np.ndarray, np.ndarray]:
    """Placements q (M, 2) and Tx headings (M,) that the annulus never reaches:
    overtaking at q_y in {0, +-0.5, +-2.25, +-length}, platooning at gaps
    0.25..1 m, and Tx headings pi/4 and atan2(width, length) with the Rx rear
    left panel 8 m ahead of the Tx front right corner along the Tx's right
    side, so the link from the Tx rear right panel lies on its sector edge."""
    length, width = preset.vehicle_length, preset.vehicle_width
    q = [*scenario_placements(preset, "overtaking", [0.0, 0.5, -0.5, 2.25, -2.25, length, -length]),
         *scenario_placements(preset, "platooning", [0.25, 0.5, 0.75, 1.0])]
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


def closed_vs_schur_errors(
    *, n_scenes: int = 100, seed: int = SELFCHECK_SEED
) -> tuple[float, float]:
    """Max relative Frobenius error, AOA+TDOA and AOA-only, of the batched
    closed-form EFIMs vs the Schur path over n_scenes seeded scenes and both
    presets' edge sets, taken and reduced block by block
    (:func:`_preset_stacks`), so memory does not grow with n_scenes."""
    presets = [PRESETS["cfg_3p5GHz"], PRESETS["cfg_28GHz"]]
    worst = np.zeros(2)
    edges = {preset: list(zip(*edge_placements(preset))) for preset in presets}
    for preset, q, alpha_t in _preset_stacks(presets, n_scenes, seed, edges):
        ctx, poses = preset_context(preset), placement_poses(q, alpha_t)
        tx_m, offset, visible, j = placement_efims(ctx, *poses)
        j_po = placement_schur_efims(ctx, tx_m, offset, visible, poses[1][1])
        worst = np.maximum(worst, relative_frobenius(j, j_po).max(axis=1))
    return float(worst[0]), float(worst[1])


def analytic_vs_fd_errors(*, n_scenes: int = 20, seed: int = SELFCHECK_SEED) -> float:
    """Max equilibrated relative Frobenius error (see equilibrated_frobenius)
    of the analytic per-link channel FIMs vs their central-FD twin over
    n_scenes seeded scenes, taken and reduced block by block
    (:func:`_preset_stacks`); the kernels run per link count, as padding
    would add FD arithmetic.

    Uses a narrower subcarrier grid than the full presets; the derivative
    structure is identical and the finite-difference sweep stays fast.
    """
    light = [
        dataclasses.replace(PRESETS["cfg_3p5GHz"], name="fd_3p5", max_occupied_index=30),
        dataclasses.replace(PRESETS["cfg_28GHz"], name="fd_28", max_occupied_index=30),
    ]
    worst = np.zeros(())
    for preset, q, alpha_t in _preset_stacks(light, n_scenes, seed):
        ctx, (tx_pose, rx_pose) = preset_context(preset), placement_poses(q, alpha_t)
        placement = visibility(ctx.pairs, tx_pose, rx_pose)[:3]
        samples = ctx.omega.shape[-1] * ctx.rx_vehicle.arrays.elements.shape[-1]
        for chunk in _link_count_chunks(placement[2], lambda n_links: 16 * 4 * n_links * samples):
            t, r, _, _, distance, angle, h = placement_links(
                ctx, *(x[chunk] for x in placement), rx_pose[1][chunk])
            fd = channel_fims_fd(ctx, t, r, distance / SPEED_OF_LIGHT, angle, h)
            error = equilibrated_frobenius(channel_fims(ctx, t, r, angle, h), fd)
            worst = np.maximum(worst, error.max())
    return float(worst)


def reference_invariance_error(seed: int = SELFCHECK_SEED) -> float:
    """Max relative deviation of the Schur EFIMs (both measurement sets of the
    kernel's stack) over orders of one scene's links, as one stack of them
    reordered: row k puts link k first, the others in (t, r) order. No link
    is a reference, so only rounding moves it."""
    [[(preset, q, alpha_t)]] = random_placements(np.random.default_rng(seed),
                                                 [PRESETS["cfg_3p5GHz"]], 1)
    ctx, (tx_pose, rx_pose) = preset_context(preset), placement_poses(q[None], alpha_t)
    links = placement_links(ctx, *visibility(ctx.pairs, tx_pose, rx_pose)[:3], rx_pose[1])
    index = np.arange(links[0].shape[-1])
    order = np.argsort(index != index[:, None], axis=-1, kind="stable")
    t, r, v_tau, v_theta, distance, angle, h = (x[0, order] for x in links)
    j_po = schur_efims(channel_fims(ctx, t, r, angle, h),
                       transform_matrices(v_tau, v_theta, distance))
    return float(relative_frobenius(j_po[:, :1], j_po[:, 1:]).max(initial=0.0))


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
    print(f"link-order invariance     : max rel Frobenius {worst_ref:.3e} "
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
