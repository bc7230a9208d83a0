"""Internal consistency suites: closed form vs general path, analytic vs FD.

Scenes are drawn with a fixed, documented seed (SELFCHECK_SEED) from an
annulus of relative positions 5..40 m around the Tx vehicle with a uniform
random Tx heading, so every run checks the same scene family.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np

from .channel import link_gains
from .errors import NoActiveLinks
from .fim_closed import efim_aoa_only, efim_aoa_tdoa
from .fim_general import (
    AOA_ONLY,
    AOA_TDOA,
    efim_general,
    efim_schur,
    fim_channel,
    fim_channel_fd,
    transform_matrix,
)
from .geometry import Vec2, active_links
from .scenarios import PRESETS, PresetConfig, calibrated_scene, preset_context

SELFCHECK_SEED = 20240311

CLOSED_VS_SCHUR_TOL = 1e-8
ANALYTIC_VS_FD_TOL = 1e-5
REFERENCE_INVARIANCE_TOL = 1e-10


def random_placement(rng: np.random.Generator) -> tuple[Vec2, float]:
    """Relative position in a 5..40 m annulus plus a random Tx heading."""
    radius = rng.uniform(5.0, 40.0)
    angle = rng.uniform(-math.pi, math.pi)
    alpha_t = rng.uniform(-math.pi, math.pi)
    return Vec2(radius * math.cos(angle), radius * math.sin(angle)), alpha_t


def random_scene(rng: np.random.Generator, preset: PresetConfig):
    """Calibrated scene at a random placement that has at least one link."""
    while True:
        q, alpha_t = random_placement(rng)
        scene = calibrated_scene(preset, q, alpha_t=alpha_t)
        try:
            links = active_links(scene)
        except NoActiveLinks:
            continue
        return scene, links


def relative_frobenius(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.linalg.norm(a)
    if denom == 0.0:
        return float(np.linalg.norm(a - b))
    return float(np.linalg.norm(a - b) / denom)


def equilibrated_frobenius(a: np.ndarray, b: np.ndarray) -> float:
    """relative_frobenius of D^-1/2 a D^-1/2 and D^-1/2 b D^-1/2, D = diag(a):
    every parameter weighs the same, so the delay entries (~ omega^2) cannot
    hide an error in the angle or gain entries."""
    scale = 1.0 / np.sqrt(np.diag(a))
    weight = np.outer(scale, scale)
    return relative_frobenius(a * weight, b * weight)


def closed_vs_schur_errors(
    n_scenes: int = 100, seed: int = SELFCHECK_SEED
) -> tuple[float, float]:
    """Max relative Frobenius error of the closed forms vs the Schur path."""
    rng = np.random.default_rng(seed)
    presets = [PRESETS["cfg_3p5GHz"], PRESETS["cfg_28GHz"]]
    worst_both = 0.0
    worst_aoa = 0.0
    for i in range(n_scenes):
        preset = presets[i % len(presets)]
        scene, links = random_scene(rng, preset)
        gains = link_gains(scene, links)
        betas = preset_context(preset).betas
        j_phi = fim_channel(scene, links, gains)

        closed_both = efim_aoa_tdoa(scene, links, gains, betas)
        schur_both = efim_schur(j_phi, transform_matrix(scene, links, AOA_TDOA))
        worst_both = max(worst_both, relative_frobenius(closed_both.j_po, schur_both.j_po))

        closed_aoa = efim_aoa_only(scene, links, gains)
        schur_aoa = efim_schur(j_phi, transform_matrix(scene, links, AOA_ONLY))
        worst_aoa = max(worst_aoa, relative_frobenius(closed_aoa.j_po, schur_aoa.j_po))
    return worst_both, worst_aoa


def analytic_vs_fd_errors(n_scenes: int = 20, seed: int = SELFCHECK_SEED) -> float:
    """Max equilibrated relative Frobenius error (see equilibrated_frobenius)
    of the analytic channel FIM vs central FD.

    Uses a narrower subcarrier grid than the full presets; the derivative
    structure is identical and the finite-difference sweep stays fast.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    light = [
        dataclasses.replace(PRESETS["cfg_3p5GHz"], name="fd_3p5", max_occupied_index=30),
        dataclasses.replace(PRESETS["cfg_28GHz"], name="fd_28", max_occupied_index=30),
    ]
    for i in range(n_scenes):
        preset = light[i % len(light)]
        scene, links = random_scene(rng, preset)
        gains = link_gains(scene, links)
        analytic = fim_channel(scene, links, gains)
        fd = fim_channel_fd(scene, links, gains)
        worst = max(worst, equilibrated_frobenius(analytic, fd))
    return worst


def reference_invariance_error(seed: int = SELFCHECK_SEED) -> float:
    """Max relative deviation of the Schur EFIM over all reference choices."""
    rng = np.random.default_rng(seed)
    scene, links = random_scene(rng, PRESETS["cfg_3p5GHz"])
    gains = link_gains(scene, links)
    j_po = [efim_general(scene, links, gains, AOA_TDOA, reference=ref).j_po
            for ref in range(len(links))]
    return max((relative_frobenius(j_po[0], other) for other in j_po[1:]), default=0.0)


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
