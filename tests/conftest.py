"""Shared fixtures and scene builders for the test suite."""

from __future__ import annotations

import cmath
import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import settings

from v2vbounds.channel import Scene, link_context
from v2vbounds.geometry import ArrayPanel, Pose, Vec2, VehicleSpec
from v2vbounds.scenarios import PRESETS, SweepRow, bound_table
from v2vbounds.waveform import OfdmSpec, interleaved_allocation

# CI runs with HYPOTHESIS_PROFILE=ci: the same examples on every run, and a
# failure prints the blob that replays it (@reproduce_failure).
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def sweep_rows(preset, q, alpha_t=0.0) -> list[SweepRow]:
    """scenarios.bound_table as one SweepRow per placement, in input order."""
    return [SweepRow(*row[:3], int(row[3]), *row[4:])
            for row in bound_table(preset, q, alpha_t).tolist()]


# The presets of selfcheck.analytic_vs_fd_errors: 15 subcarriers per Tx array.
LIGHT = [dataclasses.replace(PRESETS["cfg_3p5GHz"], name="fd_3p5", max_occupied_index=30),
         dataclasses.replace(PRESETS["cfg_28GHz"], name="fd_28", max_occupied_index=30)]


# Every annulus placement of the default presets has a link; panels blind
# over +-2.3 rad leave about one in ten without one, so draws get rejected.
NARROW = dataclasses.replace(PRESETS["cfg_3p5GHz"], name="narrow", fov_blocked_halfwidth=2.3)


@pytest.fixture(scope="session")
def preset_3p5():
    return PRESETS["cfg_3p5GHz"]


@pytest.fixture(scope="session")
def preset_28():
    return PRESETS["cfg_28GHz"]


def open_panel(
    mount: complex = 0,
    n_elements: int = 2,
    spacing: float = 0.04,
    blocked_center: float = math.pi,
) -> ArrayPanel:
    """Panel with an unobstructed view (zero-width blocked sector).

    Elements sit at +-spacing/2 on the vehicle-frame x axis unless
    n_elements == 1.
    """
    paired = n_elements - n_elements % 2  # an odd one out sits at the centroid
    elements = np.zeros(n_elements, dtype=complex)
    elements[:paired] = spacing / 2.0
    elements[1:paired:2] = -spacing / 2.0
    return ArrayPanel(
        mount=mount,
        elements=elements,
        fov_blocked_center=blocked_center,
        fov_blocked_halfwidth=0.0,
    )


def small_scene(
    n_tx_panels: int = 2,
    n_rx_panels: int = 2,
    n_elements: int = 2,
    q: Vec2 = Vec2(17.0, 6.0),
    alpha_t: float = 0.3,
    alpha_r: float = -0.2,
    n_occupied: int = 8,
    carrier_frequency: float = 3.5e9,
    subcarrier_spacing: float = 60e3,
    n_symbols: int = 1,
    total_power: float = 1e9,
) -> Scene:
    """Compact scene with guaranteed all-pairs visibility.

    Panels have open fields of view and tiny bodies, so the number of active
    links is exactly n_tx_panels * n_rx_panels.
    """
    mounts = [cmath.rect(0.9, psi) for psi in (0.4, 2.1, -1.6, 2.9)]
    tx_panels = tuple(open_panel(m, n_elements=n_elements) for m in mounts[:n_tx_panels])
    rx_panels = tuple(open_panel(m, n_elements=n_elements) for m in mounts[:n_rx_panels])
    tx = VehicleSpec(length=0.1, width=0.1, panels=tx_panels)
    rx = VehicleSpec(length=0.1, width=0.1, panels=rx_panels)
    occupied = tuple(range(-n_occupied // 2, 0)) + tuple(range(1, n_occupied // 2 + 1))
    ofdm = OfdmSpec(
        subcarrier_spacing=subcarrier_spacing,
        carrier_frequency=carrier_frequency,
        n_symbols=n_symbols,
        total_power=total_power,
    )
    ctx = link_context(tx, rx, ofdm, interleaved_allocation(occupied, n_tx_panels))
    return Scene(ctx, Pose(Vec2(0.0, 0.0), alpha_t), Pose(q, alpha_r))


def with_context(scene: Scene, **changes) -> Scene:
    """The scene at its poses on a context rebuilt with some of link_context's
    inputs (tx_vehicle, rx_vehicle, ofdm, allocation) changed."""
    ctx = scene.context
    inputs = dict(tx_vehicle=ctx.tx_vehicle, rx_vehicle=ctx.rx_vehicle, ofdm=ctx.ofdm,
                  allocation=ctx.allocation)
    return Scene(link_context(**{**inputs, **changes}), scene.tx_pose, scene.rx_pose)


def panels_with_links(links) -> tuple[set[int], set[int]]:
    """Tx and Rx panel indices that appear in at least one link."""
    return {link.tx_panel for link in links}, {link.rx_panel for link in links}
