"""The selfcheck's block drawer, edge set and Schur-side link stacks."""

import dataclasses
import math

import numpy as np
import pytest

from v2vbounds.channel import link_gains
from v2vbounds.fim_general import AOA_ONLY, AOA_TDOA, efim_general
from v2vbounds.geometry import Vec2, active_links, wrap_angles
from v2vbounds.scenarios import PRESETS, calibrated_scene, placement_efims, preset_context
from v2vbounds.selfcheck import (
    SELFCHECK_SEED,
    _schur_efims,
    closed_vs_schur_errors,
    edge_placements,
    random_placements,
)

from reference import sequential_placements

P35 = PRESETS["cfg_3p5GHz"]
P28 = PRESETS["cfg_28GHz"]
# The analytic-vs-FD suite's presets.
LIGHT = [dataclasses.replace(P35, name="fd_3p5", max_occupied_index=30),
         dataclasses.replace(P28, name="fd_28", max_occupied_index=30)]
# Every annulus placement of the default presets has a link; panels blind
# over +-2.3 rad leave about one in ten without one, so draws get rejected.
NARROW = dataclasses.replace(P35, name="narrow", fov_blocked_halfwidth=2.3)


@pytest.mark.parametrize("seed", range(SELFCHECK_SEED, SELFCHECK_SEED + 3))
@pytest.mark.parametrize("presets, n_scenes", [([P35, P28], 100), (LIGHT, 20), ([P35], 1),
                                               ([NARROW, P28], 40)],
                         ids=["closed_vs_schur", "fd", "reference", "rejecting"])
def test_block_draws_match_sequential_loop(seed, presets, n_scenes):
    block = random_placements(np.random.default_rng(seed), presets, n_scenes)
    sequential = sequential_placements(np.random.default_rng(seed), presets, n_scenes)
    assert [p.name for p, _, _ in block] == [p.name for p, _, _ in sequential]
    # The headings come straight from the stream; q goes through cos and sin.
    assert [a for _, _, a in block] == [a for _, _, a in sequential]
    assert np.allclose([q for _, q, _ in block], [q for _, q, _ in sequential],
                       rtol=1e-15, atol=1e-14)


@pytest.mark.parametrize("seed", range(SELFCHECK_SEED, SELFCHECK_SEED + 3))
def test_rejecting_preset_rejects(seed):
    # Guards the "rejecting" case above: its first draws include some
    # without a link.
    radius, bearing, alpha_t = np.random.default_rng(seed).uniform(
        [5.0, -math.pi, -math.pi], [40.0, math.pi, math.pi], size=(40, 3)).T
    q = np.column_stack((radius * np.cos(bearing), radius * np.sin(bearing)))
    assert not placement_efims(NARROW, q, alpha_t)[2].any(axis=(1, 2)).all()


@pytest.mark.parametrize("preset", [P35, P28], ids=lambda p: p.name)
def test_edge_set_reaches_the_edges(preset):
    q, alpha_t = edge_placements(preset)
    tx_c, rx_c, visible, _, _ = placement_efims(preset, q, alpha_t)
    n_links = visible.sum(axis=(1, 2))
    assert 4 <= n_links.min() and n_links.max() <= 9
    assert np.hypot(q[:, 0], q[:, 1]).min() < 5.0  # inside the annulus
    # Each heading placement's link from the Tx rear right panel (3) to the
    # Rx rear left panel (2) lies on the Tx panel's blocked-sector edge.
    arrays = preset_context(preset).vehicle.arrays
    for i in (-2, -1):
        offset = rx_c[i, 2] - tx_c[i, 3]
        toward_rx = math.atan2(offset[1], offset[0])
        edge = abs(wrap_angles(toward_rx - arrays.blocked_center[3] - alpha_t[i]))
        assert abs(edge - arrays.blocked_halfwidth[3]) < 1e-12
        assert not visible[i, 3, 2]


@pytest.mark.parametrize("preset", [P35, P28], ids=lambda p: p.name)
def test_link_stacks_give_the_scene_paths_schur_efims(preset):
    # The selfcheck rebuilds links from centroids; per placement its Schur
    # EFIMs must be efim_general's on the Scene path.
    q, alpha_t = edge_placements(preset)
    tx_c, rx_c, visible, _, _ = placement_efims(preset, q, alpha_t)
    n_links = visible.sum(axis=(1, 2))
    for count in set(n_links.tolist()):
        group = np.flatnonzero(n_links == count)
        j_po, singular = _schur_efims(preset, tx_c[group], rx_c[group], visible[group])
        assert not singular.any()
        for k, i in enumerate(group):
            scene = calibrated_scene(preset, Vec2(*q[i]), alpha_t=alpha_t[i])
            links = active_links(scene)
            gains = link_gains(scene, links)
            for v, variant in enumerate((AOA_TDOA, AOA_ONLY)):
                expected = efim_general(scene, links, gains, variant).j_po
                assert np.linalg.norm(j_po[v, k] - expected) < 1e-12 * np.linalg.norm(expected)


def test_closed_vs_schur_covers_the_edge_set():
    # With no random scenes, only the edge set of both presets is checked.
    worst_both, worst_aoa = closed_vs_schur_errors(n_scenes=0)
    assert 0.0 < worst_both < 1e-12 and 0.0 < worst_aoa < 1e-12
