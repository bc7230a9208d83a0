"""The selfcheck's block drawer, edge set, link stacks and NaN handling."""

import dataclasses
import math

import numpy as np
import pytest

from v2vbounds import fim_general, selfcheck
from v2vbounds.channel import link_gains
from v2vbounds.fim_general import (
    channel_fims, channel_fims_fd, efim_schur, fim_channel, fim_channel_fd,
    placement_links, placement_schur_efims, schur_efims, transform_matrices, transform_matrix,
)
from v2vbounds.geometry import SPEED_OF_LIGHT, Vec2, active_links, scene_placement, wrap_angles
from v2vbounds.scenarios import (
    PRESETS, calibrated_scene, placement_efims, placement_poses, preset_context,
)
from v2vbounds.selfcheck import (
    ANALYTIC_VS_FD_TOL,
    SELFCHECK_SEED,
    analytic_vs_fd_errors,
    closed_vs_schur_errors,
    edge_placements,
    equilibrated_frobenius,
    random_placements,
    reference_invariance_error,
    relative_frobenius,
    run_selfcheck,
)

from conftest import LIGHT, NARROW
from reference import brute_force_fim_channel, link_order, sequential_placements

P35 = PRESETS["cfg_3p5GHz"]
P28 = PRESETS["cfg_28GHz"]


@pytest.mark.parametrize("seed", range(SELFCHECK_SEED, SELFCHECK_SEED + 3))
@pytest.mark.parametrize("presets, n_scenes", [([P35, P28], 100), (LIGHT, 20), ([P35], 1),
                                               ([NARROW, P28], 40), ([NARROW, P28], 300)],
                         ids=["closed_vs_schur", "fd", "reference", "rejecting", "blocks"])
def test_block_draws_match_sequential_loop(seed, presets, n_scenes):
    # Blocks of 128 scenes continue the stream where the last block left it.
    drawn = [scene for block in random_placements(np.random.default_rng(seed), presets, n_scenes)
             for scene in block]
    sequential = sequential_placements(np.random.default_rng(seed), presets, n_scenes)
    assert [p.name for p, _, _ in drawn] == [p.name for p, _, _ in sequential]
    # The headings come straight from the stream; q goes through cos and sin.
    assert [a for _, _, a in drawn] == [a for _, _, a in sequential]
    assert np.allclose([q for _, q, _ in drawn], [q for _, q, _ in sequential],
                       rtol=1e-15, atol=1e-14)


@pytest.mark.parametrize("seed", range(SELFCHECK_SEED, SELFCHECK_SEED + 3))
def test_rejecting_preset_rejects(seed):
    # Guards the "rejecting" case above: its first draws include some
    # without a link.
    radius, bearing, alpha_t = np.random.default_rng(seed).uniform(
        [5.0, -math.pi, -math.pi], [40.0, math.pi, math.pi], size=(40, 3)).T
    q = np.column_stack((radius * np.cos(bearing), radius * np.sin(bearing)))
    visible = placement_efims(preset_context(NARROW), *placement_poses(q, alpha_t))[2]
    assert not visible.any(axis=(1, 2)).all()


@pytest.mark.parametrize("preset", [P35, P28], ids=lambda p: p.name)
def test_edge_set_reaches_the_edges(preset):
    q, alpha_t = edge_placements(preset)
    _, offset, visible, _ = placement_efims(preset_context(preset), *placement_poses(q, alpha_t))
    n_links = visible.sum(axis=(1, 2))
    assert 4 <= n_links.min() and n_links.max() <= 9
    assert np.hypot(q[:, 0], q[:, 1]).min() < 5.0  # inside the annulus
    # Each heading placement's link from the Tx rear right panel (3) to the
    # Rx rear left panel (2) lies on the Tx panel's blocked-sector edge.
    panel = preset_context(preset).tx_vehicle.panels[3]
    for i in (-2, -1):
        toward_rx = math.atan2(offset[i, 3, 2].imag, offset[i, 3, 2].real)
        edge = abs(wrap_angles(toward_rx - panel.fov_blocked_center - alpha_t[i]))
        assert abs(edge - panel.fov_blocked_halfwidth) < 1e-12
        assert not visible[i, 3, 2]


@pytest.mark.parametrize("preset", [P35, P28], ids=lambda p: p.name)
def test_link_stacks_give_the_scene_paths_schur_efims(preset):
    # The selfcheck's general path builds links from centroids; per placement
    # its Schur EFIMs must be those of the Scene path's links through the
    # brute-force channel FIM.
    ctx, (q, alpha_t) = preset_context(preset), edge_placements(preset)
    poses = placement_poses(q, alpha_t)
    tx_c, offset, visible, _ = placement_efims(ctx, *poses)
    n_links = visible.sum(axis=(1, 2))
    for count in set(n_links.tolist()):
        group = np.flatnonzero(n_links == count)
        j_po = placement_schur_efims(ctx, tx_c[group], offset[group], visible[group],
                                     poses[1][1][group])
        for k, i in enumerate(group):
            scene = calibrated_scene(preset, Vec2(*q[i]), alpha_t=alpha_t[i])
            links = active_links(scene)
            blocks = brute_force_fim_channel(scene, links, link_gains(scene, links))
            for v, result in enumerate(efim_schur(blocks, transform_matrix(scene, links))):
                expected = result.j_po
                assert np.linalg.norm(j_po[v, k] - expected) < 1e-12 * np.linalg.norm(expected)


def test_suites_take_scene_count_and_seed_by_keyword(monkeypatch):
    # A seed passed positionally would be taken as n_scenes: 20 million draws.
    def draw(*args, **kwargs):
        raise AssertionError("placements drawn")
    monkeypatch.setattr(selfcheck, "random_placements", draw)
    for suite in (closed_vs_schur_errors, analytic_vs_fd_errors):
        with pytest.raises(TypeError):
            suite(SELFCHECK_SEED)


def test_closed_vs_schur_covers_the_edge_set():
    # With no random scenes, only the edge set of both presets is checked.
    worst_both, worst_aoa = closed_vs_schur_errors(n_scenes=0)
    assert 0.0 < worst_both < 1e-12 and 0.0 < worst_aoa < 1e-12


@pytest.mark.parametrize("preset", [P35, P28], ids=lambda p: p.name)
def test_placement_links_equal_the_scene_path(preset):
    # The link build all three suites share gives, placement by placement,
    # the links and gains of active_links/link_gains in the oracle's order.
    [drawn] = random_placements(np.random.default_rng(SELFCHECK_SEED), [preset], 30)
    edge_q, edge_alpha = edge_placements(preset)
    q = np.concatenate((np.array([q for _, q, _ in drawn]), edge_q))
    alpha_t = np.concatenate(([a for _, _, a in drawn], edge_alpha))
    ctx, poses = preset_context(preset), placement_poses(q, alpha_t)
    tx_c, offset, visible, _ = placement_efims(ctx, *poses)
    for i in range(len(q)):
        t, r, _, _, distance, angle, h = placement_links(
            ctx, tx_c[i:i + 1], offset[i:i + 1], visible[i:i + 1], poses[1][1][i:i + 1])
        scene = calibrated_scene(preset, Vec2(*q[i]), alpha_t=alpha_t[i])
        links = active_links(scene)
        gains = link_gains(scene, links)
        order = link_order(links)
        assert t[0].tolist() == [links[k].tx_panel for k in order]
        assert r[0].tolist() == [links[k].rx_panel for k in order]
        for got, expected in ((distance, [links[k].distance for k in order]),
                              (angle, [links[k].theta_R_local for k in order]),
                              (h, [gains[k].h for k in order])):
            assert np.allclose(got[0], expected, rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("preset", LIGHT, ids=lambda p: p.name)
def test_fd_twin_on_the_edge_set(preset):
    # Kept out of --selfcheck so the benchmark pass does not grow: the FD
    # twin agrees with the analytic channel FIM at bumper overlap, short
    # gaps and blocked-sector edges too.
    ctx, (q, alpha_t) = preset_context(preset), edge_placements(preset)
    poses = placement_poses(q, alpha_t)
    tx_c, offset, visible, _ = placement_efims(ctx, *poses)
    n_links = visible.sum(axis=(1, 2))
    worst = 0.0
    for count in set(n_links.tolist()):
        group = np.flatnonzero(n_links == count)
        t, r, _, _, distance, angle, h = placement_links(
            ctx, tx_c[group], offset[group], visible[group], poses[1][1][group])
        fd = channel_fims_fd(ctx, t, r, distance / SPEED_OF_LIGHT, angle, h)
        worst = max(worst, equilibrated_frobenius(channel_fims(ctx, t, r, angle, h), fd).max())
    assert worst < ANALYTIC_VS_FD_TOL


@pytest.mark.parametrize("seed", range(SELFCHECK_SEED, SELFCHECK_SEED + 3))
def test_stacked_reference_suite_equals_per_reference_loop(seed):
    [[(preset, q, alpha_t)]] = random_placements(np.random.default_rng(seed), [P35], 1)
    scene = calibrated_scene(preset, Vec2(*q), alpha_t=alpha_t)
    links = active_links(scene)
    stacks = placement_links(scene.context, *scene_placement(scene, links))
    j_po = []
    for first in range(len(links)):  # one placement per kernel call, links[first] first
        t, r, v_tau, v_theta, distance, angle, h = (x[:, link_order(links, first)] for x in stacks)
        j_po.append([result.j_po for result in efim_schur(
            channel_fims(scene.context, t, r, angle, h)[0],
            transform_matrices(v_tau, v_theta, distance)[0])])
    # Both measurement sets, each against its own set with links[0] first.
    expected = max(relative_frobenius(first, other)
                   for sets in j_po[1:] for first, other in zip(j_po[0], sets))
    assert len(links) > 1
    assert abs(reference_invariance_error(seed) - expected) <= 1e-15


def test_one_placement_per_call_gives_the_same_errors(monkeypatch):
    # At the default n_scenes one Schur call per preset takes every placement
    # of both measurement sets, links padded, with no budget cut; the FD twin
    # runs whole link-count stacks. With room for one FD placement per call,
    # the FD error is the same.
    sizes = {"schur": [], "fd": []}

    def schur(blocks, *rest):
        sizes["schur"].append(len(blocks))
        return schur_efims(blocks, *rest)

    def fd(ctx, t, *rest):
        sizes["fd"].append(len(t))
        return channel_fims_fd(ctx, t, *rest)

    monkeypatch.setattr(fim_general, "schur_efims", schur)
    monkeypatch.setattr(selfcheck, "channel_fims_fd", fd)
    closed_vs_schur_errors()
    assert len(sizes["schur"]) == 2
    grouped = analytic_vs_fd_errors()
    assert max(sizes["fd"]) > 1
    sizes["fd"].clear()
    monkeypatch.setattr(selfcheck, "_STACK_BYTES", 1)
    single = analytic_vs_fd_errors()
    assert set(sizes["fd"]) == {1}
    assert np.allclose(single, grouped, rtol=1e-12, atol=0.0)


def test_blocked_draws_give_the_errors_of_one_block(monkeypatch):
    # Draws taken and reduced in blocks of 128 scenes give the errors, repr
    # for repr, of one block per suite with one kernel call per preset (and
    # link count): the blocks keep the scenes and their order.
    blocked = closed_vs_schur_errors(n_scenes=300), analytic_vs_fd_errors(n_scenes=150)
    monkeypatch.setattr(selfcheck, "_STACK_BYTES", 1 << 40)
    assert repr((closed_vs_schur_errors(n_scenes=300),
                 analytic_vs_fd_errors(n_scenes=150))) == repr(blocked)


@pytest.mark.parametrize("scene_bytes", [
    lambda n_links: 8 * (4 * n_links)**2,  # quadratic in the link count, as a dense FIM
    lambda n_links: 16 * 4 * n_links * 15 * 25,  # the FD suite's at 28 GHz
    lambda n_links: 2**17 * n_links,  # more than the budget alone above 8 links
], ids=["schur", "fd", "oversized"])
def test_link_count_chunks_cut_only_for_the_budget(scene_bytes):
    visible = np.random.default_rng(5).random((5000, 4, 4)) < 0.5
    visible[:, 0, 0] = True
    n_links = visible.sum(axis=(1, 2))
    chunks = list(selfcheck._link_count_chunks(visible, scene_bytes))
    assert np.array_equal(np.sort(np.concatenate(chunks)), np.arange(5000))
    for chunk in chunks:
        [count] = set(n_links[chunk].tolist())
        assert len(chunk) == 1 or len(chunk) * scene_bytes(count) <= selfcheck._STACK_BYTES
    # Only the budget cuts a group: each takes as few calls as it allows.
    for count in set(n_links.tolist()):
        per_call = max(1, selfcheck._STACK_BYTES // scene_bytes(count))
        calls = sum(n_links[chunk[0]] == count for chunk in chunks)
        assert calls == -(-(n_links == count).sum() // per_call)


def test_equilibration_keeps_silent_parameters_unscaled():
    # A parameter without information (zero diagonal) keeps scale 1: the
    # error stays finite and its entries count unscaled.
    a = np.diag([4.0, 0.0])
    assert equilibrated_frobenius(a, a + np.diag([0.0, 1e-3])) == pytest.approx(1e-3, rel=1e-15)
    # Two of four Tx arrays without subcarriers leave their links' delays
    # and gains without information on both sides; the comparison is finite.
    preset = dataclasses.replace(P35, name="sparse", max_occupied_index=1)
    scene = calibrated_scene(preset, Vec2(-3.5, 10.0))
    links = active_links(scene)
    analytic = fim_channel(scene, links)
    assert (analytic.diagonal(0, -2, -1) == 0.0).any()
    assert np.isfinite(equilibrated_frobenius(analytic, fim_channel_fd(scene, links))).all()


def _poison(monkeypatch, module, name, call, row):
    """Make the call-th call of the kernel ``name`` that the suites look up
    in ``module`` return NaN at index ``row`` of its result, one placement."""
    original, calls = getattr(module, name), []

    def poisoned(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(None)
        if len(calls) - 1 == call:
            result[row] = np.nan
        return result

    monkeypatch.setattr(module, name, poisoned)


@pytest.mark.parametrize("suite, module, kernel, call, row", [
    # The Schur kernel's result is (2, n, 3, 3), one placement per column.
    ("closed_vs_schur_errors", fim_general, "schur_efims", 1, (slice(None), -1)),
    ("analytic_vs_fd_errors", selfcheck, "channel_fims_fd", 3, -1),
    # The link-order suite reads both sets: a NaN in the AOA-only set alone fails it.
    ("reference_invariance_error", selfcheck, "schur_efims", 0, (1, -1)),
], ids=["closed_vs_schur", "fd", "reference"])
def test_nan_error_fails_the_selfcheck(monkeypatch, capsys, suite, module, kernel, call, row):
    # A NaN in one placement, neither the first nor the only one, must reach
    # the suite's maximum and fail --selfcheck with exit 3; max() dropped it.
    _poison(monkeypatch, module, kernel, call, row)
    errors = getattr(selfcheck, suite)()
    assert np.isnan(errors).any()
    monkeypatch.undo()
    monkeypatch.setattr(selfcheck, suite, lambda: errors)
    assert run_selfcheck() == 3
    assert "selfcheck FAIL" in capsys.readouterr().out
