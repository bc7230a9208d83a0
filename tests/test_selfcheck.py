"""The selfcheck's block drawer, edge set, link stacks and NaN handling."""

import dataclasses
import math

import numpy as np
import pytest

from v2vbounds import selfcheck
from v2vbounds.channel import link_gains
from v2vbounds.fim_general import (
    AOA_ONLY, AOA_TDOA, channel_fims, channel_fims_fd, efim_general, fim_channel, fim_channel_fd,
    link_order, schur_efims,
)
from v2vbounds.geometry import SPEED_OF_LIGHT, Vec2, active_links, wrap_angles
from v2vbounds.scenarios import PRESETS, calibrated_scene, placement_efims, preset_context
from v2vbounds.selfcheck import (
    ANALYTIC_VS_FD_TOL,
    SELFCHECK_SEED,
    _placement_links,
    _schur_efims,
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
from reference import sequential_placements

P35 = PRESETS["cfg_3p5GHz"]
P28 = PRESETS["cfg_28GHz"]


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
    arrays = preset_context(preset).tx_vehicle.arrays
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


@pytest.mark.parametrize("preset", [P35, P28], ids=lambda p: p.name)
def test_placement_links_equal_the_scene_path(preset):
    # The link rebuild all three suites share gives, placement by placement,
    # the links and gains of active_links/link_gains in link_order.
    drawn = random_placements(np.random.default_rng(SELFCHECK_SEED), [preset], 30)
    edge_q, edge_alpha = edge_placements(preset)
    q = np.concatenate((np.array([q for _, q, _ in drawn]), edge_q))
    alpha_t = np.concatenate(([a for _, _, a in drawn], edge_alpha))
    tx_c, rx_c, visible, _, _ = placement_efims(preset, q, alpha_t)
    for i in range(len(q)):
        t, r, _, _, distance, angle, h = _placement_links(
            preset, tx_c[i:i + 1], rx_c[i:i + 1], visible[i:i + 1])
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
    q, alpha_t = edge_placements(preset)
    tx_c, rx_c, visible, _, _ = placement_efims(preset, q, alpha_t)
    n_links = visible.sum(axis=(1, 2))
    ctx = preset_context(preset)
    worst = 0.0
    for count in set(n_links.tolist()):
        group = np.flatnonzero(n_links == count)
        t, r, _, _, distance, angle, h = _placement_links(
            preset, tx_c[group], rx_c[group], visible[group])
        delay = distance / SPEED_OF_LIGHT
        fd = channel_fims_fd(ctx, t, r, delay - delay[:, :1], angle, h)
        worst = max(worst, equilibrated_frobenius(channel_fims(ctx, t, r, angle, h), fd).max())
    assert worst < ANALYTIC_VS_FD_TOL


@pytest.mark.parametrize("seed", range(SELFCHECK_SEED, SELFCHECK_SEED + 3))
def test_stacked_reference_suite_equals_per_reference_loop(seed):
    [(preset, q, alpha_t)] = random_placements(np.random.default_rng(seed), [P35], 1)
    scene = calibrated_scene(preset, Vec2(*q), alpha_t=alpha_t)
    links = active_links(scene)
    gains = link_gains(scene, links)
    j_po = [efim_general(scene, links, gains, AOA_TDOA, reference=ref).j_po
            for ref in range(len(links))]
    expected = max(relative_frobenius(j_po[0], other) for other in j_po[1:])
    assert len(links) > 1
    assert abs(reference_invariance_error(seed) - expected) <= 1e-15


def test_one_placement_per_call_gives_the_same_errors(monkeypatch):
    # Whole link-count stacks give the errors of one kernel call per placement.
    sizes = []

    def schur(j_phi, t_matrix):
        sizes.append(len(j_phi))
        return schur_efims(j_phi, t_matrix)

    def fd(ctx, t, *rest):
        sizes.append(len(t))
        return channel_fims_fd(ctx, t, *rest)

    monkeypatch.setattr(selfcheck, "schur_efims", schur)
    monkeypatch.setattr(selfcheck, "channel_fims_fd", fd)
    grouped = (*closed_vs_schur_errors(), analytic_vs_fd_errors())
    assert max(sizes) > 1
    sizes.clear()
    monkeypatch.setattr(selfcheck, "_STACK_BYTES", 1)
    single = (*closed_vs_schur_errors(), analytic_vs_fd_errors())
    assert set(sizes) == {1}
    assert np.allclose(single, grouped, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("scene_bytes", [
    lambda n_links: 8 * (4 * n_links)**2,  # the Schur suite's
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
    gains = link_gains(scene, links)
    analytic = fim_channel(scene, links, gains)
    assert (analytic.diagonal() == 0.0).any()
    assert np.isfinite(equilibrated_frobenius(analytic, fim_channel_fd(scene, links, gains)))


def _poison(monkeypatch, name, call, row):
    """Make the call-th call of selfcheck's kernel ``name`` return NaN in
    the given placement row of its (first) result."""
    original, calls = getattr(selfcheck, name), []

    def poisoned(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(None)
        if len(calls) - 1 == call:
            out = result[0] if isinstance(result, tuple) else result
            out[row] = np.nan
        return result

    monkeypatch.setattr(selfcheck, name, poisoned)


@pytest.mark.parametrize("suite, kernel, call, row", [
    ("closed_vs_schur_errors", "schur_efims", 3, -1),
    ("analytic_vs_fd_errors", "channel_fims_fd", 3, -1),
    ("reference_invariance_error", "schur_efims", 0, -1),
], ids=["closed_vs_schur", "fd", "reference"])
def test_nan_error_fails_the_selfcheck(monkeypatch, capsys, suite, kernel, call, row):
    # A NaN in one placement, neither the first nor the only one, must reach
    # the suite's maximum and fail --selfcheck with exit 3; max() dropped it.
    _poison(monkeypatch, kernel, call, row)
    errors = getattr(selfcheck, suite)()
    assert np.isnan(errors).any()
    monkeypatch.undo()
    monkeypatch.setattr(selfcheck, suite, lambda: errors)
    assert run_selfcheck() == 3
    assert "selfcheck FAIL" in capsys.readouterr().out
