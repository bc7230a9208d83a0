"""General FIM pipeline: mean model, derivatives, transforms, Schur EFIM."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from v2vbounds.channel import link_gains
from v2vbounds.errors import NoActiveLinks, NuisanceSingular
from v2vbounds.fim_closed import efim_aoa_only, efim_aoa_tdoa, link_info_vectors
from v2vbounds.fim_general import (
    AOA_ONLY,
    AOA_TDOA,
    channel_fims,
    channel_fims_fd,
    efim_general,
    efim_schur,
    fim_channel,
    fim_channel_fd,
    link_mean,
    link_means,
    link_order,
    schur_efims,
    transform_matrices,
    transform_matrix,
)
from v2vbounds.geometry import SPEED_OF_LIGHT, Pose, Vec2, active_links, wrap_angles
from v2vbounds.scenarios import PRESETS, calibrated_scene
from v2vbounds.selfcheck import (
    ANALYTIC_VS_FD_TOL, SELFCHECK_SEED, equilibrated_frobenius, random_placements,
)
from v2vbounds.waveform import effective_bandwidths, interleaved_allocation

from conftest import LIGHT, open_panel, small_scene
from reference import (
    brute_force_fim_channel, link_geometry, link_samples, per_link_fim_channel_fd,
    rx_panel_state, tx_panel_state,
)


def rel_frob(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(a)


@pytest.fixture()
def medium_scene():
    scene = small_scene(n_tx_panels=2, n_rx_panels=2, n_elements=3, n_occupied=12)
    links = active_links(scene)
    gains = link_gains(scene, links)
    return scene, links, gains


def sampled_scenes(preset, n_scenes):
    """(scene, links, gains) at the selfcheck's first n_scenes placements."""
    samples = []
    for _, q, alpha_t in random_placements(np.random.default_rng(SELFCHECK_SEED), [preset],
                                           n_scenes):
        scene = calibrated_scene(preset, Vec2(*q), alpha_t=alpha_t)
        links = active_links(scene)
        samples.append((scene, links, link_gains(scene, links)))
    return samples


class TestMeanVector:
    def test_single_element_modulus(self):
        scene = small_scene(n_tx_panels=2, n_rx_panels=2, n_elements=1)
        links = active_links(scene)
        gains = link_gains(scene, links)
        link = links[0]
        p = scene.allocation.per_array_sets[link.tx_panel][0]
        a, _, b, _ = link_mean(scene, link, 0.0, link.theta_R_local, gains[0].h)
        assert b.shape == (1,)
        m = a[0] * b[0]
        gamma_t = scene.allocation.array_power_fractions[link.tx_panel]
        gamma_tp = scene.allocation.per_subcarrier_fractions[p]
        x = math.sqrt(gamma_t * gamma_tp * scene.ofdm.total_power)
        assert abs(abs(m) - abs(gains[0].h) * x) < 1e-12 * abs(m)

    def test_phase_factor_unit_modulus(self, medium_scene):
        # The subcarrier factor carries sqrt(power) times a unit-modulus
        # delay phase; the element factor |h| times a unit-modulus phase.
        scene, links, gains = medium_scene
        link, h = links[-1], gains[-1].h
        delay = link.delay - links[link_order(links)[0]].delay
        a, omega, b, dphase = link_mean(scene, link, delay, link.theta_R_local, h)
        subset = scene.allocation.per_array_sets[link.tx_panel]
        gamma_t = scene.allocation.array_power_fractions[link.tx_panel]
        power = np.array([gamma_t * scene.allocation.per_subcarrier_fractions[p]
                          * scene.ofdm.total_power for p in subset])
        assert a.shape == omega.shape == (len(subset),)
        assert b.shape == dphase.shape == (scene.rx_vehicle.panels[link.rx_panel].n_elements,)
        assert np.allclose(np.abs(a), np.sqrt(power), rtol=1e-12, atol=0.0)
        assert np.allclose(np.abs(b), abs(h), rtol=1e-12, atol=0.0)

    def test_outer_product_is_the_sample_model(self, medium_scene):
        # Oracle: the mean built sample by sample from the allocation's dicts
        # and the panels' element offsets.
        scene, links, gains = medium_scene
        for link, gain in zip(links, gains):
            delay, angle = link.delay - links[0].delay, link.theta_R_local
            a, omega, b, dphase = link_mean(scene, link, delay, angle, gain.h)
            mean, omega_ref, dphase_ref = link_samples(scene, link, delay, angle, gain.h)
            assert np.allclose(np.multiply.outer(a, b), mean, rtol=1e-12, atol=0.0)
            assert np.array_equal(omega, omega_ref) and np.array_equal(dphase, dphase_ref)

    def test_angle_derivative_matches_fd(self, medium_scene):
        # Oracle: central finite difference of the full samples in the local
        # arrival angle vs the analytic a (x) (1j * dphase * b).
        scene, links, gains = medium_scene
        link, h = links[1], gains[1].h
        theta = link.theta_R_local
        step = 1e-7

        def samples(angle):
            a, _, b, _ = link_mean(scene, link, 0.0, angle, h)
            return np.multiply.outer(a, b)

        fd = (samples(theta + step) - samples(theta - step)) / (2.0 * step)
        a, _, b, dphase = link_mean(scene, link, 0.0, theta, h)
        analytic = np.multiply.outer(a, 1j * dphase * b)
        assert np.linalg.norm(fd - analytic) < 1e-6 * np.linalg.norm(analytic)

    def test_delay_derivative_matches_fd(self, medium_scene):
        # Oracle: central finite difference of the full samples in the delay
        # difference vs the analytic (-1j * omega * a) (x) b.
        scene, links, gains = medium_scene
        link, h = links[1], gains[1].h
        # A step that turns the widest subcarrier's phase by 1e-5 rad.
        step = 1e-5 / np.abs(link_mean(scene, link, 0.0, 0.0, h)[1]).max()

        def samples(delay):
            a, _, b, _ = link_mean(scene, link, delay, link.theta_R_local, h)
            return np.multiply.outer(a, b)

        fd = (samples(step) - samples(-step)) / (2.0 * step)
        a, omega, b, _ = link_mean(scene, link, 0.0, link.theta_R_local, h)
        analytic = np.multiply.outer(-1j * omega * a, b)
        assert np.linalg.norm(fd - analytic) < 1e-6 * np.linalg.norm(analytic)


def assert_matches_oracle(scene):
    """fim_channel equals the brute-force Gram to 1e-12 at every reference."""
    links = active_links(scene)
    gains = link_gains(scene, links)
    for reference in range(len(links)):
        j = fim_channel(scene, links, gains, reference)
        oracle = brute_force_fim_channel(scene, links, gains, reference)
        assert equilibrated_frobenius(oracle, j) < 1e-12
    return links, gains


class TestFactorisedGram:
    """fim_channel's moment-form Re(Ga o Gb) against the per-link derivative stack."""

    def test_small_scenes(self):
        for kwargs in ({}, dict(n_tx_panels=3, n_rx_panels=2, n_elements=3, n_occupied=10),
                       dict(n_tx_panels=1, n_rx_panels=4, n_symbols=3, noise_variance=2.5)):
            assert_matches_oracle(small_scene(**kwargs))

    @pytest.mark.parametrize("preset_name", ["cfg_3p5GHz", "cfg_28GHz"])
    def test_unequal_subcarrier_sets(self, preset_name):
        preset = dataclasses.replace(PRESETS[preset_name], name="odd", max_occupied_index=601)
        scene = calibrated_scene(preset, Vec2(-3.5, 10.0))
        assert [len(s) for s in scene.allocation.per_array_sets] == [301, 301, 300, 300]
        links = assert_matches_oracle(scene)[0]
        assert {len(scene.allocation.per_array_sets[link.tx_panel]) for link in links} == {
            300, 301}

    @pytest.mark.parametrize("q", [Vec2(-3.5, 10.0), Vec2(0.0, -8.0), Vec2(3.5, 0.0)])
    def test_tx_array_without_subcarriers(self, preset_3p5, q):
        preset = dataclasses.replace(preset_3p5, name="sparse", max_occupied_index=1)
        scene = calibrated_scene(preset, q)
        links, gains = assert_matches_oracle(scene)
        silent = [k for k, i in enumerate(link_order(links))
                  if not scene.allocation.per_array_sets[links[i].tx_panel]]
        assert silent
        j = fim_channel(scene, links, gains)
        for k in silent:
            # No samples, no information: only the timing offset column,
            # which the reference link's block holds, may be nonzero.
            block = j[4 * k:4 * k + 4, 4 * k:4 * k + 4]
            assert np.all(block[1:, 1:] == 0.0)
            assert k == 0 or np.all(block == 0.0)

    def test_single_element_rx_panels(self, preset_28):
        assert_matches_oracle(small_scene(n_tx_panels=2, n_rx_panels=3, n_elements=1))
        preset = dataclasses.replace(preset_28, name="single", n_rx_elements=1)
        assert_matches_oracle(calibrated_scene(preset, Vec2(-3.5, 10.0)))

    def test_rx_panels_with_different_element_counts(self):
        links = assert_matches_oracle(mixed_panel_scene())[0]
        assert len(links) == 8


def mixed_panel_scene():
    """small_scene with Rx panels of 1, 4, 2 and 3 elements."""
    scene = small_scene(n_tx_panels=2, n_rx_panels=4, n_elements=2)
    rx_panels = tuple(dataclasses.replace(panel, elements=open_panel(n_elements=n).elements)
                      for panel, n in zip(scene.rx_vehicle.panels, (1, 4, 2, 3)))
    return dataclasses.replace(
        scene, rx_vehicle=dataclasses.replace(scene.rx_vehicle, panels=rx_panels))


def link_stacks(group, reference=None):
    """(t, r, delay difference, angle, h) stacks (n, L), in link_order, of
    (scene, links, gains) samples with equal link counts."""
    ordered = [[(links[i], gains[i]) for i in link_order(links, reference)]
               for _, links, gains in group]
    t, r, delay, angle = (
        np.array([[getattr(link, name) for link, _ in links] for links in ordered])
        for name in ("tx_panel", "rx_panel", "delay", "theta_R_local"))
    h = np.array([[gain.h for _, gain in links] for links in ordered])
    return t, r, delay - delay[:, :1], angle, h


def assert_fd_matches_oracle(group):
    """channel_fims_fd over a stack of (scene, links, gains) with equal link
    counts equals the per-link FD loop of each, and fim_channel_fd is its row."""
    fd = channel_fims_fd(group[0][0].context, *link_stacks(group))
    for k, (scene, links, gains) in enumerate(group):
        oracle = per_link_fim_channel_fd(scene, links, gains)
        assert equilibrated_frobenius(oracle, fd[k]) < 1e-9
        assert equilibrated_frobenius(oracle, fim_channel_fd(scene, links, gains)) < 1e-9


class TestFdTwin:
    """The stacked channel_fims_fd against the per-link FD loop it replaced."""

    @pytest.mark.parametrize("preset", LIGHT, ids=lambda p: p.name)
    def test_batched_equals_oracle_on_sampled_scenes(self, preset):
        groups = {}
        for sample in sampled_scenes(preset, 20):
            groups.setdefault(len(sample[1]), []).append(sample)
        assert any(len(group) > 1 for group in groups.values())
        for group in groups.values():
            assert_fd_matches_oracle(group)

    @pytest.mark.parametrize("preset_name", ["cfg_3p5GHz", "cfg_28GHz"])
    @pytest.mark.parametrize("max_occupied_index", [601, 1], ids=["unequal", "empty"])
    def test_unequal_and_empty_subcarrier_sets(self, preset_name, max_occupied_index):
        preset = dataclasses.replace(PRESETS[preset_name], name="odd",
                                     max_occupied_index=max_occupied_index)
        group = []
        for q in (Vec2(-3.5, 10.0), Vec2(3.5, -12.0)):  # both have 9 links
            scene = calibrated_scene(preset, q)
            links = active_links(scene)
            group.append((scene, links, link_gains(scene, links)))
        assert_fd_matches_oracle(group)

    def test_rx_panels_with_different_element_counts(self):
        scene = mixed_panel_scene()
        links = active_links(scene)
        assert_fd_matches_oracle([(scene, links, link_gains(scene, links))])

    @pytest.mark.parametrize("scene", [
        mixed_panel_scene(),
        calibrated_scene(dataclasses.replace(PRESETS["cfg_28GHz"], name="odd",
                                             max_occupied_index=601), Vec2(-3.5, 10.0)),
    ], ids=["mixed_panels", "unequal_subcarriers"])
    def test_link_mean_is_the_unpadded_slice_of_link_means(self, scene):
        links = active_links(scene)
        gains = link_gains(scene, links)
        t, r, delay, angle, h = link_stacks([(scene, links, gains)])
        stacks = link_means(scene.context, t, r, delay, angle, h)
        for k, i in enumerate(link_order(links)):
            one = link_mean(scene, links[i], delay[0, k], angle[0, k], h[0, k])
            for padded, sliced in zip(stacks, one):
                assert np.array_equal(padded[0, k, :len(sliced)], sliced)
            a, _, b, _ = (x[0, k] for x in stacks)
            assert not a[len(one[0]):].any() and not b[len(one[2]):].any()

    def test_dc_only_allocation_gives_zero_delay_columns(self):
        # Every omega is 0, so no delay step turns a phase: the delay columns
        # are zero on both sides, with no division by the largest |omega|.
        scene = small_scene(n_tx_panels=2, n_rx_panels=2)
        scene = dataclasses.replace(scene, ofdm=dataclasses.replace(scene.ofdm, occupied=(0,)),
                                    allocation=interleaved_allocation((0,), 2))
        links = active_links(scene)
        gains = link_gains(scene, links)
        fd = fim_channel_fd(scene, links, gains)
        assert np.isfinite(fd).all() and not fd[:, 4::4].any()
        assert equilibrated_frobenius(fim_channel(scene, links, gains), fd) < ANALYTIC_VS_FD_TOL
        assert_fd_matches_oracle([(scene, links, gains)])

    def test_step_must_be_positive(self, medium_scene):
        scene, links, gains = medium_scene
        with pytest.raises(ValueError):
            fim_channel_fd(scene, links, gains, step=0.0)


class TestLinkOrder:
    def test_reference_first_then_given_order(self, medium_scene):
        _, links, _ = medium_scene
        nearest = min(range(len(links)), key=lambda i: links[i].delay)
        for ref, forced in ((nearest, None), (len(links) - 1, len(links) - 1)):
            rest = [i for i in range(len(links)) if i != ref]
            assert link_order(links, reference=forced) == [ref, *rest]

    def test_delay_tie_broken_by_panel_pair(self):
        link = link_geometry(Vec2(0.0, 0.0), Vec2(10.0, 0.0), 0.0, tx_panel=1, rx_panel=0)
        twin = dataclasses.replace(link, tx_panel=0, rx_panel=1)
        assert link_order((link, twin)) == [1, 0]

    def test_invalid_input_rejected(self, medium_scene):
        _, links, _ = medium_scene
        with pytest.raises(IndexError):
            link_order(links, reference=len(links))
        with pytest.raises(NoActiveLinks):
            link_order(())


class TestChannelFim:
    def test_matches_fd(self, medium_scene):
        scene, links, gains = medium_scene
        analytic = fim_channel(scene, links, gains)
        fd = fim_channel_fd(scene, links, gains)
        assert equilibrated_frobenius(analytic, fd) < ANALYTIC_VS_FD_TOL

    def test_matches_fd_on_preset_scene(self, preset_3p5):
        preset = dataclasses.replace(preset_3p5, max_occupied_index=20)
        scene = calibrated_scene(preset, Vec2(-3.5, 8.0))
        links = active_links(scene)
        gains = link_gains(scene, links)
        assert equilibrated_frobenius(fim_channel(scene, links, gains),
                                      fim_channel_fd(scene, links, gains)) < ANALYTIC_VS_FD_TOL

    @pytest.mark.parametrize("max_occupied_index", [1, 2, 3])
    def test_matches_fd_on_narrow_allocations(self, preset_3p5, max_occupied_index):
        # The delay step scales with the allocation's own largest |omega|, so
        # the twin stays accurate with a few subcarriers near DC.
        preset = dataclasses.replace(preset_3p5, name="narrow",
                                     max_occupied_index=max_occupied_index)
        scene = calibrated_scene(preset, Vec2(-3.5, 10.0))
        links = active_links(scene)
        gains = link_gains(scene, links)
        assert equilibrated_frobenius(fim_channel(scene, links, gains),
                                      fim_channel_fd(scene, links, gains)) < ANALYTIC_VS_FD_TOL

    def test_fd_step_convergence(self, medium_scene):
        scene, links, gains = medium_scene
        fd1 = fim_channel_fd(scene, links, gains, step=1e-6)
        fd2 = fim_channel_fd(scene, links, gains, step=5e-7)
        assert rel_frob(fd1, fd2) < 1e-6

    def test_symmetric_psd(self, medium_scene):
        scene, links, gains = medium_scene
        j = fim_channel(scene, links, gains)
        assert np.allclose(j, j.T, rtol=0, atol=1e-9 * np.abs(j).max())
        eig = np.linalg.eigvalsh(j)
        assert eig[0] >= -1e-10 * eig[-1]

    def test_cross_link_blocks_vanish(self, medium_scene):
        # Parameters of different links only couple through the timing
        # offset (row/column 0).
        scene, links, gains = medium_scene
        j = fim_channel(scene, links, gains)
        n = len(links)
        for a in range(n):
            for b in range(a + 1, n):
                cols_a = [c for c in range(4 * a, 4 * a + 4) if c != 0]
                cols_b = range(4 * b, 4 * b + 4)
                assert np.all(j[np.ix_(cols_a, cols_b)] == 0.0)

    def test_noise_scaling(self, medium_scene):
        scene, links, gains = medium_scene
        j1 = fim_channel(scene, links, gains)
        noisy = dataclasses.replace(scene, noise_variance=2.0 * scene.noise_variance)
        j2 = fim_channel(noisy, links, link_gains(noisy, links))
        assert np.allclose(j2, 0.5 * j1, rtol=1e-12)

    def test_timing_offset_accumulates_all_links(self, medium_scene):
        # J[0,0] must equal the sum over links of each link's delay-delay
        # information; read the reference link's own share by re-assembling
        # with a different reference.
        scene, links, gains = medium_scene
        order = link_order(links)
        j = fim_channel(scene, links, gains)
        total = 0.0
        for position in range(1, len(links)):
            total += j[4 * position, 4 * position]
        other_ref = order[1]
        j_alt = fim_channel(scene, links, gains, reference=other_ref)
        col = 4 * link_order(links, reference=other_ref).index(order[0])
        total += j_alt[col, col]
        assert abs(j[0, 0] - total) < 1e-9 * abs(j[0, 0])


class TestTransformMatrix:
    def _pair_geometry(self, scene, pairs, q, alpha_t):
        """Delay differences and local angles as functions of (q, alpha_T)."""
        moved = dataclasses.replace(
            scene,
            rx_pose=Pose(q, scene.rx_pose.orientation),
            tx_pose=Pose(scene.tx_pose.position, alpha_t),
        )
        links = [
            link_geometry(
                tx_panel_state(moved, t).centroid,
                rx_panel_state(moved, r).centroid,
                moved.rx_pose.orientation,
                tx_panel=t,
                rx_panel=r,
            )
            for t, r in pairs
        ]
        ref_delay = links[0].delay
        return (
            np.array([lk.delay - ref_delay for lk in links]),
            np.array([lk.theta_R_local for lk in links]),
        )

    def _assert_rows_match_fd(self, scene, links):
        """transform_matrix's geometric rows equal central differences of the
        link_geometry delay differences and local angles over (q_x, q_y,
        alpha_T)."""
        t_mat = transform_matrix(scene, links, AOA_TDOA)
        pairs = [(links[i].tx_panel, links[i].rx_panel) for i in link_order(links)]
        q0 = scene.rx_pose.position
        alpha0 = scene.tx_pose.orientation
        for row, (dq, da, h) in enumerate(((Vec2(1.0, 0.0), 0.0, 1e-5),
                                           (Vec2(0.0, 1.0), 0.0, 1e-5),
                                           (Vec2(0.0, 0.0), 1.0, 1e-7))):
            taus_p, thetas_p = self._pair_geometry(scene, pairs, q0 + dq * h, alpha0 + da * h)
            taus_m, thetas_m = self._pair_geometry(scene, pairs, q0 + dq * -h, alpha0 - da * h)
            dtheta = wrap_angles(thetas_p - thetas_m) / (2.0 * h)
            # Delay columns in meters (times c).
            dtau = (taus_p - taus_m) / (2.0 * h) * SPEED_OF_LIGHT
            angle_err = np.abs(t_mat[row, 1::4] - dtheta)
            delay_err = np.abs(t_mat[row, 4::4] * SPEED_OF_LIGHT - dtau[1:])
            assert np.all(angle_err < 1e-6 * np.maximum(1.0, np.abs(dtheta)))
            assert np.all(delay_err < 1e-6 * np.maximum(1.0, np.abs(dtau[1:])))

    def test_entries_match_fd_of_geometry(self):
        scene = small_scene(n_tx_panels=2, n_rx_panels=2, n_elements=2)
        self._assert_rows_match_fd(scene, active_links(scene))

    @pytest.mark.parametrize("preset_name", ["cfg_3p5GHz", "cfg_28GHz"])
    def test_geometric_rows_match_fd_on_preset_scenes(self, preset_name):
        # 12 sampled selfcheck scenes per preset, not only one small scene.
        for scene, links, _ in sampled_scenes(PRESETS[preset_name], 12):
            self._assert_rows_match_fd(scene, links)

    def _links_for_all_pairs(self, scene):
        # Bypass visibility: transform entries are pure geometry.
        return tuple(
            link_geometry(
                tx_panel_state(scene, t).centroid,
                rx_panel_state(scene, r).centroid,
                scene.rx_pose.orientation,
                tx_panel=t,
                rx_panel=r,
            )
            for t in range(len(scene.tx_vehicle.panels))
            for r in range(len(scene.rx_vehicle.panels))
        )

    def test_theta_row_example(self):
        # One panel pair on the x axis at 10 m: moving the Rx vehicle +1 m in
        # y increases the local arrival angle by 0.1 rad.
        scene = small_scene(
            n_tx_panels=1, n_rx_panels=1, q=Vec2(10.0, 0.0), alpha_t=0.0, alpha_r=0.0
        )
        scene = dataclasses.replace(
            scene,
            tx_vehicle=dataclasses.replace(
                scene.tx_vehicle,
                panels=(dataclasses.replace(scene.tx_vehicle.panels[0], mount_distance=0.0),),
            ),
            rx_vehicle=dataclasses.replace(
                scene.rx_vehicle,
                panels=(dataclasses.replace(scene.rx_vehicle.panels[0], mount_distance=0.0),),
            ),
        )
        links = self._links_for_all_pairs(scene)
        assert abs(links[0].theta_R) < 1e-12 and abs(links[0].distance - 10.0) < 1e-12
        t_mat = transform_matrix(scene, links, AOA_TDOA)
        assert abs(t_mat[0, 1] - 0.0) < 1e-12
        assert abs(t_mat[1, 1] - 0.1) < 1e-12

    def test_center_mounted_tx_panel_zero_orientation_rows(self):
        scene = small_scene(n_tx_panels=2, n_rx_panels=1)
        scene = dataclasses.replace(
            scene,
            tx_vehicle=dataclasses.replace(
                scene.tx_vehicle,
                panels=tuple(
                    dataclasses.replace(p, mount_distance=0.0)
                    for p in scene.tx_vehicle.panels
                ),
            ),
        )
        links = self._links_for_all_pairs(scene)
        t_mat = transform_matrix(scene, links, AOA_TDOA)
        for position in range(len(links)):
            assert abs(t_mat[2, 4 * position + 1]) < 1e-15
            if position > 0:
                assert abs(t_mat[2, 4 * position]) < 1e-24

    def test_shapes(self, medium_scene):
        scene, links, _ = medium_scene
        n = len(links)
        assert transform_matrix(scene, links, AOA_TDOA).shape == (4 + 2 * n, 4 * n)
        assert transform_matrix(scene, links, AOA_ONLY).shape == (3 + 3 * n, 4 * n)

    def test_identity_rows(self, medium_scene):
        scene, links, _ = medium_scene
        t_mat = transform_matrix(scene, links, AOA_TDOA)
        # Timing-offset row points at column 0, with no other entries.
        assert t_mat[3, 0] == 1.0
        assert np.sum(t_mat[3]) == 1.0
        # Each gain row has exactly one unit entry.
        for row in t_mat[4:]:
            assert np.sum(row != 0.0) == 1
            assert np.sum(row) == 1.0


class TestSchurEfim:
    def test_matches_closed_form_both(self, medium_scene):
        scene, links, gains = medium_scene
        betas = effective_bandwidths(scene.allocation, scene.ofdm)
        closed = efim_aoa_tdoa(scene, links, gains, betas)
        schur = efim_general(scene, links, gains, AOA_TDOA)
        assert rel_frob(closed.j_po, schur.j_po) < 1e-8

    def test_matches_closed_form_aoa(self, medium_scene):
        scene, links, gains = medium_scene
        closed = efim_aoa_only(scene, links, gains)
        schur = efim_general(scene, links, gains, AOA_ONLY)
        assert rel_frob(closed.j_po, schur.j_po) < 1e-8

    def test_matches_on_full_preset_scene(self, preset_3p5):
        scene = calibrated_scene(preset_3p5, Vec2(0.0, -12.0))
        links = active_links(scene)
        gains = link_gains(scene, links)
        betas = effective_bandwidths(scene.allocation, scene.ofdm)
        closed = efim_aoa_tdoa(scene, links, gains, betas)
        schur = efim_general(scene, links, gains, AOA_TDOA)
        assert rel_frob(closed.j_po, schur.j_po) < 1e-8
        assert abs(closed.peb_lat - schur.peb_lat) < 1e-8 * closed.peb_lat

    @pytest.mark.parametrize("preset_name", ["cfg_3p5GHz", "cfg_28GHz"])
    @pytest.mark.parametrize("q_y", [0.0, 0.5, -0.5, -2.25, 4.5, -4.75])
    def test_matches_in_bumper_overlap_zone(self, preset_name, q_y):
        # Overtaking placements where the bumpers overlap: the links along
        # them sit on blocked-sector boundaries and only 4 remain at q_y = 0.
        scene = calibrated_scene(PRESETS[preset_name], Vec2(-3.5, q_y))
        links = active_links(scene)
        gains = link_gains(scene, links)
        betas = effective_bandwidths(scene.allocation, scene.ofdm)
        closed = efim_aoa_tdoa(scene, links, gains, betas)
        schur = efim_general(scene, links, gains, AOA_TDOA)
        assert rel_frob(closed.j_po, schur.j_po) < 1e-8
        closed = efim_aoa_only(scene, links, gains)
        schur = efim_general(scene, links, gains, AOA_ONLY)
        assert rel_frob(closed.j_po, schur.j_po) < 1e-8

    def test_information_loss_psd(self, medium_scene):
        scene, links, gains = medium_scene
        j_phi = fim_channel(scene, links, gains)
        t_mat = transform_matrix(scene, links, AOA_TDOA)
        schur = efim_schur(j_phi, t_mat)
        prior = t_mat[:3] @ j_phi @ t_mat[:3].T
        loss = prior - schur.j_po
        eig = np.linalg.eigvalsh(0.5 * (loss + loss.T))
        assert eig[0] >= -1e-10 * max(eig[-1], 1.0)

    def test_reference_choice_irrelevant(self, medium_scene):
        scene, links, gains = medium_scene
        results = []
        for ref in range(len(links)):
            j_phi = fim_channel(scene, links, gains, reference=ref)
            t_mat = transform_matrix(scene, links, AOA_TDOA, reference=ref)
            results.append(efim_schur(j_phi, t_mat).j_po)
        for other in results[1:]:
            assert rel_frob(results[0], other) < 1e-10

    def test_zero_bandwidth_nuisance_singular(self):
        # One subcarrier per Tx array leaves no delay information at all, so
        # the delay-difference nuisance block is singular.
        scene = small_scene(n_tx_panels=2, n_rx_panels=2, n_occupied=2)
        links = active_links(scene)
        gains = link_gains(scene, links)
        assert effective_bandwidths(scene.allocation, scene.ofdm) == (0.0, 0.0)
        j_phi = fim_channel(scene, links, gains)
        t_mat = transform_matrix(scene, links, AOA_ONLY)
        with pytest.raises(NuisanceSingular):
            efim_schur(j_phi, t_mat)


class TestBatchedKernels:
    """channel_fims, transform_matrices and schur_efims over a stack of
    placements with equal link counts give what their one-placement
    wrappers give each placement."""

    @pytest.mark.parametrize("preset_name", ["cfg_3p5GHz", "cfg_28GHz"])
    @pytest.mark.parametrize("forced", [False, True], ids=["default_ref", "forced_ref"])
    def test_batched_equals_wrapped(self, preset_name, forced):
        groups = {}
        for sample in sampled_scenes(PRESETS[preset_name], 40):
            groups.setdefault(len(sample[1]), []).append(sample)
        groups = [group for group in groups.values() if len(group) > 1]
        assert groups
        for group in groups:
            reference = len(group[0][1]) - 1 if forced else None
            ordered = [[(links[i], gains[i]) for i in link_order(links, reference)]
                       for _, links, gains in group]
            t, r, angle, distance = (
                np.array([[getattr(link, name) for link, _ in links] for links in ordered])
                for name in ("tx_panel", "rx_panel", "theta_R_local", "distance"))
            h = np.array([[gain.h for _, gain in links] for links in ordered])
            vectors = [link_info_vectors(scene, [link for link, _ in links])
                       for (scene, _, _), links in zip(group, ordered)]
            v_tau, v_theta = (np.array([v[k] for v in vectors]) for k in (0, 1))
            j_phi = channel_fims(group[0][0].context, t, r, angle, h)
            for variant in (AOA_TDOA, AOA_ONLY):
                t_mat = transform_matrices(v_tau, v_theta, distance, variant)
                j_po, singular = schur_efims(j_phi, t_mat)
                assert not singular.any()
                for k, (scene, links, gains) in enumerate(group):
                    j_one = fim_channel(scene, links, gains, reference)
                    t_one = transform_matrix(scene, links, variant, reference)
                    assert equilibrated_frobenius(j_one, j_phi[k]) < 1e-14
                    assert np.array_equal(t_one, t_mat[k])
                    assert rel_frob(efim_schur(j_one, t_one).j_po, j_po[k]) < 1e-14

    def test_singular_placement_flags_only_itself(self):
        # One subcarrier per Tx array leaves no delay information (see
        # test_zero_bandwidth_nuisance_singular); stacked with a regular scene
        # of the same geometry, only that placement is flagged.
        j_phi, t_mat = [], []
        for n_occupied in (2, 8):
            scene = small_scene(n_tx_panels=2, n_rx_panels=2, n_occupied=n_occupied)
            links = active_links(scene)
            j_phi.append(fim_channel(scene, links, link_gains(scene, links)))
            t_mat.append(transform_matrix(scene, links, AOA_ONLY))
        j_po, singular = schur_efims(np.array(j_phi), np.array(t_mat))
        assert singular.tolist() == [True, False]
        assert rel_frob(efim_schur(j_phi[1], t_mat[1]).j_po, j_po[1]) < 1e-14


def closed_and_schur(scene):
    """(closed form, Schur) FimResults for AOA+TDOA and for AOA-only."""
    links = active_links(scene)
    gains = link_gains(scene, links)
    betas = effective_bandwidths(scene.allocation, scene.ofdm)
    both = (efim_aoa_tdoa(scene, links, gains, betas),
            efim_general(scene, links, gains, AOA_TDOA))
    aoa = (efim_aoa_only(scene, links, gains), efim_general(scene, links, gains, AOA_ONLY))
    return both, aoa


def assert_same_bounds(closed, schur):
    """Both singular with +inf bounds, or both finite with equal EFIMs."""
    assert closed.singular == schur.singular
    bounds = (closed.peb_lat, closed.peb_lon, closed.oeb, schur.peb_lat, schur.peb_lon, schur.oeb)
    if closed.singular:
        assert all(b == math.inf for b in bounds)
    else:
        assert all(math.isfinite(b) for b in bounds)
        assert rel_frob(closed.j_po, schur.j_po) < 1e-8


class TestSingleElementPanels:
    """One element per Rx panel has no aperture, so no angle information:
    AOA-only is singular on both paths (inf <-> inf) while AOA+TDOA stays
    finite through the delays, equal on both paths."""

    def test_pinned_overtaking_placement(self, preset_3p5):
        preset = dataclasses.replace(preset_3p5, name="single", n_rx_elements=1)
        both, aoa = closed_and_schur(calibrated_scene(preset, Vec2(-3.5, 10.0)))
        for result in both:
            assert abs(result.peb_lat - 0.08700612) < 1e-8
        assert aoa[0].singular and aoa[0].peb_lat == math.inf
        assert_same_bounds(*both)
        assert_same_bounds(*aoa)

    @settings(max_examples=30, deadline=None)
    @given(preset_name=st.sampled_from(["cfg_3p5GHz", "cfg_28GHz"]),
           radius=st.floats(5.0, 40.0), bearing=st.floats(-math.pi, math.pi),
           alpha_t=st.floats(-math.pi, math.pi))
    def test_closed_form_equals_schur(self, preset_name, radius, bearing, alpha_t):
        preset = dataclasses.replace(PRESETS[preset_name], name="single", n_rx_elements=1)
        q = Vec2(radius * math.cos(bearing), radius * math.sin(bearing))
        scene = calibrated_scene(preset, q, alpha_t=alpha_t)
        try:
            active_links(scene)
        except NoActiveLinks:
            assume(False)
        both, aoa = closed_and_schur(scene)
        assert aoa[0].singular
        assert_same_bounds(*both)
        assert_same_bounds(*aoa)
