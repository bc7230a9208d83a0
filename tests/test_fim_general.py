"""General FIM pipeline: mean model, derivatives, transforms, Schur EFIM."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from v2vbounds import fim_general
from v2vbounds.channel import link_gains
from v2vbounds.errors import NoActiveLinks
from v2vbounds.fim_closed import (
    MEASUREMENTS, bound_arrays, efim_aoa_only, efim_aoa_tdoa, link_info_vectors,
)
from v2vbounds.fim_general import (
    channel_fims,
    channel_fims_fd,
    efim_schur,
    fim_channel,
    fim_channel_fd,
    link_means,
    placement_links,
    placement_schur_efims,
    schur_efims,
    transform_matrices,
    transform_matrix,
)
from v2vbounds.geometry import (
    SPEED_OF_LIGHT, Pose, Vec2, VehicleSpec, active_links, scene_placement, visibility,
    wrap_angles,
)
from v2vbounds.scenarios import (
    PRESETS, calibrated_scene, evaluate_point, placement_efims, placement_poses, preset_context,
)
from v2vbounds.selfcheck import (
    ANALYTIC_VS_FD_TOL, CLOSED_VS_SCHUR_TOL, SELFCHECK_SEED, equilibrated_frobenius,
    random_placements, relative_frobenius,
)
from v2vbounds.waveform import effective_bandwidths, interleaved_allocation

from conftest import LIGHT, open_panel, small_scene, with_context
from reference import (
    brute_force_fim_channel, delay_difference_fims, dense_arrow, einsum_information,
    link_geometry, link_order, link_samples, moment_gram, per_link_fim_channel_fd, polar,
    reference_aperture, reference_phases, rx_panel_state, tx_panel_state,
)


EPS = np.finfo(float).eps
# Ulps of k d_max and of d_max^2 within which the complex forms of the element
# phases and the SAAF meet their cos/sin oracles: of 20,000 random panels the
# worst read 6.2 and 3.2 (the cos/sin argument psi - theta rounds at up to 2 pi).
PHASE_ULPS, SAAF_ULPS = 16, 8


def rel_frob(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(a)


def general_path(scene, links):
    """The general path's FimResults of one scene, in MEASUREMENTS order."""
    return efim_schur(fim_channel(scene, links), transform_matrix(scene, links))


@pytest.fixture()
def medium_scene():
    scene = small_scene(n_tx_panels=2, n_rx_panels=2, n_elements=3, n_occupied=12)
    links = active_links(scene)
    gains = link_gains(scene, links)
    return scene, links, gains


def link_mean(scene, link, delay, angle, gain):
    """One link's link_means (a, omega, b, dphase) at n = L = 1, sliced to its
    own subcarriers and Rx elements."""
    stacks = link_means(scene.context, *(np.array([[x]]) for x in (
        link.tx_panel, link.rx_panel, delay, angle, gain)))
    count = len(scene.allocation.per_array_sets[link.tx_panel])
    n_e = scene.rx_vehicle.panels[link.rx_panel].n_elements
    return tuple(x[0, 0, :size] for x, size in zip(stacks, (count, count, n_e, n_e)))


def closed_form(scene, links, gains):
    """A scene's links' EFIMs, in MEASUREMENTS order, from the einsum oracle."""
    betas = scene.context.betas[[link.tx_panel for link in links]]
    return einsum_information(*link_info_vectors(scene, links), np.array([g.g for g in gains]),
                              np.array([link.distance for link in links])**2, betas**2,
                              scene.context.ofdm.omega_c)


def sampled_scenes(preset, n_scenes):
    """(scene, links, gains) at the selfcheck's first n_scenes placements."""
    samples = []
    [drawn] = random_placements(np.random.default_rng(SELFCHECK_SEED), [preset], n_scenes)
    for _, q, alpha_t in drawn:
        scene = calibrated_scene(preset, Vec2(*q), alpha_t=alpha_t)
        links = active_links(scene)
        samples.append((scene, links, link_gains(scene, links)))
    return samples


def assert_polar_phases(elements, theta, omega_c, phasor, dphase):
    """Element phasors e^(i phase) and phase derivatives (E,) of a link
    arriving at vehicle-frame angle theta against the cos/sin forms of
    reference_phases on the (2, E) polar offsets, to a few ulps of k d_max."""
    phase_ref, dphase_ref = reference_phases(elements, theta, omega_c)
    within = PHASE_ULPS * EPS * omega_c / SPEED_OF_LIGHT * elements[0].max()
    assert np.abs(dphase - dphase_ref).max() <= within
    assert np.abs(phasor - np.exp(1j * phase_ref)).max() <= within + 4 * EPS


class TestMeanVector:
    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.floats(1e-3, 2.0), st.floats(-math.pi, math.pi)), min_size=1,
                    max_size=8), st.booleans(), st.floats(-math.pi, math.pi))
    def test_polar_offsets_give_the_cos_sin_aperture_and_phases(self, pairs, centred, theta):
        # A panel of offsets d e^(i psi) and d e^(i (psi + pi)), one more at the
        # centroid if drawn, from random polar (d, psi): its SAAF and its link
        # means' phases equal the cos/sin forms on (d, psi) to a few ulps.
        d, psi = np.array(pairs).T
        elements = np.array([np.concatenate((d, d, [0.0] * centred)),
                             np.concatenate((psi, psi + math.pi, [0.0] * centred))])
        panel = dataclasses.replace(open_panel(), elements=elements[0] * np.exp(1j * elements[1]))
        ctx = with_context(small_scene(n_tx_panels=1, n_rx_panels=1),
                           rx_vehicle=VehicleSpec(0.1, 0.1, (panel,))).context
        u, s = np.array([math.cos(theta), math.sin(theta)]), ctx.rx_vehicle.arrays.saaf_s[0]
        assert abs(u @ s @ u - reference_aperture(elements, theta)) <= (
            SAAF_ULPS * EPS * d.max()**2)
        _, _, b, dphase = (x[0, 0] for x in link_means(ctx, *(np.array([[x]]) for x in (
            0, 0, 0.0, theta, 1.0 + 0j))))
        assert_polar_phases(elements, theta, ctx.ofdm.omega_c, b, dphase)

    def test_single_element_modulus(self):
        scene = small_scene(n_tx_panels=2, n_rx_panels=2, n_elements=1)
        links = active_links(scene)
        gains = link_gains(scene, links)
        link = links[0]
        a, _, b, _ = link_mean(scene, link, 0.0, link.theta_R_local, gains[0].h)
        assert b.shape == (1,)
        m = a[0] * b[0]
        gamma_t = scene.allocation.array_power_fractions[link.tx_panel]
        gamma_tp = 1.0 / len(scene.allocation.per_array_sets[link.tx_panel])
        x = math.sqrt(gamma_t * gamma_tp * scene.context.ofdm.total_power)
        assert abs(abs(m) - abs(gains[0].h) * x) < 1e-12 * abs(m)

    def test_phase_factor_unit_modulus(self, medium_scene):
        # The subcarrier factor carries sqrt(power) times a unit-modulus
        # delay phase; the element factor |h| times a unit-modulus phase.
        scene, links, gains = medium_scene
        link, h = links[-1], gains[-1].h
        delay = link.delay - links[0].delay
        a, omega, b, dphase = link_mean(scene, link, delay, link.theta_R_local, h)
        subset = scene.allocation.per_array_sets[link.tx_panel]
        gamma_t = scene.allocation.array_power_fractions[link.tx_panel]
        power = np.full(len(subset), gamma_t / len(subset) * scene.context.ofdm.total_power)
        assert a.shape == omega.shape == (len(subset),)
        assert b.shape == dphase.shape == (scene.rx_vehicle.panels[link.rx_panel].n_elements,)
        assert np.allclose(np.abs(a), np.sqrt(power), rtol=1e-12, atol=0.0)
        assert np.allclose(np.abs(b), abs(h), rtol=1e-12, atol=0.0)

    def test_outer_product_is_the_sample_model(self, medium_scene):
        # Oracle: the mean built sample by sample from the allocation's
        # power rule and the panels' element offsets.
        scene, links, gains = medium_scene
        for link, gain in zip(links, gains):
            delay, angle = link.delay - links[0].delay, link.theta_R_local
            a, omega, b, dphase = link_mean(scene, link, delay, angle, gain.h)
            mean, omega_ref, dphase_ref = link_samples(scene, link, delay, angle, gain.h)
            assert np.allclose(np.multiply.outer(a, b), mean, rtol=1e-12, atol=0.0)
            assert np.array_equal(omega, omega_ref) and np.array_equal(dphase, dphase_ref)
            assert_polar_phases(polar(scene.rx_vehicle.panels[link.rx_panel].elements), angle,
                                scene.context.ofdm.omega_c, b / gain.h, dphase)

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


def scene_stacks(scene, links, first=0):
    """placement_links of one scene's links (n = 1), reordered as link_order
    orders them, links[first] first."""
    order = link_order(links, first)
    return [x[:, order] for x in placement_links(scene.context, *scene_placement(scene, links))]


def assert_matches_oracle(scene):
    """channel_fims equals the brute-force Gram to 1e-12, link by link, with
    any link put first in the stacks, and fim_channel in the links' order."""
    links = active_links(scene)
    gains = link_gains(scene, links)
    oracle = brute_force_fim_channel(scene, links, gains)
    for first in range(len(links)):
        t, r, _, _, _, angle, h = scene_stacks(scene, links, first)
        j = channel_fims(scene.context, t, r, angle, h)[0]
        assert (equilibrated_frobenius(oracle[link_order(links, first)], j) < 1e-12).all()
    assert (equilibrated_frobenius(oracle, fim_channel(scene, links)) < 1e-12).all()
    return links, gains


class TestFactorisedGram:
    """fim_channel's moment-form Re(Ga o Gb) against the per-link derivative stack."""

    def test_small_scenes(self):
        for kwargs in ({}, dict(n_tx_panels=3, n_rx_panels=2, n_elements=3, n_occupied=10),
                       dict(n_tx_panels=1, n_rx_panels=4, n_symbols=3, total_power=2.5e9)):
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
        links, _ = assert_matches_oracle(scene)
        silent = [k for k, link in enumerate(links)
                  if not scene.allocation.per_array_sets[link.tx_panel]]
        assert silent
        j = fim_channel(scene, links)
        for k in silent:
            assert np.all(j[k] == 0.0)  # no samples, no information

    def test_single_element_rx_panels(self, preset_28):
        assert_matches_oracle(small_scene(n_tx_panels=2, n_rx_panels=3, n_elements=1))
        preset = dataclasses.replace(preset_28, name="single", n_rx_elements=1)
        assert_matches_oracle(calibrated_scene(preset, Vec2(-3.5, 10.0)))

    def test_rx_panels_with_different_element_counts(self):
        links = assert_matches_oracle(mixed_panel_scene())[0]
        assert len(links) == 8

    @pytest.mark.parametrize("rows, kernel", [(fim_general._FA, fim_general._KA),
                                              (fim_general._FB, fim_general._KB)], ids=["tx", "rx"])
    def test_moment_gram_equals_the_row_form_bitwise(self, rows, kernel):
        # Non-negative moments over 60 decades, a zero among them (the Rx
        # panels' first moment), on one to three leading axes.
        rng = np.random.default_rng(SELFCHECK_SEED)
        for shape in ((3,), (7, 3), (4, 5, 3)):
            moments = rng.uniform(0.0, 1.0, shape) * 10.0 ** rng.uniform(-30.0, 30.0, shape)
            moments[..., 1].flat[0] = 0.0
            np.testing.assert_array_equal(fim_general._moment_gram(kernel, moments),
                                          moment_gram(rows, moments))


def mixed_panel_scene():
    """small_scene with Rx panels of 1, 4, 2 and 3 elements."""
    scene = small_scene(n_tx_panels=2, n_rx_panels=4, n_elements=2)
    rx_panels = tuple(dataclasses.replace(panel, elements=open_panel(n_elements=n).elements)
                      for panel, n in zip(scene.rx_vehicle.panels, (1, 4, 2, 3)))
    return with_context(
        scene, rx_vehicle=dataclasses.replace(scene.rx_vehicle, panels=rx_panels))


def link_stacks(group):
    """(t, r, delay, angle, h) stacks (n, L), in link order, of (scene,
    links, gains) samples with equal link counts."""
    t, r, delay, angle = (
        np.array([[getattr(link, name) for link in links] for _, links, _ in group])
        for name in ("tx_panel", "rx_panel", "delay", "theta_R_local"))
    h = np.array([[gain.h for gain in gains] for _, _, gains in group])
    return t, r, delay, angle, h


def assert_fd_matches_oracle(group):
    """channel_fims_fd over a stack of (scene, links, gains) with equal link
    counts equals the per-link FD loop of each, and fim_channel_fd is its row."""
    fd = channel_fims_fd(group[0][0].context, *link_stacks(group))
    for k, (scene, links, gains) in enumerate(group):
        oracle = per_link_fim_channel_fd(scene, links, gains)
        assert (equilibrated_frobenius(oracle, fd[k]) < 1e-9).all()
        assert (equilibrated_frobenius(oracle, fim_channel_fd(scene, links)) < 1e-9).all()


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
        # Each link's slice of the padded stacks is the sample model built
        # sample by sample, and the padding carries nothing.
        links = active_links(scene)
        gains = link_gains(scene, links)
        t, r, delay, angle, h = link_stacks([(scene, links, gains)])
        stacks = link_means(scene.context, t, r, delay, angle, h)
        for k, link in enumerate(links):
            mean, omega, dphase = link_samples(scene, link, delay[0, k], angle[0, k], h[0, k])
            n_s, n_e = mean.shape
            a, omega_k, b, dphase_k = (x[0, k] for x in stacks)
            assert np.allclose(np.multiply.outer(a[:n_s], b[:n_e]), mean, rtol=1e-12, atol=0.0)
            assert np.array_equal(omega_k[:n_s], omega) and np.array_equal(dphase_k[:n_e], dphase)
            assert not a[n_s:].any() and not b[n_e:].any()

    def test_dc_only_allocation_gives_zero_delay_columns(self):
        # Every omega is 0, so no delay step turns a phase: the delay columns
        # are zero on both sides, with no division by the largest |omega|.
        scene = small_scene(n_tx_panels=2, n_rx_panels=2)
        scene = with_context(scene, allocation=interleaved_allocation((0,), 2))
        links = active_links(scene)
        gains = link_gains(scene, links)
        fd = fim_channel_fd(scene, links)
        assert np.isfinite(fd).all() and not fd[..., 0].any()
        assert not fim_channel(scene, links)[..., 0].any()
        assert (equilibrated_frobenius(fim_channel(scene, links), fd) < ANALYTIC_VS_FD_TOL).all()
        assert_fd_matches_oracle([(scene, links, gains)])

    def test_step_must_be_positive(self, medium_scene):
        scene, links, _ = medium_scene
        with pytest.raises(ValueError):
            fim_channel_fd(scene, links, step=0.0)


class TestLinkOrder:
    """The links' order orders their blocks and nothing else."""

    def test_link_order_permutes_the_blocks(self, medium_scene):
        # No link is a reference: with any link first, each link's channel
        # FIM block and Jacobian are those of the (t, r) order, bit for bit.
        scene, links, _ = medium_scene
        j = fim_channel(scene, links)
        w = transform_matrix(scene, links)
        for first in range(len(links)):
            t, r, v_tau, v_theta, distance, angle, h = scene_stacks(scene, links, first)
            order = link_order(links, first)
            np.testing.assert_array_equal(channel_fims(scene.context, t, r, angle, h)[0], j[order])
            np.testing.assert_array_equal(transform_matrices(v_tau, v_theta, distance)[0], w[order])

    def test_invalid_input_rejected(self, medium_scene):
        scene, links, _ = medium_scene
        with pytest.raises(NoActiveLinks):
            fim_channel(scene, ())
        with pytest.raises(ValueError, match=r"\(t, r\) order"):
            fim_channel(scene, links[::-1])


class TestChannelFim:
    def test_matches_fd(self, medium_scene):
        scene, links, _ = medium_scene
        analytic = fim_channel(scene, links)
        fd = fim_channel_fd(scene, links)
        assert (equilibrated_frobenius(analytic, fd) < ANALYTIC_VS_FD_TOL).all()

    def test_matches_fd_on_preset_scene(self, preset_3p5):
        preset = dataclasses.replace(preset_3p5, max_occupied_index=20)
        scene = calibrated_scene(preset, Vec2(-3.5, 8.0))
        links = active_links(scene)
        assert (equilibrated_frobenius(fim_channel(scene, links),
                                       fim_channel_fd(scene, links)) < ANALYTIC_VS_FD_TOL).all()

    @pytest.mark.parametrize("max_occupied_index", [1, 2, 3])
    def test_matches_fd_on_narrow_allocations(self, preset_3p5, max_occupied_index):
        # The delay step scales with the allocation's own largest |omega|, so
        # the twin stays accurate with a few subcarriers near DC.
        preset = dataclasses.replace(preset_3p5, name="narrow",
                                     max_occupied_index=max_occupied_index)
        scene = calibrated_scene(preset, Vec2(-3.5, 10.0))
        links = active_links(scene)
        assert (equilibrated_frobenius(fim_channel(scene, links),
                                       fim_channel_fd(scene, links)) < ANALYTIC_VS_FD_TOL).all()

    def test_fd_step_convergence(self, medium_scene):
        scene, links, _ = medium_scene
        fd1 = fim_channel_fd(scene, links, step=1e-6)
        fd2 = fim_channel_fd(scene, links, step=5e-7)
        assert rel_frob(fd1, fd2) < 1e-6

    def test_symmetric_psd(self, medium_scene):
        scene, links, _ = medium_scene
        j = fim_channel(scene, links)
        assert np.allclose(j, j.swapaxes(-1, -2), rtol=0, atol=1e-9 * np.abs(j).max())
        eig = np.linalg.eigvalsh(j)
        assert (eig[:, 0] >= -1e-10 * eig[:, -1]).all()

    def test_cross_link_blocks_vanish(self, medium_scene):
        # The per-link blocks are the whole channel FIM: no two links share a
        # sample, as they reach different Rx panels or come from Tx arrays
        # with disjoint subcarrier sets, so their derivative columns are
        # orthogonal and every cross-link Gram entry vanishes.
        scene, links, _ = medium_scene
        sets = scene.allocation.per_array_sets
        assert len({link.rx_panel for link in links}) < len(links)
        for i, a in enumerate(links):
            for b in links[i + 1:]:
                assert a.rx_panel != b.rx_panel or not set(sets[a.tx_panel]) & set(sets[b.tx_panel])

    def test_noise_scaling(self, medium_scene):
        # The noise is unit, so doubling it is half the transmit power.
        scene, links, _ = medium_scene
        j1 = fim_channel(scene, links)
        ofdm = scene.context.ofdm
        half_power = dataclasses.replace(ofdm, total_power=0.5 * ofdm.total_power)
        j2 = fim_channel(with_context(scene, ofdm=half_power), links)
        assert np.allclose(j2, 0.5 * j1, rtol=1e-12)

    def test_timing_offset_accumulates_all_links(self, medium_scene):
        # The offset shifts every link's delay, so its information sums every
        # link's delay-delay information: in the Jacobians' arrow form, and at
        # [0, 0] of the delay-difference layout from the brute-force blocks.
        scene, links, gains = medium_scene
        blocks = fim_channel(scene, links)
        w = transform_matrix(scene, links)
        offset = (w @ blocks[:, :2, :2] @ w.swapaxes(-1, -2)).sum(axis=0)[3, 3]
        assert offset == pytest.approx(blocks[:, 0, 0].sum(), rel=1e-12)
        oracle = delay_difference_fims(brute_force_fim_channel(scene, links, gains))
        assert offset == pytest.approx(oracle[0, 0], rel=1e-9)


class TestTransformMatrix:
    def _pair_geometry(self, scene, pairs, q, alpha_t):
        """Delays and local angles as functions of (q, alpha_T)."""
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
        return (
            np.array([lk.delay for lk in links]),
            np.array([lk.theta_R_local for lk in links]),
        )

    def _assert_rows_match_fd(self, scene, links):
        """transform_matrix's geometric rows equal central differences of the
        link_geometry delays and local angles over (q_x, q_y, alpha_T)."""
        w = transform_matrix(scene, links)
        pairs = [(link.tx_panel, link.rx_panel) for link in links]
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
            angle_err = np.abs(w[:, row, 1] - dtheta)
            delay_err = np.abs(w[:, row, 0] * SPEED_OF_LIGHT - dtau)
            assert np.all(angle_err < 1e-6 * np.maximum(1.0, np.abs(dtheta)))
            assert np.all(delay_err < 1e-6 * np.maximum(1.0, np.abs(dtau)))

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
        scene = with_context(
            scene,
            tx_vehicle=dataclasses.replace(
                scene.tx_vehicle,
                panels=(dataclasses.replace(scene.tx_vehicle.panels[0], mount=0),),
            ),
            rx_vehicle=dataclasses.replace(
                scene.rx_vehicle,
                panels=(dataclasses.replace(scene.rx_vehicle.panels[0], mount=0),),
            ),
        )
        links = self._links_for_all_pairs(scene)
        assert abs(links[0].theta_R) < 1e-12 and abs(links[0].distance - 10.0) < 1e-12
        w = transform_matrix(scene, links)
        assert abs(w[0, 0, 1] - 0.0) < 1e-12
        assert abs(w[0, 1, 1] - 0.1) < 1e-12

    def test_center_mounted_tx_panel_zero_orientation_rows(self):
        scene = small_scene(n_tx_panels=2, n_rx_panels=1)
        scene = with_context(
            scene,
            tx_vehicle=dataclasses.replace(
                scene.tx_vehicle,
                panels=tuple(
                    dataclasses.replace(p, mount=0)
                    for p in scene.tx_vehicle.panels
                ),
            ),
        )
        links = self._links_for_all_pairs(scene)
        w = transform_matrix(scene, links)
        assert (np.abs(w[:, 2, 1]) < 1e-15).all()
        assert (np.abs(w[:, 2, 0]) < 1e-24).all()

    def test_shapes(self, medium_scene):
        # A delay and an angle column per link; no gain depends on the geometry.
        scene, links, _ = medium_scene
        assert transform_matrix(scene, links).shape == (len(links), 4, 2)

    def test_offset_row_and_nuisance_columns(self, medium_scene):
        # The timing offset shifts every link's delay and no angle; the gains,
        # nuisance parameters in both sets, have no column.
        scene, links, _ = medium_scene
        w = transform_matrix(scene, links)
        assert np.array_equal(w[:, 3], np.tile([1.0, 0.0], (len(links), 1)))


class TestSchurEfim:
    def test_matches_closed_form_both(self, medium_scene):
        scene, links, gains = medium_scene
        betas = effective_bandwidths(scene.allocation, scene.context.ofdm)
        closed = efim_aoa_tdoa(scene, links, gains, betas)
        schur = general_path(scene, links)[0]
        assert rel_frob(closed.j_po, schur.j_po) < 1e-8

    def test_matches_closed_form_aoa(self, medium_scene):
        scene, links, gains = medium_scene
        closed = efim_aoa_only(scene, links, gains)
        schur = general_path(scene, links)[1]
        assert rel_frob(closed.j_po, schur.j_po) < 1e-8

    def test_matches_on_full_preset_scene(self, preset_3p5):
        scene = calibrated_scene(preset_3p5, Vec2(0.0, -12.0))
        links = active_links(scene)
        gains = link_gains(scene, links)
        betas = effective_bandwidths(scene.allocation, scene.context.ofdm)
        closed = efim_aoa_tdoa(scene, links, gains, betas)
        schur = general_path(scene, links)[0]
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
        betas = effective_bandwidths(scene.allocation, scene.context.ofdm)
        closed = efim_aoa_tdoa(scene, links, gains, betas), efim_aoa_only(scene, links, gains)
        for expected, schur in zip(closed, general_path(scene, links)):
            assert rel_frob(expected.j_po, schur.j_po) < 1e-8

    @pytest.mark.parametrize("reference", [None, 1])
    def test_builds_the_links_once(self, medium_scene, monkeypatch, reference):
        # One placement_links call feeds the channel FIM, the transform and
        # the Schur complement of both sets, with the numbers of the one-step
        # calls; those agree to rounding with the kernels' numbers when
        # links[reference] leads the order.
        scene, links, _ = medium_scene
        expected = np.array([result.j_po for result in general_path(scene, links)])
        if reference is not None:
            t, r, v_tau, v_theta, distance, angle, h = scene_stacks(scene, links, reference)
            led = schur_efims(channel_fims(scene.context, t, r, angle, h),
                              transform_matrices(v_tau, v_theta, distance))[:, 0]
            for m, j_po, other in zip(MEASUREMENTS, expected, led):
                assert rel_frob(j_po, other) < 1e-10, m
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return placement_links(*args, **kwargs)

        monkeypatch.setattr(fim_general, "placement_links", counted)
        result = placement_schur_efims(scene.context, *scene_placement(scene, links))
        assert len(calls) == 1
        np.testing.assert_array_equal(bound_arrays(result[:, 0])[0], expected)

    def test_information_loss_psd(self, medium_scene):
        scene, links, _ = medium_scene
        blocks = fim_channel(scene, links)
        w = transform_matrix(scene, links)
        schur = efim_schur(blocks, w)[0]
        prior = (w[:, :3] @ blocks[:, :2, :2] @ w[:, :3].swapaxes(-1, -2)).sum(axis=0)
        loss = prior - schur.j_po
        eig = np.linalg.eigvalsh(0.5 * (loss + loss.T))
        assert eig[0] >= -1e-10 * max(eig[-1], 1.0)

    def test_reference_choice_irrelevant(self, medium_scene):
        scene, links, _ = medium_scene
        results = []
        for ref in range(len(links)):
            t, r, v_tau, v_theta, distance, angle, h = scene_stacks(scene, links, ref)
            j_phi = channel_fims(scene.context, t, r, angle, h)
            results.append(schur_efims(j_phi, transform_matrices(v_tau, v_theta, distance))[0, 0])
        for other in results[1:]:
            assert rel_frob(results[0], other) < 1e-10

    def test_singular_nuisance_block_gives_the_closed_form(self):
        # One subcarrier per Tx array leaves no delay information at all: a
        # delay turns that subcarrier's phase as the gain phase does, so the
        # nuisance block is singular, yet its complement is the closed form.
        scene = small_scene(n_tx_panels=2, n_rx_panels=2, n_occupied=2)
        links = active_links(scene)
        assert effective_bandwidths(scene.allocation, scene.context.ofdm) == (0.0, 0.0)
        blocks = fim_channel(scene, links)
        closed = closed_form(scene, links, link_gains(scene, links))
        w = transform_matrix(scene, links)
        for measurement, expected, result in zip(MEASUREMENTS, closed, efim_schur(blocks, w)):
            j_phi, t_mat = dense_arrow(blocks, w, measurement)
            nuisance = (t_mat @ j_phi @ t_mat.T)[3:, 3:]
            informed = nuisance.diagonal() > 0.0  # not AOA-only's zero offset row
            nuisance = nuisance[np.ix_(informed, informed)]
            scale = np.sqrt(nuisance.diagonal())
            assert np.linalg.matrix_rank(nuisance / np.outer(scale, scale)) < len(nuisance)
            assert rel_frob(expected, result.j_po) < CLOSED_VS_SCHUR_TOL

    @pytest.mark.parametrize("max_occupied_index, peb_lat", [
        (1, (1.202308586, 1.202308586)),
        (2, (0.2444998910, 0.2444998910)),
        (3, (0.1728865506, 0.1728875309)),
    ])
    def test_silent_tx_arrays_give_the_closed_form(self, max_occupied_index, peb_lat):
        # Fewer subcarriers than Tx arrays at q = (-3.5, 10): the silent
        # arrays' links carry nothing and the sending ones one subcarrier
        # each, so the nuisance block is singular; both paths give one
        # answer for each measurement set, in MEASUREMENTS order.
        preset = dataclasses.replace(PRESETS["cfg_3p5GHz"], name="sparse",
                                     max_occupied_index=max_occupied_index)
        scene = calibrated_scene(preset, Vec2(-3.5, 10.0))
        links = active_links(scene)
        gains = link_gains(scene, links)
        betas = effective_bandwidths(scene.allocation, scene.context.ofdm)
        closed = efim_aoa_tdoa(scene, links, gains, betas), efim_aoa_only(scene, links, gains)
        for expected, result, pinned in zip(closed, general_path(scene, links), peb_lat):
            assert result.rank == 3
            assert rel_frob(expected.j_po, result.j_po) < CLOSED_VS_SCHUR_TOL
            assert result.peb_lat == pytest.approx(pinned, rel=1e-8)


class TestBatchedKernels:
    """channel_fims and schur_efims over a stack of placements with equal
    link counts, from placement_links, against the per-link oracles of each
    placement's Scene-level links."""

    @pytest.mark.parametrize("preset_name", ["cfg_3p5GHz", "cfg_28GHz"])
    @pytest.mark.parametrize("forced", [False, True], ids=["default_ref", "forced_ref"])
    def test_batched_equals_oracles(self, preset_name, forced):
        preset = PRESETS[preset_name]
        ctx = preset_context(preset)
        [drawn] = random_placements(np.random.default_rng(SELFCHECK_SEED), [preset], 40)
        q, alpha_t = np.array([q for _, q, _ in drawn]), np.array([a for _, _, a in drawn])
        tx_pose, rx_pose = placement_poses(q, alpha_t)
        tx_c, offset, visible, _ = visibility(ctx.pairs, tx_pose, rx_pose)
        n_links = visible.sum(axis=(1, 2))
        groups = [np.flatnonzero(n_links == count) for count in set(n_links.tolist())]
        assert any(len(group) > 1 for group in groups)
        for group in groups:
            first = n_links[group[0]] - 1 if forced else 0
            order = link_order(range(n_links[group[0]]), first)
            t, r, v_tau, v_theta, distance, angle, h = (x[:, order] for x in placement_links(
                ctx, tx_c[group], offset[group], visible[group], rx_pose[1][group]))
            j_phi = channel_fims(ctx, t, r, angle, h)
            j_po = schur_efims(j_phi, transform_matrices(v_tau, v_theta, distance))
            for k, i in enumerate(group):
                scene = calibrated_scene(preset, Vec2(*q[i]), alpha_t=alpha_t[i])
                links = active_links(scene)
                gains = link_gains(scene, links)
                oracle = brute_force_fim_channel(scene, links, gains)[order]
                assert (equilibrated_frobenius(oracle, j_phi[k]) < 1e-12).all()
                for schur, closed in zip(j_po, closed_form(scene, links, gains)):
                    assert rel_frob(closed, schur[k]) < CLOSED_VS_SCHUR_TOL

    def test_singular_placement_in_a_stack_gives_the_closed_form(self):
        # One subcarrier per Tx array leaves the nuisance block singular (see
        # test_singular_nuisance_block_gives_the_closed_form); stacked with a
        # regular scene of the same geometry, each row is its own closed form.
        blocks, w, closed = [], [], []
        for n_occupied in (2, 8):
            scene = small_scene(n_tx_panels=2, n_rx_panels=2, n_occupied=n_occupied)
            links = active_links(scene)
            gains = link_gains(scene, links)
            blocks.append(brute_force_fim_channel(scene, links, gains))
            w.append(transform_matrix(scene, links))
            closed.append(closed_form(scene, links, gains))
        error = relative_frobenius(np.array(closed).swapaxes(0, 1),
                                   schur_efims(np.array(blocks), np.array(w)))
        assert (error < CLOSED_VS_SCHUR_TOL).all(), error


class TestPaddedLinks:
    """placement_links pads a stack to its largest link count with silent
    links, which change no EFIM."""

    @pytest.mark.parametrize("preset", [PRESETS["cfg_3p5GHz"], PRESETS["cfg_28GHz"],
                                        dataclasses.replace(PRESETS["cfg_3p5GHz"], name="sparse",
                                                            max_occupied_index=1)],
                             ids=lambda p: p.name)
    def test_mixed_link_counts_equal_one_call_per_placement(self, preset):
        ctx = preset_context(preset)
        [drawn] = random_placements(np.random.default_rng(SELFCHECK_SEED), [preset], 20)
        q, alpha_t = np.array([q for _, q, _ in drawn]), np.array([a for _, _, a in drawn])
        poses = placement_poses(q, alpha_t)
        rx_heading = poses[1][1]
        tx_c, offset, visible, _ = placement_efims(ctx, *poses)
        assert len(set(visible.sum(axis=(1, 2)).tolist())) > 2
        stacked = placement_schur_efims(ctx, tx_c, offset, visible, rx_heading)
        for i in range(len(q)):
            one = placement_schur_efims(ctx, tx_c[i:i + 1], offset[i:i + 1], visible[i:i + 1],
                                        rx_heading[i:i + 1])
            assert (relative_frobenius(one[:, 0], stacked[:, i]) < 1e-12).all(), i

    @pytest.mark.parametrize("max_occupied_index", [1, 2, 400])
    def test_appended_silent_link_changes_no_efim(self, max_occupied_index):
        # Any panel pair, direction and distance: with h = 0 the link carries
        # no delay or angle information and its gains decouple.
        preset = dataclasses.replace(PRESETS["cfg_3p5GHz"], name="padded",
                                     max_occupied_index=max_occupied_index)
        ctx = preset_context(preset)
        tx_pose, rx_pose = placement_poses(np.array([[-3.5, 10.0], [4.0, -12.0]]),
                                           np.array([0.0, 0.7]))
        links = placement_links(ctx, *placement_efims(ctx, tx_pose, rx_pose)[:3], rx_pose[1])
        silent = (np.array([[3], [0]]), np.array([[1], [2]]), np.full((2, 1, 3), 0.4),
                  np.full((2, 1, 3), -0.2), np.array([[1.0], [7.5]]), np.array([[0.3], [-2.0]]),
                  np.zeros((2, 1), complex))
        padded = [np.concatenate(pair, axis=1) for pair in zip(links, silent)]
        j_po = [schur_efims(channel_fims(ctx, t, r, angle, h),
                            transform_matrices(v_tau, v_theta, distance))
                for t, r, v_tau, v_theta, distance, angle, h in (links, padded)]
        assert (relative_frobenius(*j_po) < 1e-14).all()


# Both headings of a custom scene, the Rx one away from 0.
HEADING = st.floats(-math.pi, math.pi)
RX_HEADING = st.floats(0.05, math.pi) | st.floats(-math.pi, -0.05)


@settings(max_examples=40, deadline=None)
@given(n_tx=st.integers(1, 4), n_rx=st.integers(1, 4), n_elements=st.integers(2, 3),
       radius=st.floats(5.0, 40.0), bearing=HEADING, alpha_t=HEADING, alpha_r=RX_HEADING,
       shift=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)))
def test_general_path_equals_placement_efims_at_an_rx_heading(
        n_tx, n_rx, n_elements, radius, bearing, alpha_t, alpha_r, shift):
    # A custom scene through the placement kernels, as the presets run: the
    # Schur path at the scene's placement equals the closed-form assembly of
    # the same placement with both vehicles moved by ``shift``.
    q = Vec2(radius * math.cos(bearing), radius * math.sin(bearing))
    scene = small_scene(n_tx, n_rx, n_elements, q=q, alpha_t=alpha_t, alpha_r=alpha_r)
    ctx = scene.context
    tx_c, offset, visible, rx_heading = scene_placement(scene)
    assume(visible.any())  # a panel mount can sit behind the other body
    j_po = placement_schur_efims(ctx, tx_c, offset, visible, rx_heading)
    shift = np.array([shift])
    _, _, moved, j = placement_efims(
        ctx, (shift, np.array([scene.tx_pose.orientation])),
        (np.array([q.as_tuple()]) + shift, rx_heading))
    assert np.array_equal(moved, visible)
    error = relative_frobenius(j, j_po)
    assert (error < CLOSED_VS_SCHUR_TOL).all(), error


def closed_and_schur(scene):
    """(closed form, Schur) FimResults for AOA+TDOA and for AOA-only."""
    links = active_links(scene)
    gains = link_gains(scene, links)
    betas = effective_bandwidths(scene.allocation, scene.context.ofdm)
    schur_both, schur_aoa = general_path(scene, links)
    return ((efim_aoa_tdoa(scene, links, gains, betas), schur_both),
            (efim_aoa_only(scene, links, gains), schur_aoa))


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


def test_placement_without_information_stays_inf():
    # One Rx element, and one subcarrier on two of the four Tx arrays: at
    # q = (8, 0), 4 links carry no position information, and the closed form
    # gives inf. The Schur path pseudo-inverts its singular nuisance block;
    # the rounding residue left of the complement (entries near 1e-23 against
    # a block near 1e-8) must not come out as a finite bound.
    preset = dataclasses.replace(PRESETS["cfg_3p5GHz"], name="uninformed", n_rx_elements=1,
                                 max_occupied_index=1, vehicle_width=2.0, target_snr_db=8.0)
    q = Vec2(8.0, 0.0)
    assert evaluate_point(preset, q).peb_lat_both == math.inf
    scene = calibrated_scene(preset, q)
    links = active_links(scene)
    assert len(links) == 4
    result = general_path(scene, links)[0]
    assert result.rank < 3
    assert not any(map(math.isfinite, (result.peb_lat, result.peb_lon, result.oeb)))
    ctx = preset_context(preset)
    tx_c, offset, visible, _ = placement_efims(ctx, *placement_poses(np.array([q.as_tuple()])))
    j_po = placement_schur_efims(ctx, tx_c, offset, visible, np.zeros(1))
    assert bound_arrays(j_po[0])[1][0] < 3
