"""Closed-form EFIMs: aperture function, bounds extraction, rank behavior."""

import dataclasses
import math

import numpy as np
import pytest

from v2vbounds.channel import link_gains
from v2vbounds.fim_closed import bounds_from_fim, efim_aoa_only, efim_aoa_tdoa, saaf
from v2vbounds.geometry import (
    ArrayPanel,
    ElementOffset,
    Vec2,
    active_links,
    build_conformal_panel,
)
from v2vbounds.scenarios import calibrated_scene
from v2vbounds.waveform import effective_bandwidths

from conftest import small_scene


def two_element_panel(d: float) -> ArrayPanel:
    return ArrayPanel(
        mount_distance=0.0,
        mount_angle=0.0,
        elements=(ElementOffset(d / 2.0, 0.0), ElementOffset(d / 2.0, math.pi)),
        fov_blocked_center=0.0,
        fov_blocked_halfwidth=0.0,
    )


class TestSaaf:
    def test_single_element_zero(self):
        panel = build_conformal_panel(1, 0.1, 1)
        for theta in np.linspace(-math.pi, math.pi, 17):
            assert saaf(panel, float(theta)) == 0.0

    def test_two_element_sine_law(self):
        # Oracle: hand expansion gives S(theta) = (d^2/4) sin^2(theta) for
        # elements at +-d/2 on the psi = 0 / pi axis.
        d = 0.06
        panel = two_element_panel(d)
        for theta in np.linspace(-math.pi, math.pi, 41):
            expected = (d * d / 4.0) * math.sin(theta) ** 2
            assert abs(saaf(panel, float(theta)) - expected) < 1e-15

    @pytest.mark.parametrize("n", [2, 4, 25])
    def test_rotational_average(self, n):
        # Oracle: numerical quadrature of S over a full turn equals
        # sum(d_i^2) / (2 N).
        panel = build_conformal_panel(n, 0.0857, 2)
        grid = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        average = float(np.mean([saaf(panel, float(t)) for t in grid]))
        expected = sum(e.distance**2 for e in panel.elements) / (2.0 * n)
        assert abs(average - expected) < 1e-12

    def test_nonnegative(self):
        panel = build_conformal_panel(4, 0.0857, 3)
        for theta in np.linspace(-math.pi, math.pi, 101):
            assert saaf(panel, float(theta)) >= 0.0


class TestBoundsFromFim:
    def test_diagonal_example(self):
        result = bounds_from_fim(np.diag([100.0, 25.0, 4.0]))
        assert abs(result.peb_lat - 0.1) < 1e-15
        assert abs(result.peb_lon - 0.2) < 1e-15
        assert abs(result.oeb - 0.5) < 1e-15
        assert result.rank == 3 and not result.singular

    def test_scaling(self):
        j = np.array([[9.0, 1.0, 0.5], [1.0, 6.0, 0.2], [0.5, 0.2, 3.0]])
        r1 = bounds_from_fim(j)
        r4 = bounds_from_fim(4.0 * j)
        assert abs(r4.peb_lat - r1.peb_lat / 2.0) < 1e-12
        assert abs(r4.peb_lon - r1.peb_lon / 2.0) < 1e-12
        assert abs(r4.oeb - r1.oeb / 2.0) < 1e-12

    def test_singular_sentinels(self):
        j = np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        result = bounds_from_fim(j)
        assert result.singular and result.rank == 1
        assert math.isinf(result.peb_lat)
        assert math.isinf(result.peb_lon)
        assert math.isinf(result.oeb)

    def test_zero_matrix_rank(self):
        result = bounds_from_fim(np.zeros((3, 3)))
        assert result.rank == 0 and result.singular

    def test_rank_independent_of_heading_unit(self):
        # Position in meters, heading in radians: 1e11 apart, yet full rank.
        result = bounds_from_fim(np.diag([1e12, 1e12, 10.0]))
        assert result.rank == 3 and not result.singular
        assert abs(result.peb_lat - 1e-6) < 1e-21 and abs(result.oeb - 10.0**-0.5) < 1e-15
        a, b = np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, -1.0])
        cases = (
            (np.diag([1e12, 1e12, 10.0]), 3),
            (np.array([[9.0, 1.0, 0.5], [1.0, 6.0, 0.2], [0.5, 0.2, 3.0]]), 3),
            (np.outer(a, a) + np.outer(b, b), 2),
            (np.diag([1e12, 1e12, 0.0]), 2),
            (np.outer(a, a), 1),
        )
        for j, rank in cases:
            for s in np.logspace(-4.0, 4.0, 17):
                heading_unit = np.diag([1.0, 1.0, s])
                assert bounds_from_fim(heading_unit @ j @ heading_unit).rank == rank, (j, s)


def _scene_links_gains(preset, q):
    scene = calibrated_scene(preset, q)
    links = active_links(scene)
    gains = link_gains(scene, links)
    return scene, links, gains


class TestClosedForms:
    def test_zero_bandwidth_reduces_to_aoa(self, preset_3p5):
        scene, links, gains = _scene_links_gains(preset_3p5, Vec2(-3.5, 9.0))
        both = efim_aoa_tdoa(scene, links, gains, betas=(0.0,) * 4)
        aoa = efim_aoa_only(scene, links, gains)
        assert np.array_equal(both.j_po, aoa.j_po)

    def test_aoa_term_is_shared_subexpression(self, preset_3p5):
        # AOA-only equals AOA+TDOA minus its delay terms; with one active
        # Tx array carrying zero bandwidth the matrices must match on the
        # angle part. Cross-check by subtracting the delay covariance.
        scene, links, gains = _scene_links_gains(preset_3p5, Vec2(-3.5, 9.0))
        betas = effective_bandwidths(scene.allocation, scene.ofdm)
        both = efim_aoa_tdoa(scene, links, gains, betas)
        aoa = efim_aoa_only(scene, links, gains)
        delta = both.j_po - aoa.j_po
        eig = np.linalg.eigvalsh(0.5 * (delta + delta.T))
        assert eig[0] >= -1e-10 * max(np.abs(eig).max(), 1.0)

    def test_loewner_ordering_bounds(self, preset_3p5, preset_28):
        for preset, q in (
            (preset_3p5, Vec2(-3.5, 14.0)),
            (preset_28, Vec2(0.0, -22.0)),
            (preset_3p5, Vec2(6.0, 17.0)),
        ):
            scene, links, gains = _scene_links_gains(preset, q)
            betas = effective_bandwidths(scene.allocation, scene.ofdm)
            both = efim_aoa_tdoa(scene, links, gains, betas)
            aoa = efim_aoa_only(scene, links, gains)
            if not both.singular and not aoa.singular:
                assert both.peb_lat <= aoa.peb_lat + 1e-9
                assert both.peb_lon <= aoa.peb_lon + 1e-9

    def test_symmetric_psd(self, preset_3p5):
        scene, links, gains = _scene_links_gains(preset_3p5, Vec2(2.5, -11.0))
        betas = effective_bandwidths(scene.allocation, scene.ofdm)
        for result in (
            efim_aoa_tdoa(scene, links, gains, betas),
            efim_aoa_only(scene, links, gains),
        ):
            j = result.j_po
            assert np.allclose(j, j.T, rtol=1e-10, atol=0.0)
            eig = np.linalg.eigvalsh(j)
            assert eig[0] >= -1e-10 * eig[-1]

    def test_nb_scaling_law(self, preset_3p5):
        scene, links, gains = _scene_links_gains(preset_3p5, Vec2(-3.5, 13.0))
        betas = effective_bandwidths(scene.allocation, scene.ofdm)
        base = efim_aoa_tdoa(scene, links, gains, betas)
        boosted_scene = dataclasses.replace(
            scene, ofdm=dataclasses.replace(scene.ofdm, n_symbols=4)
        )
        boosted = efim_aoa_tdoa(
            boosted_scene, links, link_gains(boosted_scene, links), betas
        )
        assert np.allclose(boosted.j_po, 4.0 * base.j_po, rtol=1e-12)
        assert abs(boosted.peb_lat - base.peb_lat / 2.0) <= 1e-10 * base.peb_lat

    def test_noise_scaling_law(self, preset_3p5):
        scene, links, gains = _scene_links_gains(preset_3p5, Vec2(-3.5, 13.0))
        betas = effective_bandwidths(scene.allocation, scene.ofdm)
        base = efim_aoa_tdoa(scene, links, gains, betas)
        noisy_scene = dataclasses.replace(scene, noise_variance=3.0)
        noisy = efim_aoa_tdoa(noisy_scene, links, link_gains(noisy_scene, links), betas)
        assert np.allclose(noisy.j_po, base.j_po / 3.0, rtol=1e-12)


class TestRankRules:
    def test_single_link_singular(self):
        scene = small_scene(n_tx_panels=1, n_rx_panels=1)
        links = active_links(scene)
        assert len(links) == 1
        gains = link_gains(scene, links)
        betas = effective_bandwidths(scene.allocation, scene.ofdm)
        result = efim_aoa_tdoa(scene, links, gains, betas)
        assert result.singular and result.rank <= 2
        assert math.isinf(result.peb_lat) and math.isinf(result.peb_lon)

    def test_two_links_aoa_only_singular(self):
        scene = small_scene(n_tx_panels=1, n_rx_panels=2)
        links = active_links(scene)
        assert len(links) == 2
        gains = link_gains(scene, links)
        result = efim_aoa_only(scene, links, gains)
        assert result.singular and result.rank <= 2

    def test_two_links_aoa_tdoa_nonsingular(self):
        # Generic position means two distinct Tx panels; a single Tx panel
        # leaves a rotation about that panel unobservable (see below).
        scene = small_scene(n_tx_panels=2, n_rx_panels=1)
        links = active_links(scene)
        assert len(links) == 2
        gains = link_gains(scene, links)
        betas = effective_bandwidths(scene.allocation, scene.ofdm)
        result = efim_aoa_tdoa(scene, links, gains, betas)
        assert not result.singular and result.rank == 3

    def test_single_tx_panel_always_singular(self):
        # With one Tx anchor, rotating the Tx vehicle about that panel while
        # counter-translating q changes nothing observable, so the EFIM has
        # a null direction however many Rx panels listen.
        scene = small_scene(n_tx_panels=1, n_rx_panels=2)
        links = active_links(scene)
        assert len(links) == 2
        gains = link_gains(scene, links)
        betas = effective_bandwidths(scene.allocation, scene.ofdm)
        result = efim_aoa_tdoa(scene, links, gains, betas)
        assert result.singular and result.rank == 2
        offset = scene.tx_panel_state(0).centroid - scene.tx_pose.position
        null = np.array([-offset.y, offset.x, 1.0])
        assert np.linalg.norm(result.j_po @ null) < 1e-9 * np.linalg.norm(result.j_po)

    def test_single_antenna_panels_zero_angle_information(self):
        scene = small_scene(n_tx_panels=2, n_rx_panels=2, n_elements=1)
        links = active_links(scene)
        gains = link_gains(scene, links)
        result = efim_aoa_only(scene, links, gains)
        assert np.array_equal(result.j_po, np.zeros((3, 3)))
        assert result.rank == 0
