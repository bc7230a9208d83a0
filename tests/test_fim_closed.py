"""Closed-form EFIMs: aperture function, bounds extraction, rank behavior."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from v2vbounds.app import main
from v2vbounds.channel import link_gains
from v2vbounds.fim_closed import (
    RANK_EPS,
    bound_arrays,
    bounds_from_fim,
    efim_aoa_only,
    efim_aoa_tdoa,
    information,
    link_vectors,
)
from v2vbounds.geometry import (
    SPEED_OF_LIGHT,
    ArrayPanel,
    Vec2,
    VehicleSpec,
    active_links,
    build_conformal_panel,
)
from v2vbounds.scenarios import PRESETS, calibrated_scene, evaluate_point
from v2vbounds.waveform import effective_bandwidths

from conftest import small_scene, with_context
from reference import einsum_information, inverse_bound_arrays, tx_panel_state


def two_element_panel(d: float) -> ArrayPanel:
    return ArrayPanel(
        mount=0,
        elements=[d / 2.0, -d / 2.0],
        fov_blocked_center=0.0,
        fov_blocked_halfwidth=0.0,
    )


def saaf(panel: ArrayPanel, theta_local, rx_heading: float = 0.0):
    """The squared array aperture function link_vectors gives a link that
    arrives on the panel at vehicle-frame angle theta_local, the Rx vehicle
    at heading rx_heading."""
    direction = np.exp(1j * np.atleast_1d(theta_local + rx_heading))
    s = VehicleSpec(1.0, 1.0, (panel,)).arrays.saaf_s[0]
    terms = np.array([s[0, 0], s[0, 1] + s[1, 0], s[1, 1]])
    return link_vectors(direction, np.zeros(1, complex), np.asarray(rx_heading), terms)[2]


class TestSaaf:
    def test_single_element_zero(self):
        panel = build_conformal_panel(1, 0.1, 1, math.pi / 4)
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
        panel = build_conformal_panel(n, 0.0857, 2, math.pi / 4)
        grid = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        average = float(np.mean(saaf(panel, grid)))
        expected = sum(abs(e) ** 2 for e in panel.elements.tolist()) / (2.0 * n)
        assert abs(average - expected) < 1e-12

    def test_nonnegative(self):
        panel = build_conformal_panel(4, 0.0857, 3, math.pi / 4)
        for theta in np.linspace(-math.pi, math.pi, 101):
            assert saaf(panel, float(theta)) >= 0.0

    @pytest.mark.parametrize("rx_heading", [0.7, -2.0, math.pi])
    def test_depends_on_the_vehicle_frame_angle_only(self, rx_heading):
        # link_vectors rotates the world-frame direction into the Rx frame.
        panel = build_conformal_panel(4, 0.0857, 3, math.pi / 4)
        theta = np.linspace(-math.pi, math.pi, 101)
        np.testing.assert_allclose(saaf(panel, theta, rx_heading), saaf(panel, theta),
                                   rtol=1e-12, atol=1e-18)


class TestBoundsFromFim:
    def test_diagonal_example(self):
        result = bounds_from_fim(np.diag([100.0, 25.0, 4.0]))
        assert abs(result.peb_lat - 0.1) < 1e-15
        assert abs(result.peb_lon - 0.2) < 1e-15
        assert abs(result.oeb - 0.5) < 1e-15
        assert result.rank == 3 and not result.singular

    def test_scaling(self):
        # The bounds scale as s^-1/2 down to 1e-160 and up to 1e160, where
        # products of raw entries would underflow or overflow.
        j = np.array([[9.0, 1.0, 0.5], [1.0, 6.0, 0.2], [0.5, 0.2, 3.0]])
        r1 = bounds_from_fim(j)
        for s in (4.0, 1e-160, 1e160):
            rs = bounds_from_fim(s * j)
            assert rs.rank == 3, s
            for name in ("peb_lat", "peb_lon", "oeb"):
                expected = getattr(r1, name) / math.sqrt(s)
                assert abs(getattr(rs, name) - expected) <= 1e-12 * expected, (s, name)
        # Position and heading units 1e160 apart, either way round.
        for p, h in ((1e80, 1e-80), (1e-80, 1e80)):
            unit = np.array([p, p, h])
            _, rank, bounds = bound_arrays(j * np.outer(unit, unit))
            assert rank == 3
            np.testing.assert_allclose(bounds * unit, [r1.peb_lat, r1.peb_lon, r1.oeb], rtol=1e-12)

    @pytest.mark.parametrize("ratio, rank", [(1e-12, 2), (1e-9, 3)])
    def test_position_block_ranked_in_its_own_units(self, ratio, rank):
        # Equilibrated, diag(1, ratio, 1) is the identity; the position block
        # alone, in 1/m^2 on both axes, has eigenvalue ratio `ratio`.
        result = bounds_from_fim(np.diag([1.0, ratio, 1.0]))
        assert result.rank == rank and result.singular == (rank < 3)
        assert math.isinf(result.peb_lon) == (rank < 3)
        tilted = np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + ratio, 0.0], [0.0, 0.0, 1.0]])
        assert bounds_from_fim(tilted).rank == rank

    def test_subnormal_diagonal_is_a_missing_direction(self):
        # 1 / 9e-310 overflows: the direction counts as missing, not as a NaN scale.
        result = bounds_from_fim(np.diag([9e-310, 1.0, 1.0]))
        assert result.rank == 2 and math.isinf(result.peb_lat) and math.isinf(result.oeb)

    def test_position_block_far_from_one_unit_does_not_overflow(self):
        # Equilibrated, diag(5e28, 1e-290, 1) is the identity; in one unit its
        # position block has the eigenvalue ratio 2e-319, and the larger
        # eigenvalue over sqrt(J_xx J_yy), 2.2e159, would overflow when squared.
        with np.errstate(over="raise"):
            _, rank, bounds = bound_arrays(np.diag([5e28, 1e-290, 1.0]))
        assert rank == 2 and np.isinf(bounds).all()

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)])
    def test_non_finite_entry_gives_nan_row(self, entry, value):
        good = np.array([[9.0, 1.0, 0.5], [1.0, 6.0, 0.2], [0.5, 0.2, 3.0]])
        bad = good.copy()
        bad[entry] = value
        _, rank, bounds = bound_arrays(np.stack((good, bad, good)))
        expected = bounds_from_fim(good)
        for row in (0, 2):
            assert rank[row] == 3
            assert bounds[row].tolist() == [expected.peb_lat, expected.peb_lon, expected.oeb]
        assert rank[1] == 0 and np.isnan(bounds[1]).all()
        alone = bounds_from_fim(bad)
        assert alone.singular and math.isnan(alone.peb_lat) and math.isnan(alone.oeb)

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


def rotated_flat(eps: float) -> np.ndarray:
    """diag(1, 1, eps) turned by a fixed rotation that mixes all three axes,
    symmetrised: its position block stays well-conditioned."""
    q, _ = np.linalg.qr(np.array([[1.0, 2.0, 0.5], [-0.3, 1.0, 2.0], [0.7, -1.0, 1.0]]))
    j = q @ np.diag([1.0, 1.0, eps]) @ q.T
    return 0.5 * (j + j.T)


class TestRankCertificate:
    """bound_arrays proves rank 3 from its LDL^T pivots and trace(A^-1) and
    runs eigvalsh on the other rows only; at eps = 1e-8 the trace is 4.5e7,
    at 1e-9 it is 4.5e8, past 1 / (30 RANK_EPS) = 3.3e8."""

    rows = np.stack([rotated_flat(1e-8), rotated_flat(1e-9), rotated_flat(1e-11),
                     np.outer([1.0, -2.0, 0.5], [1.0, -2.0, 0.5]), np.zeros((3, 3)),
                     np.full((3, 3), math.nan)])

    @pytest.fixture()
    def eigvalsh_inputs(self, monkeypatch):
        received, eigvalsh = [], np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            received.append(np.array(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        return received

    def test_ranks_and_bounds_match_the_oracle(self):
        _, rank, bounds = bound_arrays(self.rows)
        expected_rank, expected = inverse_bound_arrays(self.rows[:5])
        assert rank.tolist() == [3, 3, 2, 1, 0, 0]
        assert rank[:5].tolist() == expected_rank.tolist()
        for i in range(5):
            d = np.sqrt(np.diag(self.rows[i]))
            cond = np.linalg.cond(self.rows[i] / np.outer(d, d)) if expected_rank[i] == 3 else 1.0
            np.testing.assert_allclose(bounds[i], expected[i],
                                       rtol=1e-13 + 64.0 * np.finfo(float).eps * cond)
        assert np.isnan(bounds[5]).all()

    def test_eigvalsh_sees_the_uncertified_rows_only(self, eigvalsh_inputs):
        bound_arrays(self.rows)
        [received] = eigvalsh_inputs
        # Rows 1-3 equilibrated, then the zero and NaN rows, which equilibrate to zero.
        diag = self.rows[1:4].diagonal(0, -2, -1)
        a = self.rows[1:4] / np.sqrt(diag[:, :, None] * diag[:, None, :])
        np.testing.assert_allclose(received, np.concatenate((a, np.zeros((2, 3, 3)))),
                                   rtol=1e-15, atol=0.0)
        eigvalsh_inputs.clear()
        _, rank, _ = bound_arrays(self.rows[:1])
        assert rank.tolist() == [3] and eigvalsh_inputs == []

    def test_default_runs_and_points_need_no_lapack(self, eigvalsh_inputs, tmp_path, capsys):
        # Every EFIM of the four default CLI runs and of seeded annulus
        # placements is certified: a threshold slip would bring eigvalsh back
        # with every number unchanged.
        for scenario in ("overtaking", "platooning"):
            for preset in ("cfg_3p5GHz", "cfg_28GHz"):
                out = tmp_path / f"{scenario}_{preset}.csv"
                assert main(["--scenario", scenario, "--preset", preset, "--out", str(out)]) == 0
        capsys.readouterr()
        assert eigvalsh_inputs == []
        rng = np.random.default_rng(20240311)
        presets = (PRESETS["cfg_3p5GHz"], PRESETS["cfg_28GHz"])
        for i in range(200):
            radius, bearing, alpha_t = rng.uniform([5.0, -math.pi, -math.pi],
                                                   [40.0, math.pi, math.pi])
            q = Vec2(radius * math.cos(bearing), radius * math.sin(bearing))
            evaluate_point(presets[i % 2], q, alpha_t=alpha_t)
        assert eigvalsh_inputs == []


@st.composite
def link_arrays(draw):
    """Per-link inputs of ``information`` for a batch of placements, with
    hidden links (g = 0) and Tx arrays without subcarriers (beta = 0)."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 16))
    coordinate = st.floats(-5.0, 5.0)
    v_tau = draw(arrays(float, (n, k, 3), elements=coordinate))
    v_theta = draw(arrays(float, (n, k, 3), elements=coordinate))
    aperture = draw(arrays(float, (k,), elements=st.floats(0.0, 1e-2)))
    g = draw(arrays(float, (n, k), elements=st.just(0.0) | st.floats(1e-3, 1e6)))
    distance = draw(arrays(float, (n, k), elements=st.floats(0.5, 100.0)))
    beta = draw(arrays(float, (k,), elements=st.just(0.0) | st.floats(1e5, 1e8)))
    return v_tau, v_theta, aperture, g, distance**2, beta, 2.0 * math.pi * 3.5e9


@settings(max_examples=200, deadline=None)
@given(link_arrays())
def test_information_matches_einsum_oracle(case):
    # Matmul and einsum sum the links in different orders: the difference is
    # bounded by 1e-13 of sum_k w_k (sum_i |v_ki|)^2, a bound on the
    # uncentered terms' magnitudes (the delay part centres its vectors first).
    v_tau, v_theta, aperture, g, distance2, beta, omega_c = case
    c2 = SPEED_OF_LIGHT**2
    size_aoa = np.einsum("...k,...ki,...kj->...", g * omega_c**2 * aperture / (c2 * distance2),
                         np.abs(v_theta), np.abs(v_theta))
    size_tau = np.einsum("...k,...ki,...kj->...", g * beta**2 / c2, np.abs(v_tau), np.abs(v_tau))
    for got, expected, size in zip(information(*case), einsum_information(*case),
                                   (size_aoa + size_tau, size_aoa)):
        assert got.shape == expected.shape
        assert (np.abs(got - expected) <= 1e-13 * size[..., None, None]).all()


def test_delay_vectors_equal_to_rounding_carry_no_information():
    # Three links with one delay vector carry no TDOA information, but their
    # weighted mean misses it by an ulp: left in, that residue (4e-48 here)
    # read as a direction of its own. One sending link seen by one-element
    # panels read rank 1, and coincident bodies rank 3 with oeb 7e17 rad.
    v_tau = np.tile([0.6, -0.8, 1.3], (3, 1))
    j = information(v_tau, np.zeros((3, 3)), np.zeros(3), np.array([0.1, 0.2, 0.3]), np.ones(3),
                    np.full(3, 7.0), 1.0)
    assert not j.any()
    assert bound_arrays(j)[1].tolist() == [0, 0]


@st.composite
def scaled_psd(draw):
    """A PSD 3x3 EFIM of rank 0-3, with position entries scaled by 10^e_p
    and the heading entry by 10^e_h, e_p and e_h in [-160, 160]."""
    rank = draw(st.integers(0, 3))
    # Nonzero factors are at least 1e-3, so no diagonal entry is subnormal.
    factor = st.just(0.0) | st.floats(1e-3, 1.0) | st.floats(-1.0, -1e-3)
    factors = draw(arrays(float, (3, rank), elements=factor))
    e_p, e_h = draw(st.floats(-160.0, 160.0)), draw(st.floats(-160.0, 160.0))
    unit = np.array([10.0 ** (e_p / 2), 10.0 ** (e_p / 2), 10.0 ** (e_h / 2)])
    return (factors @ factors.T) * np.outer(unit, unit)


@settings(max_examples=300, deadline=None)
@given(st.lists(scaled_psd(), min_size=1, max_size=4))
def test_bound_arrays_matches_inverse_oracle(matrices):
    j = np.array(matrices)
    _, rank, bounds = bound_arrays(j)
    expected_rank, expected = inverse_bound_arrays(j)
    eps = np.finfo(float).eps
    for i, m in enumerate(j):
        # The position block's eigenvalue ratio, over its larger diagonal entry.
        top = max(m[0, 0], m[1, 1])
        low, high = np.linalg.eigvalsh(m[:2, :2] / top) if top > 0.0 else (0.0, 1.0)
        assume(not 0.1 * RANK_EPS * high <= low <= 10.0 * RANK_EPS * high)
        flat = low < RANK_EPS * high
        assert rank[i] == (min(expected_rank[i], 2) if flat else expected_rank[i])
        if rank[i] < 3:
            assert np.isinf(bounds[i]).all()
            continue
        d = np.sqrt(np.diag(m))
        cond = np.linalg.cond(m / np.outer(d, d))
        if cond <= 1e8:
            # Both are backward stable: each within a few eps * cond of the exact value.
            error = np.abs(bounds[i] - expected[i]) / expected[i]
            assert (error <= 1e-13 + 64.0 * eps * cond).all(), (error, cond)


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
        betas = effective_bandwidths(scene.allocation, scene.context.ofdm)
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
            betas = effective_bandwidths(scene.allocation, scene.context.ofdm)
            both = efim_aoa_tdoa(scene, links, gains, betas)
            aoa = efim_aoa_only(scene, links, gains)
            if not both.singular and not aoa.singular:
                assert both.peb_lat <= aoa.peb_lat + 1e-9
                assert both.peb_lon <= aoa.peb_lon + 1e-9

    def test_symmetric_psd(self, preset_3p5):
        scene, links, gains = _scene_links_gains(preset_3p5, Vec2(2.5, -11.0))
        betas = effective_bandwidths(scene.allocation, scene.context.ofdm)
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
        betas = effective_bandwidths(scene.allocation, scene.context.ofdm)
        base = efim_aoa_tdoa(scene, links, gains, betas)
        boosted_scene = with_context(
            scene, ofdm=dataclasses.replace(scene.context.ofdm, n_symbols=4)
        )
        boosted = efim_aoa_tdoa(
            boosted_scene, links, link_gains(boosted_scene, links), betas
        )
        assert np.allclose(boosted.j_po, 4.0 * base.j_po, rtol=1e-12)
        assert abs(boosted.peb_lat - base.peb_lat / 2.0) <= 1e-10 * base.peb_lat

    def test_noise_scaling_law(self, preset_3p5):
        # The noise is unit, so tripling it is a third of the transmit power.
        scene, links, gains = _scene_links_gains(preset_3p5, Vec2(-3.5, 13.0))
        betas = effective_bandwidths(scene.allocation, scene.context.ofdm)
        base = efim_aoa_tdoa(scene, links, gains, betas)
        ofdm = scene.context.ofdm
        noisy_scene = with_context(scene, ofdm=dataclasses.replace(
            ofdm, total_power=ofdm.total_power / 3.0))
        noisy = efim_aoa_tdoa(noisy_scene, links, link_gains(noisy_scene, links), betas)
        assert np.allclose(noisy.j_po, base.j_po / 3.0, rtol=1e-12)


class TestRankRules:
    def test_single_link_singular(self):
        scene = small_scene(n_tx_panels=1, n_rx_panels=1)
        links = active_links(scene)
        assert len(links) == 1
        gains = link_gains(scene, links)
        betas = effective_bandwidths(scene.allocation, scene.context.ofdm)
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
        betas = effective_bandwidths(scene.allocation, scene.context.ofdm)
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
        betas = effective_bandwidths(scene.allocation, scene.context.ofdm)
        result = efim_aoa_tdoa(scene, links, gains, betas)
        assert result.singular and result.rank == 2
        offset = tx_panel_state(scene, 0).centroid - scene.tx_pose.position
        null = np.array([-offset.y, offset.x, 1.0])
        assert np.linalg.norm(result.j_po @ null) < 1e-9 * np.linalg.norm(result.j_po)

    def test_single_antenna_panels_zero_angle_information(self):
        scene = small_scene(n_tx_panels=2, n_rx_panels=2, n_elements=1)
        links = active_links(scene)
        gains = link_gains(scene, links)
        result = efim_aoa_only(scene, links, gains)
        assert np.array_equal(result.j_po, np.zeros((3, 3)))
        assert result.rank == 0
