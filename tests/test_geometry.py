"""Geometry: unit vectors, conformal panels, world states, links, visibility."""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from v2vbounds.errors import NoActiveLinks
from v2vbounds.geometry import (
    SPEED_OF_LIGHT,
    ArrayPanel,
    Pose,
    Vec2,
    VehicleSpec,
    _SECTOR_EDGE_TOL,
    _crosses_body,
    active_links,
    build_conformal_panel,
    build_cornered_vehicle,
    los_mask,
    sector_edge,
    visibility,
    wrap_angle,
)
from v2vbounds.scenarios import MAX_RX_ELEMENTS, PRESETS, build_scene, preset_context

from conftest import open_panel, panels_with_links, small_scene, with_context
from reference import (
    PanelState,
    body,
    link_geometry,
    panel_world_state,
    polar,
    reference_aperture,
    reference_centroids,
    reference_d_perp,
    reference_los_visible,
    reference_sector_centers,
    reference_segment_crosses,
    rx_panel_state,
    tx_panel_state,
    unit_dir,
    unit_perp,
)

angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def bare_panel(elements) -> ArrayPanel:
    """A panel at the vehicle reference point with an open view and these elements."""
    return ArrayPanel(mount=0, elements=elements, fov_blocked_center=0.0,
                      fov_blocked_halfwidth=0.0)


@st.composite
def centred_layouts(draw) -> np.ndarray:
    """(E,) complex element offsets, E in 1..30, of points drawn in a square
    of half-side 1e-3 to 1e3 m and moved to their centroid."""
    n, scale = draw(st.integers(1, 30)), draw(st.sampled_from([1e-3, 0.05, 1.0, 1e3]))
    points = np.array(draw(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                                    min_size=n, max_size=n))).T * scale
    x, y = points - points.mean(axis=1, keepdims=True)
    return x + 1j * y


def assert_matches_element_oracle(arrays, k: int, elements: np.ndarray) -> None:
    """VehicleArrays' aperture matrix of panel k against the per-element
    definition on the offsets' polar form, at 64 directions: u^T S u =
    SAAF(theta). The summed offsets d_perp = sum_i d_i (sin psi_i, -cos psi_i),
    which the kernels take as 0 (the phase centre at the centroid), lie within
    the centring tolerance of ArrayPanel, N times 1e-12 m or 1e-12 of the
    largest distance."""
    theta = np.linspace(-math.pi, math.pi, 64)
    u = np.array([np.cos(theta), np.sin(theta)])
    largest = np.abs(elements).max()
    np.testing.assert_allclose(
        np.einsum("it,ij,jt->t", u, arrays.saaf_s[k], u),
        [reference_aperture(polar(elements), t) for t in theta.tolist()], rtol=0,
        atol=1e-14 * largest**2)
    assert (math.hypot(*reference_d_perp(polar(elements)))
            <= elements.size * 1e-12 * max(1.0, largest))


class TestUnitVectors:
    """The oracles' unit vectors."""

    def test_axis_cases(self):
        assert unit_dir(0.0).as_tuple() == (1.0, 0.0)
        d = unit_dir(math.pi / 2)
        assert abs(d.x) < 1e-15 and abs(d.y - 1.0) < 1e-15
        d = unit_dir(math.pi)
        assert abs(d.x + 1.0) < 1e-15 and abs(d.y) < 1e-15

    def test_perp_definition(self):
        p = unit_perp(0.0)
        assert abs(p.x) < 1e-15 and abs(p.y + 1.0) < 1e-15
        p = unit_perp(math.pi / 2)
        assert abs(p.x - 1.0) < 1e-15 and abs(p.y) < 1e-15

    @given(st.floats(min_value=-math.pi, max_value=math.pi))
    def test_norm_and_orthogonality(self, psi):
        assert abs(unit_dir(psi).norm() - 1.0) <= 1e-15
        assert abs(unit_dir(psi).dot(unit_perp(psi))) <= 1e-15

    @given(angles)
    def test_orthogonality_unwrapped(self, psi):
        # Accumulated ulp error of psi - pi/2 grows with |psi|.
        assert abs(unit_dir(psi).dot(unit_perp(psi))) <= 1e-12

    @given(angles)
    def test_wrap_range(self, psi):
        w = wrap_angle(psi)
        assert -math.pi < w <= math.pi
        # same direction
        assert abs(unit_dir(w).x - unit_dir(psi).x) < 1e-9
        assert abs(unit_dir(w).y - unit_dir(psi).y) < 1e-9

    def test_wrap_boundary(self):
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi


class TestTypes:
    def test_vec2_rejects_nan(self):
        with pytest.raises(ValueError):
            Vec2(float("nan"), 0.0)
        with pytest.raises(ValueError):
            Vec2(0.0, float("inf"))

    def test_pose_normalizes_orientation(self):
        pose = Pose(Vec2(0.0, 0.0), 3.0 * math.pi)
        assert -math.pi < pose.orientation <= math.pi

    def test_panel_requires_centered_elements(self):
        with pytest.raises(ValueError, match="centered"):
            bare_panel([0.1])

    @pytest.mark.parametrize("elements, message", [
        (np.zeros(0, complex), "E >= 1"),
        (np.zeros((2, 2)), r"\(E,\)"),  # a (2, E) distance and angle array is no panel
        (np.zeros(()), r"\(E,\)"),
        ([0.1, complex(-0.1, math.nan)], "finite"),
        ([complex(math.inf, 0.0), -0.1], "finite"),
    ])
    def test_element_array_rules(self, elements, message):
        with pytest.raises(ValueError, match=message):
            bare_panel(elements)

    def test_elements_complex_copied_and_read_only(self):
        given_elements = np.array([0.1, -0.1, 0.0])  # real offsets are points on the x axis
        panel = bare_panel(given_elements)
        assert panel.elements.dtype == complex and panel.mount == 0j
        np.testing.assert_array_equal(panel.elements, [0.1, -0.1, 0.0])
        assert panel.n_elements == 3 and given_elements.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            panel.elements[0] = 0.2

    def test_centring_tolerance_scales_with_the_panel(self):
        # The same off-centre layout is refused at every scale, and the at-limit
        # arc at 0.5 GHz (radius about 1900 m) is accepted: an absolute 1e-12 m
        # residual check refused it from 5000 elements on.
        for scale in (1e-3, 1.0, 1e3, 1e6):
            with pytest.raises(ValueError, match="centered"):
                bare_panel([scale, cmath.rect(scale, 3.0)])
        # Coincident points moved to their mean keep offsets of rounding alone.
        bare_panel([-5.421010862427522e-20] * 3)
        panel = build_conformal_panel(MAX_RX_ELEMENTS, SPEED_OF_LIGHT / 0.5e9, 1, math.pi / 4)
        assert panel.n_elements == MAX_RX_ELEMENTS and np.abs(panel.elements).max() > 900.0

    def test_vehicle_requires_positive_dims(self):
        with pytest.raises(ValueError):
            VehicleSpec(length=0.0, width=1.0, panels=(open_panel(),))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["length", "width"])
    def test_non_finite_vehicle_dims_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            VehicleSpec(**{"length": 4.5, "width": 1.8, field: value}, panels=(open_panel(),))

    @pytest.mark.parametrize("field, value", [
        *((field, value) for field in ("mount", "fov_blocked_center")
          for value in (math.nan, math.inf, -math.inf)),
        *(("mount", value) for value in (complex(0.9, math.nan), complex(0.9, math.inf),
                                         complex(-math.inf, 2.25))),
    ])
    def test_non_finite_panel_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(open_panel(), **{field: value})


class TestConformalPanel:
    def test_four_element_layout(self):
        # Independent oracle: evaluate the construction formulas directly.
        lam = 0.0857
        rho = lam / (4.0 * math.sin(math.pi / 12.0))
        assert abs(rho / lam - 0.9659258262890683) < 1e-12
        deltas = [0.0, math.pi / 6.0, math.pi / 3.0, math.pi / 2.0]
        xs = [rho * math.cos(d) for d in deltas]
        ys = [rho * math.sin(d) for d in deltas]
        cx, cy = sum(xs) / 4.0, sum(ys) / 4.0

        panel = build_conformal_panel(4, lam, 1, math.pi / 4)
        assert panel.n_elements == 4
        for e, x, y in zip(panel.elements.tolist(), xs, ys):
            assert abs(e.real - (x - cx)) < 1e-12
            assert abs(e.imag - (y - cy)) < 1e-12

    def test_two_element_radius(self):
        lam = 1.0
        rho = 1.0 / (4.0 * math.sin(math.pi / 4.0))
        assert abs(rho - 0.35355339059327373) < 1e-15
        panel = build_conformal_panel(2, lam, 1, math.pi / 4)
        # Recentered two-element offsets are half the half-wavelength chord.
        np.testing.assert_allclose(np.abs(panel.elements), 0.25, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 9, 25])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_half_wavelength_spacing_and_centroid(self, n, k):
        lam = 0.0107
        panel = build_conformal_panel(n, lam, k, math.pi / 4)
        pts = [(e.real, e.imag) for e in panel.elements.tolist()]
        cx = sum(p[0] for p in pts)
        cy = sum(p[1] for p in pts)
        assert math.hypot(cx, cy) < 1e-12
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            assert abs(math.hypot(x1 - x0, y1 - y0) - lam / 2.0) < 1e-12

    def test_single_element_at_centroid(self):
        panel = build_conformal_panel(1, 0.1, 1, math.pi / 4)
        np.testing.assert_array_equal(panel.elements, [0j])

    def test_zero_elements_rejected(self):
        with pytest.raises(ValueError, match="n_elements must be >= 1"):
            build_conformal_panel(0, 0.1, 1, math.pi / 4)

    def test_blocked_sector_faces_body(self):
        # Panel 1 sits at the (+x, +y) corner; its blocked wedge is the
        # quadrant between the -x and -y edge directions, whatever its width.
        for halfwidth in (0.0, math.pi / 4, 2.3):
            panel = build_conformal_panel(4, 0.1, 1, halfwidth)
            assert abs(panel.fov_blocked_center - (-3.0 * math.pi / 4.0)) < 1e-12
            assert panel.fov_blocked_halfwidth == halfwidth


class TestPanelWorldState:
    """The scalar oracle, pinned by hand values; TestCentroidsMatchPanelWorldState
    checks the package's VehicleArrays.centroids against it."""

    def _vehicle(self):
        return VehicleSpec(length=1.0, width=1.0, panels=(open_panel(1.0),))

    def test_identity_pose(self):
        state = panel_world_state(self._vehicle(), Pose(Vec2(0, 0), 0.0), 0)
        assert abs(state.centroid.x - 1.0) < 1e-15
        assert abs(state.centroid.y) < 1e-15

    def test_quarter_rotation(self):
        state = panel_world_state(self._vehicle(), Pose(Vec2(0, 0), math.pi / 2), 0)
        assert abs(state.centroid.x) < 1e-15
        assert abs(state.centroid.y - 1.0) < 1e-15

    @given(st.floats(-100, 100), st.floats(-100, 100))
    @settings(max_examples=25)
    def test_translation_equivariance(self, ax, bx):
        vehicle = self._vehicle()
        s0 = panel_world_state(vehicle, Pose(Vec2(0, 0), 0.4), 0)
        s1 = panel_world_state(vehicle, Pose(Vec2(ax, bx), 0.4), 0)
        assert abs((s1.centroid.x - s0.centroid.x) - ax) < 1e-9
        assert abs((s1.centroid.y - s0.centroid.y) - bx) < 1e-9
        for e0, e1 in zip(s0.elements, s1.elements):
            assert abs((e1.x - e0.x) - ax) < 1e-9
            assert abs((e1.y - e0.y) - bx) < 1e-9

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            panel_world_state(self._vehicle(), Pose(Vec2(0, 0), 0.0), 5)


class TestCentroidsMatchPanelWorldState:
    @given(st.floats(-100, 100), st.floats(-100, 100), angles)
    @settings(max_examples=50)
    def test_mixed_vehicle(self, x, y, heading):
        vehicle = TestVehicleArrays.mixed_vehicle()
        pose = Pose(Vec2(x, y), heading)
        centroids = vehicle.arrays.turned(np.exp(1j * pose.arrays()[1]))[0] + complex(x, y)
        for k in range(len(vehicle.panels)):
            expected = panel_world_state(vehicle, pose, k).centroid.as_tuple()
            np.testing.assert_allclose((centroids[k].real, centroids[k].imag), expected, rtol=0,
                                       atol=1e-12)

    @given(st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=8))
    @settings(max_examples=50)
    def test_turned_mounts_and_sectors_equal_their_cos_sin_forms(self, headings):
        # One rotation e^(i heading) per pose turns the mounts and the sector
        # directions; the cos/sin of each summed angle gives the same points
        # to the rounding of the angle's sum.
        for vehicle in (TestVehicleArrays.mixed_vehicle(), preset_context(PRESETS["cfg_28GHz"])
                        .tx_vehicle):
            heading = np.array(headings)
            mount, sector = vehicle.arrays.turned(np.exp(1j * heading))
            expected = reference_centroids(vehicle, np.zeros((len(heading), 2)), heading)
            distance = np.abs([p.mount for p in vehicle.panels])
            error = np.abs(np.stack((mount.real, mount.imag), axis=-1) - expected)
            assert (error <= 4 * np.finfo(float).eps * distance[:, None]).all()
            error = np.abs(np.array([sector.real, sector.imag]) - reference_sector_centers(
                vehicle, heading))
            assert (error <= 4 * np.finfo(float).eps).all()


class TestLinkGeometry:
    """The scalar oracle, pinned by hand values; TestActiveLinksMatchLinkGeometry
    checks active_links against it."""

    def test_axis_aligned(self):
        link = link_geometry(Vec2(0, 0), Vec2(10, 0), 0.0)
        assert link.distance == 10.0
        assert link.theta_R == 0.0
        assert abs(link.theta_T - math.pi) < 1e-15
        assert abs(link.delay - 10.0 / SPEED_OF_LIGHT) < 1e-24

    def test_heading_aligned(self):
        link = link_geometry(Vec2(0, 0), Vec2(0, 5), math.pi / 2)
        assert abs(link.theta_R - math.pi / 2) < 1e-15
        assert abs(link.theta_R_local) < 1e-15

    def test_3_4_5_triangle(self):
        link = link_geometry(Vec2(0, 0), Vec2(3, 4), 0.0)
        assert abs(link.distance - 5.0) < 1e-12
        assert abs(link.theta_R - 0.9272952180016122) < 1e-12

    def test_coincident_rejected(self):
        # Coincident centroids have no direction: never a link, even with open sectors.
        centroid, sector = 1.0 + 1.0j, (1.0 + 0.0j, *sector_edge(0.0))
        assert not los_mask(centroid, centroid - centroid, sector, sector)
        assert los_mask(centroid, (centroid + (1e-9 + 1e-9j)) - centroid, sector, sector)

    def test_opposite_directions(self):
        link = link_geometry(Vec2(-2, 7), Vec2(4, -3), -0.8)
        ur = unit_dir(link.theta_R)
        ut = unit_dir(link.theta_T)
        assert abs(ur.x + ut.x) < 1e-12
        assert abs(ur.y + ut.y) < 1e-12


class TestRigidMotionInvariance:
    @given(st.floats(-30, 30), st.floats(-30, 30), angles)
    @settings(max_examples=25)
    def test_translation(self, dx, dy, alpha):
        base = link_geometry(Vec2(1, 2), Vec2(8, -3), alpha)
        moved = link_geometry(Vec2(1 + dx, 2 + dy), Vec2(8 + dx, -3 + dy), alpha)
        assert abs(base.distance - moved.distance) < 1e-9
        assert abs(base.theta_R - moved.theta_R) < 1e-12
        assert abs(base.theta_R_local - moved.theta_R_local) < 1e-12

    @given(angles)
    @settings(max_examples=25)
    def test_rotation(self, phi):
        a, b = Vec2(1, 2), Vec2(8, -3)
        pivot = Vec2(-4, 6)
        ra = pivot + (a - pivot).rotated(phi)
        rb = pivot + (b - pivot).rotated(phi)
        base = link_geometry(a, b, 0.5)
        moved = link_geometry(ra, rb, 0.5 + phi)
        assert abs(base.distance - moved.distance) < 1e-9
        assert abs(wrap_angle(moved.theta_R - base.theta_R - phi)) < 1e-9
        assert abs(wrap_angle(moved.theta_R_local - base.theta_R_local)) < 1e-9


class TestVisibility:
    def test_overtaking_three_panels_each(self, preset_3p5):
        scene = build_scene(preset_3p5, Vec2(-3.5, 15.0))
        tx, rx = panels_with_links(active_links(scene))
        assert len(tx) == 3 and len(rx) == 3

    def test_side_by_side_two_panels_each(self, preset_3p5):
        scene = build_scene(preset_3p5, Vec2(-3.5, 0.0))
        tx, rx = panels_with_links(active_links(scene))
        assert len(tx) == 2 and len(rx) == 2

    def test_platooning_rear_tx_front_rx(self, preset_3p5):
        scene = build_scene(preset_3p5, Vec2(0.0, -10.0))
        links = active_links(scene)
        tx, rx = panels_with_links(links)
        assert tx == {2, 3}  # rear Tx corners
        assert rx == {0, 1}  # front Rx corners
        assert len(links) == 4

    def test_platooning_four_links_various_gaps(self, preset_3p5):
        for q_y in (-5.0, -12.25, -20.0, -30.0):
            scene = build_scene(preset_3p5, Vec2(0.0, q_y))
            assert len(active_links(scene)) == 4

    def test_fully_blocked_raises(self):
        # Two single-panel vehicles whose blocked sectors face each other.
        tx_panel = open_panel(blocked_center=0.0)
        rx_panel = open_panel(blocked_center=math.pi)
        import dataclasses

        tx_panel = dataclasses.replace(tx_panel, fov_blocked_halfwidth=math.pi / 3)
        rx_panel = dataclasses.replace(rx_panel, fov_blocked_halfwidth=math.pi / 3)
        scene = small_scene(n_tx_panels=1, n_rx_panels=1, q=Vec2(100.0, 0.0),
                            alpha_t=0.0, alpha_r=0.0)
        scene = with_context(
            scene,
            tx_vehicle=dataclasses.replace(scene.tx_vehicle, panels=(tx_panel,)),
            rx_vehicle=dataclasses.replace(scene.rx_vehicle, panels=(rx_panel,)),
        )
        with pytest.raises(NoActiveLinks):
            active_links(scene)

    def test_ordering_and_count(self):
        scene = small_scene(n_tx_panels=2, n_rx_panels=2)
        links = active_links(scene)
        assert [(lk.tx_panel, lk.rx_panel) for lk in links] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_overtaking_q0_links_between_facing_panels(self, preset_3p5):
        scene = build_scene(preset_3p5, Vec2(-3.5, 0.0))
        links = active_links(scene)
        assert {(lk.tx_panel, lk.rx_panel) for lk in links} == {
            (1, 0), (1, 3), (2, 0), (2, 3),
        }

    def test_role_swap_symmetry(self, preset_3p5):
        # Swapping which vehicle transmits swaps the two sector tests with
        # reversed direction, leaving visibility unchanged.
        for q, alpha_t in ((Vec2(-3.5, 7.0), 0.0), (Vec2(4.0, -9.0), 0.7), (Vec2(0.0, -12.0), -0.4)):
            scene = build_scene(preset_3p5, q, alpha_t=alpha_t)
            tx = (scene.tx_vehicle.arrays, scene.tx_pose.arrays())
            rx = (scene.rx_vehicle.arrays, scene.rx_pose.arrays())
            full = [(dataclasses.replace(a, sectors_imply_body=False), pose) for a, pose in (tx, rx)]
            for tx_side, rx_side in ((tx, rx), full):
                forward = visibility(*tx_side, *rx_side)[2]
                np.testing.assert_array_equal(visibility(*rx_side, *tx_side)[2], forward.T)

    @given(st.floats(1e-9, 1e-2) | st.floats(-1e-2, -1e-9), st.floats(-math.pi, math.pi))
    @settings(max_examples=50)
    def test_overlapping_bodies_offsets_to_rounding(self, turn, heading):
        # Bodies at one point, headings `turn` apart: each corner lies
        # 2 d sin(turn / 2) from its twin, which the offsets keep to a few
        # ulps of their length; the centroids' difference loses eps d of it,
        # 4e-12 relative at turn = 6e-5.
        vehicle = build_cornered_vehicle(4.5, 1.8, 2, 0.1, math.pi / 4)
        arrays, origin, tx_heading = vehicle.arrays, np.zeros((1, 2)), heading + turn
        turn = tx_heading - heading  # the turn between the headings as rounded
        offset = visibility(arrays, (origin, np.array([tx_heading])),
                            arrays, (origin, np.array([heading])))[1][0]
        distance, angle = polar([p.mount for p in vehicle.panels])
        mid = angle + heading + 0.5 * turn
        twin = 2.0 * distance * math.sin(0.5 * turn) * (np.sin(mid) - 1j * np.cos(mid))
        error = np.abs(offset.diagonal() - twin) / np.abs(twin)
        assert error.max() <= 16 * np.finfo(float).eps, error


class TestActiveLinksMatchLinkGeometry:
    """active_links builds every link in one numpy pass; link_geometry is the
    scalar reference from the panels' world-frame centroids."""

    @staticmethod
    def assert_links_match(scene):
        links = active_links(scene)
        for link in links:
            ref = link_geometry(tx_panel_state(scene, link.tx_panel).centroid,
                                rx_panel_state(scene, link.rx_panel).centroid,
                                scene.rx_pose.orientation, link.tx_panel, link.rx_panel)
            assert (link.tx_panel, link.rx_panel) == (ref.tx_panel, ref.rx_panel)
            assert abs(link.distance - ref.distance) < 1e-12 * ref.distance
            assert abs(link.delay - ref.delay) < 1e-12 * ref.delay
            for name in ("theta_R", "theta_T", "theta_R_local"):
                assert abs(wrap_angle(getattr(link, name) - getattr(ref, name))) < 1e-12
                assert -math.pi < getattr(link, name) <= math.pi
        pairs = [(link.tx_panel, link.rx_panel) for link in links]
        assert pairs == sorted(pairs) and len(set(pairs)) == len(pairs)
        assert type(links) is tuple

    def test_small_scenes(self):
        for kwargs in ({}, dict(n_tx_panels=3, n_rx_panels=4, alpha_t=2.9, alpha_r=-3.1),
                       dict(n_tx_panels=1, n_rx_panels=1, q=Vec2(-0.5, -20.0), alpha_r=math.pi)):
            self.assert_links_match(small_scene(**kwargs))

    @pytest.mark.parametrize("preset_name", ["preset_3p5", "preset_28"])
    def test_preset_scenes(self, preset_name, request):
        preset = request.getfixturevalue(preset_name)
        for q, alpha_t in ((Vec2(-3.5, 10.0), 0.0), (Vec2(-3.5, 0.0), 0.0), (Vec2(0.0, -6.0), 0.2),
                           (Vec2(12.0, 30.0), -2.0), (Vec2(3.5, -4.5), math.pi)):
            self.assert_links_match(build_scene(preset, q, alpha_t=alpha_t))


def crosses_body(vehicle, pose, a: Vec2, b: Vec2) -> bool:
    """geometry._crosses_body for one segment and one body."""
    return bool(_crosses_body(complex(*a.as_tuple()), complex(*b.as_tuple()), body(vehicle, pose)))


def world_sector(state: PanelState) -> tuple:
    """A panel state's blocked sector as los_mask takes it."""
    return (complex(math.cos(state.blocked_center), math.sin(state.blocked_center)),
            *sector_edge(state.blocked_halfwidth))


class TestBodyBlockage:
    CAR = VehicleSpec(4.5, 1.8, (open_panel(),))

    def test_segment_through_interior(self):
        assert crosses_body(self.CAR, Pose(Vec2(0, 0), 0.0), Vec2(-2.0, 0.0), Vec2(2.0, 0.0))

    def test_segment_along_edge_is_clear(self):
        assert not crosses_body(self.CAR, Pose(Vec2(0, 0), 0.0), Vec2(0.9, -5.0), Vec2(0.9, 5.0))

    def test_segment_touching_corner_is_clear(self):
        assert not crosses_body(self.CAR, Pose(Vec2(0, 0), 0.0), Vec2(0.9, 2.25), Vec2(5.0, 2.25))

    def test_rotated_rect(self):
        pose = Pose(Vec2(0, 0), math.pi / 2)
        # Long axis now lies along world x, spanning |x| <= 2.25.
        assert crosses_body(self.CAR, pose, Vec2(0.0, -2.0), Vec2(0.0, 2.0))
        assert crosses_body(self.CAR, pose, Vec2(2.0, -2.0), Vec2(2.0, 2.0))
        assert not crosses_body(self.CAR, pose, Vec2(3.0, -2.0), Vec2(3.0, 2.0))


@st.composite
def rect_and_points(draw, n_points=2):
    """A body (vehicle, pose) plus points on its corners, edges, axes, or anywhere;
    headings include the exact quarter turns, where edges stay axis-aligned."""
    length, width = draw(st.floats(0.5, 6.0)), draw(st.floats(0.5, 3.0))
    heading = draw(st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2])
                   | st.floats(-math.pi, math.pi))
    pose = Pose(Vec2(draw(st.floats(-5, 5)), draw(st.floats(-5, 5))), heading)
    xs = st.sampled_from([-width / 2, width / 2, 0.0]) | st.floats(-8.0, 8.0)
    ys = st.sampled_from([-length / 2, length / 2, 0.0]) | st.floats(-8.0, 8.0)
    points = [
        pose.position + Vec2(draw(xs), draw(ys)).rotated(pose.orientation)
        for _ in range(n_points)
    ]
    return (VehicleSpec(length, width, (open_panel(),)), pose), points


def on_sector_edge(tx: PanelState, rx: PanelState) -> bool:
    """Does the oracle's direction from either panel toward the other lie
    within 1e-15 rad of that panel's halfwidth + _SECTOR_EDGE_TOL? There
    los_mask and the oracle both decide on rounding, so either answer holds."""
    toward_rx = (rx.centroid - tx.centroid).angle()
    return any(abs(abs(wrap_angle(direction - state.blocked_center))
                   - (state.blocked_halfwidth + _SECTOR_EDGE_TOL)) <= 1e-15
               for direction, state in ((toward_rx, tx), (wrap_angle(toward_rx + math.pi), rx)))


class TestVectorisedVisibilityMatchesLoop:
    @settings(max_examples=300)
    @given(rect_and_points())
    def test_segment_crossing(self, case):
        rect, (a, b) = case
        assert crosses_body(*rect, a, b) == reference_segment_crosses(*rect, a, b)

    @settings(max_examples=300)
    @given(rect_and_points(n_points=3), rect_and_points(n_points=0),
           st.lists(st.sampled_from([0.0, math.pi / 4, math.pi / 2, math.pi])
                    | st.floats(0.0, math.pi), min_size=2, max_size=2),
           st.lists(st.floats(-math.pi, math.pi), min_size=2, max_size=2))
    # A direction 1.0000889e-12 rad past the halfwidth pi/2: on the edge
    # halfwidth + _SECTOR_EDGE_TOL to within an ulp.
    @example(tx_case=((VehicleSpec(0.5, 0.5, (open_panel(),)), Pose(Vec2(5.0, 5.0), 0.0)),
                      [Vec2(-0.4999999999995, -0.5000000000005),
                       Vec2(-0.5000000000005, 0.4999999999995), Vec2(3.0, 0.0)]),
             rx_case=((VehicleSpec(0.5, 0.5, (open_panel(),)), Pose(Vec2(-5.0, -5.0), 0.0)), []),
             halfwidths=[math.pi / 2, 0.0], centers=[0.0, 0.0])
    def test_los_visible(self, tx_case, rx_case, halfwidths, centers):
        tx_rect, (tx_c, rx_c, toward) = tx_case
        rx_rect, _ = rx_case
        # A blocked-sector edge along the link direction is the grazing case.
        edge = (rx_c - tx_c).angle() - halfwidths[0] if (rx_c - tx_c).norm() else centers[0]
        tx = PanelState(tx_c, (), wrap_angle(edge), halfwidths[0])
        rx = PanelState(rx_c, (), centers[1], halfwidths[1])
        for tx_state in (tx, PanelState(tx_c, (), centers[0], halfwidths[0])):
            for rx_state in (rx, PanelState(toward, (), centers[1], halfwidths[1])):
                visible = los_mask(
                    complex(*tx_state.centroid.as_tuple()),
                    complex(*(rx_state.centroid - tx_state.centroid).as_tuple()),
                    world_sector(tx_state), world_sector(rx_state), body(*tx_rect), body(*rx_rect),
                )
                if not on_sector_edge(tx_state, rx_state):
                    assert bool(visible) == reference_los_visible(tx_state, rx_state, tx_rect,
                                                                  rx_rect)


class TestSectorEdges:
    """los_mask's angle-free sector test against the angle-based oracle where
    the two could part: the tolerance edge, halfwidths 0 and pi, grazing
    links and coincident centroids."""

    # A body far from every link, so that only the sectors decide.
    FAR = (VehicleSpec(1.0, 1.0, (open_panel(),)), Pose(Vec2(1e3, 1e3), 0.0))

    def visible(self, center: float, halfwidth: float, rx_c: Vec2) -> bool:
        """los_mask from a Tx panel at the origin with the blocked sector
        (center, halfwidth) to an Rx panel at rx_c whose zero-width sector
        faces away from the Tx panel, checked against the oracle."""
        tx = PanelState(Vec2(0.0, 0.0), (), wrap_angle(center), halfwidth)
        rx = PanelState(rx_c, (), rx_c.angle(), 0.0)
        visible = bool(los_mask(0j, complex(*rx_c.as_tuple()), world_sector(tx), world_sector(rx)))
        assert visible == reference_los_visible(tx, rx, self.FAR, self.FAR)
        return visible

    @pytest.mark.parametrize("center", [0.0, 1.0, -2.5, math.pi, -math.pi + 1e-3, 3.0])
    @pytest.mark.parametrize("halfwidth", [0.0, math.pi / 4, math.pi / 2, 2.0, math.pi - 1e-11])
    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_tolerance_edge(self, center, halfwidth, side):
        # Directions 1e-13 rad inside and outside halfwidth + _SECTOR_EDGE_TOL.
        for margin, blocked in ((-1e-13, True), (1e-13, False)):
            direction = center + side * (halfwidth + 1e-12 + margin)
            assert self.visible(center, halfwidth, 7.0 * unit_dir(direction)) is not blocked

    @pytest.mark.parametrize("center", [0.0, math.pi / 2, -2.0, math.pi])
    def test_halfwidth_zero_blocks_the_center_only(self, center):
        assert not self.visible(center, 0.0, 7.0 * unit_dir(center))
        assert self.visible(center, 0.0, 7.0 * unit_dir(center + 2e-12))
        assert self.visible(center, 0.0, 7.0 * unit_dir(center - 2e-12))
        assert self.visible(center, 0.0, 7.0 * unit_dir(center + math.pi))

    @pytest.mark.parametrize("halfwidth", [math.pi, math.pi - 5e-13])
    def test_halfwidth_pi_blocks_every_direction(self, halfwidth):
        # (-7, 0) from a sector centred on +x is the exact backward direction,
        # where sin(pi) = 1.2e-16 in place of 0 would let it through.
        assert sector_edge(halfwidth)[1] == 0.0
        for rx_c in (Vec2(-7.0, 0.0), Vec2(7.0, 0.0), Vec2(0.0, -7.0), Vec2(-7.0, 1e-15),
                     7.0 * unit_dir(3.0)):
            assert not self.visible(0.0, halfwidth, rx_c)

    @pytest.mark.parametrize("preset_name", ["preset_3p5", "preset_28"])
    def test_grazing_overtaking_links_stay_blocked(self, preset_name, request):
        # At q_y = +-vehicle_length the facing bumpers line up: the links along
        # them run on a blocked-sector edge, and the body test lets them pass.
        preset = request.getfixturevalue(preset_name)
        length = preset.vehicle_length
        for q_y, grazing, clear in ((length, [(0, 2), (0, 3), (1, 2)], (1, 3)),
                                    (-length, [(3, 0), (3, 1), (2, 1)], (2, 0))):
            scene = build_scene(preset, Vec2(-preset.lane_width, q_y))
            bodies = (scene.tx_vehicle, scene.tx_pose), (scene.rx_vehicle, scene.rx_pose)
            expected = np.array([[reference_los_visible(tx_panel_state(scene, t),
                                                        rx_panel_state(scene, r), *bodies)
                                  for r in range(4)] for t in range(4)])
            assert not any(expected[t, r] for t, r in grazing) and expected[clear]
            tx, rx = scene.tx_vehicle.arrays, scene.rx_vehicle.arrays
            full = [dataclasses.replace(a, sectors_imply_body=False) for a in (tx, rx)]
            for tx_arrays, rx_arrays in ((tx, rx), full):
                np.testing.assert_array_equal(visibility(tx_arrays, scene.tx_pose.arrays(),
                                                         rx_arrays, scene.rx_pose.arrays())[2],
                                              expected)

    def test_visibility_takes_no_angles(self, monkeypatch, preset_3p5):
        # The sector test reads direction vectors: no arctan2 and no wrap.
        def refuse(*args, **kwargs):
            raise AssertionError("angle arithmetic in visibility")

        arrays = build_scene(preset_3p5, Vec2(0.0, 0.0)).tx_vehicle.arrays
        full = dataclasses.replace(arrays, sectors_imply_body=False)
        poses = (np.zeros((3, 2)), np.array([0.0, 2.0, -3.0])), (
            np.array([[-3.5, 4.5], [4.0, -9.0], [0.5, 20.0]]), np.array([0.0, 1.0, -0.5]))
        expected = visibility(full, poses[0], full, poses[1])[2]
        monkeypatch.setattr(np, "arctan2", refuse)
        monkeypatch.setattr("v2vbounds.geometry.wrap_angles", refuse)
        for vehicle in (arrays, full):
            np.testing.assert_array_equal(visibility(vehicle, poses[0], vehicle, poses[1])[2],
                                          expected)

    @pytest.mark.parametrize("halfwidth", [0.0, math.pi / 4, math.pi])
    def test_coincident_centroids(self, halfwidth):
        for rx_c, expected in ((Vec2(0.0, 0.0), False), (Vec2(1e-9, 1e-9), halfwidth < 1.0)):
            assert self.visible(-math.pi / 2, halfwidth, rx_c) is expected


class TestBuiltVehicle:
    def test_corner_mounts(self):
        vehicle = build_cornered_vehicle(4.5, 1.8, 4, 0.0857, 0.6)
        corners = [(0.9, 2.25), (-0.9, 2.25), (-0.9, -2.25), (0.9, -2.25)]
        for panel, (cx, cy) in zip(vehicle.panels, corners):
            assert panel.fov_blocked_halfwidth == 0.6
            assert panel.mount == complex(cx, cy)  # the corner itself, no polar round trip

    def test_element_offsets_sum_to_zero(self, preset_28):
        vehicle = build_cornered_vehicle(4.5, 1.8, 25, 0.0107, math.pi / 4)
        for panel in vehicle.panels:
            sx = sum(e.real for e in panel.elements.tolist())
            sy = sum(e.imag for e in panel.elements.tolist())
            assert math.hypot(sx, sy) < 1e-12


class TestVehicleArrays:
    @staticmethod
    def mixed_vehicle() -> VehicleSpec:
        """Panels of 1, 2 and 3 elements at different mounts and sectors."""
        panels = (
            open_panel(mount=cmath.rect(1.0, 0.3), n_elements=1),
            open_panel(mount=cmath.rect(2.0, -1.2), n_elements=2, blocked_center=0.5),
            build_conformal_panel(3, 0.0857, 3, math.pi / 4, mount=cmath.rect(1.5, 2.5)),
        )
        return VehicleSpec(length=4.5, width=1.8, panels=panels)

    def test_equal_to_arrays_built_from_the_panels(self):
        vehicle = self.mixed_vehicle()
        arrays = vehicle.arrays
        assert (arrays.length, arrays.width) == (4.5, 1.8)
        assert [p.n_elements for p in vehicle.panels] == [1, 2, 3]
        for k, panel in enumerate(vehicle.panels):
            eps = np.finfo(float).eps
            assert arrays.mount[k] == panel.mount
            assert abs(arrays.blocked_dir[k] - cmath.exp(1j * panel.fov_blocked_center)) <= 2 * eps
            np.testing.assert_array_equal(arrays.blocked_edge[:, k],
                                          sector_edge(panel.fov_blocked_halfwidth))
            assert arrays.n_elements[k] == panel.n_elements
            np.testing.assert_array_equal(arrays.elements[k, :panel.n_elements], panel.elements)
            assert not arrays.elements[k, panel.n_elements:].any()
            assert_matches_element_oracle(arrays, k, panel.elements)
        assert not arrays.saaf_s[0].any()  # one element has no aperture
        assert vehicle.arrays is arrays

    @settings(max_examples=100)
    @given(st.lists(centred_layouts(), min_size=1, max_size=3))
    def test_aperture_and_summed_offsets_match_the_element_oracle(self, layouts):
        vehicle = VehicleSpec(4.5, 1.8, [bare_panel(elements) for elements in layouts])
        for k, panel in enumerate(vehicle.panels):
            assert_matches_element_oracle(vehicle.arrays, k, panel.elements)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_vehicles_match_the_element_oracle(self, name):
        vehicle = preset_context(PRESETS[name]).rx_vehicle
        for k, panel in enumerate(vehicle.panels):
            assert_matches_element_oracle(vehicle.arrays, k, panel.elements)

    def test_replaced_vehicle_builds_its_own(self):
        vehicle = self.mixed_vehicle()
        arrays = vehicle.arrays
        wider = dataclasses.replace(vehicle, width=2.0)
        assert wider.arrays is not arrays and wider.arrays.width == 2.0
        fewer = dataclasses.replace(vehicle, panels=vehicle.panels[:2])
        assert list(fewer.arrays.n_elements) == [1, 2] and fewer.arrays.elements.shape == (2, 2)
        assert vehicle.arrays is arrays and arrays.width == 1.8
