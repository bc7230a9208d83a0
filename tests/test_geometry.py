"""Geometry: unit vectors, conformal panels, world states, links, visibility."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2vbounds.errors import InvalidCount, NoActiveLinks
from v2vbounds.geometry import (
    SPEED_OF_LIGHT,
    ArrayPanel,
    ElementOffset,
    Pose,
    Vec2,
    VehicleSpec,
    _crosses_body,
    active_links,
    build_conformal_panel,
    build_cornered_vehicle,
    los_mask,
    saaf_matrix,
    visibility,
    wrap_angle,
)
from v2vbounds.scenarios import build_scene

from conftest import open_panel, panels_with_links, small_scene
from reference import (
    PanelState,
    body,
    link_geometry,
    panel_world_state,
    reference_los_visible,
    reference_segment_crosses,
    rx_panel_state,
    tx_panel_state,
    unit_dir,
    unit_perp,
)

angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


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

    def test_element_offset_nonnegative(self):
        with pytest.raises(ValueError):
            ElementOffset(-0.1, 0.0)

    def test_panel_requires_centered_elements(self):
        with pytest.raises(ValueError):
            ArrayPanel(
                mount_distance=0.0,
                mount_angle=0.0,
                elements=(ElementOffset(0.1, 0.0),),
                fov_blocked_center=0.0,
                fov_blocked_halfwidth=0.0,
            )

    def test_vehicle_requires_positive_dims(self):
        with pytest.raises(ValueError):
            VehicleSpec(length=0.0, width=1.0, panels=(open_panel(),))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["length", "width"])
    def test_non_finite_vehicle_dims_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            VehicleSpec(**{"length": 4.5, "width": 1.8, field: value}, panels=(open_panel(),))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["mount_distance", "mount_angle", "fov_blocked_center"])
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

        panel = build_conformal_panel(4, lam, 1)
        assert panel.n_elements == 4
        for e, x, y in zip(panel.elements, xs, ys):
            ex = e.distance * math.cos(e.angle)
            ey = e.distance * math.sin(e.angle)
            assert abs(ex - (x - cx)) < 1e-12
            assert abs(ey - (y - cy)) < 1e-12

    def test_two_element_radius(self):
        lam = 1.0
        rho = 1.0 / (4.0 * math.sin(math.pi / 4.0))
        assert abs(rho - 0.35355339059327373) < 1e-15
        panel = build_conformal_panel(2, lam, 1)
        # Recentered two-element offsets are half the half-wavelength chord.
        for e in panel.elements:
            assert abs(e.distance - 0.25) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 9, 25])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_half_wavelength_spacing_and_centroid(self, n, k):
        lam = 0.0107
        panel = build_conformal_panel(n, lam, k)
        pts = [
            (e.distance * math.cos(e.angle), e.distance * math.sin(e.angle))
            for e in panel.elements
        ]
        cx = sum(p[0] for p in pts)
        cy = sum(p[1] for p in pts)
        assert math.hypot(cx, cy) < 1e-12
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            assert abs(math.hypot(x1 - x0, y1 - y0) - lam / 2.0) < 1e-12

    def test_single_element_at_centroid(self):
        panel = build_conformal_panel(1, 0.1, 1)
        assert panel.elements == (ElementOffset(0.0, 0.0),)

    def test_zero_elements_rejected(self):
        with pytest.raises(InvalidCount):
            build_conformal_panel(0, 0.1, 1)

    def test_blocked_sector_faces_body(self):
        # Panel 1 sits at the (+x, +y) corner; its blocked wedge is the
        # quadrant between the -x and -y edge directions.
        panel = build_conformal_panel(4, 0.1, 1)
        assert abs(panel.fov_blocked_center - (-3.0 * math.pi / 4.0)) < 1e-12
        assert panel.fov_blocked_halfwidth == math.pi / 4.0


class TestPanelWorldState:
    """The scalar oracle, pinned by hand values; TestCentroidsMatchPanelWorldState
    checks the package's VehicleArrays.centroids against it."""

    def _vehicle(self):
        return VehicleSpec(length=1.0, width=1.0, panels=(open_panel(1.0, 0.0),))

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
        centroids = vehicle.arrays.centroids(*pose.arrays())
        for k in range(len(vehicle.panels)):
            expected = panel_world_state(vehicle, pose, k).centroid.as_tuple()
            np.testing.assert_allclose(centroids[k], expected, rtol=0, atol=1e-12)


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
        centroid, sector = np.array([1.0, 1.0]), (0.0, 0.0)
        assert not los_mask(centroid, sector, centroid, sector)
        assert los_mask(centroid, sector, centroid + 1e-9, sector)

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
        tx_panel = open_panel(0.0, 0.0, blocked_center=0.0)
        rx_panel = open_panel(0.0, 0.0, blocked_center=math.pi)
        import dataclasses

        tx_panel = dataclasses.replace(tx_panel, fov_blocked_halfwidth=math.pi / 3)
        rx_panel = dataclasses.replace(rx_panel, fov_blocked_halfwidth=math.pi / 3)
        scene = small_scene(n_tx_panels=1, n_rx_panels=1, q=Vec2(100.0, 0.0),
                            alpha_t=0.0, alpha_r=0.0)
        scene = dataclasses.replace(
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
    return bool(_crosses_body(np.array(a.as_tuple()), np.array(b.as_tuple()), body(vehicle, pose)))


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
                    np.array(tx_state.centroid.as_tuple()),
                    (tx_state.blocked_center, tx_state.blocked_halfwidth),
                    np.array(rx_state.centroid.as_tuple()),
                    (rx_state.blocked_center, rx_state.blocked_halfwidth),
                    body(*tx_rect), body(*rx_rect),
                )
                assert bool(visible) == reference_los_visible(tx_state, rx_state, tx_rect, rx_rect)


class TestBuiltVehicle:
    def test_corner_mounts(self):
        vehicle = build_cornered_vehicle(4.5, 1.8, 4, 0.0857)
        corners = [(0.9, 2.25), (-0.9, 2.25), (-0.9, -2.25), (0.9, -2.25)]
        for panel, (cx, cy) in zip(vehicle.panels, corners):
            assert abs(panel.mount_distance * math.cos(panel.mount_angle) - cx) < 1e-12
            assert abs(panel.mount_distance * math.sin(panel.mount_angle) - cy) < 1e-12

    def test_element_offsets_sum_to_zero(self, preset_28):
        vehicle = build_cornered_vehicle(4.5, 1.8, 25, 0.0107)
        for panel in vehicle.panels:
            sx = sum(e.distance * math.cos(e.angle) for e in panel.elements)
            sy = sum(e.distance * math.sin(e.angle) for e in panel.elements)
            assert math.hypot(sx, sy) < 1e-12


class TestVehicleArrays:
    @staticmethod
    def mixed_vehicle() -> VehicleSpec:
        """Panels of 1, 2 and 3 elements at different mounts and sectors."""
        panels = (
            open_panel(mount_distance=1.0, mount_angle=0.3, n_elements=1),
            open_panel(mount_distance=2.0, mount_angle=-1.2, n_elements=2, blocked_center=0.5),
            build_conformal_panel(3, 0.0857, panel_index=3, mount_distance=1.5, mount_angle=2.5),
        )
        return VehicleSpec(length=4.5, width=1.8, panels=panels)

    def test_equal_to_arrays_built_from_the_panels(self):
        vehicle = self.mixed_vehicle()
        arrays = vehicle.arrays
        assert (arrays.length, arrays.width) == (4.5, 1.8)
        assert [p.n_elements for p in vehicle.panels] == [1, 2, 3]
        for k, panel in enumerate(vehicle.panels):
            assert arrays.mount_distance[k] == panel.mount_distance
            assert arrays.mount_angle[k] == panel.mount_angle
            assert arrays.blocked_center[k] == panel.fov_blocked_center
            assert arrays.blocked_halfwidth[k] == panel.fov_blocked_halfwidth
            assert arrays.n_elements[k] == panel.n_elements
            np.testing.assert_array_equal(arrays.saaf_s[k], saaf_matrix(panel))
            np.testing.assert_array_equal(
                arrays.elements[:, k],
                [[e.distance for e in panel.elements] + [0.0] * (3 - panel.n_elements),
                 [e.angle for e in panel.elements] + [0.0] * (3 - panel.n_elements)],
            )
            np.testing.assert_allclose(arrays.d_perp[k], [
                sum(e.distance * math.sin(e.angle) for e in panel.elements),
                -sum(e.distance * math.cos(e.angle) for e in panel.elements)], rtol=0, atol=1e-15)
        assert not arrays.saaf_s[0].any()  # one element has no aperture
        assert vehicle.arrays is arrays

    def test_replaced_vehicle_builds_its_own(self):
        vehicle = self.mixed_vehicle()
        arrays = vehicle.arrays
        wider = dataclasses.replace(vehicle, width=2.0)
        assert wider.arrays is not arrays and wider.arrays.width == 2.0
        fewer = dataclasses.replace(vehicle, panels=vehicle.panels[:2])
        assert list(fewer.arrays.n_elements) == [1, 2] and fewer.arrays.elements.shape == (2, 2, 2)
        assert vehicle.arrays is arrays and arrays.width == 1.8
