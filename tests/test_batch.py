"""The batched evaluator against the Scene-level path, on random presets.

``evaluate_points`` assembles every placement of a grid in one numpy pass;
the Scene path (``calibrated_scene`` -> ``active_links`` -> ``link_gains``
-> ``efim_*``) evaluates one placement from its objects. Both must give the
same links and the same bounds, including at grazing placements where the
bodies touch and panels coincide.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from v2vbounds.channel import link_gains
from v2vbounds.errors import NoActiveLinks
from v2vbounds.fim_closed import efim_aoa_only, efim_aoa_tdoa
from v2vbounds.geometry import Vec2, active_links, visibility, wrap_angle, wrap_angles
from v2vbounds.scenarios import (
    PRESETS,
    PresetConfig,
    _build_vehicle,
    calibrated_scene,
    evaluate_point,
    evaluate_points,
    preset_context,
)
from v2vbounds.waveform import effective_bandwidths

from conftest import NARROW, small_scene
from reference import (
    reference_calibrated_power, reference_los_visible, rx_panel_state, tx_panel_state,
)

BOUND_FIELDS = (
    "peb_lat_both", "peb_lon_both", "oeb_both", "peb_lat_aoa", "peb_lon_aoa", "oeb_aoa",
)
HEADINGS = st.one_of(
    st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2, -math.pi]),
    st.floats(-math.pi, math.pi),
)


@st.composite
def custom_presets(draw, halfwidths=st.none() | st.floats(0.0, 1.2)):
    return PresetConfig(
        name="custom",
        carrier_frequency=draw(st.floats(1e9, 80e9)),
        subcarrier_spacing=draw(st.floats(15e3, 480e3)),
        n_rx_elements=draw(st.sampled_from([1, 2, 3, 4, 9])),
        target_snr_db=draw(st.floats(0.0, 50.0)),
        # 1 leaves two of the four Tx arrays without subcarriers (beta = 0).
        max_occupied_index=draw(st.sampled_from([1, 2, 5, 30])),
        vehicle_length=draw(st.floats(3.0, 6.0)),
        vehicle_width=draw(st.floats(1.5, 2.5)),
        lane_width=draw(st.floats(2.6, 4.0)),
        fov_blocked_halfwidth=draw(halfwidths),
    )


@st.composite
def preset_and_placements(draw):
    preset = draw(custom_presets())
    try:
        preset_context(preset)
    except NoActiveLinks:
        assume(False)
    length, width = preset.vehicle_length, preset.vehicle_width
    grazing_x = st.sampled_from([-width, width, 0.0, -preset.lane_width])
    grazing_y = st.sampled_from([-length, length, 0.0])
    placement = st.tuples(
        st.one_of(grazing_x, st.floats(-40.0, 40.0)),
        st.one_of(grazing_y, st.floats(-40.0, 40.0)),
        HEADINGS,
    )
    return preset, draw(st.lists(placement, min_size=1, max_size=6))


def scene_path(preset, q_x, q_y, alpha_t):
    """(n_links, bounds by field) through the Scene-level API."""
    scene = calibrated_scene(preset, Vec2(q_x, q_y), alpha_t)
    try:
        links = active_links(scene)
    except NoActiveLinks:
        return 0, dict.fromkeys(BOUND_FIELDS, math.inf)
    gains = link_gains(scene, links)
    betas = effective_bandwidths(scene.allocation, scene.ofdm)
    both = efim_aoa_tdoa(scene, links, gains, betas)
    aoa = efim_aoa_only(scene, links, gains)
    return len(links), {
        "peb_lat_both": both.peb_lat, "peb_lon_both": both.peb_lon, "oeb_both": both.oeb,
        "peb_lat_aoa": aoa.peb_lat, "peb_lon_aoa": aoa.peb_lon, "oeb_aoa": aoa.oeb,
    }


def same_bound(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= 1e-9 * abs(b)


# The bodies touch and every beta is 0: both paths must read g from the same
# link_gd2 / d^2, or one-ulp weight differences move the bounds by 1e-8.
@example((PresetConfig(name="custom", carrier_frequency=1e9, subcarrier_spacing=15e3,
                       n_rx_elements=2, target_snr_db=0.0, max_occupied_index=1,
                       vehicle_length=3.0, vehicle_width=1.5, lane_width=3.0),
          [(0.0, -3.0, 0.01)]))
@settings(max_examples=60, deadline=None)
@given(preset_and_placements())
def test_batched_rows_equal_scene_path(case):
    preset, placements = case
    rows = evaluate_points(
        preset, [(x, y) for x, y, _ in placements], np.array([a for _, _, a in placements])
    )
    for row, (x, y, alpha_t) in zip(rows, placements):
        n_links, bounds = scene_path(preset, x, y, alpha_t)
        assert (row.q_x, row.q_y) == (x, y)
        assert row.n_links == n_links
        for name in BOUND_FIELDS:
            got = getattr(row, name)
            assert same_bound(got, bounds[name]), (name, got, bounds[name])
        if preset.n_rx_elements == 1:
            # Single-element panels carry no angle information.
            assert math.isinf(row.peb_lat_aoa) and math.isinf(row.oeb_aoa)


@settings(max_examples=60, deadline=None)
@given(preset_and_placements())
def test_visibility_mask_equals_los_visible(case):
    preset, placements = case
    ctx = preset_context(preset)
    n = len(placements)
    q = np.array([(x, y) for x, y, _ in placements])
    # Wrapped like Pose wraps a heading, as evaluate_points does.
    heading = wrap_angles(np.array([a for _, _, a in placements]))
    _, _, mask = visibility(ctx.tx_vehicle.arrays, (np.zeros((n, 2)), heading),
                            ctx.rx_vehicle.arrays, (q, np.zeros(n)))
    for i, (x, y, alpha_t) in enumerate(placements):
        scene = calibrated_scene(preset, Vec2(x, y), alpha_t)
        bodies = (scene.tx_vehicle, scene.tx_pose), (scene.rx_vehicle, scene.rx_pose)
        for t in range(len(scene.tx_vehicle.panels)):
            for r in range(len(scene.rx_vehicle.panels)):
                expected = reference_los_visible(
                    tx_panel_state(scene, t), rx_panel_state(scene, r), *bodies)
                assert bool(mask[i, t, r]) == expected, (i, t, r)


@settings(max_examples=100, deadline=None)
@given(custom_presets(st.floats(0.0, math.pi) | st.sampled_from([math.pi / 4, math.pi])),
       st.lists(st.tuples(st.floats(-12.0, 12.0), st.floats(-12.0, 12.0), HEADINGS, HEADINGS),
                min_size=1, max_size=6))
def test_skipped_body_test_changes_no_link(preset, placements):
    # With the flag set, visibility leaves out the Liang-Barsky body test;
    # the same arrays with the flag cleared run the full los_mask.
    arrays = _build_vehicle(preset).arrays
    halfwidth = preset.fov_blocked_halfwidth
    if halfwidth >= math.pi / 4 or halfwidth < math.pi / 4 - 1e-11:
        assert arrays.sectors_imply_body == (halfwidth >= math.pi / 4)
    full = dataclasses.replace(arrays, sectors_imply_body=False)
    x, y, alpha_t, alpha_r = np.array(placements).T
    poses = ((np.zeros((len(x), 2)), wrap_angles(alpha_t)),
             (np.column_stack((x, y)), wrap_angles(alpha_r)))
    np.testing.assert_array_equal(visibility(arrays, poses[0], arrays, poses[1])[2],
                                  visibility(full, poses[0], full, poses[1])[2])


@pytest.mark.parametrize("vehicle, flag", [
    (_build_vehicle(PRESETS["cfg_3p5GHz"]), True),
    (_build_vehicle(PRESETS["cfg_28GHz"]), True),
    (_build_vehicle(NARROW), True),
    (_build_vehicle(dataclasses.replace(PRESETS["cfg_3p5GHz"], fov_blocked_halfwidth=0.78)), False),
    (dataclasses.replace(_build_vehicle(PRESETS["cfg_3p5GHz"]), length=5.0), False),
    (small_scene().tx_vehicle, False),
    (small_scene(n_rx_panels=4).rx_vehicle, False),
], ids=["cfg_3p5GHz", "cfg_28GHz", "narrow", "halfwidth_0.78", "longer_body", "off_corner_2",
        "off_corner_4"])
def test_sectors_imply_body_flag(vehicle, flag):
    assert vehicle.arrays.sectors_imply_body is flag


@st.composite
def preset_and_mirrored_placements(draw):
    preset = draw(custom_presets())
    try:
        preset_context(preset)
    except NoActiveLinks:
        assume(False)
    # Drawn from the float ranges only: a link on a sector edge, which the
    # grazing sample points produce, can flip at one ulp under the mirror.
    placement = st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0),
                          st.floats(-math.pi, math.pi))
    return preset, draw(st.lists(placement, min_size=1, max_size=6))


# Overlapping bodies, all betas 0, 8 links: the position block's eigenvalue
# ratio is 3e-31 (J_yy is the rounding residue of sin(+-pi)), so both mirrors
# are rank-deficient: inf, where rounding alone would decide finite bounds.
@example((PresetConfig(name="custom", carrier_frequency=1e9, subcarrier_spacing=15e3,
                       n_rx_elements=2, target_snr_db=0.0, max_occupied_index=1,
                       vehicle_length=3.0, vehicle_width=2.0, lane_width=3.0,
                       fov_blocked_halfwidth=0.0), [(0.0, 1.0, math.pi)]))
@settings(max_examples=60, deadline=None)
@given(preset_and_mirrored_placements())
def test_mirror_invariance(case):
    # Both vehicles are symmetric about their axes, so mirroring the scene
    # across the Tx vehicle's axes, (q_x, q_y, alpha_T) -> (q_x, -q_y,
    # -alpha_T) or (-q_x, q_y, -alpha_T), keeps every link count and bound.
    preset, placements = case
    x, y, alpha_t = np.array(placements).T
    rows = [evaluate_points(preset, np.column_stack((sx * x, sy * y)), sa * alpha_t)
            for sx, sy, sa in ((1, 1, 1), (1, -1, -1), (-1, 1, -1))]
    # A mirror swaps Tx arrays, and the interleaved allocation gives them
    # different subcarrier sets: the AOA+TDOA bounds are mirror-invariant only
    # where their effective bandwidths agree (not at max_occupied_index 5).
    betas = preset_context(preset).betas
    fields = BOUND_FIELDS if np.ptp(betas) <= 1e-12 * betas.max() else BOUND_FIELDS[3:]
    for row, *mirrors in zip(*rows):
        for mirror in mirrors:
            assert mirror.n_links == row.n_links
            for name in fields:
                got, expected = getattr(mirror, name), getattr(row, name)
                assert math.isinf(got) == math.isinf(expected), (name, got, expected)
                if not math.isinf(expected):
                    assert abs(got - expected) <= 1e-6 * abs(expected), (name, got, expected)


@given(st.floats(-1e6, 1e6) | st.sampled_from([math.pi, -math.pi, math.tau, -0.0, 3 * math.pi]))
def test_wrap_angles_equals_wrap_angle_bitwise(angle):
    wrapped = float(wrap_angles(np.array([angle]))[0])
    expected = wrap_angle(angle)
    assert wrapped == expected
    assert math.copysign(1.0, wrapped) == math.copysign(1.0, expected)


def test_evaluate_point_is_one_row_of_the_batch():
    preset = PRESETS["cfg_28GHz"]
    placements = [(-3.5, 12.0, 0.3), (0.0, -9.0, -2.0), (4.0, 4.5, math.pi)]
    q = [(x, y) for x, y, _ in placements]
    rows = evaluate_points(preset, q, [a for _, _, a in placements])
    for row, (x, y, alpha_t) in zip(rows, placements):
        assert evaluate_point(preset, Vec2(x, y), alpha_t) == row


def test_non_finite_placements_rejected():
    preset = PRESETS["cfg_3p5GHz"]
    with pytest.raises(ValueError):
        evaluate_points(preset, [(-3.5, 1.0), (math.nan, 2.0)])
    with pytest.raises(ValueError):
        evaluate_point(preset, Vec2(-3.5, 1.0), alpha_t=math.inf)


@example(PRESETS["cfg_3p5GHz"])
@example(PRESETS["cfg_28GHz"])
@settings(max_examples=60, deadline=None)
@given(custom_presets(st.none() | st.floats(0.0, math.pi)))
def test_calibration_equals_scalar_oracle(preset):
    # The calibration reads the preset's visible links as arrays; the oracle
    # walks the panel pairs one at a time from the scalar objects.
    try:
        expected = reference_calibrated_power(preset)
    except NoActiveLinks:
        with pytest.raises(NoActiveLinks):
            preset_context(preset)
        return
    power = preset_context(preset).ofdm.total_power
    assert abs(power - expected) <= 1e-12 * expected


def test_scenes_share_the_preset_context():
    preset = PRESETS["cfg_3p5GHz"]
    ctx = preset_context(preset)
    scene = calibrated_scene(preset, Vec2(-3.5, 7.0), 0.2)
    assert scene.tx_vehicle is ctx.tx_vehicle and scene.rx_vehicle is ctx.rx_vehicle
    assert scene.allocation is ctx.allocation and scene.ofdm is ctx.ofdm
    assert scene.tx_vehicle.arrays is ctx.tx_vehicle.arrays
    assert preset_context(preset) is ctx
