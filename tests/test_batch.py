"""The batched evaluator against the Scene-level path, on random presets.

``bound_table`` assembles every placement of a grid in one numpy pass;
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
from hypothesis.extra.numpy import arrays

from v2vbounds.channel import link_gains
from v2vbounds.errors import NoActiveLinks
from v2vbounds.fim_closed import MEASUREMENTS, bound_arrays, efim_aoa_only, efim_aoa_tdoa
from v2vbounds.fim_general import (
    channel_fims, channel_fims_fd, fim_channel, placement_links, placement_schur_efims, schur_efims,
    transform_matrices, transform_matrix,
)
from v2vbounds.geometry import (
    SPEED_OF_LIGHT, Vec2, active_links, panel_pairs, visibility, wrap_angle, wrap_angles,
)
from v2vbounds.scenarios import (
    PRESETS,
    PresetConfig,
    _build_vehicle,
    bound_table,
    build_scene,
    calibrated_scene,
    evaluate_point,
    placement_efims,
    placement_poses,
    preset_context,
)
from v2vbounds.selfcheck import (
    ANALYTIC_VS_FD_TOL, CLOSED_VS_SCHUR_TOL, REFERENCE_INVARIANCE_TOL, equilibrated_frobenius,
    relative_frobenius,
)
from v2vbounds.waveform import effective_bandwidths

from conftest import NARROW, small_scene, sweep_rows
from reference import (
    delay_difference_fims, delay_difference_transforms, dense_arrow, dense_link_efims, exact_efims,
    link_offsets, link_order, padded_jacobians, padded_schur_efims, reference_calibrated_power,
    reference_centroids, reference_los_visible, reference_schur_efims, rx_panel_state,
    tx_panel_state,
)

BOUND_FIELDS = (
    "peb_lat_both", "peb_lon_both", "oeb_both", "peb_lat_aoa", "peb_lon_aoa", "oeb_aoa",
)
HEADINGS = st.one_of(
    st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2, -math.pi]),
    st.floats(-math.pi, math.pi),
)


@st.composite
def custom_presets(draw, halfwidths=st.just(math.pi / 4) | st.floats(0.0, 1.2)):
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
def preset_and_placements(draw, presets=custom_presets()):
    preset = draw(presets)
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
    """(n_links, bounds by field) through the Scene-level API; n_links counts
    the active links whose Tx array has subcarriers."""
    scene = calibrated_scene(preset, Vec2(q_x, q_y), alpha_t)
    try:
        links = active_links(scene)
    except NoActiveLinks:
        return 0, dict.fromkeys(BOUND_FIELDS, math.inf)
    gains = link_gains(scene, links)
    betas = effective_bandwidths(scene.allocation, scene.context.ofdm)
    both = efim_aoa_tdoa(scene, links, gains, betas)
    aoa = efim_aoa_only(scene, links, gains)
    sending = sum(1 for link in links if scene.allocation.per_array_sets[link.tx_panel])
    return sending, {
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
    rows = sweep_rows(
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


@st.composite
def touching_placements(draw):
    """preset_and_placements plus placements where the bodies touch or
    nearly do: q_x on {-W, 0, W}, q_y within 1e-6 m of {-L, 0, L}, the Tx
    heading 0, pi/2 or pi."""
    preset, placements = draw(preset_and_placements())
    width, length = preset.vehicle_width, preset.vehicle_length
    touching = st.tuples(st.sampled_from([-width, 0.0, width]),
                         st.sampled_from([-length, 0.0, length]), st.floats(-1e-6, 1e-6),
                         st.sampled_from([0.0, math.pi / 2, math.pi]))
    extra = draw(st.lists(touching, max_size=6))
    return preset, placements + [(x, y + dy, alpha_t) for x, y, dy, alpha_t in extra]


# Links about 1e-7 m long along the side the bodies share, the Tx turned by
# pi: exactly on a blocked-sector edge. The centroids' difference rounded
# both off the edge to the open side (each was a visible link); the pair
# offsets, which the mask and the oracle read, put the first on the edge and
# the second on the blocked side.
@example((PresetConfig(name="custom", carrier_frequency=1e9, subcarrier_spacing=15e3,
                       n_rx_elements=1, target_snr_db=0.0, max_occupied_index=1,
                       vehicle_length=3.0, vehicle_width=1.75, lane_width=3.0),
          [(-1.75, 5.960464477539063e-08, math.pi)]))
@example((PresetConfig(name="custom", carrier_frequency=1e9, subcarrier_spacing=15e3,
                       n_rx_elements=1, target_snr_db=0.0, max_occupied_index=4,
                       vehicle_length=4.952407520894315, vehicle_width=0.8551278704498921,
                       lane_width=3.0),
          [(-0.8551278704498921, -1.1096734120117572e-07, math.pi)]))
@settings(max_examples=60, deadline=None)
@given(touching_placements())
def test_visibility_mask_equals_los_visible(case):
    # The oracle reads each pair's direction from the reference offsets, the
    # ones all link geometry reads, and tests sectors by angle.
    preset, placements = case
    ctx = preset_context(preset)
    x, y, alpha_t = np.array(placements).T
    poses = placement_poses(np.column_stack((x, y)), alpha_t)
    tx, rx = ctx.tx_vehicle.arrays, ctx.rx_vehicle.arrays
    mask = visibility(ctx.pairs, *poses)[2]
    pairs = np.indices(mask.shape[1:]).reshape(2, -1)
    offsets = link_offsets(tx, poses[0], rx, poses[1], *pairs).reshape(mask.shape)
    for i, (x, y, alpha_t) in enumerate(placements):
        scene = calibrated_scene(preset, Vec2(x, y), alpha_t)
        bodies = (scene.tx_vehicle, scene.tx_pose), (scene.rx_vehicle, scene.rx_pose)
        for t in range(len(scene.tx_vehicle.panels)):
            for r in range(len(scene.rx_vehicle.panels)):
                expected = reference_los_visible(
                    tx_panel_state(scene, t), rx_panel_state(scene, r), *bodies,
                    Vec2(offsets[i, t, r].real, offsets[i, t, r].imag))
                assert bool(mask[i, t, r]) == expected, (i, t, r)


# Halfwidths below pi/4 run the body test, which the default presets skip.
@settings(max_examples=40, deadline=None)
@given(preset_and_placements(custom_presets(st.floats(0.0, 1.2) | st.sampled_from(
    [math.pi / 4 - 1e-3, math.pi / 4, math.pi / 4 + 1e-3]))))
def test_pair_offsets_and_efims_equal_the_dense_link_block(case):
    # visibility forms each pair's offset once; placement_efims reads its
    # links from those offsets, bit for bit as from the mounts per link. The
    # offsets are the centroids' differences up to the centroids' rounding.
    preset, placements = case
    ctx = preset_context(preset)
    x, y, alpha_t = np.array(placements).T
    poses = placement_poses(np.column_stack((x, y)), alpha_t)
    tx, rx = ctx.tx_vehicle.arrays, ctx.rx_vehicle.arrays
    offset = visibility(ctx.pairs, *poses)[1]
    t, r = (i.ravel() for i in np.indices(offset.shape[1:3]))
    expected = link_offsets(tx, poses[0], rx, poses[1], t, r)
    assert np.array_equal(offset.reshape(len(x), -1), expected)
    centroids = (reference_centroids(ctx.rx_vehicle, *poses[1])[..., None, :, :]
                 - reference_centroids(ctx.tx_vehicle, *poses[0])[..., :, None, :])
    scale = np.abs(poses[1][0]).max() + np.abs(tx.mount).max() + np.abs(rx.mount).max()
    offset = np.stack((offset.real, offset.imag), axis=-1)
    assert np.abs(offset - centroids).max() <= 8 * np.finfo(float).eps * scale
    assert np.array_equal(placement_efims(ctx, *poses)[3], dense_link_efims(ctx, *poses))


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
    np.testing.assert_array_equal(visibility(panel_pairs(arrays, arrays), *poses)[2],
                                  visibility(panel_pairs(full, full), *poses)[2])


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
def preset_and_float_placements(draw, presets=custom_presets()):
    preset = draw(presets)
    try:
        preset_context(preset)
    except NoActiveLinks:
        assume(False)
    # Drawn from the float ranges only: a link on a sector edge, which the
    # grazing sample points produce, can flip at one ulp under the mirror.
    # Headings lie strictly inside (-pi, pi): -pi wraps to pi, and a rotation
    # by pi is off by sin(pi) = 1.2e-16 rad in the same sense for both, so
    # +-pi has no exact mirror (at q = (0, 3.3e-7), alpha_T = pi, one link
    # is that close to a sector edge: 1 link, 2 under the q_y mirror).
    placement = st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0),
                          st.floats(-math.pi, math.pi, exclude_min=True, exclude_max=True))
    return preset, draw(st.lists(placement, min_size=1, max_size=6))


# Coincident bodies, headings 6.1e-5 and 1e-8 rad apart: each corner's link
# to its twin is 1.1e-4 and 1.8e-8 m long. Taken as a difference of
# centroids, its direction lost four and eight digits, and the mirrors'
# lateral bounds differed by 2.6e-5, their longitudinal ones by 8%.
@example((PresetConfig(name="custom", carrier_frequency=1e9, subcarrier_spacing=15e3,
                       n_rx_elements=2, target_snr_db=0.0, max_occupied_index=1,
                       vehicle_length=3.0, vehicle_width=2.0, lane_width=3.0),
          [(0.0, 0.0, 6.103515625e-05)]))
@example((PresetConfig(name="custom", carrier_frequency=1e9, subcarrier_spacing=15e3,
                       n_rx_elements=2, target_snr_db=0.0, max_occupied_index=2,
                       vehicle_length=3.0, vehicle_width=2.0, lane_width=3.0),
          [(0.0, 3.688350505142678e-16, 1e-8)]))
# Overlapping bodies, all betas 0, 8 links: the position block's eigenvalue
# ratio is 3e-31 (J_yy is the rounding residue of sin(+-pi)), so both mirrors
# are rank-deficient: inf, where rounding alone would decide finite bounds.
@example((PresetConfig(name="custom", carrier_frequency=1e9, subcarrier_spacing=15e3,
                       n_rx_elements=2, target_snr_db=0.0, max_occupied_index=1,
                       vehicle_length=3.0, vehicle_width=2.0, lane_width=3.0,
                       fov_blocked_halfwidth=0.0), [(0.0, 1.0, math.pi)]))
@settings(max_examples=60, deadline=None)
@given(preset_and_float_placements())
def test_mirror_invariance(case):
    # Both vehicles are symmetric about their axes, so mirroring the scene
    # across the Tx vehicle's axes, (q_x, q_y, alpha_T) -> (q_x, -q_y,
    # -alpha_T) or (-q_x, q_y, -alpha_T), keeps every link count and bound.
    preset, placements = case
    x, y, alpha_t = np.array(placements).T
    # Each mirror with the Tx panels it swaps (corners 1-4 are panels 0-3).
    mirrors = (((1, -1, -1), [3, 2, 1, 0]), ((-1, 1, -1), [1, 0, 3, 2]))
    rows = sweep_rows(preset, np.column_stack((x, y)), alpha_t)
    ctx = preset_context(preset)
    power, betas = np.array(ctx.allocation.array_power_fractions), ctx.betas
    for (sx, sy, sa), swap in mirrors:
        # A mirror swaps Tx arrays, and the interleaved allocation gives them
        # different subcarrier sets: the bounds are mirror-invariant only
        # where it maps every array to one of equal power (not at
        # max_occupied_index 1 under the q_y mirror, which swaps the two
        # sending front arrays for the silent rear ones), and the AOA+TDOA
        # bounds only where their effective bandwidths agree too (not at
        # max_occupied_index 5). The link counts only where it maps sending
        # arrays to sending ones.
        same_beta = np.abs(betas[swap] - betas).max() <= 1e-12 * betas.max()
        fields = BOUND_FIELDS if same_beta else BOUND_FIELDS[3:]
        if not np.array_equal(power[swap], power):
            fields = ()
        same_senders = np.array_equal(power[swap] > 0.0, power > 0.0)
        mirrored = sweep_rows(preset, np.column_stack((sx * x, sy * y)), sa * alpha_t)
        for row, mirror in zip(rows, mirrored):
            assert mirror.n_links == row.n_links or not same_senders
            for name in fields:
                got, expected = getattr(mirror, name), getattr(row, name)
                assert math.isinf(got) == math.isinf(expected), (name, got, expected)
                if not math.isinf(expected):
                    assert abs(got - expected) <= 1e-6 * abs(expected), (name, got, expected)


# One to eight subcarriers per side: silent Tx arrays and arrays with one or
# two subcarriers, whose delays turn the phases their gains turn too, so the
# Schur path's nuisance block is singular. In the example one delay
# difference leaves AOA+TDOA rank 1, with 1e-12 of the 1e-6 of information
# there was before the nuisance parameters went: ranked against the
# complement alone, or entry by entry, the Schur residue read as rank 3
# (peb_lat 5.3e10 m). The placements come from the float ranges: the grazing
# sample points can stack the vehicles with every link arriving endfire,
# where 1e-13 of information meets 1e-16 of rounding residue and the paths'
# bounds differ in the third digit (2.2e6 m at q = (0, 1e-7), alpha_T = pi/2,
# two elements). In the second example (7 links at 19 m, AOA+TDOA only from
# delays) and the third (coincident bodies) the EFIM keeps 8e-11 and 9e-12
# of the links' uncentred information: ranked against that, not against the
# information with the delays centred on their weighted mean, as the closed
# form takes it, the Schur path read rank 2 where the closed form reads 3.
@example((PresetConfig(name="custom", carrier_frequency=1e9, subcarrier_spacing=15e3,
                       n_rx_elements=1, target_snr_db=0.0, max_occupied_index=3,
                       vehicle_length=4.25, vehicle_width=1.5, lane_width=3.0),
          [(2.875, 0.0, 2.5)]))
@example((PresetConfig(name="custom", carrier_frequency=1e9, subcarrier_spacing=15e3,
                       n_rx_elements=1, target_snr_db=0.0, max_occupied_index=3,
                       vehicle_length=3.0, vehicle_width=1.5, lane_width=3.0),
          [(-19.0, 0.0, 3.0)]))
@example((PresetConfig(name="custom", carrier_frequency=1e9, subcarrier_spacing=15e3,
                       n_rx_elements=1, target_snr_db=0.0, max_occupied_index=5,
                       vehicle_length=3.0, vehicle_width=2.0, lane_width=3.0),
          [(0.0, 0.0, 2.25e-6)]))
@settings(max_examples=40, deadline=None)
@given(preset_and_float_placements(st.builds(dataclasses.replace, custom_presets(),
                                             max_occupied_index=st.integers(1, 8))))
def test_general_path_equals_closed_form_at_few_subcarriers(case):
    # Per link-count group and measurement set, the bounds are inf on both
    # paths or finite on both, and finite ones come from equal EFIMs. Below
    # full rank the missing directions hold each path's rounding residue
    # (exactly endfire arrivals leave 1e-16 of angle information), which no
    # relative error compares.
    preset, placements = case
    ctx = preset_context(preset)
    x, y, alpha_t = np.array(placements).T
    tx_pose, rx_pose = placement_poses(np.column_stack((x, y)), alpha_t)
    tx_c, offset, visible, j = placement_efims(ctx, tx_pose, rx_pose)
    n_links = visible.sum(axis=(1, 2))
    for count in set(n_links.tolist()) - {0}:
        group = np.flatnonzero(n_links == count)
        inputs = tx_c[group], offset[group], visible[group], rx_pose[1][group]
        j_po = placement_schur_efims(ctx, *inputs)
        closed, schur = bound_arrays(j[:, group])[2], bound_arrays(j_po)[2]
        np.testing.assert_array_equal(np.isinf(closed), np.isinf(schur))
        error = relative_frobenius(j[:, group], j_po)[np.isfinite(closed).all(axis=-1)]
        assert (error < CLOSED_VS_SCHUR_TOL).all(), error
        # The analytic channel FIMs equal their FD twin, equilibrated. Not on
        # two-element panels, whose angle derivative vanishes at endfire: the
        # FD steps cannot resolve it near there (error 1.6e-7 two mrad off),
        # and exactly there the analytic diagonal is a 1e-16 residue where
        # the FD one is 0 (error 0.2).
        if preset.n_rx_elements != 2:
            t, r, _, _, distance, angle, h = placement_links(ctx, *inputs)
            fd = channel_fims_fd(ctx, t, r, distance / SPEED_OF_LIGHT, angle, h)
            error = equilibrated_frobenius(channel_fims(ctx, t, r, angle, h), fd)
            assert (error < ANALYTIC_VS_FD_TOL).all(), error


def schur_cases(case):
    """A drawn case's placements through placement_links, one stack padded to
    the largest link count (None without a link): the link context and the
    stacks."""
    preset, placements = case
    ctx = preset_context(preset)
    x, y, alpha_t = np.array(placements).T
    tx_pose, rx_pose = placement_poses(np.column_stack((x, y)), alpha_t)
    tx_c, offset, visible, _ = visibility(ctx.pairs, tx_pose, rx_pose)
    if not visible.any():
        return None
    return ctx, placement_links(ctx, tx_c, offset, visible, rx_pose[1])


def a_units_error(j_po, expected, blocks, jacobians, measurement):
    """Frobenius distance of EFIM stacks of one measurement set in the units
    where A, every link's own uncentred information on [q_x, q_y, alpha_T]
    in that set, has a unit diagonal: the scale of the dense oracles'
    rounding. Where the EFIM keeps little of A, that rounding is a larger
    part of the EFIM itself."""
    geometric = padded_jacobians(jacobians, measurement)[..., :3, :]
    diag = (geometric @ blocks @ geometric.swapaxes(-1, -2)).sum(axis=1).diagonal(0, -2, -1)
    scale = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))
    return np.linalg.norm((j_po - expected) * scale[:, :, None] * scale[:, None, :], axis=(-2, -1))


# At the first example, the n_rx 1 / max_occupied_index 3 placement of the
# property above, both kernels give rank 1. At the other two, near-coincident
# bodies with one Rx element and a tiny Tx heading, the dense oracle's
# AOA+TDOA EFIM is 8.5e-8 and 1.1e-8 off in A's units, the kernel's 9.7e-17
# and 6.1e-26 from the exact EFIM.
@example((PresetConfig(name="custom", carrier_frequency=1e9, subcarrier_spacing=15e3,
                       n_rx_elements=1, target_snr_db=0.0, max_occupied_index=3,
                       vehicle_length=4.25, vehicle_width=1.5, lane_width=3.0),
          [(2.875, 0.0, 2.5)]))
@example((PresetConfig(name="custom", carrier_frequency=1e9, subcarrier_spacing=15e3,
                       n_rx_elements=1, target_snr_db=0.0, max_occupied_index=3,
                       vehicle_length=4.25, vehicle_width=1.5, lane_width=3.0,
                       fov_blocked_halfwidth=0.0), [(1e-7, 0.0, 3.946415965842079e-170)]))
@example((PresetConfig(name="custom", carrier_frequency=1e9, subcarrier_spacing=15e3,
                       n_rx_elements=1, target_snr_db=0.0, max_occupied_index=3,
                       vehicle_length=4.25, vehicle_width=1.5, lane_width=3.0,
                       fov_blocked_halfwidth=0.0), [(0.0, 1e-7, 3.946415965842079e-170)]))
@settings(max_examples=40, deadline=None)
@given(preset_and_float_placements(st.builds(dataclasses.replace, custom_presets(),
                                             max_occupied_index=st.integers(1, 8))))
def test_schur_efims_equal_the_whole_nuisance_pseudo_inverse(case):
    # The per-link elimination over one stack of every placement, padded to
    # the largest link count, against one eigh of each whole nuisance block
    # of the same parameters made dense: equal ranks, and EFIMs equal to
    # rounding in A's units. Where the two differ by more, the dense oracle
    # is the side that is off: the kernel is within 1e-15 of the exact EFIM.
    stacks = schur_cases(case)
    assume(stacks is not None)
    ctx, (t, r, v_tau, v_theta, distance, angle, h) = stacks
    blocks = channel_fims(ctx, t, r, angle, h)
    jacobians = transform_matrices(v_tau, v_theta, distance)
    for measurement, j_po in zip(MEASUREMENTS, schur_efims(blocks, jacobians)):
        expected = reference_schur_efims(*dense_arrow(blocks, jacobians, measurement))
        np.testing.assert_array_equal(bound_arrays(j_po)[1], bound_arrays(expected)[1])
        error = a_units_error(j_po, expected, blocks, jacobians, measurement)
        off = error >= 1e-12
        exact = exact_efims(blocks[off], jacobians[off], measurement)
        exact_error = a_units_error(j_po[off], exact, blocks[off], jacobians[off], measurement)
        assert (exact_error < 1e-15).all(), (measurement, error.max(), exact_error)


def with_silent_link(links):
    """placement_links' stacks (n, L) with one more silent link (h = 0, unit
    distance) on the first link's panels, directions and arrival angle."""
    silent = [x[:, :1] for x in links]
    silent[4], silent[6] = np.ones_like(silent[4]), np.zeros_like(silent[6])
    return [np.concatenate(pair, axis=1) for pair in zip(links, silent)]


# Near-coincident bodies with one Rx element and a tiny Tx heading: the two
# kernels agree, where the whole-nuisance dense oracle is 8.5e-8 off in A's
# units.
@example((PresetConfig(name="custom", carrier_frequency=1e9, subcarrier_spacing=15e3,
                       n_rx_elements=1, target_snr_db=0.0, max_occupied_index=3,
                       vehicle_length=4.25, vehicle_width=1.5, lane_width=3.0,
                       fov_blocked_halfwidth=0.0), [(1e-7, 0.0, 3.946415965842079e-170)]))
@example((PresetConfig(name="custom", carrier_frequency=1e9, subcarrier_spacing=15e3,
                       n_rx_elements=1, target_snr_db=0.0, max_occupied_index=3,
                       vehicle_length=4.25, vehicle_width=1.5, lane_width=3.0,
                       fov_blocked_halfwidth=0.0), [(0.0, 1e-7, 3.946415965842079e-170)]))
@settings(max_examples=40, deadline=None)
@given(preset_and_float_placements(st.builds(dataclasses.replace, custom_presets(),
                                             n_rx_elements=st.sampled_from([1, 2]),
                                             max_occupied_index=st.integers(1, 8))))
def test_schur_efims_equal_the_padded_kernel(case):
    # Each link's nuisance parameters eliminated on their own sub-block
    # against the padded form, which pivots the kept parameters in one 4 x 4
    # eigh per link: equal ranks and EFIMs equal to rounding in A's units, on
    # one stack of every placement with one more silent link, which changes
    # no bit. One and two Rx elements leave the angle with little or no
    # information, and one to eight subcarriers the nuisance block singular.
    stacks = schur_cases(case)
    assume(stacks is not None)
    ctx, links = stacks
    j_po = []
    for t, r, v_tau, v_theta, distance, angle, h in (links, with_silent_link(links)):
        blocks = channel_fims(ctx, t, r, angle, h)
        jacobians = transform_matrices(v_tau, v_theta, distance)
        j_po.append(schur_efims(blocks, jacobians))
    np.testing.assert_array_equal(j_po[0], j_po[1])
    for measurement, efims in zip(MEASUREMENTS, j_po[1]):
        expected = padded_schur_efims(blocks, jacobians, measurement)
        np.testing.assert_array_equal(bound_arrays(efims)[1], bound_arrays(expected)[1])
        error = a_units_error(efims, expected, blocks, jacobians, measurement)
        assert (error < 1e-12).all(), (measurement, error.max())


@st.composite
def coupled_factors(draw):
    """Factors G (n, L, 4, 4) of channel FIMs G G^T, integers with each
    parameter scaled by a power of ten, so the delay and angle couple to each
    other and to the gains as the model's never do; some with the delay row
    in the span of the gain rows. With the (n, L, 4, 2) Jacobians of integer
    geometry and the offset's 1 in the delay column."""
    n, n_links = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    factors = draw(arrays(float, (n, n_links, 4, 4), elements=st.integers(-3, 3)))
    if draw(st.booleans()):
        mix = draw(arrays(float, (n, n_links, 1, 2), elements=st.integers(-2, 2)))
        factors[..., :1, :] = mix @ factors[..., 2:, :]
    factors *= 10.0 ** draw(arrays(float, (n_links, 4, 1), elements=st.integers(-3, 3)))
    jacobians = np.zeros((n, n_links, 4, 2))
    jacobians[..., :3, :] = draw(arrays(float, (n, n_links, 3, 2), elements=st.integers(-3, 3)))
    jacobians[..., 3, 0] = 1.0
    return factors, jacobians


# Two links, the first's delay row twice its first gain row minus its second.
# In the second, link 0's delay keeps 7.5e-5 of information once its gains go
# and link 1's none, while link 1 held 4e6 before: below RANK_EPS of that, the
# offset's remaining information is taken as residue and left uncentred, as
# the padded form leaves it. Centred on it (the offset rule at > 0), the
# kernel read AOA+TDOA rank 0 against the padded form's 1, 0.25 apart in A's
# units. The exact EFIM there is 0 (reference.exact_efims): the example pins
# the kernel's offset rule to the padded form's, not to exact arithmetic.
# In the third, one link with silent gains and its angle row a tenth of its
# delay row, the offset takes all of q's information: the delays' centred
# information is 7.9e-31 of rounding (the mean 1.1 is inexact). Ranked in
# those units, without the floor at RANK_EPS of the uncentred 121, that
# residue read as AOA+TDOA rank 1 where the padded form and the exact EFIM
# read 0.
@example((np.array([[[[2, 1, 4, -1], [1, 0, 2, 3], [1, 0, 1, 0], [0, -1, -2, 1]],
                     [[1, 2, 0, 1], [3, 1, -1, 0], [0, 1, 1, 2], [2, 0, 1, -1]]]], dtype=float),
          np.array([[[[1, 2], [0, -1], [3, 1], [1, 0]], [[-2, 1], [1, 1], [0, 2], [1, 0]]]],
                   dtype=float)))
@example((np.array([[[[0.0, 1e-2, 1e-2, 1e-2]] + [[1e3] * 4] * 3, [[1e3] * 4] * 4]]),
          np.array([[[[1, 0], [0, 0], [0, 0], [1, 0]], [[0, 0], [0, 0], [0, 0], [1, 0]]]],
                   dtype=float)))
@example((np.array([[[[10.0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]]]),
          np.array([[[[1.0, 1], [1, 1], [1, 1], [1, 0]]]])))
@settings(max_examples=60, deadline=None)
@given(coupled_factors())
def test_schur_efims_eliminate_a_coupled_delay_as_the_whole_nuisance_block(case):
    # The model's angle decouples from its delay and gains, so its blocks
    # subtract an exact zero when the kernel drops each link's delay after
    # its gains for AOA-only. On coupled blocks the two steps equal one
    # pseudo-inverse of the whole 3 x 3 nuisance block: equal ranks and
    # EFIMs equal to rounding in A's units, a delay in the gains' span
    # included. The AOA+TDOA set keeps the gains' step alone.
    factors, jacobians = case
    blocks = factors @ factors.swapaxes(-1, -2)
    for measurement, j_po in zip(MEASUREMENTS, schur_efims(blocks, jacobians)):
        expected = padded_schur_efims(blocks, jacobians, measurement)
        np.testing.assert_array_equal(bound_arrays(j_po)[1], bound_arrays(expected)[1])
        error = a_units_error(j_po, expected, blocks, jacobians, measurement)
        assert (error < 1e-12).all(), (measurement, error.max())


@settings(max_examples=20, deadline=None)
@given(arrays(float, (2, 3, 4, 4), elements=st.integers(-3, 3)),
       arrays(float, (2, 3, 3, 2), elements=st.integers(-3, 3)))
def test_exact_efims_equal_a_float_solve_when_well_conditioned(factors, geometry):
    # Blocks G G^T + I of integer factors leave every eigenvalue of the dense
    # nuisance block at least 1, so a float solve of it is good to rounding:
    # the exact elimination agrees to 1e-12 of T J T^T in both sets. In
    # AOA-only the offset row is the sum of the delay rows, so the solve
    # leaves it out, and the exact elimination meets it as a zero pivot.
    blocks = factors @ factors.swapaxes(-1, -2) + np.eye(4)
    jacobians = np.concatenate((geometry, np.broadcast_to([[1.0, 0.0]], (2, 3, 1, 2))), axis=-2)
    for measurement, k in zip(MEASUREMENTS, (3, 4)):
        j_phi, t_matrix = dense_arrow(blocks, jacobians, measurement)
        full = t_matrix @ j_phi @ t_matrix.swapaxes(-1, -2)
        a, b, n = full[:, :3, :3], full[:, :3, k:], full[:, k:, k:]
        expected = a - b @ np.linalg.solve(n, b.swapaxes(-1, -2))
        error = np.linalg.norm(exact_efims(blocks, jacobians, measurement) - expected,
                               axis=(-2, -1)) / np.linalg.norm(full, axis=(-2, -1))
        assert (error < 1e-12).all(), (measurement, error.max())


def test_exact_efims_skip_a_silent_link():
    # A silent link's block is exactly zero, so each of its pivots is exactly
    # zero and skipped: alone it gives an exactly zero EFIM, and beside live
    # links it changes no bit of theirs.
    scene = small_scene(n_tx_panels=1, n_rx_panels=2)
    links = active_links(scene)
    blocks, jacobians = fim_channel(scene, links)[None], transform_matrix(scene, links)[None]
    silent = np.zeros_like(blocks[:, :1])
    padded = (np.concatenate((blocks, silent), axis=1),
              np.concatenate((jacobians, jacobians[:, :1]), axis=1))
    for measurement in MEASUREMENTS:
        assert not exact_efims(silent, jacobians[:, :1], measurement).any()
        np.testing.assert_array_equal(exact_efims(*padded, measurement),
                                      exact_efims(blocks, jacobians, measurement))


@settings(max_examples=40, deadline=None)
@given(preset_and_float_placements(st.builds(dataclasses.replace, custom_presets(),
                                             max_occupied_index=st.integers(1, 8))))
def test_schur_efims_equal_the_delay_difference_layout(case):
    # The reparametrisation is exact: the dense algebra on the layout with
    # the first link as the reference (its delay the timing offset, every
    # other link's the delay difference to it, identity nuisance rows) gives
    # the kernel's EFIMs on full-rank rows. Below full rank, a direction near
    # RANK_EPS can fall on either side of it in the two layouts' rounding.
    stacks = schur_cases(case)
    assume(stacks is not None)
    ctx, (t, r, v_tau, v_theta, distance, angle, h) = stacks
    blocks = channel_fims(ctx, t, r, angle, h)
    j_phi = delay_difference_fims(blocks)
    jacobians = transform_matrices(v_tau, v_theta, distance)
    for measurement, j_po in zip(MEASUREMENTS, schur_efims(blocks, jacobians)):
        expected = reference_schur_efims(
            j_phi, delay_difference_transforms(v_tau, v_theta, distance, measurement))
        full = (bound_arrays(j_po)[1] == 3) & (bound_arrays(expected)[1] == 3)
        error = a_units_error(j_po, expected, blocks, jacobians, measurement)[full]
        assert (error < 1e-12).all(), (measurement, error.max())


# EFIMs, not bounds: at an ill-conditioned placement the bounds move more (at
# the first example, AOA+TDOA bounds of about 3 km differ by 1.2e-8 between
# link orders). No link is a reference, so the ranks agree too: the kernel
# ranks against the links' centred information, whichever link comes first.
# At the second example (8 links, four 6.1e-5 m long), the third (7 links,
# J_yy a 7e-18 residue of J_xx 5.3e-3) and the fourth (coincident bodies, 3
# against 2) the rank once depended on the first link's own range
# information, when that link was the reference.
@example((PresetConfig(name="custom", carrier_frequency=1e9, subcarrier_spacing=15e3,
                       n_rx_elements=9, target_snr_db=0.0, max_occupied_index=5,
                       vehicle_length=3.0, vehicle_width=2.0, lane_width=3.0),
          [(1.0, 1.0, 1.0)]))
@example((PresetConfig(name="custom", carrier_frequency=1e9, subcarrier_spacing=15e3,
                       n_rx_elements=1, target_snr_db=0.0, max_occupied_index=5,
                       vehicle_length=5.0, vehicle_width=2.0, lane_width=3.0,
                       fov_blocked_halfwidth=0.0),
          [(0.0, 6.103515625e-05, 0.0)]))
@example((PresetConfig(name="custom", carrier_frequency=1e9, subcarrier_spacing=15e3,
                       n_rx_elements=2, target_snr_db=0.0, max_occupied_index=1,
                       vehicle_length=3.0, vehicle_width=2.0, lane_width=3.0),
          [(0.0, -4.0, 1e-7)]))
@example((PresetConfig(name="custom", carrier_frequency=1e9, subcarrier_spacing=15e3,
                       n_rx_elements=1, target_snr_db=0.0, max_occupied_index=5,
                       vehicle_length=3.0, vehicle_width=2.0, lane_width=3.0),
          [(0.0, 0.0, 2.25e-6)]))
@settings(max_examples=30, deadline=None)
@given(preset_and_float_placements())
def test_schur_efims_do_not_depend_on_the_link_order(case):
    # Each placement's links, reordered to put link k first and the others in
    # (t, r) order, give both sets' Schur EFIMs of the (t, r) order itself,
    # with equal ranks.
    preset, placements = case
    ctx = preset_context(preset)
    x, y, alpha_t = np.array(placements).T
    tx_pose, rx_pose = placement_poses(np.column_stack((x, y)), alpha_t)
    tx_c, offset, visible, _ = visibility(ctx.pairs, tx_pose, rx_pose)
    n_links = visible.sum(axis=(1, 2))
    for count in set(n_links.tolist()) - {0, 1}:
        group = np.flatnonzero(n_links == count)
        order = np.array([link_order(range(count), k) for k in range(count)])
        stacks = placement_links(ctx, tx_c[group], offset[group], visible[group],
                                 rx_pose[1][group])
        t, r, v_tau, v_theta, distance, angle, h = (
            column[:, order].reshape(-1, *column.shape[1:]) for column in stacks)
        efims = schur_efims(channel_fims(ctx, t, r, angle, h),
                            transform_matrices(v_tau, v_theta, distance))
        for measurement, j_po in zip(MEASUREMENTS, efims):
            j_po = j_po.reshape(len(group), count, 3, 3)
            rank = bound_arrays(j_po)[1]
            np.testing.assert_array_equal(rank, rank[:, :1].repeat(count, axis=1))
            error = relative_frobenius(j_po[:, :1], j_po)
            assert (error < REFERENCE_INVARIANCE_TOL).all(), (measurement, error.max())


@given(st.floats(-1e6, 1e6) | st.sampled_from([math.pi, -math.pi, math.tau, -0.0, 3 * math.pi]))
def test_wrap_angles_equals_wrap_angle_bitwise(angle):
    expected = wrap_angle(angle)
    grid = np.full((2, 3), angle)
    grid.setflags(write=False)  # the input is left as it is
    for angles in (np.array(angle), np.array([angle]), grid):
        wrapped = wrap_angles(angles)
        assert wrapped.shape == angles.shape
        for value in wrapped.ravel().tolist():
            assert value == expected
            assert math.copysign(1.0, value) == math.copysign(1.0, expected)


def test_evaluate_point_is_one_row_of_the_batch():
    preset = PRESETS["cfg_28GHz"]
    placements = [(-3.5, 12.0, 0.3), (0.0, -9.0, -2.0), (4.0, 4.5, math.pi)]
    q = [(x, y) for x, y, _ in placements]
    rows = sweep_rows(preset, q, [a for _, _, a in placements])
    for row, (x, y, alpha_t) in zip(rows, placements):
        assert evaluate_point(preset, Vec2(x, y), alpha_t) == row


@settings(max_examples=60, deadline=None)
@given(preset_and_placements(custom_presets() | st.sampled_from(sorted(PRESETS.values(),
                                                                       key=lambda p: p.name))))
def test_bound_table_rows_equal_one_row_calls_bitwise(case):
    # One code path for every row count: a placement's row does not depend on
    # the rows beside it, bit for bit.
    preset, placements = case
    x, y, alpha_t = np.array(placements).T
    table = bound_table(preset, np.column_stack((x, y)), alpha_t)
    for i in range(len(placements)):
        assert bound_table(preset, [(x[i], y[i])], alpha_t[i]).tobytes() == table[i].tobytes(), i


def test_non_finite_placements_rejected():
    preset = PRESETS["cfg_3p5GHz"]
    with pytest.raises(ValueError):
        bound_table(preset, [(-3.5, 1.0), (math.nan, 2.0)])
    with pytest.raises(ValueError):
        evaluate_point(preset, Vec2(-3.5, 1.0), alpha_t=math.inf)


@example(PRESETS["cfg_3p5GHz"])
@example(PRESETS["cfg_28GHz"])
@settings(max_examples=60, deadline=None)
@given(custom_presets(st.just(math.pi / 4) | st.floats(0.0, math.pi)))
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
    assert scene.context is ctx
    assert scene.tx_vehicle is ctx.tx_vehicle and scene.rx_vehicle is ctx.rx_vehicle
    assert scene.allocation is ctx.allocation
    assert scene.tx_vehicle.arrays is ctx.tx_vehicle.arrays
    assert preset_context(preset) is ctx
    assert build_scene(preset, Vec2(-3.5, 7.0)).context is ctx
