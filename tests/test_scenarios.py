"""Sweeps, presets, requirement crossings, and qualitative orderings."""

import dataclasses
import math

import numpy as np
import pytest

from v2vbounds import app, scenarios
from v2vbounds.app import emit_csv
from v2vbounds.channel import link_gains
from v2vbounds.errors import ConfigError, NoBracket
from v2vbounds.fim_closed import MEASUREMENTS, bound_arrays, efim_aoa_only
from v2vbounds.fim_general import placement_schur_efims
from v2vbounds.geometry import Vec2, active_links
from v2vbounds.scenarios import (
    COLUMNS,
    MAX_GRID_ROWS,
    MAX_RX_ELEMENTS,
    MAX_SUBCARRIERS,
    PRESETS,
    SET_COLUMNS,
    Requirements,
    calibrated_scene,
    evaluate_point,
    build_scene,
    bound_table,
    placement_efims,
    placement_poses,
    preset_context,
    scenario_crossing,
    scenario_crossings,
    scenario_placements,
    sweep_placements,
)
from v2vbounds.selfcheck import CLOSED_VS_SCHUR_TOL, relative_frobenius

from conftest import panels_with_links, sweep_rows


def panel_counts(preset, q):
    tx, rx = panels_with_links(active_links(build_scene(preset, q)))
    return len(tx), len(rx)


class TestRequirements:
    def test_defaults(self):
        req = Requirements()
        assert req.lateral_max == 0.1
        assert req.longitudinal_max == 0.5
        assert req.threshold("lat") == 0.1
        assert req.threshold("lon") == 0.5

    def test_positive_enforced(self):
        with pytest.raises(ValueError):
            Requirements(lateral_max=0.0)

    @pytest.mark.parametrize("value", [-0.1, math.nan, math.inf])
    @pytest.mark.parametrize("field", ["lateral_max", "longitudinal_max"])
    def test_positive_and_finite_named(self, field, value):
        # A NaN threshold would put both lateral crossings at 0.0 m.
        with pytest.raises(ValueError, match=field):
            Requirements(**{field: value})


@pytest.fixture(scope="module")
def overtaking_rows(preset_3p5):
    return sweep_rows(preset_3p5, sweep_placements(preset_3p5, "overtaking", -30.0, 30.0, 0.25))


@pytest.fixture(scope="module")
def platooning_rows(preset_3p5):
    return sweep_rows(preset_3p5,
                      sweep_placements(preset_3p5, "platooning", -30.0, math.inf, 0.25))


class TestOvertakingSweep:
    def test_default_grid(self, overtaking_rows):
        assert len(overtaking_rows) == 241
        assert overtaking_rows[0].q_y == -30.0
        assert overtaking_rows[-1].q_y == 30.0
        assert all(r.q_x == -3.5 for r in overtaking_rows)

    def test_panel_counts_along_sweep(self, preset_3p5, overtaking_rows):
        assert panel_counts(preset_3p5, Vec2(-3.5, 0.0)) == (2, 2)
        for q_y in (-22.0, -7.5, 3.25, 18.0, 30.0):
            assert panel_counts(preset_3p5, Vec2(-3.5, q_y)) == (3, 3)
        row0 = next(r for r in overtaking_rows if r.q_y == 0.0)
        assert row0.n_links == 4

    def test_mirror_symmetry(self, overtaking_rows):
        for left, right in zip(overtaking_rows, reversed(overtaking_rows)):
            assert abs(left.q_y + right.q_y) < 1e-12
            assert abs(left.peb_lat_both - right.peb_lat_both) <= 1e-6 * left.peb_lat_both
            assert abs(left.peb_lon_both - right.peb_lon_both) <= 1e-6 * left.peb_lon_both

    def test_finite_bounds_everywhere(self, overtaking_rows):
        assert all(math.isfinite(r.peb_lat_both) and math.isfinite(r.peb_lon_aoa)
                   for r in overtaking_rows)

    def test_q_y_max_off_the_grid_drops_the_partial_step(self, preset_3p5):
        # Rows never pass q_y_max; one on the grid keeps its row despite round-off.
        custom = sweep_placements(preset_3p5, "custom", -1.0, 1.3, 0.5, -3.5)
        overtaking = sweep_placements(preset_3p5, "overtaking", -1.0, 1.3, 0.5)
        for q in (overtaking, custom):
            assert bound_table(preset_3p5, q)[:, 1].tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]
        rows = sweep_placements(preset_3p5, "custom", 0.0, 0.3, 0.1, -3.5)
        assert [q_y for _, q_y in rows] == pytest.approx([0.0, 0.1, 0.2, 0.3])


class TestPlatooningSweep:
    def test_grid_and_gap(self, platooning_rows):
        assert platooning_rows[0].d_y == pytest.approx(0.25)
        assert platooning_rows[-1].d_y == pytest.approx(25.5)
        for row in platooning_rows:
            assert row.q_x == 0.0
            assert row.d_y == pytest.approx(abs(row.q_y) - 4.5)

    def test_grid_anchored_at_touching_point(self, preset_3p5):
        # A q_y_min off the grid drops the partial step at the far end, not
        # at the touching point.
        q = sweep_placements(preset_3p5, "platooning", -30.2, math.inf, 0.25)
        d_y = bound_table(preset_3p5, q)[:, COLUMNS.index("d_y")]
        assert d_y.tolist() == pytest.approx([0.25 * k for k in range(1, 103)])

    def test_four_links_everywhere(self, platooning_rows):
        assert all(r.n_links == 4 for r in platooning_rows)

    def test_monotone_degradation(self, platooning_rows):
        for a, b in zip(platooning_rows, platooning_rows[1:]):
            assert b.peb_lat_both >= a.peb_lat_both - 1e-9
            assert b.peb_lon_both >= a.peb_lon_both - 1e-9
            assert b.peb_lat_aoa >= a.peb_lat_aoa - 1e-9

    def test_longitudinal_tdoa_impact_small(self, platooning_rows, preset_28):
        q = sweep_placements(preset_28, "platooning", -30.0, math.inf, 0.25)
        rows = platooning_rows + sweep_rows(preset_28, q)
        worst = max((r.peb_lon_aoa - r.peb_lon_both) / r.peb_lon_aoa for r in rows)
        assert worst < 0.10

    def test_lateral_aoa_only_diverges_faster(self, platooning_rows):
        ratios = {r.d_y: r.peb_lat_aoa / r.peb_lat_both for r in platooning_rows}
        assert ratios[25.5] > 10.0 * ratios[0.25]
        assert ratios[20.0] > ratios[5.0]


class TestCrossConfig:
    def test_28ghz_dominates(self, preset_3p5, preset_28):
        for q in (Vec2(-3.5, 11.0), Vec2(0.0, -16.25)):
            row35 = evaluate_point(preset_3p5, q)
            row28 = evaluate_point(preset_28, q)
            assert row28.peb_lat_both < row35.peb_lat_both
            assert row28.peb_lon_both < row35.peb_lon_both
            assert row28.peb_lat_aoa < row35.peb_lat_aoa
            assert row28.peb_lon_aoa < row35.peb_lon_aoa

    def test_subcarrier_spacing_does_not_affect_aoa_only(self, preset_3p5):
        wide = dataclasses.replace(preset_3p5, name="wide", subcarrier_spacing=180e3)
        for preset_a, preset_b in ((preset_3p5, wide),):
            q = Vec2(-3.5, 9.5)
            scene_a = calibrated_scene(preset_a, q)
            scene_b = calibrated_scene(preset_b, q)
            links_a, links_b = active_links(scene_a), active_links(scene_b)
            res_a = efim_aoa_only(scene_a, links_a, link_gains(scene_a, links_a))
            res_b = efim_aoa_only(scene_b, links_b, link_gains(scene_b, links_b))
            assert res_a.peb_lat == res_b.peb_lat
            assert res_a.peb_lon == res_b.peb_lon


class TestEvaluatePoint:
    def test_no_placements_give_an_empty_table(self, preset_3p5, tmp_path):
        # n = 0 takes the one code path of every n; an empty sweep is still
        # not written.
        table = bound_table(preset_3p5, np.empty((0, 2)))
        assert table.shape == (0, len(COLUMNS))
        with pytest.raises(ValueError, match="empty sweep"):
            emit_csv(table, tmp_path / "empty.csv")

    def test_no_links_yields_sentinels(self, preset_3p5):
        # Complete overlap: every pair is blocked by a body edge or wedge
        # boundary, while calibration at the reference placement still works.
        row = evaluate_point(preset_3p5, Vec2(0.0, 0.0))
        assert row.n_links == 0
        assert math.isinf(row.peb_lat_both)
        assert math.isinf(row.peb_lon_aoa)

    # peb_lat of both measurement sets at q = (-3.5, 10), where 9 links are
    # visible: below two subcarriers per array the rear arrays fall silent,
    # add no angle information and no link to n_links; from two up every
    # array sends.
    @pytest.mark.parametrize("max_occupied_index, peb_lat_both, peb_lat_aoa", [
        (1, 1.2023085862592793, 1.2023085862592793),
        (2, 0.24449989101810599, 0.24449989101810599),
        (3, 0.1728865506296627, 0.17288753093827475),
        (4, 0.17288584852260558, 0.17288753093827475),
        (5, 0.14115971832717109, 0.14116207789613813),
    ])
    def test_silent_tx_arrays_add_no_information(self, preset_3p5, max_occupied_index,
                                                 peb_lat_both, peb_lat_aoa):
        preset = dataclasses.replace(preset_3p5, name="narrow",
                                     max_occupied_index=max_occupied_index)
        row = evaluate_point(preset, Vec2(-3.5, 10.0))
        assert row.n_links == (6 if max_occupied_index == 1 else 9)
        assert row.peb_lat_both == pytest.approx(peb_lat_both, rel=1e-12)
        assert row.peb_lat_aoa == pytest.approx(peb_lat_aoa, rel=1e-12)

    @pytest.mark.parametrize("q, n_links", [(Vec2(0.0, -10.0), 0), (Vec2(-3.5, -10.0), 3)])
    def test_n_links_counts_sending_links(self, preset_3p5, q, n_links):
        # Two subcarriers: only the front Tx arrays send. Behind the Tx vehicle
        # 4 (platooning) and 9 (overtaking) links are visible, but none and
        # three, all from the front left array, send; one array's angle
        # terms span two directions, so every bound is inf.
        preset = dataclasses.replace(preset_3p5, name="silent_rear", max_occupied_index=1)
        row = evaluate_point(preset, q)
        assert row.n_links == n_links
        assert all(math.isinf(getattr(row, name)) for name in COLUMNS[4:])

    def test_measurement_restriction(self, preset_3p5):
        # The library leaves no set out: a linked placement's row is finite in
        # all six bound columns; only the CLI's --measurements writes inf.
        row = evaluate_point(preset_3p5, Vec2(-3.5, 10.0))
        assert all(math.isfinite(getattr(row, name)) for name in COLUMNS[4:])

    def test_shared_preset_arrays_are_read_only(self, preset_3p5):
        ctx = preset_context(preset_3p5)
        arrays = ctx.tx_vehicle.arrays
        before = evaluate_point(preset_3p5, Vec2(-3.5, 10.0))
        with pytest.raises(ValueError):
            arrays.saaf_s[:] *= 4
        assert evaluate_point(preset_3p5, Vec2(-3.5, 10.0)) == before
        # Every array field of the vehicle's arrays, of the link context and of
        # its panel pairs: mount, blocked_dir, the complex elements, the SAAF
        # terms link_saaf, the squared bandwidths link_beta2, the sending mask,
        # the mounts' differences and both sectors' stacked directions and edges
        # among them.
        shared = [getattr(owner, f.name) for owner in (arrays, ctx, ctx.pairs)
                  for f in dataclasses.fields(owner)
                  if isinstance(getattr(owner, f.name), np.ndarray)]
        assert len(shared) == 17
        assert not any(a.flags.writeable for a in shared)


def requirement_crossing(bound_fn, threshold, s_min, s_max, tol=0.01):
    """One curve's crossing distance from scenarios._lattice_search; raises NoBracket."""
    return scenarios._lattice_search(lambda s: np.asarray(bound_fn(s), dtype=float)[None],
                                     [threshold], s_min, s_max, tol)[0].value()


class TestRequirementCrossing:
    def test_bisection_on_synthetic_curve(self):
        crossing = requirement_crossing(lambda s: s * s, 4.0, 0.0, 10.0, tol=0.01)
        assert abs(crossing - 2.0) <= 0.01

    def test_met_everywhere(self):
        with pytest.raises(NoBracket) as excinfo:
            requirement_crossing(lambda s: 0.01 * s, 1.0, 0.0, 10.0)
        assert excinfo.value.met_everywhere

    def test_met_nowhere(self):
        with pytest.raises(NoBracket) as excinfo:
            requirement_crossing(lambda s: 5.0 + s, 1.0, 0.0, 10.0)
        assert not excinfo.value.met_everywhere

    def test_tolerance_honored(self):
        loose = requirement_crossing(lambda s: s, 3.0, 0.0, 10.0, tol=0.5)
        tight = requirement_crossing(lambda s: s, 3.0, 0.0, 10.0, tol=0.001)
        assert abs(loose - 3.0) <= 0.5
        assert abs(tight - 3.0) <= 0.001


# The crossings the bisection found before the batched search, bit for bit;
# None marks a curve whose requirement holds over the whole range.
PINNED_CROSSINGS = {
    ("cfg_3p5GHz", "overtaking", "aoa_tdoa", "lat"): 24.52880859375,
    ("cfg_3p5GHz", "overtaking", "aoa_tdoa", "lon"): 22.36083984375,
    ("cfg_3p5GHz", "overtaking", "aoa", "lat"): 24.4189453125,
    ("cfg_3p5GHz", "overtaking", "aoa", "lon"): 21.97998046875,
    ("cfg_3p5GHz", "platooning", "aoa_tdoa", "lat"): None,
    ("cfg_3p5GHz", "platooning", "aoa_tdoa", "lon"): 17.07305908203125,
    ("cfg_3p5GHz", "platooning", "aoa", "lat"): 6.29742431640625,
    ("cfg_3p5GHz", "platooning", "aoa", "lon"): 17.02374267578125,
    ("cfg_28GHz", "overtaking", "aoa_tdoa", "lat"): None,
    ("cfg_28GHz", "overtaking", "aoa_tdoa", "lon"): None,
    ("cfg_28GHz", "overtaking", "aoa", "lat"): None,
    ("cfg_28GHz", "overtaking", "aoa", "lon"): None,
    ("cfg_28GHz", "platooning", "aoa_tdoa", "lat"): None,
    ("cfg_28GHz", "platooning", "aoa_tdoa", "lon"): None,
    ("cfg_28GHz", "platooning", "aoa", "lat"): 9.71875,
    ("cfg_28GHz", "platooning", "aoa", "lon"): None,
}
SCENARIO_CASES = [(preset, scenario) for preset in ("cfg_3p5GHz", "cfg_28GHz")
                  for scenario in ("overtaking", "platooning")]


def two_interval_curve(s):
    """0 on [0, 2] and [7, 8], 1 elsewhere: feasible for a 0.5 threshold."""
    return np.where(((s >= 0.0) & (s <= 2.0)) | ((s >= 7.0) & (s <= 8.0)), 0.0, 1.0)


class TestLatticeSearch:
    def test_last_feasible_point_before_the_last_infeasible_one(self):
        # A bisection to 0.01 m returns 2 here: its first midpoint, 5, is infeasible.
        assert requirement_crossing(two_interval_curve, 0.5, 0.0, 10.0) == pytest.approx(
            8.0, abs=0.01)
        (crossing,) = scenarios._lattice_search(
            lambda s: two_interval_curve(s)[None], [0.5], 0.0, 10.0, 0.01)
        assert crossing.distance == pytest.approx(8.0, abs=0.01)
        assert crossing.sign_changes == 3

    @pytest.mark.parametrize("fn, threshold, expect_calls", [
        (lambda s: s * s, 4.0, 3),
        (two_interval_curve, 0.5, 3),
        (lambda s: 0.01 * s, 1.0, 1),  # met everywhere: decided at the endpoints
        (lambda s: 5.0 + s, 1.0, 1),  # met nowhere
    ])
    def test_at_most_three_calls(self, fn, threshold, expect_calls):
        calls = []

        def counting(s):
            calls.append(len(s))
            return fn(s)
        try:
            requirement_crossing(counting, threshold, 0.0, 30.0)
        except NoBracket:
            pass
        assert len(calls) == expect_calls
        assert calls[0] == 2  # the endpoints

    def test_single_crossing_is_the_bisection_lattice_point(self):
        # Bisection on s - 3 to 0.01 over [0, 10] walks the lattice of 10/1024 steps.
        crossing = requirement_crossing(lambda s: s, 3.0, 0.0, 10.0)
        assert crossing == 307 * 10.0 / 1024


class TestScenarioCrossings:
    @pytest.mark.parametrize("preset, scenario", SCENARIO_CASES)
    def test_pinned_crossings(self, preset, scenario):
        crossings = scenario_crossings(PRESETS[preset], scenario)
        assert list(crossings) == [("aoa_tdoa", "lat"), ("aoa_tdoa", "lon"),
                                   ("aoa", "lat"), ("aoa", "lon")]
        for (measurement, axis), crossing in crossings.items():
            expected = PINNED_CROSSINGS[preset, scenario, measurement, axis]
            if expected is None:
                assert crossing.distance is None
                assert crossing.no_bracket.met_everywhere
            else:
                assert crossing.no_bracket is None
                assert crossing.distance == expected
                assert crossing.sign_changes == 1

    @pytest.mark.parametrize("preset, scenario", SCENARIO_CASES)
    def test_scenario_crossing_is_the_matching_entry(self, preset, scenario):
        crossings = scenario_crossings(PRESETS[preset], scenario)
        for (measurement, axis), crossing in crossings.items():
            if crossing.no_bracket is None:
                got = scenario_crossing(PRESETS[preset], scenario, axis, measurement)
                assert got == crossing.distance
            else:
                with pytest.raises(NoBracket) as excinfo:
                    scenario_crossing(PRESETS[preset], scenario, axis, measurement)
                assert excinfo.value.met_everywhere == crossing.no_bracket.met_everywhere

    @pytest.mark.parametrize("preset, scenario", SCENARIO_CASES)
    def test_at_most_three_batched_calls(self, preset, scenario, monkeypatch):
        calls = []
        batched = scenarios.bound_table

        def counting(*args, **kwargs):
            calls.append(len(args[1]))
            return batched(*args, **kwargs)

        def rows(*args, **kwargs):
            raise AssertionError("the crossing search builds SweepRows")
        monkeypatch.setattr(scenarios, "bound_table", counting)
        monkeypatch.setattr(scenarios, "evaluate_point", rows)
        scenario_crossings(PRESETS[preset], scenario)
        assert 1 <= len(calls) <= 3
        assert calls[:2] == [2, 127][:len(calls)]  # endpoints, then the coarse interior

    def test_measurement_restriction(self, preset_3p5):
        # One curve is the matching entry of the four-curve search; a name
        # that is no key raises KeyError, as an unknown axis does.
        assert scenario_crossing(preset_3p5, "overtaking", "lat", "aoa") == 24.4189453125
        for axis, measurement in (("lat", "AOA"), ("lat", "aoa_tdao"), ("up", "aoa")):
            with pytest.raises(KeyError):
                scenario_crossing(preset_3p5, "overtaking", axis, measurement)

    def test_unknown_scenario_rejected(self, preset_3p5):
        with pytest.raises(ValueError):
            scenario_crossings(preset_3p5, "custom")


class TestScenarioGeometry:
    """scenario_placements is the one place that puts the Rx vehicle at a
    scenario's distance; the sweeps and the crossing search go through it."""

    def test_placements(self):
        preset = dataclasses.replace(PRESETS["cfg_3p5GHz"], vehicle_length=5.0, lane_width=3.0)
        s = np.array([0.0, 0.25, 12.5])
        np.testing.assert_array_equal(scenario_placements(preset, "overtaking", s, q_x=9.0),
                                      [[-3.0, 0.0], [-3.0, 0.25], [-3.0, 12.5]])
        np.testing.assert_array_equal(scenario_placements(preset, "platooning", s, q_x=9.0),
                                      [[0.0, -5.0], [0.0, -5.25], [0.0, -17.5]])
        np.testing.assert_array_equal(scenario_placements(preset, "custom", s, q_x=-2.0),
                                      [[-2.0, 0.0], [-2.0, 0.25], [-2.0, 12.5]])
        assert scenario_placements(preset, "overtaking", []).shape == (0, 2)

    @pytest.mark.parametrize("preset, scenario", SCENARIO_CASES)
    def test_crossing_search_places_through_it(self, preset, scenario, monkeypatch):
        preset = PRESETS[preset]
        placed = []

        def recording(preset_, q, *args, **kwargs):
            placed.append(np.array(q))
            return bound_table(preset_, q, *args, **kwargs)
        monkeypatch.setattr(scenarios, "bound_table", recording)
        scenario_crossings(preset, scenario)
        q = np.concatenate(placed)
        s = q[:, 1] if scenario == "overtaking" else -q[:, 1] - preset.vehicle_length
        np.testing.assert_array_equal(q, scenario_placements(preset, scenario, s))

    @pytest.mark.parametrize("name", list(PRESETS))
    def test_sweeps_place_through_it(self, name):
        preset = PRESETS[name]
        q_y = scenarios._grid(-1.0, 1.3, 0.5)  # 1.3 lies off the grid
        assert q_y == [-1.0, -0.5, 0.0, 0.5, 1.0]
        for scenario in ("overtaking", "custom"):
            np.testing.assert_array_equal(
                sweep_placements(preset, scenario, -1.0, 1.3, 0.5, q_x=-2.0),
                scenario_placements(preset, scenario, q_y, q_x=-2.0))
        gaps = scenarios._grid(0.0, 30.2 - preset.vehicle_length, 0.25)[1:]  # the touching point
        assert len(gaps) == 102
        np.testing.assert_array_equal(sweep_placements(preset, "platooning", -30.2, 0.0, 0.25),
                                      scenario_placements(preset, "platooning", gaps))

    def test_unknown_scenario_rejected(self, preset_3p5):
        for call in (lambda: scenario_placements(preset_3p5, "merging", [0.0]),
                     lambda: sweep_placements(preset_3p5, "merging", -1.0, 1.0, 0.5),
                     lambda: scenario_crossings(preset_3p5, "merging")):
            with pytest.raises(ValueError, match="unknown scenario 'merging'"):
                call()

    @pytest.mark.parametrize("start, stop, step", [
        (0.0, float(MAX_GRID_ROWS), 1.0),  # one row over the limit
        (-30.0, 30.0, 1e-9),  # 6e10 rows
        (-1.7e308, 1.7e308, 0.25),  # the span overflows to inf
        (1.7e308, -1.7e308, 0.25),  # to -inf
    ])
    def test_grid_beyond_the_row_limit_rejected(self, start, stop, step):
        with pytest.raises(ValueError, match="MAX_GRID_ROWS"):
            scenarios._grid(start, stop, step)

    def test_grid_at_the_row_limit(self):
        assert len(scenarios._grid(0.0, MAX_GRID_ROWS - 1.0, 1.0)) == MAX_GRID_ROWS
        with pytest.raises(ValueError, match="MAX_GRID_ROWS"):
            sweep_placements(PRESETS["cfg_3p5GHz"], "platooning", -1.7e308, 0.0, 0.25)

    def test_rx_elements_at_and_beyond_the_limit(self):
        # Checked on the preset, before any panel is built.
        at_limit = dataclasses.replace(PRESETS["cfg_3p5GHz"], n_rx_elements=MAX_RX_ELEMENTS)
        assert preset_context(at_limit).rx_vehicle.panels[0].n_elements == MAX_RX_ELEMENTS
        for count in (MAX_RX_ELEMENTS + 1, 10**10):
            with pytest.raises(ValueError, match="n_rx_elements .* MAX_RX_ELEMENTS"):
                dataclasses.replace(at_limit, n_rx_elements=count)

    def test_subcarriers_at_and_beyond_the_limit(self):
        # Checked on the preset, before any allocation is built.
        half = MAX_SUBCARRIERS // 2
        at_limit = dataclasses.replace(PRESETS["cfg_3p5GHz"], max_occupied_index=half)
        assert len(at_limit.occupied) == MAX_SUBCARRIERS
        with pytest.raises(ValueError, match="max_occupied_index .* MAX_SUBCARRIERS"):
            dataclasses.replace(at_limit, max_occupied_index=half + 1)


@pytest.mark.parametrize("value", [4.5, 4.0, True, math.nan, "4"])
@pytest.mark.parametrize("field", ["n_rx_elements", "max_occupied_index"])
def test_count_not_an_integer_rejected(field, value):
    # 4.5 would be built and fail with a TypeError at evaluation, and True
    # would run as one element: the preset refuses both, naming the field.
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(PRESETS["cfg_3p5GHz"], **{field: value})


@pytest.mark.parametrize("name", list(PRESETS))
def test_both_paths_stack_the_measurement_sets_in_one_order(name):
    # Entry i of each EFIM stack and the bound table's SET_COLUMNS[i] are
    # MEASUREMENTS[i], on both paths.
    preset = PRESETS[name]
    ctx, q = preset_context(preset), np.array([[-3.5, 9.0]])
    tx_pose, rx_pose = placement_poses(q, 0.2)
    tx_c, offset, visible, j = placement_efims(ctx, tx_pose, rx_pose)
    j_po = placement_schur_efims(ctx, tx_c, offset, visible, rx_pose[1])
    table = bound_table(preset, q, 0.2)
    assert j.shape == j_po.shape == (2, 1, 3, 3)
    for i in range(len(MEASUREMENTS)):
        assert relative_frobenius(j[i], j_po[i]).max() < CLOSED_VS_SCHUR_TOL
        assert relative_frobenius(j[i], j_po[1 - i]).max() > 1e-3  # the sets differ
        np.testing.assert_array_equal(table[:, SET_COLUMNS[i]], bound_arrays(j[i])[2])


# A misspelled name once gave six inf bounds and no crossings, and a bare
# string matched by substring ("aoa" in "aoa_tdoa"), so both sets ran; an
# empty collection gave the same sentinels. The library takes no choice of
# sets; the CLI's filter reads RunConfig.measurements, which its parser
# makes a non-empty tuple of MEASUREMENTS members and RunConfig checks.
@pytest.mark.parametrize("measurements", [("aoa_tdao",), ("nope",), ("aoa", "AOA"), "aoa_tdoa",
                                          "aoa", None, iter(MEASUREMENTS), (), []])
def test_bad_measurements_rejected(measurements):
    if measurements is None or isinstance(measurements, str):
        parsed = app._config_from_mapping({"measurements": measurements}).measurements
        assert parsed == ((measurements,) if measurements else MEASUREMENTS)
    else:
        with pytest.raises(ConfigError, match="must be a string"):
            app._config_from_mapping({"measurements": measurements})


def test_measurement_names_are_the_lower_case_ones():
    assert MEASUREMENTS == ("aoa_tdoa", "aoa")
    assert app._config_from_mapping({"measurements": "AOA_TDOA"}).measurements == ("aoa_tdoa",)
