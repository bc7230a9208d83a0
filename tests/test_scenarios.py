"""Sweeps, presets, requirement crossings, and qualitative orderings."""

import dataclasses
import math

import numpy as np
import pytest

from v2vbounds import scenarios
from v2vbounds.channel import link_gains
from v2vbounds.errors import NoBracket
from v2vbounds.fim_closed import efim_aoa_only
from v2vbounds.geometry import Vec2, active_links
from v2vbounds.scenarios import (
    PRESETS,
    Requirements,
    calibrated_scene,
    evaluate_point,
    evaluate_points,
    overtaking_sweep,
    platooning_sweep,
    build_scene,
    preset_context,
    scenario_crossing,
    scenario_crossings,
    sweep_placements,
)

from conftest import panels_with_links


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


@pytest.fixture(scope="module")
def overtaking_rows(preset_3p5):
    return overtaking_sweep(preset_3p5)


@pytest.fixture(scope="module")
def platooning_rows(preset_3p5):
    return platooning_sweep(preset_3p5)


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
        for sweep in (overtaking_sweep(preset_3p5, -1.0, 1.3, 0.5, ("aoa",)),
                      evaluate_points(preset_3p5, custom, measurements=("aoa",))):
            assert [r.q_y for r in sweep] == [-1.0, -0.5, 0.0, 0.5, 1.0]
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
        rows = platooning_sweep(preset_3p5, q_y_min=-30.2, measurements=("aoa",))
        assert [r.d_y for r in rows] == pytest.approx([0.25 * k for k in range(1, 103)])

    def test_four_links_everywhere(self, platooning_rows):
        assert all(r.n_links == 4 for r in platooning_rows)

    def test_monotone_degradation(self, platooning_rows):
        for a, b in zip(platooning_rows, platooning_rows[1:]):
            assert b.peb_lat_both >= a.peb_lat_both - 1e-9
            assert b.peb_lon_both >= a.peb_lon_both - 1e-9
            assert b.peb_lat_aoa >= a.peb_lat_aoa - 1e-9

    def test_longitudinal_tdoa_impact_small(self, platooning_rows, preset_28):
        rows = platooning_rows + platooning_sweep(preset_28)
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
    def test_no_links_yields_sentinels(self, preset_3p5):
        # Complete overlap: every pair is blocked by a body edge or wedge
        # boundary, while calibration at the reference placement still works.
        row = evaluate_point(preset_3p5, Vec2(0.0, 0.0))
        assert row.n_links == 0
        assert math.isinf(row.peb_lat_both)
        assert math.isinf(row.peb_lon_aoa)

    def test_measurement_restriction(self, preset_3p5):
        row = evaluate_point(preset_3p5, Vec2(-3.5, 10.0), measurements=("aoa",))
        assert math.isinf(row.peb_lat_both)
        assert math.isfinite(row.peb_lat_aoa)

    def test_shared_preset_arrays_are_read_only(self, preset_3p5):
        ctx = preset_context(preset_3p5)
        arrays = ctx.tx_vehicle.arrays
        before = evaluate_point(preset_3p5, Vec2(-3.5, 10.0))
        with pytest.raises(ValueError):
            arrays.saaf_s[:] *= 4
        assert evaluate_point(preset_3p5, Vec2(-3.5, 10.0)) == before
        shared = [getattr(arrays, f.name) for f in dataclasses.fields(arrays)
                  if isinstance(getattr(arrays, f.name), np.ndarray)]
        shared += [ctx.betas, ctx.omega, ctx.power, *ctx.link_panels, ctx.link_gd2,
                   ctx.link_beta, ctx.link_saaf]
        assert len(shared) == 16
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
        monkeypatch.setattr(scenarios, "evaluate_points", rows)
        monkeypatch.setattr(scenarios, "evaluate_point", rows)
        scenario_crossings(PRESETS[preset], scenario)
        assert 1 <= len(calls) <= 3
        assert calls[:2] == [2, 127][:len(calls)]  # endpoints, then the coarse interior

    def test_measurement_restriction(self, preset_3p5):
        crossings = scenario_crossings(preset_3p5, "overtaking", measurements=("aoa",))
        assert list(crossings) == [("aoa", "lat"), ("aoa", "lon")]
        assert crossings["aoa", "lat"].distance == 24.4189453125

    def test_unknown_scenario_rejected(self, preset_3p5):
        with pytest.raises(ValueError):
            scenario_crossings(preset_3p5, "custom")
