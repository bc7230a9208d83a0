"""Acceptance suite: every exit criterion at its pinned tolerance.

Each criterion is one test that prints a [PASS]/[FAIL] line with the
measured quantity. Run with ``pytest tests/test_acceptance.py -v`` (add
``-s`` to see the lines for passing criteria as well).

Criterion 5c-overtaking bounds the relative AOA+TDOA improvement where the
3GPP comparison is decided: on every (row, axis) pair of both overtaking
sweeps whose AOA-only bound is within one decade of its requirement. The
bumper-overlap rows (|q_y| < about 5 m) fall outside that region; there the
bounds are millimetric and the improvement reaches ~71% at q_y = 0, where
only 4 links remain. Those rows are reported, not asserted; the closed form
is checked against the Schur path at them in test_fim_general.py.
"""

import dataclasses
import time

import numpy as np
import pytest

from v2vbounds.channel import link_gains
from v2vbounds.errors import NoBracket
from v2vbounds.fim_closed import efim_aoa_only, efim_aoa_tdoa
from v2vbounds.geometry import Vec2, active_links
from v2vbounds.scenarios import (
    PRESETS,
    Requirements,
    calibrated_scene,
    scenario_crossing,
    sweep_placements,
)
from v2vbounds.selfcheck import (
    analytic_vs_fd_errors,
    closed_vs_schur_errors,
    reference_invariance_error,
)
from v2vbounds.waveform import effective_bandwidths
from v2vbounds import app

from conftest import small_scene, sweep_rows, with_context

_MODULE_START = time.monotonic()

P35 = PRESETS["cfg_3p5GHz"]
P28 = PRESETS["cfg_28GHz"]


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def sweeps():
    rows = {}
    for scenario in ("overtaking", "platooning"):
        for short, preset in (("3p5", P35), ("28", P28)):
            q = sweep_placements(preset, scenario, -30.0, 30.0, 0.25)
            rows[scenario, short] = sweep_rows(preset, q)
    return rows


def test_criterion_1_closed_vs_schur_oracle():
    start = time.monotonic()
    worst_both, worst_aoa = closed_vs_schur_errors(n_scenes=100)
    elapsed = time.monotonic() - start
    ok = worst_both < 1e-8 and worst_aoa < 1e-8 and elapsed < 10.0
    report(
        "criterion 1 (closed form vs Schur EFIM, 100 seeded scenes)",
        ok,
        f"max rel Frobenius AOA+TDOA {worst_both:.3e}, AOA-only {worst_aoa:.3e} "
        f"(tol 1e-8), runtime {elapsed:.2f} s (limit 10 s)",
    )


def test_criterion_2_analytic_vs_fd_derivatives():
    start = time.monotonic()
    worst = analytic_vs_fd_errors(n_scenes=20)
    elapsed = time.monotonic() - start
    ok = worst < 1e-5 and elapsed < 60.0
    report(
        "criterion 2 (analytic vs finite-difference channel FIM, 20 scenes)",
        ok,
        f"max equilibrated rel Frobenius {worst:.3e} (tol 1e-5), "
        f"runtime {elapsed:.2f} s (limit 60 s)",
    )


def test_criterion_3_overtaking_thresholds(sweeps):
    lat = scenario_crossing(P35, "overtaking", "lat", "aoa_tdoa")
    lon = scenario_crossing(P35, "overtaking", "lon", "aoa_tdoa")
    lat_ok = abs(lat - 24.53) <= 0.05 * 24.53
    lon_ok = abs(lon - 22.46) <= 0.05 * 22.46

    rows28 = sweeps[("overtaking", "28")]
    met28 = all(
        r.peb_lat_both <= 0.1 and r.peb_lon_both <= 0.5
        and r.peb_lat_aoa <= 0.1 and r.peb_lon_aoa <= 0.5
        for r in rows28
    )
    ok = lat_ok and lon_ok and met28
    report(
        "criterion 3 (overtaking thresholds)",
        ok,
        f"3.5 GHz lateral crossing {lat:.2f} m (24.53 +-5%), "
        f"longitudinal {lon:.2f} m (22.46 +-5%); "
        f"28 GHz requirements met at all 241 points: {met28}",
    )


def test_criterion_4_platooning_thresholds(sweeps):
    lon35 = scenario_crossing(P35, "platooning", "lon", "aoa_tdoa")
    lat_aoa_35 = scenario_crossing(P35, "platooning", "lat", "aoa")
    lat_aoa_28 = scenario_crossing(P28, "platooning", "lat", "aoa")
    lon_ok = abs(lon35 - 17.07) <= 0.05 * 17.07
    aoa35_ok = abs(lat_aoa_35 - 6.27) <= 0.05 * 6.27
    aoa28_ok = abs(lat_aoa_28 - 9.70) <= 0.05 * 9.70

    lat_both_met = all(
        r.peb_lat_both <= 0.1
        for r in sweeps[("platooning", "3p5")] + sweeps[("platooning", "28")]
    )
    with pytest.raises(NoBracket) as excinfo:
        scenario_crossing(P35, "platooning", "lat", "aoa_tdoa")
    lat_both_met = lat_both_met and excinfo.value.met_everywhere

    ok = lon_ok and aoa35_ok and aoa28_ok and lat_both_met
    report(
        "criterion 4 (platooning thresholds)",
        ok,
        f"3.5 GHz longitudinal crossing {lon35:.2f} m (17.07 +-5%); AOA-only lateral "
        f"crossings {lat_aoa_35:.2f} m (6.27 +-5%) and {lat_aoa_28:.2f} m (9.70 +-5%); "
        f"AOA+TDOA lateral met over the full range: {lat_both_met}",
    )


def test_criterion_5a_frequency_ordering(sweeps):
    worst = 0.0
    for scenario in ("overtaking", "platooning"):
        for a, b in zip(sweeps[(scenario, "28")], sweeps[(scenario, "3p5")]):
            worst = max(
                worst,
                a.peb_lat_both / b.peb_lat_both,
                a.peb_lon_both / b.peb_lon_both,
                a.peb_lat_aoa / b.peb_lat_aoa,
                a.peb_lon_aoa / b.peb_lon_aoa,
            )
    report(
        "criterion 5a (28 GHz < 3.5 GHz at every row)",
        worst < 1.0,
        f"max PEB ratio 28/3.5 over all rows and bounds {worst:.3f} (< 1 required)",
    )


def test_criterion_5b_loewner_ordering(sweeps):
    worst = 0.0
    for rows in sweeps.values():
        for r in rows:
            worst = max(
                worst,
                r.peb_lat_both - r.peb_lat_aoa,
                r.peb_lon_both - r.peb_lon_aoa,
            )
    report(
        "criterion 5b (AOA+TDOA <= AOA-only at every row)",
        worst <= 1e-9,
        f"max excess {worst:.3e} m (slack 1e-9)",
    )


def test_criterion_5c_overtaking_tdoa_improvement(sweeps):
    # A (row, axis) pair is checked when its AOA-only bound is within one
    # decade of the requirement; the pairs below that are far inside it.
    req = Requirements()
    floors = {"lat": req.lateral_max / 10.0, "lon": req.longitudinal_max / 10.0}
    checked = {}
    excluded = (0.0, None, None, None)
    for preset in ("3p5", "28"):
        n_checked = n_pairs = 0
        worst = (0.0, None, None)
        for r in sweeps[("overtaking", preset)]:
            for axis, aoa, both in (
                ("lat", r.peb_lat_aoa, r.peb_lat_both),
                ("lon", r.peb_lon_aoa, r.peb_lon_both),
            ):
                improvement = (aoa - both) / aoa
                n_pairs += 1
                if aoa >= floors[axis]:
                    n_checked += 1
                    if improvement > worst[0]:
                        worst = (improvement, axis, r.q_y)
                elif improvement > excluded[0]:
                    excluded = (improvement, preset, axis, r.q_y)
        checked[preset] = (n_checked, n_pairs, *worst)

    shifts = {}
    for axis in ("lat", "lon"):
        aoa = scenario_crossing(P35, "overtaking", axis, "aoa")
        both = scenario_crossing(P35, "overtaking", axis, "aoa_tdoa")
        shifts[axis] = (aoa, both, abs(both - aoa) / aoa)

    ok = all(c[0] > 0 and c[2] < 0.15 for c in checked.values()) and all(
        shift[2] < 0.05 for shift in shifts.values()
    )
    report(
        "criterion 5c-overtaking (TDOA improvement < 15% where the AOA-only bound is "
        "within a decade of the requirement; 3.5 GHz crossings move < 5%)",
        ok,
        "; ".join(
            f"{preset}: {n} of {total} pairs checked, max {imp:.1%} ({axis}, q_y = {q_y} m)"
            for preset, (n, total, imp, axis, q_y) in checked.items()
        )
        + f"; excluded max {excluded[0]:.1%} ({excluded[1]}, {excluded[2]}, "
        f"q_y = {excluded[3]} m, not asserted); 3.5 GHz crossings AOA -> AOA+TDOA "
        + ", ".join(f"{axis} {a:.2f} -> {b:.2f} m ({d:.2%})" for axis, (a, b, d) in shifts.items()),
    )


def test_criterion_5c_platooning_tdoa_factor(sweeps):
    ratios = {}
    for name in ("3p5", "28"):
        row = next(r for r in sweeps[("platooning", name)] if abs(r.d_y - 20.0) < 1e-9)
        ratios[name] = row.peb_lat_aoa / row.peb_lat_both
    ok = all(v > 2.0 for v in ratios.values())
    report(
        "criterion 5c-platooning (AOA-only lateral > 2x AOA+TDOA at d_y = 20 m)",
        ok,
        f"measured factors 3.5 GHz {ratios['3p5']:.1f}x, 28 GHz {ratios['28']:.1f}x",
    )


def test_criterion_6_rank_rules():
    single = small_scene(n_tx_panels=1, n_rx_panels=1)
    links = active_links(single)
    gains = link_gains(single, links)
    betas = effective_bandwidths(single.allocation, single.context.ofdm)
    r1 = efim_aoa_tdoa(single, links, gains, betas)
    one_ok = r1.singular and r1.rank <= 2

    double = small_scene(n_tx_panels=1, n_rx_panels=2)
    links2 = active_links(double)
    r2 = efim_aoa_only(double, links2, link_gains(double, links2))
    two_ok = r2.singular and r2.rank <= 2

    bare = small_scene(n_tx_panels=2, n_rx_panels=2, n_elements=1)
    links3 = active_links(bare)
    r3 = efim_aoa_only(bare, links3, link_gains(bare, links3))
    zero_ok = np.array_equal(r3.j_po, np.zeros((3, 3)))

    ok = one_ok and two_ok and zero_ok
    report(
        "criterion 6 (singularity and rank rules)",
        ok,
        f"1 link AOA+TDOA rank {r1.rank} (<=2); 2 links AOA-only rank {r2.rank} (<=2); "
        f"single-antenna AOA-only matrix identically zero: {zero_ok}",
    )


def test_criterion_7_invariances():
    ref_err = reference_invariance_error()

    q = Vec2(-3.5, 9.5)
    scene_a = calibrated_scene(P35, q)
    wide = dataclasses.replace(P35, name="wide_df", subcarrier_spacing=3 * 60e3)
    scene_b = calibrated_scene(wide, q)
    links_a, links_b = active_links(scene_a), active_links(scene_b)
    res_a = efim_aoa_only(scene_a, links_a, link_gains(scene_a, links_a))
    res_b = efim_aoa_only(scene_b, links_b, link_gains(scene_b, links_b))
    df_exact = (res_a.peb_lat == res_b.peb_lat) and (res_a.peb_lon == res_b.peb_lon)

    links = links_a
    gains = link_gains(scene_a, links)
    betas = effective_bandwidths(scene_a.allocation, scene_a.context.ofdm)
    base = efim_aoa_tdoa(scene_a, links, gains, betas)
    boosted_scene = with_context(
        scene_a, ofdm=dataclasses.replace(scene_a.context.ofdm, n_symbols=4)
    )
    boosted = efim_aoa_tdoa(boosted_scene, links, link_gains(boosted_scene, links), betas)
    nb_err = abs(boosted.peb_lat - base.peb_lat / 2.0) / base.peb_lat
    nb_err = max(nb_err, abs(boosted.peb_lon - base.peb_lon / 2.0) / base.peb_lon)

    ok = ref_err < 1e-10 and df_exact and nb_err < 1e-10
    report(
        "criterion 7 (invariance suite)",
        ok,
        f"link-order permutation max deviation {ref_err:.3e} (tol 1e-10); "
        f"subcarrier-spacing invariance of AOA-only bounds exact: {df_exact}; "
        f"PEB ~ 1/sqrt(n_symbols) deviation {nb_err:.3e} (tol 1e-10)",
    )


def test_criterion_8_determinism_and_runtime(tmp_path):
    import yaml

    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out_a, out_b):
        cfg = tmp_path / f"{out.stem}.yaml"
        cfg.write_text(
            yaml.safe_dump({"scenario": "overtaking", "preset": "cfg_3p5GHz", "out": str(out)}),
            encoding="utf-8",
        )
        assert app.main(["--config", str(cfg)]) == 0
    identical = out_a.read_bytes() == out_b.read_bytes()
    n_rows = len(out_a.read_text(encoding="utf-8").splitlines()) - 1

    elapsed = time.monotonic() - _MODULE_START
    ok = identical and n_rows == 241 and elapsed < 120.0
    report(
        "criterion 8 (determinism and runtime)",
        ok,
        f"two default overtaking runs byte-identical: {identical} ({n_rows} rows); "
        f"acceptance module wall time {elapsed:.1f} s (limit 120 s)",
    )
