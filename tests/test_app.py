"""CLI, config parsing, CSV emission, and end-to-end determinism."""

import contextlib
import io
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import v2vbounds
from v2vbounds.app import CSV_HEADER, emit_csv, load_config, main
from v2vbounds.errors import ConfigError
from v2vbounds.fim_closed import MEASUREMENTS
from v2vbounds.scenarios import COLUMNS, PRESETS, SET_COLUMNS

from reference import format_cell


def write_config(tmp_path, name="run.yaml", **kwargs):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(kwargs), encoding="utf-8")
    return str(path)


def fast_overtaking_config(tmp_path, out, **extra):
    return write_config(
        tmp_path,
        scenario="overtaking",
        preset="cfg_3p5GHz",
        q_y_min=-6.0,
        q_y_max=6.0,
        step=1.0,
        out=str(out),
        **extra,
    )


def test_app_imports_yaml_and_selfcheck_only_on_their_branches(tmp_path):
    # A fresh interpreter: importing the CLI leaves PyYAML and the selfcheck
    # out, --config brings in PyYAML alone and still writes its CSV.
    out = tmp_path / "lazy.csv"
    code = ("import sys\n"
            "from v2vbounds.app import main\n"
            "loaded = lambda: [m for m in ('yaml', 'v2vbounds.selfcheck') if m in sys.modules]\n"
            "print(loaded())\n"
            "print(main(['--config', sys.argv[1]]), loaded())\n")
    src = str(Path(v2vbounds.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code, fast_overtaking_config(tmp_path, out)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "[]"
    assert proc.stdout.splitlines()[-1] == "0 ['yaml']"
    assert out.read_text(encoding="utf-8").startswith(CSV_HEADER)


class TestConfigParsing:
    def test_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.scenario == "overtaking"
        assert cfg.preset == "cfg_3p5GHz"
        assert cfg.measurements == ("aoa_tdoa", "aoa")

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, scnario="overtaking"))

    def test_bad_scenario_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, scenario="drifting"))

    def test_bad_step_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, step=-1.0))

    def test_measurement_aliases(self, tmp_path):
        cfg = load_config(write_config(tmp_path, measurements="aoa+tdoa"))
        assert cfg.measurements == ("aoa_tdoa",)
        cfg = load_config(write_config(tmp_path, measurements="aoa"))
        assert cfg.measurements == ("aoa",)

    def test_custom_preset_requires_core_overrides(self, tmp_path):
        path = write_config(tmp_path, preset="custom", overrides={"max_occupied_index": 100})
        cfg = load_config(path)
        with pytest.raises(ConfigError):
            cfg.resolve_preset()

    def test_custom_preset_resolves(self, tmp_path):
        path = write_config(
            tmp_path,
            preset="custom",
            overrides={
                "carrier_frequency": 5.9e9,
                "subcarrier_spacing": 30e3,
                "n_rx_elements": 8,
                "target_snr_db": 20.0,
            },
        )
        preset = load_config(path).resolve_preset()
        assert preset.carrier_frequency == 5.9e9
        assert preset.n_rx_elements == 8

    def test_unknown_override_rejected(self, tmp_path):
        path = write_config(tmp_path, overrides={"carrier": 1e9})
        with pytest.raises(ConfigError):
            load_config(path).resolve_preset()

    def test_integral_float_accepted_for_integer_override(self, tmp_path):
        path = write_config(tmp_path, overrides={"max_occupied_index": 300.0, "n_rx_elements": "8"})
        preset = load_config(path).resolve_preset()
        assert preset.max_occupied_index == 300 and isinstance(preset.max_occupied_index, int)
        assert preset.n_rx_elements == 8 and isinstance(preset.n_rx_elements, int)

    def test_narrowband_warning(self, tmp_path):
        path = write_config(
            tmp_path,
            preset="custom",
            overrides={
                "carrier_frequency": 1.0e9,
                "subcarrier_spacing": 120e3,
                "n_rx_elements": 4,
                "target_snr_db": 20.0,
                "max_occupied_index": 600,
            },
        )
        with pytest.warns(UserWarning, match="narrowband"):
            load_config(path).resolve_preset()


# Cell values the writer must format as the per-cell oracle does.
CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072e-308,
                     1e300, -1e-300, 123456789.5, 0.00123456789]),
)


class TestCsv:
    def _table(self):
        row = dict(q_x=-3.5, q_y=1.25, d_y=-3.25, n_links=9,
                   peb_lat_both=0.00123456789, peb_lon_both=0.5,
                   peb_lat_aoa=0.002, peb_lon_aoa=0.6,
                   oeb_both=0.01, oeb_aoa=math.inf)
        return np.array([[row[name] for name in COLUMNS]])

    def test_header_and_roundtrip(self, tmp_path):
        path = tmp_path / "rows.csv"
        emit_csv(self._table(), path)
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert text.endswith("\n")
        fields = lines[1].split(",")
        assert fields[3] == "9"
        assert fields[-1] == "inf"
        assert abs(float(fields[4]) - 0.00123456789) <= 1e-9 * 0.00123456789

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv(np.empty((0, len(COLUMNS))), tmp_path / "empty.csv")

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.lists(CELLS, min_size=9, max_size=9), st.integers(0, 64)),
                    min_size=1, max_size=4))
    def test_rows_equal_the_per_cell_oracle(self, tmp_path_factory, rows):
        # n_links is integer-valued in the table: the oracle formats the int.
        path = tmp_path_factory.mktemp("csv") / "rows.csv"
        cells = [[*values[:3], n_links, *values[3:]] for values, n_links in rows]
        emit_csv(np.array(cells, dtype=float), path)
        lines = path.read_bytes().decode("utf-8").split("\n")
        assert lines == [CSV_HEADER, *(",".join(map(format_cell, row)) for row in cells), ""]


class TestCli:
    def test_overtaking_run(self, tmp_path, capsys):
        out = tmp_path / "ov.csv"
        code = main(["--config", fast_overtaking_config(tmp_path, out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 13
        assert "requirement crossings" in capsys.readouterr().out

    def test_deterministic_output(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["--config", fast_overtaking_config(tmp_path, out_a, name="a.yaml")]) == 0
        assert main(["--config", fast_overtaking_config(tmp_path, out_b, name="b.yaml")]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_flag_overrides_config(self, tmp_path):
        out = tmp_path / "pl.csv"
        cfg = write_config(
            tmp_path, scenario="overtaking", q_y_min=-7.0, step=0.5, out=str(out)
        )
        code = main(["--config", cfg, "--scenario", "platooning", "--step", "0.5"])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        # platooning with q_y_min=-7, step 0.5: bumper gaps 0.5..2.5
        assert len(lines) == 1 + 5
        assert all(line.split(",")[0] == "0" for line in lines[1:])

    def test_flag_overrides_invalid_config_value(self, tmp_path):
        # Flags replace the file's values before validation, so a bad value
        # that a flag overrides is never used.
        out = tmp_path / "custom.csv"
        cfg = write_config(tmp_path, scenario="custom", q_x=-3.5, q_y_min=-1.0, q_y_max=1.0,
                           step=-1.0, out=str(out))
        assert main(["--config", cfg]) == 2
        assert main(["--config", cfg, "--step", "0.5"]) == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + 5

    @pytest.mark.parametrize("choice, kept", [("aoa", "AOA-only"), ("aoa+tdoa", "AOA+TDOA")],
                             ids=["aoa", "aoa+tdoa"])
    def test_measurement_restriction_emits_sentinels(self, tmp_path, capsys, choice, kept):
        # The CLI filters the library's full table: the set left out reads
        # inf in its three columns, every other column and the kept set's
        # crossing lines are the both run's.
        runs = {}
        for measurements in ("both", choice):
            out = tmp_path / f"{measurements}.csv"
            cfg = fast_overtaking_config(tmp_path, out, measurements=measurements)
            assert main(["--config", cfg]) == 0
            rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
            crossings = capsys.readouterr().out.splitlines()[2:]
            runs[measurements] = np.array(rows), crossings
        (both, both_crossings), (alone, crossings) = runs["both"], runs[choice]
        left_out = SET_COLUMNS[MEASUREMENTS.index("aoa_tdoa" if choice == "aoa" else "aoa")]
        kept_columns = np.setdiff1d(np.arange(len(COLUMNS)), left_out)
        assert (alone[:, left_out] == "inf").all()
        assert (both[:, left_out] != "inf").all()
        np.testing.assert_array_equal(alone[:, kept_columns], both[:, kept_columns])
        assert len(crossings) == 2
        assert crossings == [line for line in both_crossings if line.split()[0] == kept]

    def test_custom_scenario_overlap_rows_are_inf(self, tmp_path):
        out = tmp_path / "custom.csv"
        cfg = write_config(
            tmp_path,
            scenario="custom",
            q_x=0.0,
            q_y_min=-1.0,
            q_y_max=1.0,
            step=1.0,
            out=str(out),
        )
        assert main(["--config", cfg]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()[1:]
        assert len(lines) == 3
        overlap = lines[1].split(",")
        assert overlap[3] == "0"
        assert overlap[4] == "inf" and overlap[9] == "inf"

    def test_bad_config_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, scenario="nope")
        assert main(["--config", cfg]) == 2

    def test_empty_preset_flag_exit_2(self, tmp_path, capsys):
        # An empty flag is a value, not an unset flag: it overrides the file too.
        cfg = write_config(tmp_path, preset="cfg_28GHz", out=str(tmp_path / "x.csv"))
        assert main(["--config", cfg, "--preset", ""]) == 2
        assert "config error: unknown preset ''" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_empty_out_exit_2(self, tmp_path, capsys, monkeypatch):
        # An empty path is a value too: no CSV under the default name.
        monkeypatch.chdir(tmp_path)
        for argv in (["--out", ""], ["--config", write_config(tmp_path, out="")]):
            assert main(argv) == 2
            assert "config key out must name a file, got ''" in capsys.readouterr().err
            assert list(tmp_path.glob("*.csv")) == []

    def test_empty_config_flag_exit_2(self, tmp_path, capsys):
        assert main(["--config", "", "--out", str(tmp_path / "x.csv")]) == 2
        assert "config error: cannot read config ''" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_bad_override_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, overrides={"vehicle_length": -1.0})
        assert main(["--config", cfg]) == 2

    def test_k_tx_override_exit_2(self, tmp_path, capsys):
        # The Tx vehicle always carries its four corner panels and the
        # subcarrier allocation is sized from them: there is no k_tx key.
        cfg = write_config(tmp_path, overrides={"k_tx": 4})
        assert main(["--config", cfg]) == 2
        assert "unknown override keys: ['k_tx']" in capsys.readouterr().err

    @pytest.mark.parametrize("q_y_min", [-4.0, -4.74])
    def test_platooning_without_gap_exit_2(self, tmp_path, capsys, q_y_min):
        out = tmp_path / "pl.csv"
        cfg = write_config(tmp_path, scenario="platooning", q_y_min=q_y_min, out=str(out))
        assert main(["--config", cfg]) == 2
        assert "config error: q_y_min" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, keys", [
        (["--step", "1e-9"], {}),  # 6e10 rows of about 3 KB each
        ([], {"q_y_min": -1.7e308, "q_y_max": 1.7e308}),  # a span that overflows to inf
    ])
    def test_over_limit_grid_exit_2(self, tmp_path, capsys, flags, keys):
        out = tmp_path / "grid.csv"
        cfg = write_config(tmp_path, out=str(out), **keys)
        assert main(["--config", cfg, *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: a grid from") and "MAX_GRID_ROWS" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert not out.exists()

    def test_platooning_single_gap(self, tmp_path):
        out = tmp_path / "pl.csv"
        cfg = write_config(tmp_path, scenario="platooning", q_y_min=-4.75, out=str(out))
        assert main(["--config", cfg]) == 0
        assert out.read_text(encoding="utf-8").splitlines()[1].startswith("0,-4.75,0.25,4,")

    def test_largest_aperture_at_the_element_limit(self, tmp_path):
        # 1e4 elements at 1 GHz make an arc about 950 m in radius, which centring
        # leaves 1.3e-12 m off: rounding at that size, so the preset runs.
        out = tmp_path / "large.csv"
        cfg = write_config(tmp_path, out=str(out), overrides={
            "carrier_frequency": 1.0e9, "subcarrier_spacing": 15000, "n_rx_elements": 10_000,
            "target_snr_db": 30, "max_occupied_index": 60})
        assert main(["--config", cfg]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (241, len(COLUMNS)) and np.isfinite(rows).all()

    @pytest.mark.parametrize(
        "override",
        [
            pytest.param({"carrier_frequency": 0.0}, id="carrier_frequency-zero"),
            pytest.param({"carrier_frequency": math.nan}, id="carrier_frequency-nan"),
            pytest.param({"n_rx_elements": 0}, id="n_rx_elements-zero"),
            pytest.param({"lane_width": 0.0}, id="lane_width-zero"),
            # Calibration cancels the noise level and the symbol count, and no
            # bound reads an FFT size, so none is a preset field.
            pytest.param({"noise_variance": 1.0}, id="noise_variance-unknown"),
            pytest.param({"n_symbols": 1}, id="n_symbols-unknown"),
            pytest.param({"n_fft": 2048}, id="n_fft-unknown"),
            pytest.param({"fov_blocked_halfwidth": 3.2}, id="fov_blocked_halfwidth-above-pi"),
            # 8e8 subcarriers, about 95 GB: refused before any allocation is built.
            pytest.param({"max_occupied_index": 400_000_000}, id="max_occupied_index-over-budget"),
            # 1e10 elements would need 160 GB per panel array: refused before any is built.
            pytest.param({"n_rx_elements": 10_000_000_000}, id="n_rx_elements-over-limit"),
        ],
    )
    def test_invalid_preset_exit_2(self, tmp_path, capsys, override):
        cfg = write_config(tmp_path, out=str(tmp_path / "x.csv"), overrides=override)
        assert main(["--config", cfg]) == 2
        key = next(iter(override))
        unknown = key in ("noise_variance", "n_symbols", "n_fft")
        expected = f"unknown override keys: ['{key}']" if unknown else key
        assert f"config error: {expected}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [4.7, "4.7", math.inf])
    def test_non_integral_integer_override_exit_2(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, out=str(tmp_path / "x.csv"),
                           overrides={"n_rx_elements": value})
        assert main(["--config", cfg]) == 2
        assert "config error: override n_rx_elements must be an integer" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("step: yes", "config key step is not numeric: True"),
        ("q_x: false", "config key q_x is not numeric: False"),
        ("overrides: {n_rx_elements: true}", "override n_rx_elements is not numeric: True"),
        ("overrides: {target_snr_db: no}", "override target_snr_db is not numeric: False"),
    ])
    def test_yaml_boolean_is_not_a_number_exit_2(self, tmp_path, capsys, text, message):
        # YAML reads yes/true as True and float(True) is 1.0: step: yes ran
        # 1 m steps and n_rx_elements: true one element, both with exit 0.
        out = tmp_path / "x.csv"
        path = tmp_path / "run.yaml"
        path.write_text(f"out: {out}\n{text}\n", encoding="utf-8")
        assert main(["--config", str(path)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("out: yes", "config key out must be a string, got True"),
        ("out: 2024", "config key out must be a string, got 2024"),
        ("preset: true", "config key preset must be a string, got True"),
        ("scenario: 1", "config key scenario must be a string, got 1"),
        ("measurements: [aoa]", "config key measurements must be a string, got ['aoa']"),
    ])
    def test_yaml_non_string_in_a_string_key_exit_2(self, tmp_path, monkeypatch, capsys, text,
                                                     message):
        # str() of the value used to be taken: out: yes wrote the CSV to a file
        # named True with exit 0.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.yaml").write_text(f"step: 1.0\n{text}\n", encoding="utf-8")
        assert main(["--config", "run.yaml"]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert [path.name for path in tmp_path.iterdir()] == ["run.yaml"]

    def test_quoted_and_null_string_keys(self, tmp_path, monkeypatch):
        # A quoted value is a string; null, like a missing key, is the default.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.yaml").write_text(
            'q_y_min: -1.0\nq_y_max: 1.0\nstep: 1.0\nout: "2024"\npreset: null\n'
            "measurements: null\n", encoding="utf-8")
        assert main(["--config", "run.yaml"]) == 0
        lines = (tmp_path / "2024").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 3 and "inf" not in lines[1]

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "x.csv"
        assert main(["--config", fast_overtaking_config(tmp_path, out)]) == 2
        captured = capsys.readouterr()
        assert f"config error: cannot write CSV to {out}" in captured.err
        assert "Traceback" not in captured.err and "wrote" not in captured.out
        assert not (tmp_path / "no").exists()

    @pytest.mark.parametrize("column", COLUMNS[4:])
    def test_nan_in_any_bound_column_exit_3(self, tmp_path, monkeypatch, capsys, column):
        import v2vbounds.app as app

        real = app.bound_table

        def with_nan(*args, **kwargs):
            table = real(*args, **kwargs)
            table[2, COLUMNS.index(column)] = math.nan
            return table

        monkeypatch.setattr(app, "bound_table", with_nan)
        out = tmp_path / "nan.csv"
        assert main(["--config", fast_overtaking_config(tmp_path, out)]) == 3
        # The fast config's third row sits at q_y = -6 + 2 * 1.
        assert f"numerical failure at q_y = -4.0: NaN {column}\n" == capsys.readouterr().err
        assert not out.exists()

    def test_nan_efim_exit_3_names_the_row(self, tmp_path, monkeypatch, capsys):
        # NaN at [1, 1], an entry eigvalsh cannot take: only that row's bounds
        # become NaN, and the NaN check names the row.
        import v2vbounds.scenarios as scenarios

        real = scenarios.placement_efims

        def with_nan(*args, **kwargs):
            *rest, j = real(*args, **kwargs)
            j[0, 2, 1, 1] = math.nan
            return (*rest, j)

        monkeypatch.setattr(scenarios, "placement_efims", with_nan)
        out = tmp_path / "nan.csv"
        assert main(["--config", fast_overtaking_config(tmp_path, out)]) == 3
        assert ("numerical failure at q_y = -4.0: NaN peb_lat_both, peb_lon_both, oeb_both\n"
                == capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("target_snr_db", [4000, -4000])
    def test_target_snr_beyond_any_power_exit_2(self, tmp_path, capsys, target_snr_db):
        # 10**400 overflows the calibrated power and 10**-400 makes it zero.
        out = tmp_path / "x.csv"
        cfg = write_config(tmp_path, out=str(out), overrides={"target_snr_db": target_snr_db})
        assert main(["--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: target_snr_db = {target_snr_db}")
        assert len(captured.err.splitlines()) == 1 and captured.out == ""
        assert not out.exists()

    def test_uncalibratable_preset_exit_3(self, tmp_path, capsys):
        # Panels this blind leave the side-by-side calibration placement
        # without a visible link.
        for halfwidth in (math.pi, 3.1):
            cfg = write_config(
                tmp_path,
                out=str(tmp_path / "x.csv"),
                q_y_min=-2.0,
                q_y_max=2.0,
                step=1.0,
                overrides={"fov_blocked_halfwidth": halfwidth},
            )
            assert main(["--config", cfg]) == 3
            captured = capsys.readouterr()
            assert captured.err.startswith("numerical failure: cannot calibrate preset (")
            assert captured.out == "" and not (tmp_path / "x.csv").exists()

    def test_no_config_defaults(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["--scenario", "overtaking", "--step", "6.0"]) == 0
        assert (tmp_path / "overtaking_cfg_3p5GHz.csv").exists()

    def test_selfcheck(self, capsys):
        assert main(["--selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "closed vs Schur" in out
        assert "selfcheck PASS" in out


# Values a YAML config can hold that no key accepts, mixed into every key.
ODD = [math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, -1e-300, True, False, "x", "",
       [1.0], None, 0, -1]


def mixed(valid, odd=ODD):
    """Valid values, and one draw in four an odd one."""
    return st.integers(0, 3).flatmap(lambda i: st.sampled_from(odd) if i == 0 else valid)


# Valid values keep every grid at most 49 rows: steps of at least 0.5 m over
# spans of at most 24 m.
OVERRIDE_VALUES = {
    "carrier_frequency": mixed(st.floats(1e9, 80e9)),
    "subcarrier_spacing": mixed(st.floats(15e3, 480e3)),
    "n_rx_elements": mixed(st.integers(1, 9)),
    "target_snr_db": mixed(st.floats(0.0, 50.0)),
    "max_occupied_index": mixed(st.integers(1, 40)),
    "vehicle_length": mixed(st.floats(3.0, 6.0)),
    "vehicle_width": mixed(st.floats(1.5, 2.5)),
    "lane_width": mixed(st.floats(0.01, 4.0)),
    "fov_blocked_halfwidth": mixed(st.floats(0.0, 3.2)),
    "bogus": st.just(1.0),
}
RUN_VALUES = {
    "scenario": st.sampled_from(["overtaking", "platooning", "custom"]),
    "preset": st.sampled_from(["cfg_3p5GHz", "cfg_28GHz", "custom"]),
    "measurements": st.sampled_from(["aoa", "aoa+tdoa", "both", "AOA_TDOA"]),
    "step": st.floats(0.5, 5.0),
    "q_y_min": st.floats(-12.0, 0.0),
    "q_y_max": st.floats(0.0, 12.0),
    "q_x": st.floats(-10.0, 10.0),
    "alpha_t": st.floats(-math.pi, math.pi),
    "overrides": st.fixed_dictionaries({}, optional=OVERRIDE_VALUES),
}
# step, q_y_min and q_y_max are always given, so no default 241-row grid runs.
GRID_KEYS = ("step", "q_y_min", "q_y_max")
RUN_CONFIGS = st.fixed_dictionaries(
    {key: mixed(RUN_VALUES[key]) for key in GRID_KEYS},
    optional={key: mixed(values) for key, values in RUN_VALUES.items() if key not in GRID_KEYS},
)


def grid_rows(raw):
    """Rows of a valid config's sweep: whole steps from q_y_min up to q_y_max,
    or, platooning, bumper gaps of whole steps down to q_y_min."""
    step, q_y_min, q_y_max = (float(raw[key]) for key in GRID_KEYS)
    if raw.get("scenario") != "platooning":
        return math.floor((q_y_max - q_y_min) / step + 1e-9) + 1
    preset = raw.get("preset") or "cfg_3p5GHz"
    length = (raw.get("overrides") or {}).get(
        "vehicle_length", PRESETS[preset if preset in PRESETS else "cfg_3p5GHz"].vehicle_length)
    return math.floor((-q_y_min - float(length)) / step + 1e-9)


# Configs at the edge of the float range: a grid row at 1e300 m, whose
# distance**2 overflows (a row of inf bounds), a 1e300 Hz carrier, whose
# calibration gain underflows to 0 (exit 2), and a 1e300 Hz subcarrier
# spacing, whose effective bandwidths overflow (exit 2).
@example(raw={"step": 1e300, "q_y_min": 0.0, "q_y_max": 1e300}, out="out.csv")
@example(raw={"step": 1.0, "q_y_min": -1.0, "q_y_max": 1.0,
              "overrides": {"carrier_frequency": 1e300}}, out="out.csv")
@example(raw={"step": 1.0, "q_y_min": -1.0, "q_y_max": 1.0,
              "overrides": {"subcarrier_spacing": 1e300}}, out="out.csv")
@settings(max_examples=40, deadline=None)
@given(raw=RUN_CONFIGS, out=st.just("out.csv") | st.sampled_from([math.nan, True, [1.0], ""]))
def test_any_config_exits_0_2_or_3(tmp_path_factory, raw, out):
    # Whatever a config file holds, the CLI answers with a documented exit
    # code: 0 with a NaN-free CSV of the grid's rows, 2 with no CSV, or 3.
    directory = tmp_path_factory.mktemp("fuzz")
    csv = directory / "out.csv"
    raw = {**raw, "out": str(csv) if out == "out.csv" else out}
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the narrowband warning
        code = main(["--config", write_config(directory, **raw)])
    assert code in (0, 2, 3) and "Traceback" not in stderr.getvalue()
    if code == 0:
        rows = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
        assert len(rows) == grid_rows(raw) and not np.isnan(rows).any()
    elif code == 2:
        assert not csv.exists()
