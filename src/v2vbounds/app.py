"""Command-line entry point: config ingestion, sweeps, CSV output, selfcheck.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, NoActiveLinks
from .fim_closed import MEASUREMENTS, Measurement
from .scenarios import (
    COLUMNS,
    PRESETS,
    DEFAULT_SWEEP_STEP,
    SET_COLUMNS,
    PresetConfig,
    Requirements,
    bound_table,
    calibrated_power,
    scenario_crossings,
    sweep_placements,
)

CSV_HEADER = ",".join(COLUMNS)
_ROW_FORMAT = ",".join(["%.9g"] * len(COLUMNS))

_SCENARIOS = ("overtaking", "platooning", "custom")
_MEASUREMENT_CHOICES = {"aoa": ("aoa",), "aoa+tdoa": ("aoa_tdoa",), "both": MEASUREMENTS}
_MEASUREMENT_LABELS = {"aoa_tdoa": "AOA+TDOA", "aoa": "AOA-only"}

# Preset fields a config file may override, and those read as integers.
_OVERRIDABLE = {f.name for f in dataclasses.fields(PresetConfig)} - {"name"}
_INT_OVERRIDES = {f.name for f in dataclasses.fields(PresetConfig) if f.type in ("int", int)}


def _number(value) -> float:
    """float(value) for a config value; YAML reads yes and true as True, and
    float(True) is 1.0, so a boolean raises TypeError."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is a boolean")
    return float(value)


@dataclass
class RunConfig:
    """Validated run description."""

    scenario: str = "overtaking"
    preset: str = "cfg_3p5GHz"
    measurements: tuple[Measurement, ...] = MEASUREMENTS
    step: float = DEFAULT_SWEEP_STEP
    out: str | None = None
    q_x: float = -3.5
    q_y_min: float = -30.0
    q_y_max: float = 30.0
    alpha_t: float = 0.0
    overrides: dict | None = None

    def __post_init__(self) -> None:
        # The CSV and crossing filter test membership: a bare string would
        # match by substring ("aoa" in "aoa_tdoa"), a misspelt name nothing.
        if not (isinstance(self.measurements, tuple) and self.measurements
                and set(self.measurements) <= set(MEASUREMENTS)):
            raise ConfigError(f"measurements must be a non-empty tuple of {MEASUREMENTS} "
                              f"members, got {self.measurements!r}")

    def resolve_preset(self) -> PresetConfig:
        overrides = dict(self.overrides or {})
        unknown = set(overrides) - _OVERRIDABLE
        if unknown:
            raise ConfigError(f"unknown override keys: {sorted(unknown)}")
        if self.preset == "custom":
            base = PRESETS["cfg_3p5GHz"]
            required = {"carrier_frequency", "subcarrier_spacing", "n_rx_elements", "target_snr_db"}
            missing = required - set(overrides)
            if missing:
                raise ConfigError(f"custom preset requires overrides: {sorted(missing)}")
            name = "custom"
        elif self.preset in PRESETS:
            base = PRESETS[self.preset]
            name = self.preset if not overrides else f"{self.preset}+overrides"
        else:
            raise ConfigError(f"unknown preset {self.preset!r}")
        for key, value in overrides.items():
            try:
                number = _number(value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"override {key} is not numeric: {value!r}") from exc
            if key in _INT_OVERRIDES and not number.is_integer():
                raise ConfigError(f"override {key} must be an integer, got {value!r}")
            overrides[key] = int(number) if key in _INT_OVERRIDES else number
        try:
            preset = dataclasses.replace(base, name=name, **overrides)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        ratio = preset.max_occupied_index * preset.subcarrier_spacing / preset.carrier_frequency
        if ratio > 0.05:
            warnings.warn(
                f"occupied bandwidth is {ratio:.1%} of the carrier frequency; "
                "the narrowband signal model is questionable",
                stacklevel=2,
            )
        return preset

    def output_path(self) -> Path:
        if self.out is not None:
            return Path(self.out)
        return Path(f"{self.scenario}_{self.preset}.csv")


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a YAML run configuration."""
    return _config_from_mapping(_read_config(path))


def _read_config(path: str | Path) -> dict:
    import yaml  # only a run with a config file pays for PyYAML's import

    try:
        raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {str(path)!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {str(path)!r}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    return raw


def _config_from_mapping(raw: dict) -> RunConfig:
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    values = {}
    for key in ("scenario", "preset", "out", "measurements"):
        value = raw.get(key)
        if value is None:  # null means the default
            continue
        if not isinstance(value, str):
            raise ConfigError(f"config key {key} must be a string, got {value!r}")
        if key == "out" and not value:
            raise ConfigError("config key out must name a file, got ''")
        values[key] = _parse_measurements(value) if key == "measurements" else value
    for key in ("step", "q_x", "q_y_min", "q_y_max", "alpha_t"):
        if key in raw:
            try:
                values[key] = _number(raw[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"config key {key} is not numeric: {raw[key]!r}") from exc
    if "overrides" in raw and raw["overrides"] is not None:
        if not isinstance(raw["overrides"], dict):
            raise ConfigError("overrides must be a mapping")
        values["overrides"] = dict(raw["overrides"])
    cfg = RunConfig(**values)
    if cfg.scenario not in _SCENARIOS:
        raise ConfigError(f"scenario must be one of {_SCENARIOS}, got {cfg.scenario!r}")
    if cfg.step <= 0:
        raise ConfigError("step must be positive")
    if cfg.q_y_min >= cfg.q_y_max:
        raise ConfigError("q_y_min must be below q_y_max")
    for key in ("q_x", "q_y_min", "q_y_max", "alpha_t", "step"):
        if not math.isfinite(getattr(cfg, key)):
            raise ConfigError(f"config key {key} must be finite")
    return cfg


def _parse_measurements(text: str) -> tuple[Measurement, ...]:
    key = text.strip().lower().replace("aoa_tdoa", "aoa+tdoa")
    if key not in _MEASUREMENT_CHOICES:
        raise ConfigError(
            f"measurements must be one of {sorted(_MEASUREMENT_CHOICES)}, got {text!r}"
        )
    return _MEASUREMENT_CHOICES[key]


def emit_csv(table: np.ndarray, path: str | Path) -> None:
    """Write a bound table (scenarios.bound_table) with its fixed column order
    and 9 significant digits."""
    if not len(table):
        raise ValueError("refusing to write an empty sweep")
    lines = [CSV_HEADER, *(_ROW_FORMAT % tuple(row) for row in table.tolist())]
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def _crossing_summary(cfg: RunConfig, preset: PresetConfig) -> list[str]:
    if cfg.scenario not in ("overtaking", "platooning"):
        return []
    requirements = Requirements()
    distance_label = "|q_y|" if cfg.scenario == "overtaking" else "d_y"
    lines = [
        f"requirement crossings, {cfg.scenario}, preset {preset.name} "
        f"(lat <= {requirements.lateral_max} m, lon <= {requirements.longitudinal_max} m):"
    ]
    crossings = scenario_crossings(preset, cfg.scenario, requirements)
    for (measurement, axis), crossing in crossings.items():
        if measurement not in cfg.measurements:
            continue
        if crossing.no_bracket is None:
            text = f"met up to {distance_label} = {crossing.distance:.2f} m"
        elif crossing.no_bracket.met_everywhere:
            text = "met everywhere in range"
        else:
            text = "met nowhere in range"
        lines.append(f"  {_MEASUREMENT_LABELS[measurement]:9s} {axis}: {text}")
    return lines


def run(cfg: RunConfig) -> int:
    """Execute one validated configuration; returns the process exit code."""
    try:
        preset = cfg.resolve_preset()
        # The platooning grid starts one step beyond the touching point.
        nearest = -(preset.vehicle_length + cfg.step)
        if cfg.scenario == "platooning" and cfg.q_y_min > nearest:
            raise ConfigError(f"q_y_min = {cfg.q_y_min} leaves no platooning gap; it must be "
                              f"at most -(vehicle_length + step) = {nearest}")
        # A grid beyond MAX_GRID_ROWS raises ValueError before it is built.
        q = sweep_placements(preset, cfg.scenario, cfg.q_y_min, cfg.q_y_max, cfg.step, cfg.q_x)
        # So does a target SNR that no positive, finite transmit power meets.
        calibrated_power(preset)
    except ValueError as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NoActiveLinks as exc:
        print(f"numerical failure: cannot calibrate preset ({exc})", file=sys.stderr)
        return 3
    try:
        alpha_t = cfg.alpha_t if cfg.scenario == "custom" else 0.0
        table = bound_table(preset, q, alpha_t)
        for columns, measurement in zip(SET_COLUMNS, MEASUREMENTS):
            if measurement not in cfg.measurements:
                table[:, columns] = math.inf
        nan = np.isnan(table[:, 4:])
        if nan.any():
            row = nan.any(axis=1).argmax()
            names = ", ".join(name for name, bad in zip(COLUMNS[4:], nan[row]) if bad)
            print(f"numerical failure at q_y = {table[row, 1]}: NaN {names}", file=sys.stderr)
            return 3
        out_path = cfg.output_path()
        try:
            emit_csv(table, out_path)
        except OSError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {len(table)} rows to {out_path}")
        for line in _crossing_summary(cfg, preset):
            print(line)
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


@functools.cache  # once per process: parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="v2vbounds",
        description=(
            "Position/orientation error bounds for two-vehicle relative "
            "positioning with multi-panel antenna arrays"
        ),
    )
    parser.add_argument("--config", type=str, help="YAML run configuration")
    parser.add_argument("--scenario", choices=_SCENARIOS, help="sweep scenario")
    parser.add_argument("--preset", type=str, help="preset name (cfg_3p5GHz, cfg_28GHz, custom)")
    parser.add_argument("--out", type=str, help="output CSV path")
    parser.add_argument(
        "--measurements",
        choices=sorted(_MEASUREMENT_CHOICES),
        help="measurement sets to evaluate",
    )
    parser.add_argument("--step", type=float, help="sweep grid step in meters")
    parser.add_argument(
        "--selfcheck",
        action="store_true",
        help="run the internal consistency suites and report max errors",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.selfcheck:
        from .selfcheck import run_selfcheck

        return run_selfcheck()
    try:
        raw = _read_config(args.config) if args.config is not None else {}
        # Flags override the file before validation; an empty flag is a value.
        raw.update((key, value) for key, value in vars(args).items()
                   if key not in ("config", "selfcheck") and value is not None)
        cfg = _config_from_mapping(raw)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


def cli() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    cli()
