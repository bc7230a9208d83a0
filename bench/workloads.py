"""The benchmark's workloads: inputs, the operations of one pass, and checks.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned. A pass is a fixed list of operations;
the runner repeats passes until its time is up.

- ``sweep``: the four default CLI runs (two scenarios x two presets). No
  input is random; the seed is recorded but unused.
- ``points``: seeded random placements evaluated one at a time through
  ``scenarios.evaluate_point``, alternating presets.
- ``selfcheck``: the three consistency suites, seeded with the benchmark
  seed.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

REF_DIR = Path(__file__).resolve().parent / "ref"

PRESET_NAMES = ("cfg_3p5GHz", "cfg_28GHz")
SHORT_PRESET = {"cfg_3p5GHz": "3p5", "cfg_28GHz": "28"}  # in metric names
SCENARIO_NAMES = ("overtaking", "platooning")
CSV_BOUND_COLUMNS = (
    "peb_lat_both", "peb_lon_both", "peb_lat_aoa", "peb_lon_aoa", "oeb_both", "oeb_aoa",
)
# Bisection tolerance of the crossing search plus rounding of two printed
# values at 2 decimals.
CROSSING_TOL_M = 0.02
# Criterion 5b slack, as in the acceptance suite.
LOEWNER_SLACK_M = 1e-9
N_PLACEMENTS = 200
SELFCHECK_SEEDS = 3


@dataclass
class Op:
    """One timed call. ``run`` is timed; ``collect`` and ``check`` are not."""

    name: str
    run: Callable[[], Any]
    collect: Callable[[Any], Any]  # raw result -> comparable output
    check: Callable[[Any], list[str]]  # output -> problems (empty when correct)


def same_9g(a: float, b: float) -> bool:
    """Equal at 9 significant digits: infinities match exactly, finite values
    may differ by one unit in the ninth significant digit."""
    if math.isnan(a) or math.isnan(b):
        return False
    if math.isinf(a) or math.isinf(b):
        return a == b
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return True
    unit = 10.0 ** (math.floor(math.log10(scale)) - 8)
    return abs(a - b) <= unit * (1.0 + 1e-6)  # slack for rounding in the subtraction


def compare_csv(text: str, reference: str) -> list[str]:
    """Problems in a sweep CSV against its reference (empty when equal)."""
    got = text.strip().split("\n")
    ref = reference.strip().split("\n")
    if got[0] != ref[0]:
        return [f"header {got[0]!r} != {ref[0]!r}"]
    if len(got) != len(ref):
        return [f"{len(got) - 1} rows, reference has {len(ref) - 1}"]
    header = ref[0].split(",")
    problems = []
    for line_no, (g, r) in enumerate(zip(got[1:], ref[1:]), start=2):
        g_cells, r_cells = g.split(","), r.split(",")
        if len(g_cells) != len(r_cells):
            problems.append(f"line {line_no}: {len(g_cells)} cells")
            continue
        for column, gc, rc in zip(header, g_cells, r_cells):
            if column == "n_links":
                ok = gc == rc
            else:
                ok = same_9g(float(gc), float(rc))
            if not ok:
                problems.append(f"line {line_no} {column}: {gc} != reference {rc}")
        if len(problems) > 5:
            break
    return problems


def nan_columns(values: dict[str, float]) -> list[str]:
    return [f"{name} is NaN" for name in CSV_BOUND_COLUMNS if math.isnan(values[name])]


def _words_and_numbers(line: str) -> tuple[list[str], list[float]]:
    words, numbers = [], []
    for token in line.replace("=", " ").split():
        try:
            numbers.append(float(token))
        except ValueError:
            words.append(token)
    return words, numbers


def compare_summary(lines: list[str], reference: list[str]) -> list[str]:
    """Crossing-summary lines: same words, crossing distances within
    CROSSING_TOL_M of the reference."""
    if len(lines) != len(reference):
        return [f"{len(lines)} summary lines, reference has {len(reference)}"]
    problems = []
    for got, ref in zip(lines, reference):
        g_words, g_nums = _words_and_numbers(got)
        r_words, r_nums = _words_and_numbers(ref)
        if g_words != r_words or len(g_nums) != len(r_nums) or any(
            abs(a - b) > CROSSING_TOL_M for a, b in zip(g_nums, r_nums)
        ):
            problems.append(f"summary {got!r} != reference {ref!r}")
    return problems


class Workload:
    # Traced functions the workload calls directly. Functions are looked up
    # on their module at call time, so the tracer's wrappers see the calls.
    roots: tuple[str, ...] = ()
    # Time the reference kernel after every this many ops (see refkernel).
    ref_every = 1

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def named_metrics(self, times: dict[str, list[float]], pass_s: list[float]) -> dict:
        """The README's named end-to-end metrics: name -> (value, unit, samples)."""
        raise NotImplementedError


class Sweep(Workload):
    """The four default CLI runs; outputs must match the recorded CSVs."""

    roots = ("app.main",)

    def __init__(self, lib, tmp: Path):
        self.lib = lib
        self.tmp = tmp
        self.refs = {}
        for scenario in SCENARIO_NAMES:
            for preset in PRESET_NAMES:
                key = f"{scenario}_{preset}"
                self.refs[key] = (
                    (REF_DIR / f"{key}.csv").read_text(encoding="utf-8"),
                    (REF_DIR / f"{key}.summary.txt").read_text(encoding="utf-8").splitlines(),
                )
        self.rows_per_pass = sum(len(csv.strip().split("\n")) - 1 for csv, _ in self.refs.values())

    def _op(self, scenario: str, preset: str) -> Op:
        key = f"{scenario}_{preset}"
        out = self.tmp / f"{key}.csv"
        argv = ["--scenario", scenario, "--preset", preset, "--out", str(out)]
        app = self.lib.app
        ref_csv, ref_summary = self.refs[key]

        def run():
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = app.main(argv)
            return code, buffer.getvalue()

        def collect(raw):
            code, stdout = raw
            text = out.read_text(encoding="utf-8") if out.exists() else ""
            out.unlink(missing_ok=True)
            return code, stdout.replace(str(out), "<out>"), text

        def check(output):
            code, stdout, text = output
            if code != 0:
                return [f"exit code {code}"]
            problems = compare_csv(text, ref_csv)
            lines = text.strip().split("\n")
            header = lines[0].split(",")
            for line in lines[1:]:
                problems += nan_columns(dict(zip(header, map(float, line.split(",")))))
            stdout_lines = stdout.splitlines()
            n_rows = len(ref_csv.strip().split("\n")) - 1
            if not stdout_lines or stdout_lines[0] != f"wrote {n_rows} rows to <out>":
                problems.append(f"unexpected first stdout line {stdout_lines[:1]}")
            problems += compare_summary(stdout_lines[1:], ref_summary)
            return problems

        return Op(key, run, collect, check)

    def ops(self) -> list[Op]:
        return [self._op(s, p) for s in SCENARIO_NAMES for p in PRESET_NAMES]

    def named_metrics(self, times, pass_s):
        n = len(pass_s)
        out = {"sweep_rows_per_s": (self.rows_per_pass / statistics.median(pass_s), "1/s", n)}
        for scenario in SCENARIO_NAMES:
            for preset in PRESET_NAMES:
                samples = times[f"{scenario}_{preset}"]
                out[f"{scenario}_{SHORT_PRESET[preset]}_s"] = (statistics.median(samples), "s", len(samples))
        return out


def placements(seed: int, count: int = N_PLACEMENTS) -> list[tuple[float, float, float]]:
    """(q_x, q_y, alpha_t): positions in a 5..40 m annulus, uniform heading."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        radius = float(rng.uniform(5.0, 40.0))
        angle = float(rng.uniform(-math.pi, math.pi))
        heading = float(rng.uniform(-math.pi, math.pi))
        out.append((radius * math.cos(angle), radius * math.sin(angle), heading))
    return out


ROW_FIELDS = ("q_x", "q_y", "d_y", "n_links") + CSV_BOUND_COLUMNS


def row_values(row) -> dict[str, float]:
    return {name: getattr(row, name) for name in ROW_FIELDS}


def points_reference_path(seed: int) -> Path:
    return REF_DIR / f"points_{seed}.csv"


class Points(Workload):
    """Single placements; checks NaN, criterion 5b and, where a reference
    was recorded for the seed, every value."""

    roots = ("scenarios.evaluate_point",)
    ref_every = 50

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.inputs = placements(seed)
        ref_path = points_reference_path(seed)
        self.reference = None
        if ref_path.exists():
            lines = ref_path.read_text(encoding="utf-8").strip().split("\n")
            header = lines[0].split(",")
            self.reference = [dict(zip(header, line.split(","))) for line in lines[1:]]

    def _op(self, i: int) -> Op:
        x, y, heading = self.inputs[i]
        preset_name = PRESET_NAMES[i % 2]
        preset = self.lib.scenarios.PRESETS[preset_name]
        q = self.lib.geometry.Vec2(x, y)
        scenarios = self.lib.scenarios
        ref = self.reference[i] if self.reference else None

        def run():
            return scenarios.evaluate_point(preset, q, alpha_t=heading)

        def check(row):
            values = row_values(row)
            problems = nan_columns(values)
            for both, aoa in (("peb_lat_both", "peb_lat_aoa"), ("peb_lon_both", "peb_lon_aoa")):
                if values[both] - values[aoa] > LOEWNER_SLACK_M:
                    problems.append(f"{both} {values[both]} > {aoa} {values[aoa]} (5b)")
            if ref is not None:
                if (ref["preset"], int(ref["n_links"])) != (preset_name, values["n_links"]):
                    problems.append(f"n_links {values['n_links']} != reference {ref['n_links']} "
                                    f"({ref['preset']})")
                for name in ROW_FIELDS:
                    if name != "n_links" and not same_9g(values[name], float(ref[name])):
                        problems.append(f"{name} {values[name]!r} != reference {ref[name]}")
            return [f"placement {i} ({preset_name}): {p}" for p in problems]

        return Op(preset_name, run, lambda row: row, check)

    def ops(self) -> list[Op]:
        return [self._op(i) for i in range(len(self.inputs))]

    def named_metrics(self, times, pass_s):
        # Per preset: pooled over both, the latencies form two modes and
        # the pooled median falls in the gap between them.
        out = {}
        for preset in PRESET_NAMES:
            ms = [t * 1e3 for t in times[preset]]
            deciles = statistics.quantiles(ms, n=10)
            out[f"point_ms_p50_{SHORT_PRESET[preset]}"] = (statistics.median(ms), "ms", len(ms))
            out[f"point_ms_p90_{SHORT_PRESET[preset]}"] = (deciles[8], "ms", len(ms))
        return out


class Selfcheck(Workload):
    """The three suites at SELFCHECK_SEEDS consecutive seeds from the
    benchmark seed; every error must stay below its module tolerance.

    Suite cost depends on the random scenes, so one seed per pass let the
    input alone move the median by several percent from seed to seed. The
    first seed is the benchmark seed itself, so the default seed runs the
    suites of ``v2vbounds --selfcheck`` exactly.
    """

    roots = (
        "selfcheck.closed_vs_schur_errors",
        "selfcheck.analytic_vs_fd_errors",
        "selfcheck.reference_invariance_error",
    )

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.seeds = [seed + i for i in range(SELFCHECK_SEEDS)]

    def ops(self) -> list[Op]:
        sc = self.lib.selfcheck

        def below(tol):
            def check(errors):
                errors = errors if isinstance(errors, tuple) else (errors,)
                return [f"error {e!r} not below {tol:g}" for e in errors if not e < tol]
            return check

        def same(x):
            return x

        ops = []
        for seed in self.seeds:
            # Look the suites up at call time, so the tracer's wrappers see them.
            ops += [
                Op("closed_vs_schur", lambda seed=seed: sc.closed_vs_schur_errors(seed=seed),
                   same, below(sc.CLOSED_VS_SCHUR_TOL)),
                Op("fd_twin", lambda seed=seed: sc.analytic_vs_fd_errors(seed=seed),
                   same, below(sc.ANALYTIC_VS_FD_TOL)),
                Op("reference_invariance",
                   lambda seed=seed: sc.reference_invariance_error(seed=seed),
                   same, below(sc.REFERENCE_INVARIANCE_TOL)),
            ]
        return ops

    def named_metrics(self, times, pass_s):
        per_selfcheck = [t / len(self.seeds) for t in pass_s]
        return {
            "selfcheck_s": (statistics.median(per_selfcheck), "s", len(pass_s)),
            "closed_vs_schur_s": (statistics.median(times["closed_vs_schur"]), "s",
                                  len(times["closed_vs_schur"])),
            "fd_twin_s": (statistics.median(times["fd_twin"]), "s", len(times["fd_twin"])),
        }


def make(name: str, lib, seed: int, tmp: Path) -> Workload:
    if name == "sweep":
        return Sweep(lib, tmp)
    if name == "points":
        return Points(lib, seed)
    return Selfcheck(lib, seed)

