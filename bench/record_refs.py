"""Record the reference outputs the benchmark checks against.

Usage (from the repository root): python3 bench/record_refs.py

Writes ``bench/ref/``: the CSV and crossing-summary lines of the four
default CLI runs, and the rows of the ``points`` workload at the default
seed. The references in the repository were recorded from the library as
it stood when the benchmark was added; record again only when an output
change has been reviewed and accepted.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from v2vbounds import app, geometry, scenarios, selfcheck  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    ref = workloads.REF_DIR
    ref.mkdir(exist_ok=True)
    for scenario in workloads.SCENARIO_NAMES:
        for preset in workloads.PRESET_NAMES:
            key = f"{scenario}_{preset}"
            out = ref / f"{key}.csv"
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = app.main(["--scenario", scenario, "--preset", preset, "--out", str(out)])
            if code != 0:
                raise SystemExit(f"{key}: exit code {code}")
            summary = buffer.getvalue().splitlines()[1:]
            (ref / f"{key}.summary.txt").write_text("\n".join(summary) + "\n", encoding="utf-8")

    seed = selfcheck.SELFCHECK_SEED
    lines = ["preset," + ",".join(workloads.ROW_FIELDS)]
    for i, (x, y, heading) in enumerate(workloads.placements(seed)):
        preset = workloads.PRESET_NAMES[i % 2]
        row = scenarios.evaluate_point(
            scenarios.PRESETS[preset], geometry.Vec2(x, y), alpha_t=heading
        )
        values = workloads.row_values(row)
        lines.append(preset + "," + ",".join(repr(values[name]) for name in workloads.ROW_FIELDS))
    workloads.points_reference_path(seed).write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
