"""The four default CLI runs reproduce the recorded outputs in bench/ref/.

Cells must agree at 9 significant digits (one unit of slack in the ninth
digit), ``n_links`` exactly, and ``inf`` must stay ``inf``. Crossing
distances in the printed summary may move by 0.02 m: the search tolerance
of 0.01 m plus the rounding of two printed values. The reference files are
only read.
"""

import math
import re
from pathlib import Path

import pytest

from v2vbounds.app import main

REF_DIR = Path(__file__).resolve().parent.parent / "bench" / "ref"
CROSSING_TOL_M = 0.02


def same_9g(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return False
    if math.isinf(a) or math.isinf(b):
        return a == b
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return True
    unit = 10.0 ** (math.floor(math.log10(scale)) - 8)
    return abs(a - b) <= unit * (1.0 + 1e-6)


def test_same_9g_rule():
    assert same_9g(1.23456789, 1.23456790)
    assert not same_9g(1.23456789, 1.23456791)
    assert same_9g(math.inf, math.inf)
    assert not same_9g(math.inf, 1e300)
    assert not same_9g(math.nan, math.nan)


def _split_numbers(line: str) -> tuple[str, list[float]]:
    number = r"-?\d+\.\d+"
    return re.sub(number, "#", line), [float(x) for x in re.findall(number, line)]


@pytest.mark.parametrize("preset", ["cfg_3p5GHz", "cfg_28GHz"])
@pytest.mark.parametrize("scenario", ["overtaking", "platooning"])
def test_default_run_matches_reference(tmp_path, capsys, scenario, preset):
    out = tmp_path / "run.csv"
    assert main(["--scenario", scenario, "--preset", preset, "--out", str(out)]) == 0
    got = out.read_text(encoding="utf-8").splitlines()
    ref = (REF_DIR / f"{scenario}_{preset}.csv").read_text(encoding="utf-8").splitlines()
    assert got[0] == ref[0]
    assert len(got) == len(ref)
    header = ref[0].split(",")
    for line_no, (g_line, r_line) in enumerate(zip(got[1:], ref[1:]), start=2):
        for column, g, r in zip(header, g_line.split(","), r_line.split(",")):
            if column == "n_links":
                assert g == r, f"line {line_no} {column}"
            else:
                assert same_9g(float(g), float(r)), f"line {line_no} {column}: {g} != {r}"

    stdout = capsys.readouterr().out.splitlines()
    assert stdout[0] == f"wrote {len(ref) - 1} rows to {out}"
    ref_summary = (REF_DIR / f"{scenario}_{preset}.summary.txt").read_text(
        encoding="utf-8"
    ).splitlines()
    assert len(stdout) - 1 == len(ref_summary)
    for g_line, r_line in zip(stdout[1:], ref_summary):
        g_words, g_nums = _split_numbers(g_line)
        r_words, r_nums = _split_numbers(r_line)
        assert g_words == r_words
        assert all(abs(a - b) <= CROSSING_TOL_M for a, b in zip(g_nums, r_nums)), g_line
