"""Print the named end-to-end metrics of every workload.

Usage (from the repository root):

    python3 bench/report.py [--seed N] [--seconds S]

Runs ``bench/run.py`` untraced once per workload, each in its own process
so that set-up time and peak memory are per workload, and prints every
named metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("sweep", "points", "selfcheck")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args()
    status = 0
    for workload in WORKLOADS:
        command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                   "--seconds", str(args.seconds), "--trace", "0"]
        if args.seed is not None:
            command += ["--seed", str(args.seed)]
        proc = subprocess.run(command, capture_output=True, text=True, cwd=BENCH_DIR.parent)
        lines = proc.stdout.splitlines()
        details = [line.split(": ", 1)[1] for line in lines if line.startswith("  details: ")]
        if proc.returncode != 0 or not details:
            print(f"{workload}: run failed (exit {proc.returncode})\n{proc.stderr}")
            status = 1
            continue
        detail = json.loads((BENCH_DIR.parent / details[0]).read_text(encoding="utf-8"))
        result = detail["result"]
        print(f"{workload} (seed {detail['manifest']['seed']}, correct {result['correct']}, "
              f"{result['failed']} failed of {result['attempted']})")
        for name, entry in detail["named_metrics"].items():
            print(f"  {name:20s} {entry['value']:<12.6g} {entry['unit']:6s} n={entry['samples']}")
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
