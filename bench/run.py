"""v2vbounds benchmark: one workload, timed end to end or traced per layer.

Usage (from the repository root):

    python3 bench/run.py --workload {sweep,points,selfcheck} [--seed N]
                         [--seconds S] [--trace {0,1}]

The library is imported from ``src/`` of the checkout this file sits in.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. A
fuller result (manifest, named metrics with sample counts, problems) goes
to ``bench/out/``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
# First row of the default overtaking sweep: q = (-3.5, -30) m, no heading.
PROBE_POINT = (-3.5, -30.0, 0.0)
COVERAGE_MIN = 0.9
MAX_PROBLEMS = 50


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cap_thread_vars() -> dict[str, str | None]:
    """Cap thread-count variables at nproc; must run before numpy loads."""
    limit = nproc()
    for var in THREAD_VARS:
        value = os.environ.get(var)
        if value is not None and value.isdigit() and int(value) > limit:
            os.environ[var] = str(limit)
    return {var: os.environ.get(var) for var in THREAD_VARS}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "none"


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "v2vbounds").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def manifest(args, seed: int, threads: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_model": cpu_model(),
        "nproc": nproc(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": threads,
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
    }


def load_library() -> SimpleNamespace:
    sys.path.insert(0, str(SRC))
    from v2vbounds import app, geometry, scenarios, selfcheck

    return SimpleNamespace(app=app, geometry=geometry, scenarios=scenarios, selfcheck=selfcheck)


@dataclass
class PassResult:
    times: list[float] = field(default_factory=list)  # per op, seconds
    covered: list[float] = field(default_factory=list)  # per op, under root spans
    norm: float = 0.0  # pass time in reference-kernel units
    refs: list[float] = field(default_factory=list)  # reference-kernel times


class Runner:
    """Runs passes over a fixed op list and keeps the failure accounting."""

    def __init__(self, ops, time_reference):
        self.ops = ops
        self.time_reference = time_reference
        self.baseline: list = []
        self.attempted = 0
        self.failed = 0
        self.faults: list[str] = []
        self.problems: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)

    def fault(self, message: str) -> None:
        if len(self.faults) < MAX_PROBLEMS:
            self.faults.append(message)

    def _run_op(self, k: int, op, label: str, first: bool, tracer) -> tuple[float, float]:
        """Time one op and check it; returns its time and, when traced, the
        part of it that lies under root spans."""
        self.attempted += 1
        mark = len(tracer.spans) if tracer else 0
        start = perf_counter()
        try:
            raw = op.run()
        except Exception as exc:  # one failed op must not end the run
            elapsed = perf_counter() - start
            self.fail(f"{label} {op.name}: {type(exc).__name__}: {exc}")
            if first:
                self.baseline.append(None)
            return elapsed, 0.0
        elapsed = perf_counter() - start
        covered = 0.0
        if tracer:
            covered = sum(s.end - s.start for s in tracer.spans[mark:] if s.parent == -1)
        output = op.collect(raw)
        if first:
            self.baseline.append(output)
            try:
                problems = op.check(output)
            except (ValueError, TypeError, KeyError, IndexError) as exc:
                problems = [f"malformed output: {type(exc).__name__}: {exc}"]
            if problems:
                self.fail(f"{label} {op.name}: " + "; ".join(problems[:5]))
        elif output != self.baseline[k]:
            self.fail(f"{label} {op.name}: output differs from the first pass")
        return elapsed, covered

    def run_pass(self, label: str, tracer=None, ref_every: int = 0) -> PassResult:
        """One pass over the ops. The first pass checks every output and
        becomes the baseline; later passes must reproduce it exactly.

        With ``ref_every`` > 0, reference-kernel blocks are timed before the
        first op, after every ``ref_every`` ops and after the last op. Each
        group of ops is divided by the median of the two blocks around it,
        so a change of machine speed within the pass is followed.
        """
        result = PassResult()
        first = not self.baseline
        blocks = [self.time_reference()] if ref_every else []
        for k, op in enumerate(self.ops):
            elapsed, covered = self._run_op(k, op, label, first, tracer)
            result.times.append(elapsed)
            result.covered.append(covered)
            if ref_every and ((k + 1) % ref_every == 0 or k + 1 == len(self.ops)):
                blocks.append(self.time_reference())
        for g in range(len(blocks) - 1):
            group = result.times[g * ref_every:(g + 1) * ref_every]
            result.norm += sum(group) / statistics.median(blocks[g] + blocks[g + 1])
            result.refs += blocks[g]
        if blocks:
            result.refs += blocks[-1]
        return result


class SetupProbe:
    """Fresh interpreters that import, calibrate and evaluate the probe
    point, timed from process start to exit."""

    def __init__(self, runner: Runner, lib):
        q_x, q_y, alpha_t = PROBE_POINT
        row = lib.scenarios.evaluate_point(
            lib.scenarios.PRESETS["cfg_3p5GHz"], lib.geometry.Vec2(q_x, q_y), alpha_t=alpha_t
        )
        self.expected = "".join(f"{getattr(row, f.name)!r}\n" for f in fields(row))
        self.command = [sys.executable, str(BENCH_DIR / "probe.py"), str(SRC),
                        str(q_x), str(q_y), str(alpha_t)]
        self.runner = runner

    def run(self) -> float:
        self.runner.attempted += 1
        start = perf_counter()
        try:
            proc = subprocess.run(self.command, capture_output=True, text=True,
                                  timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            self.runner.fail(f"set-up probe: no exit within {PROBE_TIMEOUT_S} s")
            return perf_counter() - start
        elapsed = perf_counter() - start
        if proc.returncode != 0 or proc.stdout != self.expected:
            self.runner.fail(f"set-up probe: exit {proc.returncode}, "
                             f"output {proc.stdout[:200]!r}, stderr {proc.stderr[-300:]!r}")
        return elapsed


def peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(args, lib, workload, runner: Runner, detail: dict) -> dict:
    """Warm-up, then passes until time is up. The set-up probes run between
    passes, so their median spans the run rather than one moment of it."""
    probe = SetupProbe(runner, lib)
    probe.run()  # untimed: fills the bytecode cache
    runner.run_pass("warm-up")
    passes, norm, refs, op_times, setup = [], [], [], {}, []
    deadline = perf_counter() + args.seconds
    while len(passes) < MIN_PASSES or perf_counter() < deadline:
        result = runner.run_pass("pass", ref_every=workload.ref_every)
        passes.append(sum(result.times))
        norm.append(result.norm)
        refs += result.refs
        for op, t in zip(runner.ops, result.times):
            op_times.setdefault(op.name, []).append(t)
        if len(setup) < SETUP_PROBES:
            setup.append(probe.run())
    while len(setup) < SETUP_PROBES:
        setup.append(probe.run())
    rss = peak_rss_mb()
    metrics = {
        "pass_norm": (statistics.median(norm), "ratio"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    named = {
        "setup_s": (metrics["setup_s"][0], "s", len(setup)),
        "peak_rss_mb": (rss, "MB", 1),
        "error_rate": (runner.failed / runner.attempted, "ratio", runner.attempted),
        "pass_s": (statistics.median(passes), "s", len(passes)),
        "pass_norm": (metrics["pass_norm"][0], "ratio", len(norm)),
        "ref_kernel_ms": (statistics.median(refs) * 1e3, "ms", len(refs)),
        **workload.named_metrics(op_times, passes),
    }
    detail["named_metrics"] = {k: {"value": v, "unit": u, "samples": n}
                               for k, (v, u, n) in named.items()}
    return metrics


def run_traced(args, lib, workload, runner: Runner, detail: dict) -> dict:
    from tracing import Tracer, exact_counts, layer_metrics, profile, write_spans

    tracer = Tracer()
    for key in tracer.missing:
        runner.fault(f"traced function {key} not found")
    runner.run_pass("warm-up")
    untraced, traced, profiles, uncovered = [], [], [], {}
    deadline = perf_counter() + args.seconds
    while len(traced) < MIN_TRACED_PASSES or perf_counter() < deadline:
        untraced.append(sum(runner.run_pass("pass").times))
        first_span = len(tracer.spans)
        for leftover in tracer.install():
            runner.fault(f"wrapper did not reach {leftover}")
        try:
            result = runner.run_pass("traced pass", tracer)
        finally:
            for leftover in tracer.uninstall():
                runner.fault(f"original not restored at {leftover}")
        traced.append(sum(result.times))
        profiles.append(profile(tracer.spans, first_span, len(tracer.spans)))
        for op, t, c in zip(runner.ops, result.times, result.covered):
            uncovered[op.name] = uncovered.get(op.name, 0.0) + t - c
    reference = exact_counts(profiles[0])
    for i, p in enumerate(profiles[1:], start=2):
        diff = {k: (reference[k], v) for k, v in exact_counts(p).items() if v != reference[k]}
        if diff:
            runner.fault(f"exact counts of traced pass {i} differ from pass 1: {diff}")
    metrics = layer_metrics(profiles)
    coverage = [p.root_s / t for p, t in zip(profiles, traced)]
    metrics["trace.coverage"] = (statistics.median(coverage), "ratio")
    metrics["trace.uncovered_s"] = (
        statistics.median(t - p.root_s for p, t in zip(profiles, traced)), "s",
    )
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0, "ratio",
    )
    if metrics["trace.coverage"][0] < COVERAGE_MIN:
        runner.fault(f"span coverage {metrics['trace.coverage'][0]:.3f} < {COVERAGE_MIN}")
    zero = [k[:-len(".calls")] for k, (v, _) in metrics.items()
            if k.endswith(".calls") and v == 0]
    for key in workload.roots:
        if metrics[f"{key}.calls"][0] == 0:
            runner.fault(f"{key} is called by the workload but no span recorded it")
    detail["samples"] = {"untraced_passes": len(untraced), "traced_passes": len(traced)}
    top = sorted((k for k in metrics if k.endswith(".self_s")), key=lambda k: -metrics[k][0])
    detail["named_metrics"] = {
        k: {"value": metrics[k][0], "unit": metrics[k][1], "samples": len(traced)}
        for k in ["trace.coverage", "trace.uncovered_s", "trace.overhead_frac", *top[:6]]
    }
    detail["uncalled"] = zero
    detail["uncovered_s_per_pass_by_op"] = {k: v / len(traced) for k, v in uncovered.items()}
    spans_path = OUT_DIR / f"spans-{args.workload}-{detail['manifest']['seed']}.csv"
    write_spans(tracer.spans, spans_path)
    detail["spans_file"] = str(spans_path.relative_to(ROOT))
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "points", "selfcheck"))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the selfcheck's documented seed)")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must not be negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "v2vbounds" / "__init__.py").is_file():
        print(f"error: no v2vbounds package under {SRC}", file=sys.stderr)
        return 2
    threads = cap_thread_vars()
    lib = load_library()
    import workloads
    from refkernel import time_reference

    seed = lib.selfcheck.SELFCHECK_SEED if args.seed is None else args.seed
    detail = {"manifest": manifest(args, seed, threads)}
    OUT_DIR.mkdir(exist_ok=True)
    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        workload = workloads.make(args.workload, lib, seed, tmp)
        runner = Runner(workload.ops(), time_reference)
        run = run_traced if args.trace else run_untraced
        metrics = run(args, lib, workload, runner, detail)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    detail["problems"] = runner.problems
    detail["faults"] = runner.faults
    result = {
        "correct": runner.failed == 0 and not runner.faults,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail["result"] = result
    result_path = OUT_DIR / f"result-{args.workload}-{seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {seed}  trace {args.trace}  "
          f"attempted {runner.attempted}  failed {runner.failed}")
    for name, entry in detail.get("named_metrics", {}).items():
        print(f"  {name:40s} {entry['value']:<14.6g} {entry['unit']:6s} n={entry['samples']}")
    for message in runner.problems + runner.faults:
        print(f"  problem: {message}")
    print(f"  details: {result_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
