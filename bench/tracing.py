"""Span recording around the library's public functions, from outside it.

The tracer swaps each traced function for a wrapper in every ``v2vbounds``
module namespace that holds it, because modules import names directly
(``fim_general`` imports ``bounds_from_fim``, ``selfcheck`` imports
``calibrated_scene``, ...). Patching only the defining module would miss
those calls. Spans live in memory; ``write_spans`` saves them when the run
ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

# (module, function) pairs whose calls become spans. The module is the
# layer. The listed functions are the layer boundaries named in the README;
# app.main and the three selfcheck suites are the entry points the
# workloads call, so every measured second sits under some span.
TRACED = (
    ("app", "main"),
    ("app", "emit_csv"),
    ("scenarios", "evaluate_point"),
    ("scenarios", "calibrated_scene"),
    ("scenarios", "build_scene"),
    ("scenarios", "scenario_crossing"),
    ("geometry", "build_cornered_vehicle"),
    ("geometry", "active_links"),
    ("waveform", "interleaved_allocation"),
    ("waveform", "effective_bandwidths"),
    ("channel", "link_gains"),
    ("fim_closed", "link_info_vectors"),
    ("fim_closed", "efim_aoa_tdoa"),
    ("fim_closed", "efim_aoa_only"),
    ("fim_closed", "bounds_from_fim"),
    ("fim_general", "fim_channel"),
    ("fim_general", "fim_channel_fd"),
    ("fim_general", "transform_matrix"),
    ("fim_general", "efim_schur"),
    ("selfcheck", "closed_vs_schur_errors"),
    ("selfcheck", "analytic_vs_fd_errors"),
    ("selfcheck", "reference_invariance_error"),
)

PACKAGE = "v2vbounds"


def _active_links_counts(args, kwargs, result, raised):
    scene = args[0] if args else kwargs["scene"]
    kept = 0 if raised else len(result)
    return {"pairs": len(scene.tx_vehicle.panels) * len(scene.rx_vehicle.panels), "kept": kept}


def _bounds_counts(args, kwargs, result, raised):
    return {"singular": 0 if raised else int(result.singular)}


def _fim_channel_counts(args, kwargs, result, raised):
    scene, links = args[0], args[1]
    samples = sum(
        len(scene.allocation.per_array_sets[link.tx_panel])
        * scene.rx_vehicle.panels[link.rx_panel].n_elements
        for link in links
    )
    return {"samples": samples}


def _fim_channel_fd_counts(args, kwargs, result, raised):
    # Central differences: two mean evaluations per channel parameter, four
    # parameters per link.
    return {"evals": 2 * 4 * len(args[1])}


# Work counts computed from each call's inputs and result.
COUNTERS: dict[str, Callable] = {
    "geometry.active_links": _active_links_counts,
    "fim_closed.bounds_from_fim": _bounds_counts,
    "fim_general.fim_channel": _fim_channel_counts,
    "fim_general.fim_channel_fd": _fim_channel_fd_counts,
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    failed: bool = False
    counts: dict | None = None


@dataclass
class Tracer:
    """Installs wrappers around the TRACED functions and records spans."""

    spans: list[Span] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _originals: dict[str, Callable] = field(default_factory=dict)
    _wrappers: dict[str, Callable] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for module_name, func_name in TRACED:
            key = f"{module_name}.{func_name}"
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(module, func_name, None) if module else None
            if original is None:
                self.missing.append(key)
                continue
            self._originals[key] = original
            self._wrappers[key] = self._wrap(key, original)

    def _wrap(self, key: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = Span(key, 0.0, parent=stack[-1] if stack else -1)
            spans.append(span)
            stack.append(index)
            result = None
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                if counter is not None:
                    span.counts = counter(args, kwargs, result, span.failed)
            return result

        return wrapper

    def _swap(self, old: dict[str, Callable], new: dict[str, Callable]) -> None:
        by_id = {id(fn): new[key] for key, fn in old.items()}
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                replacement = by_id.get(id(value))
                if replacement is not None:
                    setattr(module, attr, replacement)

    def leftovers(self, stale: dict[str, Callable]) -> list[str]:
        """Module attributes still bound to a function of ``stale``."""
        ids = {id(fn): key for key, fn in stale.items()}
        found = []
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in vars(module).items():
                if id(value) in ids:
                    found.append(f"{name}.{attr} -> {ids[id(value)]}")
        return found

    def install(self) -> list[str]:
        """Patch every namespace; returns names the patch failed to reach."""
        self._swap(self._originals, self._wrappers)
        return self.leftovers(self._originals)

    def uninstall(self) -> list[str]:
        self._swap(self._wrappers, self._originals)
        return self.leftovers(self._wrappers)


@dataclass
class PassProfile:
    """Per-function totals for one traced pass."""

    calls: dict[str, int]
    failed: dict[str, int]
    self_s: dict[str, float]
    incl_s: dict[str, float]
    counts: dict[str, int]  # exact work counts, see exact_counts()
    root_s: float  # time covered by spans: sum of root-span durations


def profile(spans: list[Span], first: int, last: int) -> PassProfile:
    """Aggregate spans[first:last]; parents always precede their children."""
    keys = [f"{m}.{f}" for m, f in TRACED]
    calls = dict.fromkeys(keys, 0)
    failed = dict.fromkeys(keys, 0)
    self_s = dict.fromkeys(keys, 0.0)
    incl_s = dict.fromkeys(keys, 0.0)
    counts = {
        "active_links.pairs": 0,
        "active_links.kept": 0,
        "bounds_from_fim.singular": 0,
        "fim_channel.samples": 0,
        "fim_channel_fd.evals": 0,
        "crossing.evals": 0,
    }
    child_time = [0.0] * (last - first)
    in_crossing = [False] * (last - first)
    root_s = 0.0
    for i in range(first, last):
        span = spans[i]
        duration = span.end - span.start
        local_parent = span.parent - first
        if span.parent < first:
            root_s += duration
        else:
            child_time[local_parent] += duration
            in_crossing[i - first] = in_crossing[local_parent] or (
                spans[span.parent].name == "scenarios.scenario_crossing"
            )
        calls[span.name] += 1
        failed[span.name] += span.failed
        incl_s[span.name] += duration
        if span.name == "scenarios.evaluate_point" and in_crossing[i - first]:
            counts["crossing.evals"] += 1
        if span.counts:
            prefix = span.name.split(".", 1)[1]
            for key, value in span.counts.items():
                counts[f"{prefix}.{key}"] += value
    for i in range(first, last):
        span = spans[i]
        self_s[span.name] += (span.end - span.start) - child_time[i - first]
    return PassProfile(calls, failed, self_s, incl_s, counts, root_s)


def exact_counts(p: PassProfile) -> dict[str, int]:
    """Everything in a pass profile that must repeat exactly."""
    out = {f"{k}.calls": v for k, v in p.calls.items()}
    out.update({f"{k}.failed": v for k, v in p.failed.items()})
    out.update(p.counts)
    return out


def layer_metrics(passes: list[PassProfile]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per pass: exact counts, median self/inclusive times."""
    first = passes[0]
    metrics: dict[str, tuple[float, str]] = {}
    for m, f in TRACED:
        key = f"{m}.{f}"
        metrics[f"{key}.calls"] = (first.calls[key], "count")
        metrics[f"{key}.self_s"] = (statistics.median(p.self_s[key] for p in passes), "s")
        metrics[f"{key}.incl_s"] = (statistics.median(p.incl_s[key] for p in passes), "s")
        metrics[f"{key}.failed"] = (first.failed[key], "count")
    c = first.counts
    crossings = first.calls["scenarios.scenario_crossing"]
    fd_calls = first.calls["fim_general.fim_channel_fd"]
    bounds_calls = first.calls["fim_closed.bounds_from_fim"]
    metrics["geometry.active_links.links_per_pair"] = (
        c["active_links.kept"] / c["active_links.pairs"] if c["active_links.pairs"] else 0.0,
        "ratio",
    )
    metrics["scenarios.scenario_crossing.evals_per_search"] = (
        c["crossing.evals"] / crossings if crossings else 0.0, "count",
    )
    metrics["fim_closed.bounds_from_fim.singular_frac"] = (
        c["bounds_from_fim.singular"] / bounds_calls if bounds_calls else 0.0, "ratio",
    )
    metrics["fim_general.fim_channel.samples"] = (c["fim_channel.samples"], "count")
    metrics["fim_general.fim_channel_fd.mean_evals"] = (
        c["fim_channel_fd.evals"] / fd_calls if fd_calls else 0.0, "count",
    )
    return metrics


def write_spans(spans: list[Span], path: Path) -> None:
    """Save spans as CSV: index, name, start, end, parent, failed."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("index,name,start,end,parent,failed\n")
        for i, s in enumerate(spans):
            handle.write(f"{i},{s.name},{s.start:.9f},{s.end:.9f},{s.parent},{int(s.failed)}\n")
