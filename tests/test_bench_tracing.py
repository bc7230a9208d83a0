"""The benchmark's package surface exists in the package, and its work
counters read what the package's calls give them.

``bench/tracing.py`` wraps every ``(module, function)`` pair of its TRACED
list and reports a missing one only when a traced benchmark run starts; the
first test reads the list from the file's source, so a renamed or deleted
function fails here. The second loads the file by path, changing nothing
under ``bench/``, and applies each COUNTERS entry to a real call, so a
reshaped argument or result (a Scene without its vehicles, say) fails here
rather than in a traced run. The third reads the other bench files' sources
without running them: every package name they reach must exist, and every
direct call of one must bind to its signature, so a deleted name or a
changed parameter fails here rather than in a benchmark run.
"""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

import numpy as np

import v2vbounds
from v2vbounds.geometry import active_links

from conftest import small_scene

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
BENCH_SOURCES = [TRACING.with_name(name)
                 for name in ("probe.py", "run.py", "workloads.py", "record_refs.py")]
MODULES = {module.name for module in pkgutil.iter_modules(v2vbounds.__path__)}
ALIASES = {"sc": "selfcheck"}  # workloads.py's name for the module


def traced_pairs() -> list[tuple[str, str]]:
    """The TRACED assignment of bench/tracing.py, as a literal."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {TRACING}")


def test_every_traced_function_resolves():
    pairs = traced_pairs()
    assert len(pairs) >= 20
    missing = [f"{module}.{name}" for module, name in pairs
               if not callable(getattr(importlib.import_module(f"v2vbounds.{module}"), name, None))]
    assert missing == []


def test_counters_read_real_calls(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's string annotations through sys.modules;
    # no bytecode cache is written next to the file.
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(tracing)
    scene = small_scene()  # 2 x 2 panels, all linked; 4 subcarriers per Tx array, 2 elements
    links = active_links(scene)
    # Each counter reads only a call's first two arguments.
    calls = {
        "geometry.active_links": ((scene,), {"pairs": 4, "kept": 4}),
        "fim_closed.bounds_from_fim": ((np.eye(3),), {"singular": 0}),
        "fim_general.fim_channel": ((scene, links), {"samples": 4 * 4 * 2}),
        "fim_general.fim_channel_fd": ((scene, links), {"evals": 2 * 4 * 4}),
    }
    assert set(tracing.COUNTERS) == set(calls)
    for key, counter in tracing.COUNTERS.items():
        module, name = key.split(".")
        args, expected = calls[key]
        result = getattr(importlib.import_module(f"v2vbounds.{module}"), name)(*args)
        assert counter(args, {}, result, False) == expected, key


def dotted(node: ast.AST) -> list[str]:
    """The names of an attribute chain a.b.c ([a] for a bare name), or []
    when the chain does not start at a name."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return [node.id, *reversed(names)] if isinstance(node, ast.Name) else []


def package_uses(path: Path) -> list[tuple[str, ast.Call | None]]:
    """Every ``<module>.<name>`` of the package that a bench file reaches,
    with the call that calls it directly (None if none): names imported
    from ``v2vbounds.<module>``, and ``<module>.<name>`` with the module
    named as itself, as ``lib.<module>`` or through ALIASES. A module imported
    from the package itself reads as ``<module>.``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    uses, imported = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("v2vbounds"):
            for alias in node.names:
                module = node.module.partition(".")[2]
                name = f"{module}.{alias.name}" if module else f"{alias.name}."
                imported[alias.asname or alias.name] = name
                uses.append((name, None))
    for node in ast.walk(tree):
        names = dotted(node)
        names = names[names.index("lib") + 1:] if "lib" in names else names
        module = ALIASES.get(names[0], names[0]) if names else None
        if isinstance(node, ast.Name) and node.id in imported:
            uses.append((imported[node.id], calls.get(id(node))))
        elif module in MODULES and len(names) >= 2:
            uses.append((f"{module}.{names[1]}", calls.get(id(node)) if len(names) == 2 else None))
    return uses


def test_bench_reaches_only_package_names_that_exist():
    uses = [(path.name, name, call) for path in BENCH_SOURCES for name, call in package_uses(path)]
    reached = {name for _, name, _ in uses}
    suites = {f"selfcheck.{suite}" for suite in (
        "closed_vs_schur_errors", "analytic_vs_fd_errors", "reference_invariance_error")}
    assert {"scenarios.PRESETS", "scenarios.calibrated_power", "scenarios.evaluate_point",
            "geometry.Vec2", "app.main", "selfcheck.SELFCHECK_SEED", "selfcheck.CLOSED_VS_SCHUR_TOL",
            "selfcheck.ANALYTIC_VS_FD_TOL", "selfcheck.REFERENCE_INVARIANCE_TOL"} | suites <= reached
    assert suites <= {name for _, name, call in uses if call is not None}
    problems = []
    for file, name, call in uses:
        module, _, attr = name.partition(".")
        try:
            owner = importlib.import_module(f"v2vbounds.{module}")
            target = getattr(owner, attr) if attr else owner
        except (ImportError, AttributeError) as exc:
            problems.append(f"{file}: {name}: {exc}")
            continue
        if call is not None:
            # The arguments' own values do not matter; the AST nodes stand in for them.
            try:
                inspect.signature(target).bind(*call.args,
                                               **{kw.arg: kw.value for kw in call.keywords})
            except TypeError as exc:
                problems.append(f"{file}: {name}(...): {exc}")
    assert problems == []
