"""The benchmark's traced functions exist in the package, and its work
counters read what the package's calls give them.

``bench/tracing.py`` wraps every ``(module, function)`` pair of its TRACED
list and reports a missing one only when a traced benchmark run starts; the
first test reads the list from the file's source, so a renamed or deleted
function fails here. The second loads the file by path, changing nothing
under ``bench/``, and applies each COUNTERS entry to a real call, so a
reshaped argument or result (a Scene without its vehicles, say) fails here
rather than in a traced run.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from v2vbounds.channel import link_gains
from v2vbounds.geometry import active_links

from conftest import small_scene

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
    gains = link_gains(scene, links)
    calls = {
        "geometry.active_links": ((scene,), {"pairs": 4, "kept": 4}),
        "fim_closed.bounds_from_fim": ((np.eye(3),), {"singular": 0}),
        "fim_general.fim_channel": ((scene, links, gains), {"samples": 4 * 4 * 2}),
        "fim_general.fim_channel_fd": ((scene, links, gains), {"evals": 2 * 4 * 4}),
    }
    assert set(tracing.COUNTERS) == set(calls)
    for key, counter in tracing.COUNTERS.items():
        module, name = key.split(".")
        args, expected = calls[key]
        result = getattr(importlib.import_module(f"v2vbounds.{module}"), name)(*args)
        assert counter(args, {}, result, False) == expected, key
