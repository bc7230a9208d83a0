"""The benchmark's traced functions exist in the package.

``bench/tracing.py`` wraps every ``(module, function)`` pair of its TRACED
list and reports a missing one only when a traced benchmark run starts; this
test reads the list from the file's source, without importing or changing
anything under ``bench/``, so a renamed or deleted function fails here.
"""

import ast
import importlib
from pathlib import Path

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
