"""A fixed reference kernel that measures the machine's current speed.

On a shared machine the speed of one vCPU drifts by tens of percent over
periods longer than a run, so raw wall times of runs made minutes apart
disagree by more than any useful bound. Everything the library does runs
at that drifting speed. Timing this kernel between operations and dividing
by it removes the drift while keeping changes to the library's own cost.

The kernel does the same kinds of work as the library's per-point code:
it builds tuples of small frozen dataclasses (an element
layout), loops over them in Python with math calls, turns them into small
numpy arrays and takes a 3x3 eigendecomposition. A kernel of plain numpy
calls on fixed arrays reacted more strongly than the library to slow
phases. The kernel is part of the benchmark and must not change between
the commits being compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

_ROUNDS = 140
_ELEMENTS = 25


@dataclass(frozen=True)
class _Element:
    distance: float
    angle: float


def reference_kernel() -> float:
    acc = 0.0
    for _ in range(_ROUNDS):
        elements = tuple(_Element(0.01 * k, 0.1 * k) for k in range(_ELEMENTS))
        layout = np.array([[e.distance, e.angle] for e in elements])
        acc += float(layout.sum())
        acc += sum(e.distance * math.cos(e.angle) for e in elements)
        acc += float(np.linalg.eigvalsh(np.eye(3) * (1.0 + acc * 1e-9))[0])
    return acc


def time_reference(repeats: int = 5) -> list[float]:
    """Wall times of ``repeats`` back-to-back kernel calls, in seconds.

    One call takes a few milliseconds and catches short bursts of
    contention that a longer operation averages out, so each sampling point
    takes several.
    """
    times = []
    for _ in range(repeats):
        start = perf_counter()
        reference_kernel()
        times.append(perf_counter() - start)
    return times
