"""OFDM grid, subcarrier/power allocation, and effective baseband bandwidth.

Transmit symbols never appear explicitly: every bound depends on them only
through per-subcarrier energies, so allocations carry power fractions and the
symbol energy is reconstructed where needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import EmptySet
from .geometry import SPEED_OF_LIGHT, read_only, require_positive_finite


@dataclass(frozen=True)
class OfdmSpec:
    """OFDM numerology plus total transmit power per symbol; the subcarriers
    themselves are an Allocation's."""

    subcarrier_spacing: float  # Hz
    carrier_frequency: float  # Hz
    n_symbols: int = 1
    total_power: float = 1.0  # W per OFDM symbol, all Tx arrays combined

    def __post_init__(self) -> None:
        require_positive_finite(self, "subcarrier_spacing", "carrier_frequency", "total_power")
        if self.n_symbols < 1:
            raise ValueError("n_symbols must be >= 1")

    @property
    def omega_c(self) -> float:
        """Carrier angular frequency, rad/s."""
        return 2.0 * math.pi * self.carrier_frequency

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency


@dataclass(frozen=True)
class Allocation:
    """Partition of the occupied subcarriers across Tx arrays with power fractions."""

    per_array_sets: tuple[tuple[int, ...], ...]
    array_power_fractions: tuple[float, ...]
    per_subcarrier_fractions: dict[int, float]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "per_array_sets", tuple(tuple(s) for s in self.per_array_sets)
        )
        object.__setattr__(
            self, "array_power_fractions", tuple(self.array_power_fractions)
        )
        if len(self.per_array_sets) != len(self.array_power_fractions):
            raise ValueError("one power fraction required per array")
        seen: set[int] = set()
        for subset in self.per_array_sets:
            overlap = seen.intersection(subset)
            if overlap:
                raise ValueError(f"subcarrier sets must be disjoint, overlap {sorted(overlap)}")
            seen.update(subset)
        if abs(sum(self.array_power_fractions) - 1.0) > 1e-12:
            raise ValueError("array power fractions must sum to 1")
        for frac in self.array_power_fractions:
            if not 0.0 <= frac <= 1.0:
                raise ValueError("array power fractions must lie in [0, 1]")
        for t, subset in enumerate(self.per_array_sets):
            if not subset:
                continue
            total = sum(self.per_subcarrier_fractions[p] for p in subset)
            if abs(total - 1.0) > 1e-12:
                raise ValueError(f"subcarrier fractions of array {t} must sum to 1")
        for frac in self.per_subcarrier_fractions.values():
            if not 0.0 <= frac <= 1.0:
                raise ValueError("subcarrier power fractions must lie in [0, 1]")

    @property
    def n_arrays(self) -> int:
        return len(self.per_array_sets)

    @cached_property
    def arrays(self) -> "AllocationArrays":
        """The subcarrier sets as arrays, built on first use and kept with this allocation."""
        width = max(len(subset) for subset in self.per_array_sets)
        indices = np.zeros((self.n_arrays, width), dtype=int)
        fractions = np.zeros((self.n_arrays, width))
        for t, subset in enumerate(self.per_array_sets):
            indices[t, :len(subset)] = subset
            fractions[t, :len(subset)] = [self.per_subcarrier_fractions[p] for p in subset]
        return AllocationArrays(read_only(indices), read_only(fractions))


@dataclass(frozen=True, eq=False)
class AllocationArrays:
    """An allocation's K subcarrier sets, zero-padded to the largest; shared, read-only.

    A padded slot has index 0 and power fraction 0, so it carries no signal.
    """

    indices: np.ndarray  # (K, S_max) signed subcarrier indices
    fractions: np.ndarray  # (K, S_max) per-subcarrier power fractions within the array


def interleaved_allocation(occupied: Iterable[int], k_tx: int) -> Allocation:
    """Round-robin the occupied subcarriers over k_tx arrays, uniform power.

    Sorting the occupied indices ascending, the j-th (0-based) index goes to
    array j mod k_tx. Every array gets power fraction 1/k_tx, split uniformly
    over its own subcarriers.
    """
    indices = sorted(occupied)
    if not indices:
        raise EmptySet("occupied subcarrier set is empty")
    if k_tx < 1:
        raise ValueError("k_tx must be >= 1")
    sets: list[list[int]] = [[] for _ in range(k_tx)]
    for j, p in enumerate(indices):
        sets[j % k_tx].append(p)
    fractions = {p: 1.0 / len(subset) for subset in sets if subset for p in subset}
    return Allocation(
        per_array_sets=tuple(tuple(s) for s in sets),
        array_power_fractions=tuple(1.0 / k_tx for _ in range(k_tx)),
        per_subcarrier_fractions=fractions,
    )


def effective_bandwidths(alloc: Allocation, spec: OfdmSpec) -> tuple[float, ...]:
    """Power-weighted standard deviation of each Tx array's subcarrier
    angular frequencies, rad/s (0 without subcarriers), in centered form for
    numerical stability and summed in subcarrier order, as a cumulative sum:
    numpy's pairwise sum can differ in the last bit."""
    arrays = alloc.arrays
    omega = 2.0 * math.pi * arrays.indices * spec.subcarrier_spacing
    mean = np.cumsum(arrays.fractions * omega, axis=-1)[:, -1:]
    var = np.cumsum(arrays.fractions * (omega - mean) ** 2, axis=-1)[:, -1]
    return tuple(np.sqrt(np.maximum(var, 0.0)).tolist())
