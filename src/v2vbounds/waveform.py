"""OFDM grid, subcarrier/power allocation, and effective baseband bandwidth.

Transmit symbols never appear explicitly: every bound depends on them only
through per-subcarrier energies, which an allocation's subcarrier partition
fixes, so the symbol energy is reconstructed where needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .geometry import SPEED_OF_LIGHT, read_only, require_count, require_positive_finite


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
        require_count(self, "n_symbols")

    @property
    def omega_c(self) -> float:
        """Carrier angular frequency, rad/s."""
        return 2.0 * math.pi * self.carrier_frequency

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency


@dataclass(frozen=True)
class Allocation:
    """Partition of the occupied subcarriers across Tx arrays, which fixes the power.

    Each array with subcarriers gets an equal share of the total power, split
    evenly over its own subcarriers; an array without subcarriers gets none.
    Raises ValueError without any subcarrier and when an index repeats.
    """

    per_array_sets: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        sets = tuple(tuple(s) for s in self.per_array_sets)
        object.__setattr__(self, "per_array_sets", sets)
        flat = [p for subset in sets for p in subset]
        if not flat:
            raise ValueError("allocation has no subcarriers")
        if len(set(flat)) != len(flat):
            raise ValueError("subcarrier indices must be distinct within and across arrays")

    @property
    def n_arrays(self) -> int:
        return len(self.per_array_sets)

    @property
    def array_power_fractions(self) -> tuple[float, ...]:
        """Each array's share of the total power: 1 / (arrays with subcarriers), or 0."""
        share = 1.0 / sum(map(bool, self.per_array_sets))
        return tuple(share if subset else 0.0 for subset in self.per_array_sets)

    @cached_property
    def arrays(self) -> "AllocationArrays":
        """The subcarrier sets as arrays, built on first use and kept with this allocation."""
        width = max(len(subset) for subset in self.per_array_sets)
        indices = np.zeros((self.n_arrays, width), dtype=int)
        fractions = np.zeros((self.n_arrays, width))
        for t, subset in enumerate(self.per_array_sets):
            indices[t, :len(subset)] = subset
            fractions[t, :len(subset)] = 1.0 / max(len(subset), 1)
        return AllocationArrays(read_only(indices), read_only(fractions))


@dataclass(frozen=True, eq=False)
class AllocationArrays:
    """An allocation's K subcarrier sets, zero-padded to the largest; shared, read-only.

    A padded slot has index 0 and power fraction 0, so it carries no signal.
    """

    indices: np.ndarray  # (K, S_max) signed subcarrier indices
    fractions: np.ndarray  # (K, S_max) per-subcarrier power fractions within the array


def interleaved_allocation(occupied: Iterable[int], k_tx: int) -> Allocation:
    """Round-robin the occupied subcarriers over k_tx arrays: sorting the
    occupied indices ascending, the j-th (0-based) index goes to array j mod k_tx."""
    if k_tx < 1:
        raise ValueError("k_tx must be >= 1")
    indices = sorted(occupied)
    return Allocation(tuple(indices[t::k_tx] for t in range(k_tx)))


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
