"""OFDM allocation and effective-bandwidth tests."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2vbounds.errors import EmptySet
from v2vbounds.waveform import (
    Allocation,
    OfdmSpec,
    effective_bandwidths,
    interleaved_allocation,
)

from reference import reference_effective_bandwidth


def spec_with(occupied, spacing=60e3, fc=3.5e9, n_fft=2048):
    return OfdmSpec(
        n_fft=n_fft,
        subcarrier_spacing=spacing,
        carrier_frequency=fc,
        occupied=tuple(occupied),
    )


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["subcarrier_spacing", "carrier_frequency", "total_power"])
def test_non_finite_ofdm_field_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(spec_with((1, 2)), **{field: value})


class TestInterleaving:
    def test_small_example(self):
        alloc = interleaved_allocation({1, 2, 3, 4}, 2)
        assert alloc.per_array_sets == ((1, 3), (2, 4))
        assert alloc.array_power_fractions == (0.5, 0.5)
        assert all(abs(v - 0.5) < 1e-15 for v in alloc.per_subcarrier_fractions.values())

    def test_full_grid_four_arrays(self):
        occupied = tuple(range(-600, 0)) + tuple(range(1, 601))
        alloc = interleaved_allocation(occupied, 4)
        assert all(len(s) == 300 for s in alloc.per_array_sets)
        assert alloc.array_power_fractions == (0.25,) * 4
        # Round-robin from the smallest index.
        assert alloc.per_array_sets[0][0] == -600
        assert alloc.per_array_sets[1][0] == -599

    def test_identity_allocation(self):
        occupied = (3, 7, 9)
        alloc = interleaved_allocation(occupied, 1)
        assert alloc.per_array_sets == (occupied,)
        assert alloc.array_power_fractions == (1.0,)

    def test_empty_rejected(self):
        with pytest.raises(EmptySet):
            interleaved_allocation((), 2)

    @given(st.sets(st.integers(-600, 600), min_size=1, max_size=120), st.integers(1, 6))
    @settings(max_examples=50)
    def test_partition_invariants(self, occupied, k):
        occupied.discard(0)
        if not occupied:
            occupied = {1}
        alloc = interleaved_allocation(occupied, k)
        union = [p for s in alloc.per_array_sets for p in s]
        assert sorted(union) == sorted(occupied)
        assert len(set(union)) == len(union)
        assert abs(sum(alloc.array_power_fractions) - 1.0) < 1e-12
        for subset in alloc.per_array_sets:
            if subset:
                assert abs(sum(alloc.per_subcarrier_fractions[p] for p in subset) - 1.0) < 1e-12


class TestAllocationValidation:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            Allocation(
                per_array_sets=((1, 2), (2, 3)),
                array_power_fractions=(0.5, 0.5),
                per_subcarrier_fractions={1: 0.5, 2: 0.5, 3: 0.5},
            )

    def test_bad_power_sum_rejected(self):
        with pytest.raises(ValueError):
            Allocation(
                per_array_sets=((1,), (2,)),
                array_power_fractions=(0.5, 0.4),
                per_subcarrier_fractions={1: 1.0, 2: 1.0},
            )


class TestAllocationArrays:
    def test_zero_padded_sets(self):
        alloc = interleaved_allocation(range(-5, 6), 4)  # 3, 3, 3, 2 subcarriers
        arrays = alloc.arrays
        assert arrays.indices.shape == arrays.fractions.shape == (4, 3)
        for t, subset in enumerate(alloc.per_array_sets):
            n = len(subset)
            assert arrays.indices[t, :n].tolist() == list(subset)
            assert arrays.fractions[t, :n].tolist() == [
                alloc.per_subcarrier_fractions[p] for p in subset]
            assert not arrays.indices[t, n:].any() and not arrays.fractions[t, n:].any()
        assert arrays.indices.dtype.kind == "i"

    def test_arrays_without_subcarriers_are_all_padding(self):
        alloc = interleaved_allocation((-1, 1), 4)
        assert alloc.arrays.indices.tolist() == [[-1], [1], [0], [0]]
        assert alloc.arrays.fractions.tolist() == [[1.0], [1.0], [0.0], [0.0]]

    def test_built_once_and_read_only(self):
        alloc = interleaved_allocation(range(1, 9), 2)
        arrays = alloc.arrays
        assert alloc.arrays is arrays
        for array in (arrays.indices, arrays.fractions):
            with pytest.raises(ValueError):
                array[0, 0] = 7
        np.testing.assert_array_equal(arrays.indices, [[1, 3, 5, 7], [2, 4, 6, 8]])


class TestEffectiveBandwidth:
    def test_single_subcarrier_zero(self):
        spec = spec_with((100,))
        alloc = interleaved_allocation((100,), 1)
        assert effective_bandwidths(alloc, spec)[0] == 0.0

    def test_two_tone(self):
        # Oracle: two equal-power tones at +-600 with 60 kHz spacing have
        # zero mean and standard deviation 2*pi*600*60e3.
        spec = spec_with((-600, 600))
        alloc = interleaved_allocation((-600, 600), 1)
        expected = 2.0 * math.pi * 600 * 60e3
        assert abs(effective_bandwidths(alloc, spec)[0] - expected) < 1e-3
        assert abs(expected - 2.2619467e8) < 1e1

    def test_symmetric_set_rms(self):
        occupied = tuple(range(-10, 0)) + tuple(range(1, 11))
        spec = spec_with(occupied)
        alloc = interleaved_allocation(occupied, 1)
        omegas = [2.0 * math.pi * p * spec.subcarrier_spacing for p in occupied]
        mean = sum(omegas) / len(omegas)
        assert abs(mean) < 1e-6
        rms = math.sqrt(sum(o * o for o in omegas) / len(omegas))
        assert abs(effective_bandwidths(alloc, spec)[0] - rms) < 1e-6 * rms

    def test_shift_invariance(self):
        base = (3, 5, 9, 14)
        shifted = tuple(p + 37 for p in base)
        spec_a = spec_with(base)
        spec_b = spec_with(shifted)
        alloc_a = interleaved_allocation(base, 1)
        alloc_b = interleaved_allocation(shifted, 1)
        ba = effective_bandwidths(alloc_a, spec_a)[0]
        bb = effective_bandwidths(alloc_b, spec_b)[0]
        assert abs(ba - bb) < 1e-9 * ba

    def test_linear_in_spacing(self):
        occupied = (-9, -2, 4, 11)
        alloc = interleaved_allocation(occupied, 1)
        b1 = effective_bandwidths(alloc, spec_with(occupied, spacing=60e3))[0]
        b3 = effective_bandwidths(alloc, spec_with(occupied, spacing=180e3))[0]
        assert abs(b3 - 3.0 * b1) < 1e-9 * b3

    def test_all_arrays(self):
        occupied = tuple(range(-8, 0)) + tuple(range(1, 9))
        spec = spec_with(occupied)
        alloc = interleaved_allocation(occupied, 4)
        betas = effective_bandwidths(alloc, spec)
        assert len(betas) == 4
        assert all(b > 0 for b in betas)

    @given(st.sets(st.integers(-1023, 1023).filter(bool), min_size=1, max_size=80),
           st.integers(1, 8), st.floats(1e3, 1e6), st.data())
    @settings(max_examples=200)
    def test_equals_scalar_oracle_bitwise(self, occupied, k, spacing, data):
        # Interleaved (uniform) and random subcarrier powers; arrays beyond the
        # set's size get no subcarriers, so beta = 0.
        spec = spec_with(occupied, spacing=spacing)
        alloc = interleaved_allocation(occupied, k)
        weights = data.draw(st.lists(st.floats(0.01, 1.0), min_size=len(occupied),
                                     max_size=len(occupied)))
        drawn = dict(zip(sorted(occupied), weights))
        fractions = {p: drawn[p] / sum(drawn[q] for q in subset)
                     for subset in alloc.per_array_sets for p in subset}
        for alloc in (alloc, dataclasses.replace(alloc, per_subcarrier_fractions=fractions)):
            expected = tuple(reference_effective_bandwidth(alloc, spec, t) for t in range(k))
            assert effective_bandwidths(alloc, spec) == expected
            assert all(b == 0.0 for b, subset in zip(expected, alloc.per_array_sets)
                       if len(subset) < 2)


class TestOfdmSpec:
    def test_omega_signed(self):
        # Subcarrier frequencies are signed: a set and its mirror about DC have
        # the same bandwidth, the two-tone set +-5 that of its spread 2*5.
        for occupied in ((-5, 5), (-9, -2, 4, 11)):
            mirror = tuple(-p for p in occupied)
            assert (effective_bandwidths(interleaved_allocation(occupied, 1), spec_with(occupied))
                    == effective_bandwidths(interleaved_allocation(mirror, 1), spec_with(mirror)))
        beta = effective_bandwidths(interleaved_allocation((-5, 5), 1), spec_with((-5, 5)))[0]
        assert beta == 2.0 * math.pi * 5 * 60e3

    def test_occupied_outside_grid_rejected(self):
        with pytest.raises(ValueError):
            spec_with((1030,), n_fft=2048)

    def test_wavelength(self):
        spec = spec_with((1,), fc=3.5e9)
        assert abs(spec.wavelength - 299792458.0 / 3.5e9) < 1e-15
