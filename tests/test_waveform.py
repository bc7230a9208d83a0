"""OFDM allocation and effective-bandwidth tests."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2vbounds.waveform import (
    Allocation,
    OfdmSpec,
    effective_bandwidths,
    interleaved_allocation,
)

from reference import reference_effective_bandwidth


def spec_with(spacing=60e3, fc=3.5e9):
    return OfdmSpec(subcarrier_spacing=spacing, carrier_frequency=fc)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["subcarrier_spacing", "carrier_frequency", "total_power"])
def test_non_finite_ofdm_field_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(spec_with(), **{field: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, 2.5, 1.0, 0, -1, True])
def test_n_symbols_not_a_positive_integer_rejected(value):
    # NaN < 1 is False: a bare comparison would let NaN reach every bound;
    # True is an Integral that would run as one symbol.
    with pytest.raises(ValueError, match="n_symbols"):
        dataclasses.replace(spec_with(), n_symbols=value)


class TestInterleaving:
    def test_small_example(self):
        alloc = interleaved_allocation({1, 2, 3, 4}, 2)
        assert alloc.per_array_sets == ((1, 3), (2, 4))
        assert alloc.array_power_fractions == (0.5, 0.5)
        assert alloc.arrays.fractions.tolist() == [[0.5, 0.5], [0.5, 0.5]]

    def test_full_grid_four_arrays(self):
        occupied = tuple(range(-600, 0)) + tuple(range(1, 601))
        alloc = interleaved_allocation(occupied, 4)
        assert all(len(s) == 300 for s in alloc.per_array_sets)
        # The default presets' power, bit for bit: 1/4 per array, 1/300 per subcarrier.
        assert alloc.array_power_fractions == (0.25,) * 4
        assert (alloc.arrays.fractions == 1.0 / 300).all()
        # Round-robin from the smallest index.
        assert alloc.per_array_sets[0][0] == -600
        assert alloc.per_array_sets[1][0] == -599

    def test_identity_allocation(self):
        occupied = (3, 7, 9)
        alloc = interleaved_allocation(occupied, 1)
        assert alloc.per_array_sets == (occupied,)
        assert alloc.array_power_fractions == (1.0,)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no subcarriers"):
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
        fractions = alloc.arrays.fractions
        assert np.all(np.abs(fractions.sum(axis=1)[fractions.any(axis=1)] - 1.0) < 1e-12)


class TestAllocationValidation:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            Allocation(((1, 2), (2, 3)))

    def test_repeat_within_an_array_rejected(self):
        # Counted twice, subcarrier 1 would carry two thirds of the power.
        with pytest.raises(ValueError, match="distinct"):
            interleaved_allocation((1, 1, 2), 1)

    @pytest.mark.parametrize("sets", [(), ((),), ((), ())])
    def test_no_subcarrier_rejected(self, sets):
        with pytest.raises(ValueError, match="no subcarriers"):
            Allocation(sets)

    def test_power_follows_from_the_partition(self):
        # Arrays with subcarriers share the power equally; a silent one gets none.
        alloc = interleaved_allocation((-1, 1), 4)
        assert alloc.array_power_fractions == (0.5, 0.5, 0.0, 0.0)
        alloc = Allocation(((), (4, 5, 6), (), (7,)))
        assert alloc.array_power_fractions == (0.0, 0.5, 0.0, 0.5)
        assert alloc.arrays.fractions.tolist() == [[0.0] * 3, [1 / 3] * 3, [0.0] * 3,
                                                   [1.0, 0.0, 0.0]]

    def test_one_settable_field(self):
        alloc = interleaved_allocation((1, 2, 3), 2)
        assert [f.name for f in dataclasses.fields(alloc)] == ["per_array_sets"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            alloc.array_power_fractions = (1.0, 0.0)


class TestAllocationArrays:
    def test_zero_padded_sets(self):
        alloc = interleaved_allocation(range(-5, 6), 4)  # 3, 3, 3, 2 subcarriers
        arrays = alloc.arrays
        assert arrays.indices.shape == arrays.fractions.shape == (4, 3)
        for t, subset in enumerate(alloc.per_array_sets):
            n = len(subset)
            assert arrays.indices[t, :n].tolist() == list(subset)
            assert arrays.fractions[t, :n].tolist() == [1.0 / n] * n
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
        spec = spec_with()
        alloc = interleaved_allocation((100,), 1)
        assert effective_bandwidths(alloc, spec)[0] == 0.0

    def test_two_tone(self):
        # Oracle: two equal-power tones at +-600 with 60 kHz spacing have
        # zero mean and standard deviation 2*pi*600*60e3.
        spec = spec_with()
        alloc = interleaved_allocation((-600, 600), 1)
        expected = 2.0 * math.pi * 600 * 60e3
        assert abs(effective_bandwidths(alloc, spec)[0] - expected) < 1e-3
        assert abs(expected - 2.2619467e8) < 1e1

    def test_symmetric_set_rms(self):
        occupied = tuple(range(-10, 0)) + tuple(range(1, 11))
        spec = spec_with()
        alloc = interleaved_allocation(occupied, 1)
        omegas = [2.0 * math.pi * p * spec.subcarrier_spacing for p in occupied]
        mean = sum(omegas) / len(omegas)
        assert abs(mean) < 1e-6
        rms = math.sqrt(sum(o * o for o in omegas) / len(omegas))
        assert abs(effective_bandwidths(alloc, spec)[0] - rms) < 1e-6 * rms

    def test_shift_invariance(self):
        base = (3, 5, 9, 14)
        shifted = tuple(p + 37 for p in base)
        spec = spec_with()
        ba = effective_bandwidths(interleaved_allocation(base, 1), spec)[0]
        bb = effective_bandwidths(interleaved_allocation(shifted, 1), spec)[0]
        assert abs(ba - bb) < 1e-9 * ba

    def test_linear_in_spacing(self):
        occupied = (-9, -2, 4, 11)
        alloc = interleaved_allocation(occupied, 1)
        b1 = effective_bandwidths(alloc, spec_with(spacing=60e3))[0]
        b3 = effective_bandwidths(alloc, spec_with(spacing=180e3))[0]
        assert abs(b3 - 3.0 * b1) < 1e-9 * b3

    def test_all_arrays(self):
        occupied = tuple(range(-8, 0)) + tuple(range(1, 9))
        spec = spec_with()
        alloc = interleaved_allocation(occupied, 4)
        betas = effective_bandwidths(alloc, spec)
        assert len(betas) == 4
        assert all(b > 0 for b in betas)

    @given(st.lists(st.integers(-1023, 1023).filter(bool), min_size=1, max_size=80,
                    unique=True), st.integers(1, 8), st.floats(1e3, 1e6), st.randoms())
    @settings(max_examples=200)
    def test_equals_scalar_oracle_bitwise(self, occupied, k, spacing, rng):
        # Interleaved and any other partition, in any subcarrier order; arrays
        # beyond the set's size get no subcarriers, so beta = 0.
        spec = spec_with(spacing=spacing)
        shuffled = Allocation(tuple(occupied[t::k] for t in rng.sample(range(k), k)))
        for alloc in (interleaved_allocation(occupied, k), shuffled):
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
            assert (effective_bandwidths(interleaved_allocation(occupied, 1), spec_with())
                    == effective_bandwidths(interleaved_allocation(mirror, 1), spec_with()))
        beta = effective_bandwidths(interleaved_allocation((-5, 5), 1), spec_with())[0]
        assert beta == 2.0 * math.pi * 5 * 60e3

    def test_wavelength(self):
        spec = spec_with(fc=3.5e9)
        assert abs(spec.wavelength - 299792458.0 / 3.5e9) < 1e-15
