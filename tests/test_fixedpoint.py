import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msld.fixedpoint import (
    RAW_LIMIT,
    FixedPointOverflowError,
    div_round_half_away,
    div_round_half_away_i64,
    fx_add,
    fx_div,
    fx_from_int,
    fx_from_real,
    fx_mul,
    fx_reciprocal,
    fx_sqrt,
    fx_sub,
    fx_to_real,
)

F = 18
ULP = 2.0 ** -F


def fx(v, f=F):
    return fx_from_real(v, f)


class TestConversion:
    def test_one_and_a_half(self):
        assert fx(1.5) == 393216

    def test_zero(self):
        assert fx(0.0) == 0

    def test_half_ulp_rounds_up(self):
        assert fx(2.0 ** -19) == 1

    def test_negative_half_ulp_rounds_away(self):
        assert fx(-(2.0 ** -19)) == -1

    def test_roundtrip_on_representable(self):
        for v in (0.25, -3.125, 100.0, 0.0, -0.5):
            assert fx_to_real(fx(v), F) == v

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            fx(float("nan"))
        with pytest.raises(ValueError):
            fx(float("inf"))

    def test_overflow_rejected(self):
        with pytest.raises(FixedPointOverflowError):
            fx_from_real(2.0 ** 50, F)
        with pytest.raises(FixedPointOverflowError):
            fx_add(RAW_LIMIT - 1, 1)
        with pytest.raises(FixedPointOverflowError):
            fx_from_int(1 << (63 - F), F)


class TestAddSub:
    def test_exact_add(self):
        assert fx_to_real(fx_add(fx(1.25), fx(0.75)), F) == 2.0

    def test_self_cancel(self):
        a = fx(0.8125)
        assert fx_sub(a, a) == 0

    @given(a=st.integers(-10**9, 10**9), b=st.integers(-10**9, 10**9))
    @settings(max_examples=200, deadline=None)
    def test_add_sub_match_rationals(self, a, b):
        ra, rb = Fraction(a, 1 << F), Fraction(b, 1 << F)
        assert Fraction(fx_add(a, b), 1 << F) == ra + rb
        assert Fraction(fx_sub(a, b), 1 << F) == ra - rb


class TestMul:
    def test_exact_quarters(self):
        assert fx_to_real(fx_mul(fx(0.5), fx(0.5), F), F) == 0.25

    def test_identity(self):
        one = fx(1.0)
        for v in (0.75, -12.625, 0.0):
            assert fx_mul(fx(v), one, F) == fx(v)

    @given(a=st.integers(-10**7, 10**7), b=st.integers(-10**7, 10**7))
    @settings(max_examples=200, deadline=None)
    def test_within_half_ulp_of_real_product(self, a, b):
        exact = Fraction(a, 1 << F) * Fraction(b, 1 << F)
        got = Fraction(fx_mul(a, b, F), 1 << F)
        assert abs(got - exact) <= Fraction(1, 1 << (F + 1))


class TestDivSqrt:
    def test_sqrt_one(self):
        assert fx_to_real(fx_sqrt(fx(1.0), F), F) == 1.0

    def test_sqrt_four(self):
        assert fx_to_real(fx_sqrt(fx(4.0), F), F) == 2.0

    def test_sqrt_negative_rejected(self):
        with pytest.raises(ValueError):
            fx_sqrt(fx(-1.0), F)

    def test_divide_by_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            fx_div(fx(1.0), fx(0.0), F)

    @given(a=st.integers(-10**7, 10**7), b=st.integers(-10**7, 10**7).filter(lambda x: x != 0))
    @settings(max_examples=200, deadline=None)
    def test_div_within_one_ulp(self, a, b):
        exact = Fraction(a, b)
        got = Fraction(fx_div(a, b, F), 1 << F)
        assert abs(got - exact) <= Fraction(1, 1 << F)

    @given(a=st.integers(0, 10**12))
    @settings(max_examples=200, deadline=None)
    def test_sqrt_within_one_ulp(self, a):
        got = fx_to_real(fx_sqrt(a, F), F)
        exact = math.sqrt(a / (1 << F))
        assert abs(got - exact) <= ULP


class TestReciprocal:
    def test_power_of_two_exact(self):
        assert fx_reciprocal(4, F) == (1 << F) // 4

    def test_one_is_identity_multiplier(self):
        r = fx_reciprocal(1, F)
        assert fx_mul(fx(123.5), r, F) == fx(123.5)

    @given(n=st.integers(1, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_within_half_ulp(self, n):
        got = Fraction(fx_reciprocal(n, F), 1 << F)
        assert abs(got - Fraction(1, n)) <= Fraction(1, 1 << (F + 1))


class TestRoundingHelpers:
    @given(num=st.integers(-10**12, 10**12), den=st.integers(1, 10**6))
    @settings(max_examples=300, deadline=None)
    def test_scalar_matches_fraction_rounding(self, num, den):
        got = div_round_half_away(num, den)
        frac = Fraction(num, den)
        floor = frac.numerator // frac.denominator
        rem = frac - floor
        expected = floor + 1 if rem > Fraction(1, 2) else floor
        if rem == Fraction(1, 2):
            expected = floor + 1 if num >= 0 else floor
        assert got == expected

    @given(
        nums=st.lists(st.integers(-10**9, 10**9), min_size=1, max_size=32),
        den=st.integers(1, 10**6),
    )
    @settings(max_examples=200, deadline=None)
    def test_vector_matches_scalar(self, nums, den):
        for d in (den, 2 * den):
            # zero, +-1, +-the largest |num| with 2*|num| + d < 2**63, and
            # +-(d - 1) / 2, d / 2, (d + 1) / 2 and the same one period on:
            # d / 2 is an exact half when d is even (always so for 2 * den)
            limit = (2**63 - 1 - d) // 2
            near_halves = [k * d + h for k in (0, 1)
                           for h in ((d - 1) // 2, d // 2, (d + 1) // 2)]
            edges = [0, 1, limit] + near_halves
            values = nums + edges + [-v for v in edges]
            got = div_round_half_away_i64(np.array(values, dtype=np.int64), d)
            assert got.tolist() == [div_round_half_away(v, d) for v in values]

    @given(
        nums=st.lists(st.integers(-10**12, 10**12), min_size=1, max_size=32),
        den=st.integers(1, 10**6),
    )
    @settings(max_examples=100, deadline=None)
    def test_vector_rounds_into_out(self, nums, den):
        # the fixed pass 2 rounds its accumulator into a buffer it holds
        num = np.array(nums, dtype=np.int64)
        out = np.empty_like(num)
        assert div_round_half_away_i64(num, den, out=out) is out
        assert out.tolist() == [div_round_half_away(v, den) for v in nums]
        assert num.tolist() == nums

    @given(
        frac_bits=st.integers(1, 40),
        nums=st.lists(st.integers(-2**61, 2**61), min_size=1, max_size=32),
        odd=st.lists(st.integers(-2**20, 2**20), min_size=1, max_size=8),
    )
    @settings(max_examples=300, deadline=None)
    def test_shifts_match_power_of_two_division(self, frac_bits, nums, odd):
        # (2q + 1) * 2**(frac_bits - 1) lies exactly halfway between multiples
        halves = [(2 * q + 1) << (frac_bits - 1) for q in odd]
        arr = np.array(nums + halves, dtype=np.int64)
        # the unsigned form the streaming accumulators use on squares
        nonneg = np.abs(arr)
        unsigned = (nonneg + (1 << (frac_bits - 1))) >> frac_bits
        assert np.array_equal(unsigned, div_round_half_away_i64(nonneg, 1 << frac_bits))


def test_from_int_scales_exactly():
    assert fx_from_int(255, F) == 255 << F
    assert fx_from_int(-3, F) == -(3 << F)
