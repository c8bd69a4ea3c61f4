"""Binary fixed-point arithmetic on plain integers.

The datapath keeps every value at one fractional width f: a value is the
Python int raw meaning raw / 2**f, and the operations whose result depends
on the width (conversion, multiplication, division, square root) take f as
an argument. Every operation rounds half away from zero. Raw integers are
arbitrary precision, but every result is bounded to the signed 64-bit
range so the identical datapath can also run vectorized over int64 arrays.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

RAW_LIMIT = 1 << 63


class FixedPointOverflowError(OverflowError):
    """Result does not fit the signed 64-bit raw range."""


def _checked(raw: int) -> int:
    if not -RAW_LIMIT < raw < RAW_LIMIT:
        raise FixedPointOverflowError(f"raw value {raw} exceeds the signed 64-bit range")
    return raw


def div_round_half_away(num: int, den: int) -> int:
    """Round num/den to the nearest integer, halves away from zero. den > 0.

    One floor division, as in ``div_round_half_away_i64``: subtracting 1
    from a negative num's doubled numerator moves its halves away from zero.
    """
    return (2 * num + den - (num < 0)) // (2 * den)


def div_round_half_away_i64(num: np.ndarray, den: int, out: np.ndarray | None = None) -> np.ndarray:
    """Vectorized div_round_half_away for int64 arrays; den a positive scalar.

    One floor division: adding the sign word num >> 63 (-1 for a negative
    num, else 0) turns floor((2*num + den) / (2*den)) into rounding halves
    away from zero on the negative side too. Callers must guarantee
    2*|num| + den fits int64. The quotient is formed in place in out, an
    int64 array of num's shape other than num (a new one by default), so
    no other array is allocated.
    """
    out = np.right_shift(num, 63, out=out)
    out += num
    out += num
    out += den
    out //= 2 * den
    return out


def fx_from_real(v: float, frac_bits: int) -> int:
    """Quantize a real value to frac_bits fractional bits (exact rational rounding)."""
    if not math.isfinite(v):
        raise ValueError(f"cannot represent non-finite value {v!r}")
    frac = Fraction(v) * (1 << frac_bits)
    return _checked(div_round_half_away(frac.numerator, frac.denominator))


def fx_from_int(n: int, frac_bits: int) -> int:
    return _checked(n << frac_bits)


def fx_to_real(a: int, frac_bits: int) -> float:
    return a / (1 << frac_bits)


def fx_add(a: int, b: int) -> int:
    return _checked(a + b)


def fx_sub(a: int, b: int) -> int:
    return _checked(a - b)


def fx_mul(a: int, b: int, frac_bits: int) -> int:
    return _checked(div_round_half_away(a * b, 1 << frac_bits))


def fx_div(a: int, b: int, frac_bits: int) -> int:
    if b == 0:
        raise ZeroDivisionError("fixed-point division by zero")
    num = a << frac_bits
    return _checked(div_round_half_away(num if b > 0 else -num, abs(b)))


def fx_sqrt(a: int, frac_bits: int) -> int:
    if a < 0:
        raise ValueError("fixed-point sqrt of a negative value")
    n = a << frac_bits
    s = math.isqrt(n)
    # nearest integer to sqrt(n): step up when n > s^2 + s
    if n - s * s > s:
        s += 1
    return _checked(s)


def fx_reciprocal(n: int, frac_bits: int) -> int:
    """1/n quantized to frac_bits bits, for a positive integer divisor."""
    if n <= 0:
        raise ValueError(f"reciprocal divisor must be positive, got {n}")
    return _checked(div_round_half_away(1 << frac_bits, n))
