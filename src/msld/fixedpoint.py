"""Binary fixed-point arithmetic with a configurable fractional width.

A value is stored as a signed integer ``raw`` meaning ``raw / 2**frac_bits``.
Every operation rounds half away from zero, and operations between values
with different fractional widths are rejected. The raw integer is kept wide
(arbitrary precision) but bounded to a signed 64-bit range so the identical
datapath can also run vectorized over int64 arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

RAW_LIMIT = 1 << 63


class FixedPointOverflowError(OverflowError):
    """Result does not fit the signed 64-bit raw range."""


def div_round_half_away(num: int, den: int) -> int:
    """Round num/den to the nearest integer, halves away from zero. den > 0."""
    if num >= 0:
        return (2 * num + den) // (2 * den)
    return -((2 * -num + den) // (2 * den))


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


@dataclass(frozen=True)
class FixedPoint:
    """Integer-scaled real value with ``frac_bits`` fractional bits."""

    raw: int
    frac_bits: int

    def __post_init__(self):
        if self.frac_bits < 1:
            raise ValueError(f"frac_bits must be >= 1, got {self.frac_bits}")
        if not -RAW_LIMIT < self.raw < RAW_LIMIT:
            raise FixedPointOverflowError(
                f"raw value {self.raw} exceeds the signed 64-bit range"
            )

    @property
    def value(self) -> float:
        return self.raw / (1 << self.frac_bits)


def _require_matching(a: FixedPoint, b: FixedPoint):
    if a.frac_bits != b.frac_bits:
        raise ValueError(
            f"mismatched fractional widths: {a.frac_bits} vs {b.frac_bits}"
        )


def fx_from_real(v: float, frac_bits: int) -> FixedPoint:
    """Quantize a real value to frac_bits fractional bits (exact rational rounding)."""
    if not math.isfinite(v):
        raise ValueError(f"cannot represent non-finite value {v!r}")
    frac = Fraction(v) * (1 << frac_bits)
    return FixedPoint(div_round_half_away(frac.numerator, frac.denominator), frac_bits)


def fx_from_int(n: int, frac_bits: int) -> FixedPoint:
    return FixedPoint(n << frac_bits, frac_bits)


def fx_to_real(a: FixedPoint) -> float:
    return a.value


def fx_add(a: FixedPoint, b: FixedPoint) -> FixedPoint:
    _require_matching(a, b)
    return FixedPoint(a.raw + b.raw, a.frac_bits)


def fx_sub(a: FixedPoint, b: FixedPoint) -> FixedPoint:
    _require_matching(a, b)
    return FixedPoint(a.raw - b.raw, a.frac_bits)


def fx_mul(a: FixedPoint, b: FixedPoint) -> FixedPoint:
    _require_matching(a, b)
    return FixedPoint(
        div_round_half_away(a.raw * b.raw, 1 << a.frac_bits), a.frac_bits
    )


def fx_div(a: FixedPoint, b: FixedPoint) -> FixedPoint:
    _require_matching(a, b)
    if b.raw == 0:
        raise ZeroDivisionError("fixed-point division by zero")
    num = a.raw << a.frac_bits
    if b.raw < 0:
        num, den = -num, -b.raw
    else:
        den = b.raw
    return FixedPoint(div_round_half_away(num, den), a.frac_bits)


def fx_sqrt(a: FixedPoint) -> FixedPoint:
    if a.raw < 0:
        raise ValueError("fixed-point sqrt of a negative value")
    n = a.raw << a.frac_bits
    s = math.isqrt(n)
    # nearest integer to sqrt(n): step up when n > s^2 + s
    if n - s * s > s:
        s += 1
    return FixedPoint(s, a.frac_bits)


def fx_reciprocal(n: int, frac_bits: int) -> FixedPoint:
    """1/n quantized to frac_bits bits, for a positive integer divisor."""
    if n <= 0:
        raise ValueError(f"reciprocal divisor must be positive, got {n}")
    return FixedPoint(div_round_half_away(1 << frac_bits, n), frac_bits)
