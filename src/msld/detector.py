"""Line-detector parameters and line geometry.

The response at a pixel compares the brightest of 12 oriented line means
against the mean of the surrounding W-by-W window, at every odd line
length from 1 up to W; ``kernel.band_sums`` forms the sums. Each line is
a plain tuple of (dx, dy) offsets from ``line_offsets``, rasterized by
stepping along the dominant axis so each length-L line covers exactly L
distinct pixels and shorter lines nest inside longer ones at the same
orientation. Sample coordinates falling outside the image are clamped to
the nearest edge pixel.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

ORIENTATION_COUNT = 12
ANGLE_STEP_DEGREES = 15.0


def round_half_away(v: float) -> int:
    """Round to the nearest integer with halves away from zero."""
    if v >= 0.0:
        return math.floor(v + 0.5)
    return math.ceil(v - 0.5)


@dataclass(frozen=True)
class MsldParams:
    """Detector configuration: window side W, fractional bits for fixed point.

    Scales are implied by the window: every odd length from 1 to W, which
    makes (W + 1) / 2 scales in total. The orientation count is fixed at 12
    (15 degree steps).
    """

    window: int = 15
    frac_bits: int = 18

    def __post_init__(self):
        # integral values of any type become ints; floats and bools are rejected
        for name in ("window", "frac_bits"):
            value = getattr(self, name)
            try:
                if isinstance(value, bool):
                    raise TypeError
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.window < 3 or self.window % 2 == 0:
            raise ValueError(f"window must be odd and >= 3, got {self.window}")
        if self.frac_bits < 1:
            raise ValueError(f"frac_bits must be >= 1, got {self.frac_bits}")

    @property
    def scales(self) -> tuple[int, ...]:
        return tuple(range(1, self.window + 1, 2))

    @property
    def n_scales(self) -> int:
        return (self.window + 1) // 2


@lru_cache(maxsize=None)
def line_offsets(orientation_index: int, length: int) -> tuple[tuple[int, int], ...]:
    """Pixel offsets (dx, dy) of the line at angle orientation_index * 15
    degrees, relative to its centre pixel.

    Steps j = -(L-1)/2 .. (L-1)/2 run along the dominant axis, in that
    order, so the centre pixel sits at index (L - 1) / 2; the other
    coordinate is round(j * slope) with halves rounded away from zero. The
    offsets are point-symmetric about the origin, and those of length L are
    the central L of those of length L + 2.
    """
    if not 0 <= orientation_index < ORIENTATION_COUNT:
        raise ValueError(f"orientation_index must be 0..11, got {orientation_index}")
    if length < 1 or length % 2 == 0:
        raise ValueError(f"length must be odd and >= 1, got {length}")
    theta = math.radians(orientation_index * ANGLE_STEP_DEGREES)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    half = (length - 1) // 2
    offsets = []
    if abs(cos_t) >= abs(sin_t):
        slope = sin_t / cos_t
        for j in range(-half, half + 1):
            offsets.append((j, round_half_away(j * slope)))
    else:
        slope = cos_t / sin_t
        for j in range(-half, half + 1):
            offsets.append((round_half_away(j * slope), j))
    return tuple(offsets)
