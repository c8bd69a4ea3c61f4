"""Reference engine and the result types both engines share.

``msld_reference`` is the streaming engine's float datapath on the
reference's schedule (``streaming.sweep``; the schedules are in
``streaming``'s module docstring), which forms each band's kernel sums once
and keeps every ROI value for the second pass. Its map and statistics are
therefore the same values as ``msld_streaming(..., "float")``'s.
``scale_stats`` is the one statistics formula of float mode: it rounds the
exact rational mean and variance of integer ROI sums once. Pixels outside
the ROI are emitted as 0 and excluded from all statistics. ``ResponseMap``
is an ``imageio.Grid``: a frozen, C-contiguous float64 array of at least
1x1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector import MsldParams
from .fixedpoint import RAW_LIMIT
from .imageio import Grid


class EmptyRoiError(ValueError):
    """Raised when a mask contains no ROI pixels."""


@dataclass(frozen=True, eq=False)
class ResponseMap(Grid):
    """Row-major grid of real-valued responses; 0 outside the ROI."""

    values: np.ndarray
    _field, _dtype = "values", np.float64


@dataclass(frozen=True)
class ScaleStats:
    """ROI mean and population standard deviation per scale.

    Carries one (mean, std) pair per scale plus the pair for the inverted
    input channel, the ROI pixel count, the fractional width used to produce
    them (None for float arithmetic), and the number of times a negative
    variance had to be clamped to zero. Only the fixed-point datapath can
    clamp: float statistics are exact rationals, whose variance is never
    negative. Float stats hold finite floats. Fixed stats hold the signed
    64-bit words pass 2 reads, ints raw at frac_bits (raw / 2**frac_bits):
    a mean of 170 at frac_bits=23 is 170 << 23. No std is negative.
    """

    scale_means: tuple[float, ...] | tuple[int, ...]
    scale_stds: tuple[float, ...] | tuple[int, ...]
    igc_mean: float | int
    igc_std: float | int
    roi_count: int
    frac_bits: int | None = None
    negative_variance_clamps: int = 0

    def __post_init__(self):
        if len(self.scale_means) != len(self.scale_stds):
            raise ValueError("scale_means and scale_stds must have equal length")
        if self.roi_count < 1:
            raise ValueError(f"roi_count must be >= 1, got {self.roi_count}")
        values = (*self.scale_means, *self.scale_stds, self.igc_mean, self.igc_std)
        if not all(type(v) is int and abs(v) < RAW_LIMIT if self.frac_bits is not None
                   else isinstance(v, float) and math.isfinite(v) for v in values):
            raise ValueError("means and stds must be raw 64-bit ints if frac_bits is set, else finite floats")
        if any(s < 0 for s in self.scale_stds) or self.igc_std < 0:
            raise ValueError("standard deviations must be non-negative")

    @property
    def n_scales(self) -> int:
        return len(self.scale_means)


def scale_stats(sum_x: int, sum_x2: int, roi_count: int, divisor: int = 1) -> tuple[float, float]:
    """ROI mean and population standard deviation of the values x / divisor.

    Takes the exact integer sums of x and x * x over roi_count ROI pixels
    and rounds the exact rationals once: mean = sum_x / (n * divisor) and
    variance = (n * sum_x2 - sum_x**2) / (n * divisor)**2, whose square root
    is the deviation.
    """
    if roi_count == 0:
        raise EmptyRoiError("mask contains no ROI pixels")
    scaled_count = roi_count * divisor
    variance = (roi_count * sum_x2 - sum_x * sum_x) / (scaled_count * scaled_count)
    return sum_x / scaled_count, math.sqrt(variance)


def msld_reference(img, mask, params: MsldParams) -> tuple[ResponseMap, ScaleStats]:
    """Run the full pipeline over an inverted-channel image.

    img and mask are a GrayImage and a Mask or row sources of their rows
    (``imageio.row_source``). Returns the combined response map and the
    per-scale ROI statistics of the streaming engine's float datapath on the
    reference's schedule (``streaming.sweep``).
    """
    # streaming builds on this module's types, so it is imported on use
    from .streaming import sweep

    return sweep(img, mask, params, "float")
