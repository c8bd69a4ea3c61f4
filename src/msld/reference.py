"""Whole-image floating-point engine.

Computes the raw response of every scale over the full image, from the
integer kernel's sums with the whole image as one band, derives
per-scale statistics across the ROI with a numerically stable two-pass
method, standardizes each scale to zero mean and unit deviation, and
averages the standardized scales together with the standardized inverted
input channel. Pixels outside the ROI are emitted as 0 and excluded from
all statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detector import MsldParams
from .imageio import GrayImage, Mask
from .kernel import band_sums

DEGENERATE_STD = 1e-12


class EmptyRoiError(ValueError):
    """Raised when a mask contains no ROI pixels."""


@dataclass(frozen=True, eq=False)
class ResponseMap:
    """Row-major grid of real-valued responses; 0 outside the ROI."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"ResponseMap.values must be 2-dimensional, got {arr.ndim}")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]

    def __eq__(self, other):
        return isinstance(other, ResponseMap) and np.array_equal(self.values, other.values)


@dataclass(frozen=True)
class ScaleStats:
    """ROI mean and population standard deviation per scale.

    Carries one (mean, std) pair per scale plus the pair for the inverted
    input channel, the ROI pixel count, the fractional width used to produce
    them (None for float arithmetic), and the number of times a negative
    variance had to be clamped to zero.
    """

    scale_means: tuple[float, ...]
    scale_stds: tuple[float, ...]
    igc_mean: float
    igc_std: float
    roi_count: int
    frac_bits: int | None = None
    negative_variance_clamps: int = 0

    def __post_init__(self):
        if len(self.scale_means) != len(self.scale_stds):
            raise ValueError("scale_means and scale_stds must have equal length")
        if self.roi_count < 1:
            raise ValueError(f"roi_count must be >= 1, got {self.roi_count}")
        if any(s < 0 for s in self.scale_stds) or self.igc_std < 0:
            raise ValueError("standard deviations must be non-negative")

    @property
    def n_scales(self) -> int:
        return len(self.scale_means)


def _check_dims(img_shape, mask: Mask, what: str = "mask"):
    if (mask.height, mask.width) != tuple(img_shape):
        raise ValueError(
            f"{what} dimensions {mask.width}x{mask.height} do not match "
            f"image {img_shape[1]}x{img_shape[0]}"
        )


def scale_stats(values: np.ndarray, mask: Mask) -> tuple[float, float, int]:
    """ROI mean and population standard deviation of one response grid."""
    values = np.asarray(values, dtype=np.float64)
    _check_dims(values.shape, mask)
    roi = values[mask.inside]
    n = roi.size
    if n == 0:
        raise EmptyRoiError("mask contains no ROI pixels")
    mean = float(roi.sum() / n)
    # roi is a fresh copy, so the deviations are squared in place
    roi -= mean
    roi *= roi
    std = float(np.sqrt(roi.sum() / n))
    return mean, std, n


def _standardize_into(total: np.ndarray, values: np.ndarray, mean: float, std: float):
    """Add the standardized values to total, overwriting values."""
    if std < DEGENERATE_STD:
        return
    values -= mean
    values /= std
    total += values


def msld_reference(img: GrayImage, mask: Mask, params: MsldParams) -> tuple[ResponseMap, ScaleStats]:
    """Run the full pipeline over an inverted-channel image.

    Returns the combined response map and the per-scale ROI statistics
    (floats, and always with a zero clamp counter: the stable two-pass
    statistics cannot go negative).
    """
    _check_dims(img.pixels.shape, mask)
    if mask.count == 0:
        raise EmptyRoiError("mask contains no ROI pixels")

    window_sums, line_maxima = band_sums(img.pixels, 0, img.height, params.window)
    window_means = window_sums / (params.window * params.window)
    del window_sums

    means: list[float] = []
    stds: list[float] = []
    combined = np.zeros(window_means.shape, dtype=np.float64)
    raw = np.empty_like(combined)
    for line_max, scale in zip(line_maxima, params.scales):
        np.divide(line_max, scale, out=raw)
        raw -= window_means
        mean, std, _ = scale_stats(raw, mask)
        means.append(mean)
        stds.append(std)
        _standardize_into(combined, raw, mean, std)
    del line_maxima, window_means

    np.copyto(raw, img.pixels)
    igc_mean, igc_std, roi_count = scale_stats(raw, mask)
    _standardize_into(combined, raw, igc_mean, igc_std)
    combined /= params.n_scales + 1
    combined[~mask.inside] = 0.0

    stats = ScaleStats(
        scale_means=tuple(means),
        scale_stds=tuple(stds),
        igc_mean=igc_mean,
        igc_std=igc_std,
        roi_count=roi_count,
    )
    return ResponseMap(combined), stats
