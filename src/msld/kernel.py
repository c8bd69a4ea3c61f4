"""Exact integer window and line sums of one band of output rows.

This is the one place the raw response's sums are formed; the engines
differ only in how many rows they hand it at once and in the arithmetic
that turns its integers into means.
"""

from __future__ import annotations

import numpy as np

from .detector import ORIENTATION_COUNT, line_offsets


def line_sum_dtype(window: int) -> type:
    """Narrowest integer type that holds a line sum of up to window 8-bit pixels."""
    return np.int16 if 255 * window < 2**15 else np.int32


def band_sums(pixels: np.ndarray, y0: int, y1: int, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Window sums and per-scale maxima of the 12 oriented line sums, rows y0..y1-1.

    Reads the y1 - y0 + window - 1 edge-clamped rows around the band from
    the 2-D uint8 ``pixels``, edge-pads them by (window - 1) / 2 columns on
    each side, and builds every sum from shifted-slice adds of that band:
    each longer line is the shorter one plus its two new endpoints. Returns
    ``int32`` window sums of shape (rows, cols) and the line-sum maxima of
    shape (scales, rows, cols) as ``line_sum_dtype(window)``. All values
    are exact.
    """
    if 255 * window * window >= 2**31:
        raise ValueError(f"window {window} is too large for int32 window sums")
    height, ncols = pixels.shape
    half = (window - 1) // 2
    rows = y1 - y0
    lo, hi = max(y0 - half, 0), min(y1 + half, height)
    band = np.pad(pixels[lo:hi], ((lo - (y0 - half), y1 + half - hi), (half, half)), mode="edge")

    def shifted(dx: int, dy: int) -> np.ndarray:
        return band[half + dy:half + dy + rows, half + dx:half + dx + ncols]

    column_sums = band[:rows].astype(np.int32)
    for dy in range(1, window):
        column_sums += band[dy:dy + rows]
    window_sums = column_sums[:, :ncols].copy()
    for dx in range(1, window):
        window_sums += column_sums[:, dx:dx + ncols]

    sum_dtype = line_sum_dtype(window)
    # line sums are non-negative, so zero starts every running maximum
    maxima = np.zeros((half + 1, rows, ncols), dtype=sum_dtype)
    maxima[0] = shifted(0, 0)
    line = np.empty((rows, ncols), dtype=sum_dtype)
    for k in range(ORIENTATION_COUNT):
        offsets = line_offsets(k, window).offsets
        line[:] = maxima[0]
        for j in range(1, half + 1):
            dx, dy = offsets[half + j]
            line += shifted(dx, dy)
            line += shifted(-dx, -dy)
            np.maximum(maxima[j], line, out=maxima[j])
    return window_sums, maxima
