"""Exact integer window and line sums of one band of output rows.

This is the one place the raw response's sums are formed; the engines
differ only in how many rows they hand it at once and in the arithmetic
that turns its integers into means.

Layout. A band of ``rows`` output rows needs the ``rows + window - 1``
edge-clamped image rows around it, each edge-padded by ``half = (window -
1) / 2`` columns on both sides to the padded width ``pc = ncols + window -
1``. They are copied once into one C-contiguous buffer of the line-sum
dtype, with one spare zero row at the bottom, and read through its flat
1-D view. Output pixel (r, c) is centred on flat index
``(r + half) * pc + c + half``, so the sample at offset (dx, dy) of every
output pixel is the one contiguous slice starting ``dy * pc + dx`` later,
and each column, window and oriented line sum is a run of same-dtype
``+=`` on ``rows * pc`` long slices. The results for the ``window - 1`` pad
columns of each row wrap into the next row's pixels (the last row's into
the spare row) and are dropped when the outputs are compacted to ``ncols``
columns.
"""

from __future__ import annotations

import numpy as np

from .detector import ORIENTATION_COUNT, line_offsets


def line_sum_dtype(window: int) -> type:
    """Narrowest integer type that holds a line sum of up to window 8-bit pixels."""
    return np.int16 if 255 * window < 2**15 else np.int32


def band_bytes(rows: int, ncols: int, window: int) -> int:
    """Bytes of every buffer ``band_sums`` allocates for a band of ``rows`` rows.

    Counts the padded band with its spare row, the padded-width column sums
    (in the line-sum dtype and widened to int32), the padded-width window
    sums, the padded line-sum maxima and running line sum, and the compact
    outputs. Not all of them are alive at once, so this bounds the peak.
    """
    itemsize = np.dtype(line_sum_dtype(window)).itemsize
    padded_cols = ncols + window - 1
    padded = rows * padded_cols
    scales = (window + 1) // 2
    return (
        itemsize * (rows + window) * padded_cols
        + (itemsize + 4) * (padded + window - 1)
        + 4 * padded
        + itemsize * (scales + 1) * padded
        + (4 + itemsize * scales) * rows * ncols
    )


def band_sums(pixels: np.ndarray, y0: int, y1: int, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Window sums and per-scale maxima of the 12 oriented line sums, rows y0..y1-1.

    Reads the y1 - y0 + window - 1 edge-clamped rows around the band from
    the 2-D uint8 ``pixels`` into the flat padded buffer described in the
    module docstring and builds every sum from slice adds on it: each
    longer line is the shorter one plus its two new endpoints. Returns
    C-contiguous ``int32`` window sums of shape (rows, cols) and the
    line-sum maxima of shape (scales, rows, cols) as
    ``line_sum_dtype(window)``. All values are exact.
    """
    if 255 * window * window >= 2**31:
        raise ValueError(f"window {window} is too large for int32 window sums")
    height, ncols = pixels.shape
    half = (window - 1) // 2
    rows = y1 - y0
    padded_cols = ncols + window - 1
    band_rows = rows + window - 1
    sum_dtype = line_sum_dtype(window)

    band = np.empty((band_rows + 1, padded_cols), dtype=sum_dtype)
    lo, hi = max(y0 - half, 0), min(y1 + half, height)
    top = lo - (y0 - half)
    bottom = top + hi - lo
    inner = slice(half, half + ncols)
    band[top:bottom, inner] = pixels[lo:hi]
    band[:top, inner] = band[top, inner]
    band[bottom:band_rows, inner] = band[bottom - 1, inner]
    band[:band_rows, :half] = band[:band_rows, half:half + 1]
    band[:band_rows, half + ncols:] = band[:band_rows, half + ncols - 1:half + ncols]
    band[band_rows] = 0
    flat = band.reshape(-1)
    n = rows * padded_cols

    # column sums reach window - 1 past the last output so that every
    # window sum is one more slice of them
    span = n + window - 1
    narrow_columns = flat[:span].copy()
    for dy in range(1, window):
        narrow_columns += flat[dy * padded_cols:dy * padded_cols + span]
    column_sums = narrow_columns.astype(np.int32)
    del narrow_columns
    padded_sums = column_sums[:n].copy()
    for dx in range(1, window):
        padded_sums += column_sums[dx:dx + n]
    window_sums = padded_sums.reshape(rows, padded_cols)[:, :ncols].copy()
    del column_sums, padded_sums

    centre = half * padded_cols + half
    maxima = np.empty((half + 1, n), dtype=sum_dtype)
    maxima[0] = flat[centre:centre + n]
    # line sums are non-negative, so zero starts every running maximum
    maxima[1:] = 0
    line = np.empty(n, dtype=sum_dtype)
    for k in range(ORIENTATION_COUNT):
        offsets = line_offsets(k, window).offsets
        line[:] = maxima[0]
        for j in range(1, half + 1):
            dx, dy = offsets[half + j]
            ahead = centre + dy * padded_cols + dx
            behind = centre - dy * padded_cols - dx
            line += flat[ahead:ahead + n]
            line += flat[behind:behind + n]
            np.maximum(maxima[j], line, out=maxima[j])
    # the compact copy of the maxima sets the kernel's peak, so nothing
    # else is held across it
    del band, flat, line
    return window_sums, maxima.reshape(half + 1, rows, padded_cols)[:, :, :ncols].copy()
