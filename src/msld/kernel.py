"""Exact integer window and line sums of one band of output rows.

This is the one place the raw response's sums are formed; the engines
differ only in how many rows they hand it at once and in the arithmetic
that turns its integers into means.

Layout. A band of ``rows`` output rows needs the ``rows + window - 1``
edge-clamped image rows around it, each edge-padded by ``half = (window -
1) / 2`` columns on both sides to the padded width ``pc = ncols + window -
1``. They are copied once, through a 2-D view, into one flat C-contiguous
buffer of ``sum_dtype(window)`` with one spare zero row at the bottom.
Output pixel (r, c) is centred on flat index ``(r + half) * pc + c +
half``, so the sample at offset (dx, dy) of every output pixel is the one
contiguous slice starting ``dy * pc + dx`` later, and each column, window
and oriented line sum is a run of same-dtype adds of ``rows * pc`` long
slices. The outputs keep this padded width: their ``window - 1`` pad
columns of each row hold sums that wrap into the next row's pixels (the
last row's into the spare row) and belong to no output pixel, so callers
read the first ``ncols`` columns of each row.

Every sum is held in ``sum_dtype(window)``, 16 bits up to W = 15, and
returned in one array indexed by scale: row 0 holds the window sums and
row s >= 1 the maxima of the line sums of length 2s + 1. Scale 1's line is
the pixel itself, so it needs no row; callers take its sums from the pixels.
"""

from __future__ import annotations

import numpy as np

from .detector import ORIENTATION_COUNT, line_offsets

# array objects band_sums holds at once (the flat band, the sums and their
# shaped views, the running line sum, the two views one line step
# adds or compares), and the bytes tracemalloc counts for one with its shape
# and strides; on a band of a few pixels they outweigh the buffers
_ARRAY_OBJECTS = 8
_ARRAY_OBJECT_BYTES = 160


def sum_dtype(window: int) -> type:
    """Narrowest integer type that holds every sum of a band: a window sum
    of window * window 8-bit pixels, and so every shorter line sum."""
    return np.uint16 if 255 * window * window < 2**16 else np.int32


def band_bytes(rows: int, ncols: int, window: int) -> int:
    """Bytes of every buffer ``band_sums`` allocates for a band of ``rows`` rows.

    Counts, all in ``sum_dtype(window)`` and of the padded width, the
    padded band with its spare row, the column sums, the output of every
    scale and the running line sum, and the array objects the kernel holds
    at once. Not all of the buffers are alive at once, so this bounds the
    peak.
    """
    padded_cols = ncols + window - 1
    padded = rows * padded_cols
    scales = (window + 1) // 2
    words = (rows + window) * padded_cols + padded + window - 1 + (scales + 1) * padded
    return np.dtype(sum_dtype(window)).itemsize * words + _ARRAY_OBJECTS * _ARRAY_OBJECT_BYTES


def band_sums(pixels: np.ndarray, y0: int, y1: int, window: int) -> np.ndarray:
    """Window sums and per-length maxima of the 12 oriented line sums, rows y0..y1-1.

    Reads the y1 - y0 + window - 1 edge-clamped rows around the band from
    the 2-D uint8 ``pixels`` into the flat padded buffer described in the
    module docstring and builds every sum from slice adds on it: each
    longer line is the shorter one plus its two new endpoints. Returns one
    C-contiguous array of ``sum_dtype(window)`` and shape ((window + 1) / 2,
    rows, pc), with pc = cols + window - 1 and only the first cols columns
    of each row meaningful: row 0 holds the window sums and row s >= 1 the
    maxima of the line sums of length 2s + 1. All values are exact.
    """
    if 255 * window * window >= 2**31:
        raise ValueError(f"window {window} is too large for int32 window sums")
    height, ncols = pixels.shape
    half = (window - 1) // 2
    rows = y1 - y0
    padded_cols = ncols + window - 1
    band_rows = rows + window - 1
    dtype = sum_dtype(window)

    flat = np.empty((band_rows + 1) * padded_cols, dtype=dtype)
    band = flat.reshape(band_rows + 1, padded_cols)
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
    # the sums read the flat buffer only, one array object fewer at the peak
    del band
    n = rows * padded_cols
    sums = np.empty((half + 1, n), dtype=dtype)

    # column sums reach window - 1 past the last output so that every
    # window sum is one more slice of them
    span = n + window - 1
    column_sums = flat[:span].copy()
    for dy in range(1, window):
        column_sums += flat[dy * padded_cols:dy * padded_cols + span]
    row = np.add(column_sums[:n], column_sums[1:n + 1], out=sums[0])
    for dx in range(2, window):
        row += column_sums[dx:dx + n]
    del column_sums, row

    centre = half * padded_cols + half
    # every orientation builds each length's line sums from the shorter
    # one's (the centre pixel for the first) plus its two new endpoints:
    # orientation 0 in the maxima rows themselves, every later one in the
    # line buffer, which then raises the maxima. The buffer is allocated
    # after orientation 0, whose views would lift the peak above the column
    # sums' while it lives, and each maximum's view is dropped before the
    # next step's two band views exist, so no step holds three
    line = None
    for k in range(ORIENTATION_COUNT):
        offsets = line_offsets(k, window)
        shorter = flat[centre:centre + n]
        for j in range(half):
            dx, dy = offsets[half + j + 1]
            ahead = centre + dy * padded_cols + dx
            behind = centre - dy * padded_cols - dx
            shorter = np.add(shorter, flat[ahead:ahead + n], out=line if k else sums[j + 1])
            shorter += flat[behind:behind + n]
            if k:
                row = sums[j + 1]
                np.maximum(row, line, out=row)
                del row
        if not k:
            line = np.empty(n, dtype=dtype)
    return sums.reshape(half + 1, rows, padded_cols)
