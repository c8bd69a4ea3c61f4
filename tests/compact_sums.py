"""The kernel's outputs in the compact view the tests read them in."""

import numpy as np

from msld.kernel import band_sums


def compact_band_sums(pixels, y0, y1, window):
    """``band_sums`` cropped to the image's columns, with the length-1 line
    sums (the pixels) put back in front of the maxima: window sums of shape
    (rows, cols) and maxima of every line length, of shape (scales, rows, cols)."""
    window_sums, line_maxima = band_sums(pixels, y0, y1, window)
    ncols = pixels.shape[1]
    pixel_sums = pixels[y0:y1].astype(line_maxima.dtype)[None]
    return window_sums[:, :ncols], np.concatenate([pixel_sums, line_maxima[:, :, :ncols]])
