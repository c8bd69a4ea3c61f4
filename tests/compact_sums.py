"""The kernel's outputs in the compact view the tests read them in."""

import numpy as np

from msld.kernel import band_sums


def compact_band_sums(pixels, y0, y1, window):
    """``band_sums`` cropped to the image's columns and split, with the
    length-1 line sums (the pixels) put in its window sums' place: window
    sums of shape (rows, cols) and maxima of every line length, of shape
    (scales, rows, cols)."""
    sums = band_sums(pixels, y0, y1, window)[:, :, :pixels.shape[1]]
    line_maxima = sums.copy()
    line_maxima[0] = pixels[y0:y1]
    return sums[0], line_maxima
