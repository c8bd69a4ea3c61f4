"""Timings of ``kernel.band_sums``, the sweep both engines spend most of their time in.

Run with pytest-benchmark (the file name keeps the tier-1 suite from
collecting it):

    PYTHONPATH=src python -m pytest benchmarks/bench_kernel.py

The streaming engine calls the kernel on bands of ``BAND_ROWS`` rows, so
per-call overhead dominates at 64 columns and the adds themselves at 565;
the reference calls it once on the whole image.
"""

import numpy as np
import pytest

from msld.kernel import band_sums
from msld.streaming import BAND_ROWS

WINDOW = 15


def image(height: int, width: int) -> np.ndarray:
    return np.random.default_rng(0).integers(0, 256, (height, width), dtype=np.uint8)


def sweep(pixels: np.ndarray):
    height = pixels.shape[0]
    for y0 in range(0, height, BAND_ROWS):
        band_sums(pixels, y0, min(y0 + BAND_ROWS, height), WINDOW)


@pytest.mark.parametrize("width", [565, 64])
def test_band_sweep(benchmark, width):
    benchmark(sweep, image(584, width))


def test_whole_image(benchmark):
    pixels = image(584, 565)
    benchmark(band_sums, pixels, 0, pixels.shape[0], WINDOW)
