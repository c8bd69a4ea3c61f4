"""Timings of ``kernel.band_sums``, the sweep both engines spend most of their time in.

Run with pytest-benchmark (the file name keeps the tier-1 suite from
collecting it):

    PYTHONPATH=src python -m pytest benchmarks/bench_kernel.py

(``--benchmark-disable`` runs each case once.) Each band returns every
sum in one array of one integer type, uint16 at W = 15. ``msld_streaming``
calls the kernel on pass-1 bands of ``streaming.pass1_height(width,
height, W)`` rows and on pass-2 bands of ``streaming.band_height(width,
height)`` rows. The reference (``streaming.sweep``) forms the sums once,
in bands of pass 1's cap, max(8, PASS1_BAND_PIXELS // width) rows, and
keeps their ROI values. ``streaming``'s module docstring gives these
heights at the three sizes below; on 64-row tiles per-call overhead
dominates. This file's ``sweep`` runs all three schedules.
"""

import numpy as np
import pytest

from msld.kernel import band_sums
from msld.streaming import PASS1_BAND_PIXELS, band_height, pass1_height

WINDOW = 15


def image(height: int, width: int) -> np.ndarray:
    return np.random.default_rng(0).integers(0, 256, (height, width), dtype=np.uint8)


def sweep(pixels: np.ndarray):
    height, width = pixels.shape
    for band_rows in (pass1_height(width, height, WINDOW), band_height(width, height),
                      max(8, PASS1_BAND_PIXELS // width)):
        for y0 in range(0, height, band_rows):
            band_sums(pixels, y0, min(y0 + band_rows, height), WINDOW)


@pytest.mark.parametrize("height, width", [(584, 565), (1536, 2048), (64, 64)])
def test_band_sweep(benchmark, height, width):
    benchmark(sweep, image(height, width))
