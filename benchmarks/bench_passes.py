"""Timings of ``stream_pass1``, ``stream_pass2``, ``msld_streaming`` and
``msld_reference``, the loops that take the kernel's bands as records of at
most one register height's ROI pixels (``streaming._split``).

Run with pytest-benchmark (the file name keeps the tier-1 suite from
collecting it):

    PYTHONPATH=src python -m pytest benchmarks/bench_passes.py

(``--benchmark-disable`` runs each case once.) ``bench_kernel.py`` times
the kernel alone; these cases add pass 1's ROI gathers, pass 2's
multiply-accumulate, and the ROI values that ``msld_streaming`` keeps in
one pass-2 band's kernel bytes and term register and the reference keeps
whole, so that their pass 2 forms fewer bands or none again, at W = 15 on
a 565x584 (DRIVE size) image with a circular field of view and on a 64x64
tile with a 0.3 random ROI, where per-record overhead dominates and pass 1
sums four whole bands whose values pass 2 combines without forming any.
"""

import numpy as np
import pytest

from msld import GrayImage, Mask, MsldParams, msld_reference, msld_streaming, stream_pass1, stream_pass2

PARAMS = MsldParams(window=15)
# (height, width, ROI share); no share is a circular field of view
CASES = {"565x584-fov": (584, 565, None), "64x64-0.3": (64, 64, 0.3)}


def case(name: str) -> tuple[GrayImage, Mask]:
    height, width, share = CASES[name]
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, (height, width), dtype=np.uint8)
    if share is None:
        y, x = np.ogrid[:height, :width]
        inside = (2 * y - height) ** 2 + (2 * x - width) ** 2 <= (0.9 * width) ** 2
    else:
        inside = rng.random((height, width)) < share
    return GrayImage(pixels), Mask(inside)


@pytest.mark.parametrize("mode", ["float", "fixed"])
@pytest.mark.parametrize("name", CASES)
def test_pass1(benchmark, name, mode):
    benchmark(stream_pass1, *case(name), PARAMS, mode)


@pytest.mark.parametrize("mode", ["float", "fixed"])
@pytest.mark.parametrize("name", CASES)
def test_pass2(benchmark, name, mode):
    img, mask = case(name)
    benchmark(stream_pass2, img, mask, PARAMS, stream_pass1(img, mask, PARAMS, mode), mode)


@pytest.mark.parametrize("mode", ["float", "fixed"])
@pytest.mark.parametrize("name", CASES)
def test_streaming(benchmark, name, mode):
    benchmark(msld_streaming, *case(name), PARAMS, mode)


@pytest.mark.parametrize("name", CASES)
def test_reference(benchmark, name):
    benchmark(msld_reference, *case(name), PARAMS)
