import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import band_sums_bruteforce
from compact_sums import compact_band_sums
from msld.kernel import band_bytes, band_sums, sum_dtype


@given(
    height=st.integers(1, 20),
    width=st.integers(1, 12),
    window=st.sampled_from([3, 5, 9, 15]),
    band=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_bands_stitch_to_the_whole_image(height, width, window, band, seed):
    pixels = np.random.default_rng(seed).integers(0, 256, (height, width), dtype=np.uint8)
    whole_sums, whole_maxima = compact_band_sums(pixels, 0, height, window)
    parts = [compact_band_sums(pixels, y, min(y + band, height), window) for y in range(0, height, band)]
    assert np.array_equal(np.concatenate([p[0] for p in parts], axis=0), whole_sums)
    assert np.array_equal(np.concatenate([p[1] for p in parts], axis=1), whole_maxima)


@pytest.mark.parametrize("window", [3, 5, 15])
@pytest.mark.parametrize("height, width, y0, y1", [
    (1, 9, 0, 1), (9, 1, 0, 9), (9, 1, 4, 6),  # 1 x N and N x 1
    (12, 10, 0, 4), (12, 10, 9, 12),  # bands at the top and bottom edges
    (12, 10, 3, 9), (6, 7, 0, 6),
])
def test_sums_match_the_bruteforce_line_geometry(height, width, y0, y1, window):
    # the window sums and every length's maximum over the 12 orientations,
    # from the oracle's own line rasterization and edge clamping
    pixels = np.random.default_rng(height * width + window).integers(0, 256, (height, width), dtype=np.uint8)
    sums = band_sums(pixels, y0, y1, window)
    window_sums, line_maxima = sums[0], sums[1:]
    expected_sums, expected_maxima = band_sums_bruteforce(pixels, y0, y1, window)
    assert window_sums[:, :width].tolist() == expected_sums
    assert line_maxima[:, :, :width].tolist() == expected_maxima


@pytest.mark.parametrize("window, dtype", [
    # 57,375 is beyond int16; 255 * 17 * 17 is beyond uint16
    (15, np.uint16), (17, np.int32), (127, np.int32), (129, np.int32),
])
def test_one_sum_type_holds_every_full_scale_sum(window, dtype):
    # one C-contiguous array of one dtype, indexed by scale: the window sums
    # in row 0 and the maxima of the line sums of length 2s + 1 in row s
    pixels = np.full((2, 3), 255, dtype=np.uint8)
    sums = band_sums(pixels, 0, 2, window)
    assert sum_dtype(window) == dtype and sums.dtype == dtype
    assert sums.shape == ((window + 1) // 2, 2, 3 + window - 1) and sums.flags.c_contiguous
    assert (sums[0, :, :3] == 255 * window * window).all()
    lengths = np.arange(3, window + 1, 2)
    assert (sums[1:, :, :3] == 255 * lengths[:, None, None]).all()


def test_window_beyond_int32_rejected():
    with pytest.raises(ValueError):
        band_sums(np.zeros((1, 1), dtype=np.uint8), 0, 1, 2903)


@pytest.mark.parametrize("height, width, window, y0, y1", [
    (40, 64, 15, 8, 16), (584, 565, 15, 0, 8), (5, 7, 9, 0, 5), (3, 2, 129, 1, 3),
])
def test_outputs_are_compact_and_inside_the_modeled_bytes(height, width, window, y0, y1):
    pixels = np.random.default_rng(height).integers(0, 256, (height, width), dtype=np.uint8)
    band_sums(pixels, y0, y1, window)  # fills the line-geometry cache outside the trace
    tracemalloc.start()
    try:
        sums = band_sums(pixels, y0, y1, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows, padded_cols = y1 - y0, width + window - 1
    assert sums.dtype == sum_dtype(window)
    # the window sums, then the maxima from length 3: the length-1 line is the pixel
    assert sums.shape == ((window + 1) // 2, rows, padded_cols)
    assert sums.flags.c_contiguous
    modeled = band_bytes(rows, width, window)
    assert sums.nbytes <= peak <= modeled


# sha256 of the sums of whole-image sweeps, each band cropped to the image's
# columns, recorded before the kernel's line-sum loops were merged: a kernel
# refactor must leave every bit of every band where it was.
# (height, width, window, band rows) -> digest
SWEEP_DIGESTS = {
    # DRIVE size at W = 15 (uint16): the pass-1 and the pass-2 band heights
    (584, 565, 15, 144): "a65e06fe6269569212af36eb40976fda2ec20f311a21daf673a5625aa22a8b83",
    (584, 565, 15, 36): "cfa8f716445d9a72bf951c47b5f0ade20af214645a7e422bf3804ccfcf6c6ba4",
    # a tile: one pass-1 band of 27 rows and pass-2 bands of 8
    (64, 64, 15, 27): "47f8e15f318162ddbbd9ab4b03037aa506de8600d1ddfc531487136191d488d4",
    (64, 64, 15, 8): "0223955bca0e9ac3cdbf1185a0ee8c9aa66ba3d2eca4776a4127702d8b2ddd32",
    # int32 sums
    (584, 565, 17, 36): "5d6fd9a9906bd3a96f9fae9e7ed599a05bbe0633c146318a36faf081b78f31fd",
}


@pytest.mark.parametrize("case", sorted(SWEEP_DIGESTS))
def test_band_sweeps_pinned(case):
    height, width, window, band_rows = case
    pixels = np.random.default_rng(height + window).integers(0, 256, (height, width), dtype=np.uint8)
    # a saturated corner puts full-scale sums in every band that reaches it
    pixels[:40, :40] = 255
    digest = hashlib.sha256()
    for y0 in range(0, height, band_rows):
        sums = band_sums(pixels, y0, min(y0 + band_rows, height), window)
        digest.update(np.ascontiguousarray(sums[:, :, :width]).tobytes())
    assert digest.hexdigest() == SWEEP_DIGESTS[case]
