"""Every engine entry point against the brute-force oracle, plus pinned
fixed-point outputs."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import combined_map_bruteforce
from msld import (
    EmptyRoiError,
    GrayImage,
    Mask,
    MsldParams,
    msld_reference,
    msld_streaming,
    stream_pass1,
    stream_pass2,
)

FLOAT_TOL = 1e-9


def float_maps(pixels, roi, window):
    img, mask = GrayImage(pixels), Mask(roi)
    params = MsldParams(window=window)
    stats = stream_pass1(img, mask, params, "float")
    return {
        "reference": msld_reference(img, mask, params)[0].values,
        "streaming-float": msld_streaming(img, mask, params, "float")[0].values,
        "pass1+pass2": stream_pass2(img, mask, params, stats, "float").values,
    }


def assert_match_oracle(pixels, roi, window):
    expected = np.array(combined_map_bruteforce(pixels, roi.tolist(), window))
    for name, values in float_maps(pixels, roi, window).items():
        assert np.abs(values - expected).max() <= FLOAT_TOL, name


@st.composite
def cases(draw):
    height = draw(st.integers(1, 11))
    width = draw(st.integers(1, 11))
    window = draw(st.sampled_from([3, 5, 7, 9]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, (height, width), dtype=np.uint8)
    roi = rng.random((height, width)) < draw(st.floats(0.1, 1.0))
    roi[rng.integers(height), rng.integers(width)] = True
    return pixels, roi, window


@given(cases())
@settings(max_examples=40, deadline=None)
def test_float_engines_match_oracle(case):
    assert_match_oracle(*case)


def test_single_pixel_roi():
    pixels = np.random.default_rng(1).integers(0, 256, (7, 9), dtype=np.uint8)
    roi = np.zeros((7, 9), dtype=bool)
    roi[3, 4] = True
    assert_match_oracle(pixels, roi, 5)


def test_constant_image():
    assert_match_oracle(np.full((6, 8), 77, dtype=np.uint8), np.ones((6, 8), dtype=bool), 5)


def test_window_larger_than_image():
    pixels = np.random.default_rng(2).integers(0, 256, (4, 5), dtype=np.uint8)
    assert_match_oracle(pixels, np.ones((4, 5), dtype=bool), 9)


@pytest.mark.parametrize("shape", [(1, 11), (11, 1)])
def test_single_row_and_column(shape):
    pixels = np.random.default_rng(3).integers(0, 256, shape, dtype=np.uint8)
    assert_match_oracle(pixels, np.ones(shape, dtype=bool), 5)


def test_line_sums_beyond_int16():
    # 255 * 129 exceeds int16, so the kernel sums in int32
    pixels = np.array([[255, 255, 0], [255, 0, 255]], dtype=np.uint8)
    assert_match_oracle(pixels, np.ones((2, 3), dtype=bool), 129)


@pytest.mark.parametrize("mode", ["float", "fixed"])
def test_empty_roi_rejected(mode):
    img, mask = GrayImage(np.zeros((4, 4), dtype=np.uint8)), Mask(np.zeros((4, 4), dtype=bool))
    params = MsldParams(window=3)
    for run in (lambda: msld_reference(img, mask, params),
                lambda: msld_streaming(img, mask, params, mode),
                lambda: stream_pass1(img, mask, params, mode)):
        with pytest.raises(EmptyRoiError):
            run()


# sha256 of the float64 streaming-fixed maps, recorded from the per-row
# engine that preceded the band kernel: the fixed datapath is bit-true.
# (seed, height, width, window, frac_bits) -> digest
FIXED_DIGESTS = {
    (0, 13, 17, 5, 18): "89344234923063827294bbe46242f27fc286bd5ddf5aace14c7814b3c77ed31f",
    (1, 20, 9, 7, 18): "c1e2446a3c1c09ddf551c4d8f2ec28dda2f4ab96bdedc8710735b271e4a5171e",
    (2, 11, 11, 15, 12): "1dbbe719d5816a6603e8b807dae0cf10a48d550f75225c93d70f9d495895682a",
    (3, 32, 24, 9, 23): "ef107f8d7b7fd6a3a9679a42d9f40df925f6d0d3781a502730112273fb2705c0",
    (4, 3, 40, 5, 8): "1af1358eb5881e30074c82743c7cf46066a3422976ad89c52601d400898ac4ec",
    (5, 2, 3, 129, 18): "8cce99ba66492a2833839772c6dbc5fcb475d56100d5dda9470f1222166218b8",
}


@pytest.mark.parametrize("case", sorted(FIXED_DIGESTS))
def test_fixed_maps_pinned(case):
    seed, height, width, window, frac_bits = case
    rng = np.random.default_rng(seed)
    img = GrayImage(rng.integers(0, 256, (height, width), dtype=np.uint8))
    mask = Mask(rng.random((height, width)) < 0.6)
    params = MsldParams(window=window, frac_bits=frac_bits)
    resp, stats, _ = msld_streaming(img, mask, params, "fixed")
    assert hashlib.sha256(resp.values.tobytes()).hexdigest() == FIXED_DIGESTS[case]
    assert stream_pass1(img, mask, params, "fixed") == stats
    assert stream_pass2(img, mask, params, stats, "fixed") == resp
