import functools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from msld.imageio import (
    GrayImage,
    Mask,
    PnmFormatError,
    PnmRows,
    RgbImage,
    encode_pnm,
    extract_inverted_green,
    load_mask,
    load_pnm,
    open_rows,
    save_pnm,
)
from msld.reference import ResponseMap


def opened(path, mask=False):
    """Enter ``open_rows`` on path and leave it without asking for a row."""
    with open_rows(path, mask):
        pass


def test_load_p2_single_pixel(tmp_path):
    path = tmp_path / "one.pgm"
    path.write_bytes(b"P2\n1 1\n255\n0\n")
    img = load_pnm(path)
    assert isinstance(img, GrayImage)
    assert img.width == 1 and img.height == 1
    assert img.pixels[0, 0] == 0


def test_load_p6_all_white(tmp_path):
    path = tmp_path / "white.ppm"
    path.write_bytes(b"P6\n2 2\n255\n" + b"\xff" * 12)
    img = load_pnm(path)
    assert isinstance(img, RgbImage)
    assert img.width == 2 and img.height == 2
    assert (img.pixels == 255).all()


def test_load_p3_ascii(tmp_path):
    path = tmp_path / "tiny.ppm"
    path.write_bytes(b"P3\n2 1\n255\n1 2 3 4 5 6\n")
    img = load_pnm(path)
    assert list(img.pixels[0, 0]) == [1, 2, 3]
    assert list(img.pixels[0, 1]) == [4, 5, 6]


def test_header_comments_skipped(tmp_path):
    path = tmp_path / "commented.pgm"
    path.write_bytes(b"P5 # magic\n# a comment line\n2 # width\n2\n255\nabcd")
    img = load_pnm(path)
    assert img.pixels.tolist() == [[97, 98], [99, 100]]


def test_roundtrip_gray_random(tmp_path):
    rng = np.random.RandomState(7)
    img = GrayImage(rng.randint(0, 256, (16, 16), dtype=np.uint8))
    path = tmp_path / "rt.pgm"
    save_pnm(img, path)
    assert load_pnm(path) == img


def test_roundtrip_rgb_random(tmp_path):
    rng = np.random.RandomState(8)
    img = RgbImage(rng.randint(0, 256, (9, 13, 3), dtype=np.uint8))
    path = tmp_path / "rt.ppm"
    save_pnm(img, path)
    assert load_pnm(path) == img


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P7\n1 1\n255\n\x00")
    with pytest.raises(PnmFormatError, match="magic"):
        load_pnm(path)


def test_bad_maxval_rejected(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(PnmFormatError, match="maxval"):
        load_pnm(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
    with pytest.raises(PnmFormatError, match="truncated"):
        load_pnm(path)


@pytest.mark.parametrize("load, data, match", [
    (load_pnm, b"P5\nxx 4\n255\n", "width is not an integer"),
    (load_pnm, b"", "end of file"),
    (load_pnm, b"P5\n0 4\n255\n", "invalid dimensions 0x4"),
    # the first pixel byte is '#', right after the maxval
    (load_pnm, b"P5\n1 1\n255#", "missing whitespace"),
    (load_pnm, b"P2\n2 1\n255\n0 256\n", "out of range"),
    (load_mask, b"P6\n1 1\n255\n\x00\x00\x00", "grayscale"),
    # a row source raises the same errors on opening, before any row is read
    (opened, b"P5\nxx 4\n255\n", "width is not an integer"),
    (opened, b"", "end of file"),
    (opened, b"P7\n1 1\n255\n\x00", "magic"),
    (opened, b"P6\n0 4\n255\n", "invalid dimensions 0x4"),
    (opened, b"P5\n1 1\n65535\n\x00\x00", "maxval"),
    (opened, b"P5\n1 1\n255#", "missing whitespace"),
    (opened, b"P6\n4 4\n255\n" + b"\x00" * 47, "truncated pixel data: expected 48 bytes, found 47"),
    (opened, b"P5 # " + b"long comment " * 100 + b"\n4 4\n255\n\x00\x00", "truncated"),
    (functools.partial(opened, mask=True), b"P6\n1 1\n255\n\x00\x00\x00", "grayscale"),
    (opened, b"P2\n2 1\n255\n0 256\n", "out of range"),
    # int() would read these as 10, 2 and 255 and the sample as 5
    (load_pnm, b"P5 1_0 2 255\n" + b"\x00" * 20, "width is not an integer"),
    (load_pnm, b"P5 10 +2 255\n" + b"\x00" * 20, "height is not an integer"),
    (load_pnm, b"P5 10 2 2_55\n" + b"\x00" * 20, "maxval is not an integer"),
    (load_pnm, b"P2\n1 1\n255\n+5\n", "sample is not an integer"),
    (opened, b"P5 1_0 2 255\n" + b"\x00" * 20, "width is not an integer"),
    (opened, b"P5 10 +2 255\n" + b"\x00" * 20, "height is not an integer"),
    (opened, b"P5 10 2 2_55\n" + b"\x00" * 20, "maxval is not an integer"),
    (opened, b"P2\n1 1\n255\n+5\n", "sample is not an integer"),
], ids=["non_integer_width", "empty", "zero_width", "no_whitespace_before_raster",
        "ascii_sample_256", "mask_is_ppm", "rows_non_integer_width", "rows_empty", "rows_magic",
        "rows_zero_width", "rows_maxval", "rows_no_whitespace_before_raster", "rows_truncated",
        "rows_truncated_after_a_long_header", "rows_mask_is_ppm", "rows_ascii_sample_256",
        "underscore_width", "signed_height", "underscore_maxval", "signed_ascii_sample",
        "rows_underscore_width", "rows_signed_height", "rows_underscore_maxval", "rows_signed_ascii_sample"])
def test_malformed_header_rejected(tmp_path, load, data, match):
    path = tmp_path / "h.pgm"
    path.write_bytes(data)
    with pytest.raises(PnmFormatError, match=match):
        load(path)


def test_encode_rejects_a_mask():
    with pytest.raises(TypeError, match="Mask"):
        encode_pnm(Mask(np.ones((2, 2), dtype=bool)))


def test_inverted_green_examples():
    rgb = RgbImage(np.array([[[10, 0, 20], [0, 255, 0], [7, 100, 3]]], dtype=np.uint8))
    gray = extract_inverted_green(rgb)
    assert gray.pixels.tolist() == [[255, 0, 155]]


def test_inverted_green_is_involution():
    rng = np.random.RandomState(3)
    g = rng.randint(0, 256, (6, 5), dtype=np.uint8)
    rgb = RgbImage(np.dstack([np.zeros_like(g), g, np.zeros_like(g)]))
    once = extract_inverted_green(rgb).pixels
    rgb_again = RgbImage(np.dstack([np.zeros_like(once), once, np.zeros_like(once)]))
    assert np.array_equal(extract_inverted_green(rgb_again).pixels, g)


def test_mask_load_thresholds(tmp_path):
    checker = np.indices((4, 4)).sum(axis=0) % 2
    img = GrayImage((checker * 255).astype(np.uint8))
    path = tmp_path / "mask.pgm"
    save_pnm(img, path)
    mask = load_mask(path)
    assert isinstance(mask, Mask)
    assert np.array_equal(mask.inside, checker.astype(bool))


def test_mask_all_on_off(tmp_path):
    for value, expect in ((255, True), (0, False)):
        path = tmp_path / f"m{value}.pgm"
        save_pnm(GrayImage(np.full((3, 3), value, dtype=np.uint8)), path)
        assert load_mask(path).inside.all() == expect


def test_mask_reload_idempotent(tmp_path):
    rng = np.random.RandomState(11)
    img = GrayImage(rng.randint(0, 256, (5, 5), dtype=np.uint8))
    path = tmp_path / "m.pgm"
    save_pnm(img, path)
    first = load_mask(path)
    save_pnm(GrayImage(np.where(first.inside, 255, 0).astype(np.uint8)), path)
    assert load_mask(path) == first


@given(hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=2, max_side=50)))
@example(np.zeros((1, 7), dtype=bool))
@example(np.ones((1, 7), dtype=bool))
@example(np.zeros((9, 4), dtype=bool))
def test_mask_count_is_the_number_of_roi_pixels(inside):
    count = Mask(inside).count
    assert type(count) is int and count == int(inside.sum())


def test_images_are_immutable():
    img = GrayImage(np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        img.pixels[0, 0] = 1


@pytest.mark.parametrize("make, shape", [
    (GrayImage, (0, 3)), (GrayImage, (3, 0)), (GrayImage, (3,)),
    (Mask, (3, 0)),
    (RgbImage, (0, 3, 3)), (RgbImage, (3, 3, 4)), (RgbImage, (3, 3)),
    (ResponseMap, (0, 3)), (ResponseMap, (3, 0)), (ResponseMap, (3, 3, 1)),
])
def test_every_grid_is_at_least_one_by_one(make, shape):
    with pytest.raises(ValueError):
        make(np.zeros(shape))


@pytest.mark.parametrize("make, shape", [
    (GrayImage, (2, 3)), (Mask, (2, 3)), (RgbImage, (2, 3, 3)), (ResponseMap, (2, 3)),
])
def test_every_grid_is_frozen_and_contiguous(make, shape):
    grid = make(np.zeros(shape)[:, ::-1])
    (arr,) = vars(grid).values()
    assert arr.flags.c_contiguous and not arr.flags.writeable
    assert (grid.height, grid.width) == shape[:2]


@pytest.mark.parametrize("make, values", [
    (GrayImage, [[300, -1]]), (GrayImage, np.array([[300, -1]])), (GrayImage, [[0.5]]),
    (RgbImage, np.full((1, 1, 3), 256)),
])
def test_uint8_grids_reject_values_the_cast_would_change(make, values):
    with pytest.raises(ValueError, match="0..255"):
        make(values)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("make, shape", [(GrayImage, (1, 2)), (RgbImage, (1, 1, 3))])
def test_uint8_grids_reject_nan_and_infinities(make, shape, value):
    values = np.zeros(shape)
    values.flat[0] = value
    with pytest.raises(ValueError, match="0..255"):
        make(values)


def test_binary_load_views_the_file_bytes(tmp_path):
    path = tmp_path / "drive.ppm"
    pixels = np.random.default_rng(4).integers(0, 256, (584, 565, 3), dtype=np.uint8)
    save_pnm(RgbImage(pixels), path)
    tracemalloc.start()
    try:
        image = load_pnm(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the file's bytes, which the raster views, and no copy of them
    assert peak <= path.stat().st_size + 16384
    assert np.array_equal(image.pixels, pixels)


def test_uint8_grids_keep_exact_values_of_any_dtype():
    assert GrayImage(np.array([[255.0, 0.0]])).pixels.tolist() == [[255, 0]]
    assert Mask(np.array([[2, 0]])).inside.tolist() == [[True, False]]


# blanks and '#' comments, which run to a newline, between any two tokens
separators = st.lists(
    st.one_of(st.sampled_from([" ", "\t", "\r", "\n", "\v", "\f"]),
              st.text("ab #\t", max_size=5).map(lambda c: f"#{c}\n")),
    min_size=1, max_size=3,
).map("".join)


@given(st.data(), st.sampled_from([(), (3,)]))
@settings(max_examples=40, deadline=None)
def test_ascii_encodings_load_like_binary(tmp_path_factory, data, channels):
    shape = data.draw(st.tuples(st.integers(1, 5), st.integers(1, 5))) + channels
    pixels = data.draw(hnp.arrays(np.uint8, shape))
    image = RgbImage(pixels) if channels else GrayImage(pixels)
    tokens = [image.width, image.height, 255, *pixels.ravel()]
    gaps = data.draw(st.lists(separators, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    text = ("P3" if channels else "P2") + "".join(f"{gap}{token}" for gap, token in zip(gaps, tokens))
    path = tmp_path_factory.mktemp("ascii") / "image.pnm"
    path.write_bytes((text + gaps[-1]).encode("ascii"))
    binary = path.with_suffix(".bin")
    binary.write_bytes(encode_pnm(image))
    assert load_pnm(path) == load_pnm(binary) == image


def test_giant_ascii_header_is_a_format_error(tmp_path):
    path = tmp_path / "giant.pgm"
    path.write_bytes(b"P2\n1000000 1000000\n255\n1 2 3\n")
    with pytest.raises(PnmFormatError, match="end of file"):
        load_pnm(path)


def test_blank_header_fails_in_linear_time(tmp_path):
    path = tmp_path / "blank.pgm"
    path.write_bytes(b"P5" + b" " * 10_000)
    start = time.perf_counter()
    with pytest.raises(PnmFormatError, match="end of file"):
        load_pnm(path)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("shape", [(7, 5), (1, 9), (9, 1)])
@pytest.mark.parametrize("kind", ["P5", "P6", "mask"])
@pytest.mark.parametrize("comment", [b"# c\n", b"#" + b"a long comment " * 40 + b"\n"], ids=["short", "long"])
def test_rows_are_those_of_the_whole_file(tmp_path, shape, kind, comment):
    # header comments longer than the first read and bytes after the raster
    rng = np.random.default_rng(len(comment) + shape[0])
    image = (RgbImage(rng.integers(0, 256, (*shape, 3), dtype=np.uint8)) if kind == "P6"
             else GrayImage(rng.integers(0, 3, shape, dtype=np.uint8)))
    magic, rest = encode_pnm(image).split(b"\n", 1)
    path = tmp_path / "image.pnm"
    path.write_bytes(magic + b" " + comment + rest + b"trailing bytes")
    if kind == "mask":
        whole = load_mask(path).inside
    else:
        loaded = load_pnm(path)
        whole = (extract_inverted_green(loaded) if kind == "P6" else loaded).pixels
    with open_rows(path, mask=kind == "mask") as rows:
        assert isinstance(rows, PnmRows) and rows.shape == shape
        for start in range(shape[0] + 1):
            for stop in range(start, shape[0] + 1):
                band = rows[start:stop]
                assert band.dtype == whole.dtype and np.array_equal(band, whole[start:stop])


def test_rows_of_a_file_that_shrank_are_a_format_error(tmp_path):
    path = tmp_path / "image.pgm"
    save_pnm(GrayImage(np.arange(12, dtype=np.uint8).reshape(4, 3)), path)
    with open_rows(path) as rows:
        with open(path, "r+b") as f:
            f.truncate(path.stat().st_size - 2)
        assert rows[0:3].tolist() == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
        with pytest.raises(PnmFormatError, match="truncated pixel data: rows 2..3"):
            rows[2:4]


@pytest.mark.parametrize("kind", ["P2", "P3", "mask"])
def test_an_ascii_file_is_read_whole(tmp_path, kind):
    path = tmp_path / "image.pnm"
    path.write_bytes({"P2": b"P2 3 2 255 1 2 3 4 5 0", "mask": b"P2 3 2 255 1 2 3 4 5 0",
                      "P3": b"P3 2 1 255 # c\n1 2 3 4 5 6"}[kind])
    with open_rows(path, mask=kind == "mask") as rows:
        assert type(rows) is np.ndarray
        if kind == "mask":
            assert np.array_equal(rows, load_mask(path).inside)
        else:
            loaded = load_pnm(path)
            whole = extract_inverted_green(loaded) if kind == "P3" else loaded
            assert np.array_equal(rows, whole.pixels) and rows.dtype == np.uint8

