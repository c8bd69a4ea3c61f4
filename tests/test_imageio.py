import numpy as np
import pytest

from msld.imageio import (
    GrayImage,
    Mask,
    PnmFormatError,
    RgbImage,
    extract_inverted_green,
    load_mask,
    load_pnm,
    save_pnm,
)
from msld.reference import ResponseMap


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


def test_malformed_header_rejected(tmp_path):
    path = tmp_path / "h.pgm"
    path.write_bytes(b"P5\nxx 4\n255\n")
    with pytest.raises(PnmFormatError, match="header"):
        load_pnm(path)


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
