"""Image and mask types plus PGM/PPM codecs.

Supported formats are netpbm PGM (P2 ascii, P5 binary) and PPM (P3 ascii,
P6 binary) with a maxval of exactly 255. Header comments starting with '#'
are honoured. Other sources (TIFF, GIF, PNG, ...) must be converted
externally before use.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


class PnmFormatError(ValueError):
    """Raised for malformed or unsupported PGM/PPM content."""


def _frozen_array(values, dtype, shape_len: int, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    if arr.ndim != shape_len:
        raise ValueError(f"{what} must be {shape_len}-dimensional, got {arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{what} must be at least 1x1, got shape {arr.shape}")
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Grid of 8-bit intensities, row-major (height, width)."""

    pixels: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.pixels, np.uint8, 2, "GrayImage.pixels")
        object.__setattr__(self, "pixels", arr)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __eq__(self, other):
        return isinstance(other, GrayImage) and np.array_equal(self.pixels, other.pixels)


@dataclass(frozen=True, eq=False)
class RgbImage:
    """Grid of 8-bit (r, g, b) triples, row-major (height, width, 3)."""

    pixels: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.pixels, np.uint8, 3, "RgbImage.pixels")
        if arr.shape[2] != 3:
            raise ValueError(f"RgbImage.pixels must have shape (h, w, 3), got {arr.shape}")
        object.__setattr__(self, "pixels", arr)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __eq__(self, other):
        return isinstance(other, RgbImage) and np.array_equal(self.pixels, other.pixels)


@dataclass(frozen=True, eq=False)
class Mask:
    """Boolean region-of-interest grid; True marks pixels inside the ROI."""

    inside: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.inside, bool, 2, "Mask.inside")
        object.__setattr__(self, "inside", arr)

    @property
    def width(self) -> int:
        return self.inside.shape[1]

    @property
    def height(self) -> int:
        return self.inside.shape[0]

    @property
    def count(self) -> int:
        return int(self.inside.sum())

    def __eq__(self, other):
        return isinstance(other, Mask) and np.array_equal(self.inside, other.inside)


def full_mask(width: int, height: int) -> Mask:
    return Mask(np.ones((height, width), dtype=bool))


class _TokenReader:
    """Pulls whitespace-separated header tokens, skipping '#' comments."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def next_token(self) -> bytes:
        data, n = self.data, len(self.data)
        while self.pos < n:
            c = self.data[self.pos]
            if c == ord("#"):
                nl = data.find(b"\n", self.pos)
                self.pos = n if nl < 0 else nl + 1
            elif c in b" \t\r\n\v\f":
                self.pos += 1
            else:
                break
        if self.pos >= n:
            raise PnmFormatError("malformed header: unexpected end of file")
        start = self.pos
        while self.pos < n and data[self.pos] not in b" \t\r\n\v\f#":
            self.pos += 1
        return data[start:self.pos]

    def next_int(self, what: str) -> int:
        token = self.next_token()
        try:
            return int(token)
        except ValueError:
            raise PnmFormatError(f"malformed header: {what} is not an integer: {token!r}") from None

    def skip_single_whitespace(self):
        if self.pos >= len(self.data) or self.data[self.pos] not in b" \t\r\n\v\f":
            raise PnmFormatError("malformed header: missing whitespace before pixel data")
        self.pos += 1


def load_pnm(path) -> GrayImage | RgbImage:
    """Load a PGM (P2/P5) or PPM (P3/P6) file with maxval 255."""
    data = Path(path).read_bytes()
    reader = _TokenReader(data)
    magic = reader.next_token()
    if magic not in (b"P2", b"P3", b"P5", b"P6"):
        raise PnmFormatError(f"unsupported format magic {magic!r} (expected P2/P3/P5/P6)")
    width = reader.next_int("width")
    height = reader.next_int("height")
    maxval = reader.next_int("maxval")
    if width < 1 or height < 1:
        raise PnmFormatError(f"malformed header: invalid dimensions {width}x{height}")
    if maxval != 255:
        raise PnmFormatError(f"unsupported maxval {maxval} (only 255 is supported)")

    channels = 3 if magic in (b"P3", b"P6") else 1
    count = width * height * channels

    if magic in (b"P5", b"P6"):
        reader.skip_single_whitespace()
        payload = data[reader.pos:reader.pos + count]
        if len(payload) < count:
            raise PnmFormatError(
                f"truncated pixel data: expected {count} bytes, found {len(payload)}"
            )
        flat = np.frombuffer(payload, dtype=np.uint8, count=count)
    else:
        values = np.empty(count, dtype=np.uint8)
        for i in range(count):
            v = reader.next_int("sample")
            if not 0 <= v <= 255:
                raise PnmFormatError(f"sample value {v} out of range 0..255")
            values[i] = v
        flat = values

    if channels == 1:
        return GrayImage(flat.reshape(height, width))
    return RgbImage(flat.reshape(height, width, 3))


def encode_pnm(image: GrayImage | RgbImage) -> bytes:
    """An image as binary PGM (P5) or PPM (P6) bytes with maxval 255."""
    if isinstance(image, GrayImage):
        header = f"P5\n{image.width} {image.height}\n255\n"
    elif isinstance(image, RgbImage):
        header = f"P6\n{image.width} {image.height}\n255\n"
    else:
        raise TypeError(f"cannot save object of type {type(image).__name__}")
    return header.encode("ascii") + image.pixels.tobytes()


def save_pnm(image: GrayImage | RgbImage, path):
    """Write an image as binary PGM (P5) or PPM (P6) with maxval 255."""
    Path(path).write_bytes(encode_pnm(image))


def extract_inverted_green(rgb: RgbImage) -> GrayImage:
    """255 minus the green channel; vessels in fundus images become bright."""
    return GrayImage(255 - rgb.pixels[:, :, 1])


def load_mask(path) -> Mask:
    """Load a PGM file as a boolean mask; any value above zero is inside."""
    image = load_pnm(path)
    if not isinstance(image, GrayImage):
        raise PnmFormatError("mask must be a grayscale PGM file")
    return Mask(image.pixels > 0)
