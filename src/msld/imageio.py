"""Image and mask types plus PGM/PPM codecs.

Supported formats are netpbm PGM (P2 ascii, P5 binary) and PPM (P3 ascii,
P6 binary) with a maxval of exactly 255. Comments starting with '#' are
honoured in the header and between ASCII samples. ASCII samples are
checked before a raster is allocated, so a header that promises more
samples than the file holds is a format error, whatever its dimensions.
Other sources (TIFF, GIF, PNG, ...) must be converted externally before
use.
"""

from __future__ import annotations

import contextlib
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class PnmFormatError(ValueError):
    """Raised for malformed or unsupported PGM/PPM content."""


@dataclass(frozen=True, eq=False)
class Grid:
    """A record of one read-only, C-contiguous, at least 1x1 array.

    A subclass declares the array field and names it, its dtype and its
    rank in the class attributes ``_field``, ``_dtype`` and ``_ndim``. A
    cast to uint8 must keep every value, as it would wrap those out of range
    and make up some for NaN and infinities.
    """

    _ndim = 2

    def __post_init__(self):
        what = f"{type(self).__name__}.{self._field}"
        values = np.asarray(getattr(self, self._field))
        narrowed = self._dtype == np.uint8 and values.dtype != np.uint8
        # the cast warns on NaN and infinities, which the check below rejects
        with np.errstate(invalid="ignore") if narrowed else contextlib.nullcontext():
            arr = values.astype(self._dtype, order="C", copy=False)
        if arr.ndim != self._ndim:
            raise ValueError(f"{what} must be {self._ndim}-dimensional, got {arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"{what} must be at least 1x1, got shape {arr.shape}")
        if narrowed and not np.array_equal(arr, values):
            raise ValueError(f"{what} must hold integers in 0..255")
        arr.setflags(write=False)
        object.__setattr__(self, self._field, arr)

    @property
    def width(self) -> int:
        return getattr(self, self._field).shape[1]

    @property
    def height(self) -> int:
        return getattr(self, self._field).shape[0]

    def __eq__(self, other):
        return isinstance(other, type(self)) and np.array_equal(
            getattr(self, self._field), getattr(other, self._field))


@dataclass(frozen=True, eq=False)
class GrayImage(Grid):
    """Grid of 8-bit intensities, row-major (height, width)."""

    pixels: np.ndarray
    _field, _dtype = "pixels", np.uint8


@dataclass(frozen=True, eq=False)
class RgbImage(Grid):
    """Grid of 8-bit (r, g, b) triples, row-major (height, width, 3)."""

    pixels: np.ndarray
    _field, _dtype, _ndim = "pixels", np.uint8, 3

    def __post_init__(self):
        super().__post_init__()
        if self.pixels.shape[2] != 3:
            raise ValueError(f"RgbImage.pixels must have shape (h, w, 3), got {self.pixels.shape}")


@dataclass(frozen=True, eq=False)
class Mask(Grid):
    """Boolean region-of-interest grid; True marks pixels inside the ROI."""

    inside: np.ndarray
    _field, _dtype = "inside", bool

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.inside))


def full_mask(width: int, height: int) -> Mask:
    return Mask(np.ones((height, width), dtype=bool))


# One header token after any blanks and '#' comments. Each repeat takes one
# blank or one whole comment, which runs to a newline or the end of the
# data, so a failed match backtracks in linear time and never starts a
# token inside a comment.
_HEADER_TOKEN = re.compile(rb"(?:[ \t\r\n\v\f]|#[^\n]*(?:\n|\Z))*([^ \t\r\n\v\f#]+)")
_COMMENT = re.compile(rb"#[^\n]*")
_CHANNELS = {b"P2": 1, b"P5": 1, b"P3": 3, b"P6": 3}
_EOF = "malformed header: unexpected end of file"


def _header_int(token: bytes, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise PnmFormatError(f"malformed header: {what} is not an integer: {token!r}") from None


def _sample(token: bytes) -> int:
    value = _header_int(token, "sample")
    if not 0 <= value <= 255:
        raise PnmFormatError(f"sample value {value} out of range 0..255")
    return value


def load_pnm(path) -> GrayImage | RgbImage:
    """Load a PGM (P2/P5) or PPM (P3/P6) file with maxval 255."""
    data = Path(path).read_bytes()
    tokens, pos = [], 0
    while len(tokens) < 4 and (match := _HEADER_TOKEN.match(data, pos)):
        tokens.append(match[1])
        pos = match.end()
    if not tokens:
        raise PnmFormatError(_EOF)
    magic = tokens[0]
    if magic not in _CHANNELS:
        raise PnmFormatError(f"unsupported format magic {magic!r} (expected P2/P3/P5/P6)")
    # converted in file order, so the first bad token is the one reported
    header = [_header_int(t, what) for t, what in zip(tokens[1:], ("width", "height", "maxval"))]
    if len(header) < 3:
        raise PnmFormatError(_EOF)
    width, height, maxval = header
    if width < 1 or height < 1:
        raise PnmFormatError(f"malformed header: invalid dimensions {width}x{height}")
    if maxval != 255:
        raise PnmFormatError(f"unsupported maxval {maxval} (only 255 is supported)")

    channels = _CHANNELS[magic]
    count = width * height * channels
    if magic in (b"P5", b"P6"):
        if not data[pos:pos + 1].isspace():
            raise PnmFormatError("malformed header: missing whitespace before pixel data")
        found = min(count, len(data) - pos - 1)
        if found < count:
            raise PnmFormatError(f"truncated pixel data: expected {count} bytes, found {found}")
        # a view of the file bytes, not a copy of the raster
        flat = np.frombuffer(data, np.uint8, count, offset=pos + 1)
    else:
        # a comment runs to a newline, which still parts the samples; no
        # file holds more samples than bytes, which bounds the split
        raster = _COMMENT.sub(b"", data[pos:])
        samples = raster.split(maxsplit=min(count, len(raster)))[:count]
        flat = np.fromiter(map(_sample, samples), np.uint8, len(samples))
        if len(samples) < count:
            raise PnmFormatError(_EOF)

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
