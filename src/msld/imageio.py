"""Image and mask types plus PGM/PPM codecs.

Supported formats are netpbm PGM (P2 ascii, P5 binary) and PPM (P3 ascii,
P6 binary) with a maxval of exactly 255. Comments starting with '#' are
honoured in the header and between ASCII samples. ASCII samples are
checked before a raster is allocated, so a header that promises more
samples than the file holds is a format error, whatever its dimensions.
Other sources (TIFF, GIF, PNG, ...) must be converted externally before
use.

A row source is what the engines read an image or a mask from: an object
whose ``shape`` is (height, width) and whose ``source[a:b]`` is rows a to
b - 1 as a 2-D array. A 2-D array is one, and so are the arrays of a
``GrayImage`` and a ``Mask``. ``open_rows`` opens a file as one: over a
binary raster it is a ``PnmRows``, which reads a band's rows when they are
asked for, so no whole raster is held. ASCII files have no row index, and
pipes cannot seek, so both are loaded whole.
"""

from __future__ import annotations

import contextlib
import os
import re
import stat
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


def row_source(grid):
    """The row source of a GrayImage or a Mask, its array; any other grid is
    taken to be a row source already and returned as it is."""
    if isinstance(grid, GrayImage):
        return grid.pixels
    return grid.inside if isinstance(grid, Mask) else grid


# One header token after any blanks and '#' comments. Each repeat takes one
# blank or one whole comment, which runs to a newline or the end of the
# data, so a failed match backtracks in linear time and never starts a
# token inside a comment.
_HEADER_TOKEN = re.compile(rb"(?:[ \t\r\n\v\f]|#[^\n]*(?:\n|\Z))*([^ \t\r\n\v\f#]+)")
_COMMENT = re.compile(rb"#[^\n]*")
_CHANNELS = {b"P2": 1, b"P5": 1, b"P3": 3, b"P6": 3}
_EOF = "malformed header: unexpected end of file"
_NOT_GRAY = "mask must be a grayscale PGM file"


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


def _header(data: bytes, whole: bool = True) -> tuple[bytes, int, int, int] | None:
    """(magic, width, height, pos) of the header at the start of data, pos
    just past its maxval, checked as ``load_pnm`` checks it.

    When data is only the file's first bytes (whole is false), a token counts
    only if a byte follows it in data, and None means that data ends before
    the header does.
    """
    tokens, pos = [], 0
    while len(tokens) < 4 and (match := _HEADER_TOKEN.match(data, pos)) and (whole or match.end() < len(data)):
        tokens.append(match[1])
        pos = match.end()
    if tokens and tokens[0] not in _CHANNELS:
        raise PnmFormatError(f"unsupported format magic {tokens[0]!r} (expected P2/P3/P5/P6)")
    # converted in file order, so the first bad token is the one reported
    header = [_header_int(t, what) for t, what in zip(tokens[1:], ("width", "height", "maxval"))]
    if len(tokens) < 4:
        if whole:
            raise PnmFormatError(_EOF)
        return None
    width, height, maxval = header
    if width < 1 or height < 1:
        raise PnmFormatError(f"malformed header: invalid dimensions {width}x{height}")
    if maxval != 255:
        raise PnmFormatError(f"unsupported maxval {maxval} (only 255 is supported)")
    return tokens[0], width, height, pos


def _raster_offset(data: bytes, pos: int, count: int, size: int) -> int:
    """Offset of a binary raster of count bytes in a file of size bytes whose
    first bytes are data and whose header ends at pos."""
    if not data[pos:pos + 1].isspace():
        raise PnmFormatError("malformed header: missing whitespace before pixel data")
    found = min(count, size - pos - 1)
    if found < count:
        raise PnmFormatError(f"truncated pixel data: expected {count} bytes, found {found}")
    return pos + 1


def _decode(data: bytes, header: tuple[bytes, int, int, int]) -> GrayImage | RgbImage:
    """The raster of a file whose bytes are data and whose header is ``_header(data)``."""
    magic, width, height, pos = header
    channels = _CHANNELS[magic]
    count = width * height * channels
    if magic in (b"P5", b"P6"):
        # a view of the file bytes, not a copy of the raster
        flat = np.frombuffer(data, np.uint8, count, offset=_raster_offset(data, pos, count, len(data)))
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


def load_pnm(path) -> GrayImage | RgbImage:
    """Load a PGM (P2/P5) or PPM (P3/P6) file with maxval 255."""
    data = Path(path).read_bytes()
    return _decode(data, _header(data))


class PnmRows:
    """The binary raster of a PGM or PPM file open as fd, a row source that
    reads it band by band; ``open_rows`` makes one.

    ``shape`` is the image's (height, width). ``rows[a:b]`` reads rows a to
    b - 1 with one seek and one unbuffered read into a buffer of their
    shape: a P5 file's samples, a P6 file's inverted green
    (``extract_inverted_green``) or, with mask=True, the flags of samples
    above zero (``load_mask``). A file that no longer holds the rows raises
    PnmFormatError.
    """

    def __init__(self, fd: int, shape: tuple[int, int], offset: int, channels: int, mask: bool):
        self._fd, self.shape, self._offset, self._mask = fd, shape, offset, mask
        self._pixel = (3,) if channels == 3 else ()
        self._row_bytes = shape[1] * channels

    def __getitem__(self, rows: slice) -> np.ndarray:
        height, width = self.shape
        start, stop, _ = rows.indices(height)
        raw = np.empty((max(stop - start, 0), width, *self._pixel), np.uint8)
        if os.preadv(self._fd, [raw], self._offset + start * self._row_bytes) != raw.nbytes:
            raise PnmFormatError(f"truncated pixel data: rows {start}..{stop - 1} are no longer in the file")
        if self._pixel:
            return _inverted_green(raw)
        return raw > 0 if self._mask else raw


# the first read of a header; a longer header is read again in full
_HEAD_BYTES = 256


def _read_all(fd: int) -> bytes:
    with open(fd, "rb", closefd=False) as file:
        return file.read()


def _rows(fd: int, mask: bool):
    """The row source of the file open as fd, for ``open_rows``."""
    info = os.fstat(fd)
    size = info.st_size if stat.S_ISREG(info.st_mode) else None
    if size is None:
        # a pipe cannot seek, so all its bytes are read first
        data = _read_all(fd)
        header = _header(data)
    else:
        limit = _HEAD_BYTES
        while (header := _header(data := os.pread(fd, limit, 0), whole=limit >= size)) is None:
            limit *= 4
    magic, width, height, pos = header
    channels = _CHANNELS[magic]
    if mask and channels == 3:
        raise PnmFormatError(_NOT_GRAY)
    if size is not None:
        if magic in (b"P5", b"P6"):
            offset = _raster_offset(data, pos, width * height * channels, size)
            return PnmRows(fd, (height, width), offset, channels, mask)
        data = _read_all(fd)
    image = _decode(data, header)
    if channels == 3:
        return _inverted_green(image.pixels)
    return image.pixels > 0 if mask else image.pixels


@contextlib.contextmanager
def open_rows(path, mask: bool = False):
    """A PGM or PPM file as a row source for the length of a ``with`` block:
    a PGM file's samples, a PPM file's inverted green or, with mask=True,
    the flags of samples above zero (``load_mask``).

    Entering reads the header and checks a binary raster's length against
    the file's size, so every error ``load_pnm`` raises for the header or a
    binary raster is raised before any row is read; with mask=True a PPM
    file is refused as ``load_mask`` refuses it. A binary raster in a
    regular file gives a ``PnmRows``, which reads it band by band. An ASCII
    file (P2, P3) has no row index and a pipe cannot seek, so either is read
    whole and gives its whole raster as an array.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        yield _rows(fd, mask)
    finally:
        os.close(fd)


def pnm_chunks(image: GrayImage | RgbImage) -> tuple[bytes, np.ndarray]:
    """An image as binary PGM (P5) or PPM (P6) with maxval 255: its header's
    bytes and its C-contiguous samples, which a file writes with no copy."""
    if isinstance(image, GrayImage):
        magic = "P5"
    elif isinstance(image, RgbImage):
        magic = "P6"
    else:
        raise TypeError(f"cannot save object of type {type(image).__name__}")
    return f"{magic}\n{image.width} {image.height}\n255\n".encode("ascii"), image.pixels


def encode_pnm(image: GrayImage | RgbImage) -> bytes:
    """An image as binary PGM (P5) or PPM (P6) bytes with maxval 255."""
    return b"".join(pnm_chunks(image))


def save_pnm(image: GrayImage | RgbImage, path):
    """Write an image as binary PGM (P5) or PPM (P6) with maxval 255."""
    Path(path).write_bytes(encode_pnm(image))


def _inverted_green(pixels: np.ndarray) -> np.ndarray:
    return 255 - pixels[:, :, 1]


def extract_inverted_green(rgb: RgbImage) -> GrayImage:
    """255 minus the green channel; vessels in fundus images become bright."""
    return GrayImage(_inverted_green(rgb.pixels))


def load_mask(path) -> Mask:
    """Load a PGM file as a boolean mask; any value above zero is inside."""
    image = load_pnm(path)
    if not isinstance(image, GrayImage):
        raise PnmFormatError(_NOT_GRAY)
    return Mask(image.pixels > 0)
