"""Raster-order two-pass engine with bounded auxiliary memory.

Both engines are this one flow (``_two_passes``); they differ only in
their schedule, below: their band heights and how many ROI values pass 1
keeps. Pass 1 sweeps the image in bands. For each band the integer kernel
(``kernel.band_sums``) forms, in its padded layout and in one integer
type, one array indexed by scale: the window sums at index 0 and the
maxima of the oriented line sums of length 2s + 1 at index s >= 1; scale
1's line sum is the pixel. Pass 1 gathers each record's ROI values
(``_roi_values``: every scale's sums and the pixel, 17 bytes per ROI pixel
at W = 15), adds them to exact integer sums, the same in both arithmetic
modes, and keeps them while they fit in its room. Finalizing the sums
yields each scale's mean and standard deviation, which ``ScaleStats``
carries to pass 2 as doubles or as fixed-point words. Pass 2 combines the
kept values into 8 float64 bytes per ROI pixel, dropping each record's as
it goes, then allocates the map, scatters them into it, and forms the
bands after the last record kept again and combines them band by band, so
no per-scale response image is ever stored, and each pass drops a band's
sums before the next is formed.

The engines take the image and the mask as a ``GrayImage`` and a ``Mask``
or as row sources (``imageio``), such as the ``imageio.PnmRows`` that
``imageio.open_rows`` gives for a binary file. Each band reads its mask
rows and then its image rows with the window's halo once, and pass 2
reads a kept record's mask rows again, so a run over a file holds no whole
image or mask.

The schedule. ``msld_streaming``'s pass-2 bands (``band_height``) are
max(8, min(BAND_PIXELS // width, height // 8)) rows: 36 at DRIVE width
(565 columns), 10 at HRF width (2048 columns) and 8 on a 64 x 64 tile. The
first term spends a fixed pixel budget per kernel call, so per-call
overhead is amortized on wide images while the rows stay bounded
independently of the height; the second bounds the footprint of pass 2,
which holds the response map, on short images. Pass 1 runs before the map
is allocated, so its bands (``pass1_height``) take up to four budgets,
max(8, PASS1_BAND_PIXELS // width) rows (144 at DRIVE and 40 at HRF
width), until their kernel buffers fill the map's bytes (16 rows on the
tile), and never fewer than a pass-2 band's. Its room (``_room``) is what
pass 2 would hold beside the map to form one band, that band's kernel
bytes and a float64 term register (21,472 bytes on the tile at W = 15), so
the engine's auxiliary state is one band of window + rows - 1 image rows
with its sums, the kept values and a handful of per-scale words,
regardless of image height, and pass 1 fits in the map plus one pass-2
band and its register. ``stream_pass1`` is this pass 1 with an empty
room, and ``stream_pass2`` forms every ``band_height`` band again. The
reference (``sweep``) keeps all its values whatever its bands, so its
height sets only its transient buffers: bands of pass 1's cap, max(8,
PASS1_BAND_PIXELS // width) rows (one band on the tile), records of one
budget, max(8, BAND_PIXELS // width) rows, and a room with no bound, so
its pass 2 forms no band again. Each pass sizes its registers, which are
per ROI pixel, from the records of ``_split``: a band whole while it holds
at most rows * width ROI pixels, else records of rows rows, with rows the
pass-2 height in ``msld_streaming`` and one budget in ``sweep``. The
heights, the records and the room change no output bit: pass 1 sums exact
integers and pass 2 works per pixel.

Arithmetic runs either in IEEE doubles or in integer fixed point with a
configurable fractional width. In float mode the statistics are exact
rationals of the pass-1 sums, rounded once. The fixed-point datapath models
the hardware: divisions by the constant line lengths, the window area, and
the scale count are multiplications by precomputed reciprocals, and the
data-dependent divisions (by the ROI count and by each standard deviation)
are made once per scale, between the passes. The combined map is an affine
form, n + 2 (source, coefficient) terms over the pixel and the kernel sums
for n live scales, that one builder (``_affine_terms``) forms in both modes
and pass 2 multiplies and adds in one loop (``_combine``). The modes differ only in the
constants (divisions by L and W*W, or quantized reciprocals), the rounding
(doubles, or exact rationals rounded once to guard bits beyond the
fractional width, which fixed mode accumulates in int64 and rounds once)
and the floor of a live std. Taking the maximum over orientations on the
integer sums before multiplying by the positive reciprocal of the line
length gives the same value as scaling each line first.

The footprint reports the architectural line-buffer size of the modeled
datapath, (window - 1) * ncols + window pixels, next to the bytes a band
actually holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import truediv
from typing import Iterable, Iterator, Literal

import numpy as np

from .detector import MsldParams
from .fixedpoint import (
    RAW_LIMIT,
    FixedPointOverflowError,
    div_round_half_away,
    div_round_half_away_i64,
    fx_div,
    fx_from_int,
    fx_mul,
    fx_reciprocal,
    fx_sqrt,
    fx_sub,
)
from .imageio import row_source
from .kernel import band_bytes, band_sums
from .reference import EmptyRoiError, ResponseMap, ScaleStats, scale_stats

ArithmeticMode = Literal["float", "fixed"]
# (rows, roi, channel, sums) of one band, or of a record of its rows
# (``_split``): its ROI flags and channel rows, and its sums as
# ``kernel.band_sums`` returns them
Band = tuple[slice, np.ndarray, np.ndarray, np.ndarray]

# pixels per band above the 8-row floor: at DRIVE width (565 columns, 36
# rows) the largest budget of a sweep at which the float engine's measured
# peak stays that of the response write
BAND_PIXELS = 20480
# pixels per pass-1 band above the 8-row floor: four pass-2 budgets. Pass 1
# runs before the response map exists, so only this cap and the map's bytes
# hold its band. Kernel sweeps over the whole image (in process, interleaved,
# medians) gain from taller bands, but not without end, so a cap stays:
#   565 x 584:   36 rows 11.3 ms, 144 rows 8.8 ms
#   2048 x 1536: 10 rows 191 ms, 40 rows 105 ms, 518 rows 238 ms (the
#                height the map's bytes alone would allow)
PASS1_BAND_PIXELS = 4 * BAND_PIXELS

DEGENERATE_STD = 1e-12


def _validate_mode(mode: str):
    if mode not in ("float", "fixed"):
        raise ValueError(f"arithmetic_mode must be 'float' or 'fixed', got {mode!r}")


@dataclass(frozen=True)
class MemoryFootprint:
    """Peak auxiliary state of a streaming run.

    line_buffer_slots is the architectural pixel-store size
    (window - 1) * ncols + window; stored_stats_values counts the retained
    mean/std pairs (one per scale plus one for the inverted input channel);
    accumulator_words counts the running sums of ``StreamAccumulators``
    (three per scale, two of the window sums) and the ROI counter;
    peak_total_bytes bounds both passes: every buffer of the kernel
    (``kernel.band_bytes``: the padded band with its spare row, the column
    sums, and the padded-width sums of every scale and running line sum, all
    in one integer type) of the taller band, pass 1's of ``pass1_height``
    rows unless the image is lower than 8 rows, the ROI values pass 1 keeps
    (``_room``: a pass-2 band's kernel bytes and term register), four 8-byte
    registers of one pass-2 band of ``band_height`` rows, and the words
    above. It models pass 1, which holds its band and the kept values (3.14
    MB at DRIVE size and W = 15), though pass 1 runs before the response map
    exists and its measured peak stays within pass 2's. The registers bound
    both datapaths, whose records (``_split``) hold at most a pass-2 band's
    ROI pixels: in pass 1 both modes hold a record's ROI indices, compact
    and padded, and its ROI values, and then the ROI values of the window
    sums and of one scale's line sums in float64 or int64; in pass 2 one
    term of the affine form, which float mode adds to the output rows and
    fixed mode to an int64 accumulator, or, before the map exists, a kept
    record's two compact registers. Expression temporaries, the input image
    and the output response map are excluded.
    """

    line_buffer_slots: int
    accumulator_words: int
    stored_stats_values: int
    peak_total_bytes: int


def band_height(width: int, height: int) -> int:
    """Output rows per pass-2 band of ``msld_streaming`` over a width x
    height image (see the module docstring)."""
    return max(8, min(BAND_PIXELS // width, height // 8))


def pass1_height(width: int, height: int, window: int) -> int:
    """Output rows per pass-1 band of ``msld_streaming`` over a width x
    height image (see the module docstring): the tallest band of at most
    max(8, PASS1_BAND_PIXELS // width) rows and the image's height whose
    kernel buffers (``band_bytes``, linear in the rows) fit in the response
    map's 8 * width * height bytes, but never lower than a ``band_height``
    band.
    """
    band_rows = band_height(width, height)
    per_row = band_bytes(band_rows + 1, width, window) - band_bytes(band_rows, width, window)
    fit = band_rows + (8 * width * height - band_bytes(band_rows, width, window)) // per_row
    return min(max(8, PASS1_BAND_PIXELS // width), height, max(band_rows, fit))


def memory_footprint(params: MsldParams, width: int, height: int) -> MemoryFootprint:
    """Footprint of ``msld_streaming`` over a width x height image: its
    pass-1 bands are ``pass1_height`` rows high, the ROI values it keeps
    take up to ``_room`` bytes and its pass-2 bands are ``band_height``
    rows high."""
    window = params.window
    rows = band_height(width, height)
    # the pass-1 band is the taller unless the image is lower than 8 rows
    taller = max(rows, pass1_height(width, height, window))
    accumulator_words = 3 * params.n_scales + 3
    stored_stats_values = 2 * params.n_scales + 2
    return MemoryFootprint(
        line_buffer_slots=(window - 1) * width + window,
        accumulator_words=accumulator_words,
        stored_stats_values=stored_stats_values,
        peak_total_bytes=(
            band_bytes(taller, width, window)
            + _room(width, height, window)
            + 4 * 8 * rows * width
            + 8 * (accumulator_words + stored_stats_values)
        ),
    )


class StreamAccumulators:
    """Running exact integer ROI sums of the kernel outputs and of the channel.

    ``update_row`` adds, in Python integers, the ROI sums of every scale's
    maximal line sum S_L, of S_L * S_L and S_L * B (B the window sum), and
    of B and B * B, over blocks of ROI values small enough that no int64
    partial sum can wrap. Scale 1's S_L is the pixel, so its sums are the
    channel's too. The sums serve both modes; ``finalize(mode)``
    forms from them the exact sums of a scale's raw response x = alpha *
    S_L - beta * B and of x * x. In float mode alpha = W*W and beta = L, so
    x is S_L / L - B / (W*W) scaled by L * W*W to an integer, and the exact
    rationals are rounded once (``scale_stats``). In fixed mode alpha and
    beta are the quantized reciprocals of L and W*W, so x is the modeled
    hardware's quantized raw response, and the sum of x * x, with 2 *
    frac_bits fractional bits, is rounded to frac_bits once; either sum
    outside the signed 64-bit range raises FixedPointOverflowError.
    """

    def __init__(self, params: MsldParams):
        self.params = params
        self.line_sum = [0] * params.n_scales
        self.line_sum2 = [0] * params.n_scales
        self.line_window_sum = [0] * params.n_scales
        self.window_sum = 0
        self.window_sum2 = 0
        self.roi_count = 0
        # no product of two kernel sums exceeds the largest window sum
        # squared, so no int64 partial sum of this many ROI pixels can wrap
        self._largest = (255 * params.window**2) ** 2
        self._block = max(1, (2**63 - 1) // self._largest)

    def update_row(self, values: np.ndarray, pixels: np.ndarray):
        """Add one record's ROI values (``_roi_values``): its kernel sums of
        every scale, one column per ROI pixel, and its pixels."""
        self.roi_count += pixels.size
        for start in range(0, pixels.size, self._block):
            self._add_pixels(values[:, start:start + self._block], pixels[start:start + self._block])

    def _add_pixels(self, values: np.ndarray, pixels: np.ndarray):
        """Add a block of ROI values.

        They are converted to float64, whose dots run in BLAS, when no
        partial sum can pass 2**53, so every one is exact in any order, and
        to int64 otherwise.
        """
        dtype = np.float64 if pixels.size * self._largest <= 2**53 else np.int64
        wsums = values[0].astype(dtype)
        self.window_sum += int(wsums.sum())
        self.window_sum2 += int(wsums @ wsums)
        # one scale's values at a time, in one buffer
        line = np.empty_like(wsums)
        for s in range(self.params.n_scales):
            # scale 1's line sum is the pixel
            np.copyto(line, values[s] if s else pixels)
            self.line_sum[s] += int(line.sum())
            self.line_sum2[s] += int(line @ line)
            self.line_window_sum[s] += int(line @ wsums)

    def _raw_sums(self, s: int, alpha: int, beta: int) -> tuple[int, int]:
        """Exact ROI sums of x and x * x for x = alpha * S_L - beta * B at scale s."""
        return (alpha * self.line_sum[s] - beta * self.window_sum,
                alpha * alpha * self.line_sum2[s] - 2 * alpha * beta * self.line_window_sum[s]
                + beta * beta * self.window_sum2)

    def finalize(self, mode: ArithmeticMode) -> ScaleStats:
        _validate_mode(mode)
        if self.roi_count == 0:
            raise EmptyRoiError("mask contains no ROI pixels")
        n, f = self.roi_count, self.params.frac_bits
        fixed = mode == "fixed"
        # the channel is one more term: scale 1's line sum, the pixel, with no
        # window term; a pixel p is p << f in fixed point
        channel = self._raw_sums(0, 1 << f if fixed else 1, 0)
        clamps = 0
        if fixed:
            if n << f >= RAW_LIMIT:
                raise FixedPointOverflowError(f"the ROI count {n} exceeds the signed 64-bit range at frac_bits={f}")
            n_fx = fx_from_int(n, f)
            recips, window_recip = _fixed_recips(self.params.window, f)
            sums = [self._raw_sums(s, r, window_recip) for s, r in enumerate(recips)] + [channel]
            pairs = []
            for sx, sx2 in sums:
                # sx2 >= 0, so rounding it half away from zero to f bits is
                # adding half an ulp and shifting
                sx2 = (sx2 + (1 << (f - 1))) >> f
                if max(abs(sx), sx2) >= RAW_LIMIT:
                    raise FixedPointOverflowError(
                        f"a fixed ROI sum exceeds the signed 64-bit range at roi_count={n}, frac_bits={f}")
                m = fx_div(sx, n_fx, f)
                var = fx_sub(fx_div(sx2, n_fx, f), fx_mul(m, m, f))
                clamps += var < 0
                # raw words cross to pass 2 as they are: no double holds them
                pairs.append((m, fx_sqrt(max(var, 0), f)))
        else:
            area = self.params.window ** 2
            pairs = [scale_stats(*self._raw_sums(s, area, length), n, length * area)
                     for s, length in enumerate(self.params.scales)] + [scale_stats(*channel, n)]
        means, stds = zip(*pairs)
        return ScaleStats(
            scale_means=means[:-1],
            scale_stds=stds[:-1],
            igc_mean=means[-1],
            igc_std=stds[-1],
            roi_count=n,
            frac_bits=f if fixed else None,
            negative_variance_clamps=clamps,
        )


@lru_cache(maxsize=None)
def _fixed_recips(window: int, frac_bits: int) -> tuple[tuple[int, ...], int]:
    """Quantized reciprocals of every line length and of the window area."""
    scale_recips = tuple(fx_reciprocal(length, frac_bits) for length in range(1, window + 1, 2))
    return scale_recips, fx_reciprocal(window * window, frac_bits)


def _bands(pixels, inside, window: int, band_rows: int, start: int = 0) -> Iterator[Band]:
    """Yield (rows, roi, channel, sums) for every band of band_rows output
    rows from row start on that holds an ROI pixel.

    Each band reads its ROI rows, then its channel rows with the window's
    halo once, from which ``band_sums`` forms its sums; the block holds every
    halo row inside the image, so it clamps at the image's edges only.
    """
    height = pixels.shape[0]
    half = window // 2
    for y0 in range(start, height, band_rows):
        rows = slice(y0, min(y0 + band_rows, height))
        roi = inside[rows]
        if roi.any():
            lo = max(y0 - half, 0)
            block = pixels[lo:min(rows.stop + half, height)]
            yield rows, roi, block[y0 - lo:rows.stop - lo], band_sums(block, y0 - lo, rows.stop - lo, window)


def _split(bands: Iterable[Band], rows: int) -> Iterator[Band]:
    """Yield every band as records: a band whole while it holds at most
    rows * width ROI pixels, a larger one as views of at most rows rows. The
    passes size every register from a record's ROI pixels, so this bound is
    the only one they know; each engine's rows are in the module
    docstring."""
    for band in bands:
        span, roi, channel, sums = band
        if np.count_nonzero(roi) <= rows * roi.shape[1]:
            yield band
        else:
            for y in range(0, len(roi), rows):
                stop = min(y + rows, len(roi))
                yield slice(span.start + y, span.start + stop), roi[y:stop], channel[y:stop], sums[:, y:stop]
        # released before the next band is read and its sums are formed
        del band, span, roi, channel, sums


def _roi_values(roi: np.ndarray, channel: np.ndarray, sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A record's ROI values, one column per ROI pixel in raster order: its
    kernel sums of every scale, of shape (scales, n) and indexed as
    ``kernel.band_sums``'s, and its pixels, of shape (n,).

    Gathering by index is several times faster than by a boolean mask when
    the ROI is scattered. Pixel i of the channel sits at i + i // ncols *
    (W - 1) in the padded kernel sums, so one index gathers every scale.
    Each scale's rows are contiguous even in a record cut from a taller
    band, so each is taken straight into its row of the values: a take
    along the columns of the record would copy it whole, and an index over
    them runs at half the speed. Mode "clip" writes into the row without
    the buffer that "raise" takes; the indices are in range.
    """
    inside = np.flatnonzero(roi)
    ncols = roi.shape[1]
    padded = inside // ncols
    padded *= sums.shape[2] - ncols
    padded += inside
    values = np.empty((len(sums), inside.size), dtype=sums.dtype)
    for s in range(len(sums)):
        sums[s].take(padded, out=values[s], mode="clip")
    return values, channel.reshape(-1).take(inside)


def _check_inputs(img, mask, arithmetic_mode: str):
    """The row sources of img and mask (``imageio.row_source``). Rejects an
    unknown mode, rows that are not 2-D uint8 pixels and bool flags, and a
    mask of other dimensions; an empty ROI is rejected by
    ``StreamAccumulators.finalize``."""
    _validate_mode(arithmetic_mode)
    pixels, inside = row_source(img), row_source(mask)
    # no rows are read: a source's dtype and rank are those of any rows
    for source, dtype, what in ((pixels, np.uint8, "image"), (inside, np.bool_, "mask")):
        rows = source[0:0]
        if len(source.shape) != 2 or rows.ndim != 2 or rows.dtype != dtype:
            raise ValueError(f"{what} rows must be 2-D {np.dtype(dtype).name}, got {rows.ndim}-D {rows.dtype.name}")
    if inside.shape != pixels.shape:
        (height, width), (mask_height, mask_width) = pixels.shape, inside.shape
        raise ValueError(
            f"mask dimensions {mask_width}x{mask_height} do not match "
            f"image {width}x{height}"
        )
    return pixels, inside


def stream_pass1(
    img,
    mask,
    params: MsldParams,
    arithmetic_mode: ArithmeticMode = "float",
) -> ScaleStats:
    """Single raster sweep accumulating per-scale ROI statistics.

    img and mask are a GrayImage and a Mask or row sources of their rows
    (``imageio.row_source``). This is ``msld_streaming``'s pass 1, with its
    bands and records (see the module docstring), keeping no ROI value.
    Float statistics are exact rationals rounded once; fixed-point
    variances that the sum-of-squares formula makes negative are clamped to
    zero and counted on the returned stats.
    """
    pixels, inside = _check_inputs(img, mask, arithmetic_mode)
    height, width = pixels.shape
    return next(_two_passes(pixels, inside, params, arithmetic_mode, pass1_height(width, height, params.window),
                            band_height(width, height), 0))


def _guard_bits(window: int) -> int:
    """Guard bits g beyond frac_bits of the fixed pass-2 coefficients.

    Each coefficient is off by at most half a unit of 2**-(f + g), weighed
    by S_L <= 255 * L, B <= 255 * W*W, the pixel <= 255 or 1 (the offset);
    2**g > 255 * (sum L + W*W + 1) + 1 keeps their sum below half an ulp.
    """
    return (255 * (((window + 1) // 2) ** 2 + window * window + 1) + 1).bit_length()


def _rounded(q: Fraction) -> int:
    return div_round_half_away(q.numerator, q.denominator)


def _affine_terms(params: MsldParams, stats: ScaleStats,
                  mode: ArithmeticMode) -> tuple[list, float | np.int64]:
    """The combined map as (terms, offset): sum(coefficient * source) - offset.

    Averaging with weight w the z-scores (p * r_p - m_p) / s_p of the
    channel and (S_L * r_L - B * r_W - m_L) / s_L of the scales over the
    live stds s gives the terms (p, c), (B, -b) and (S_L, a_L) per live
    scale, in the order pass 2 adds them, with c = w * r_p / s_p, b = sum_L
    w * r_W / s_L, a_L = w * r_L / s_L and offset = sum w * m / s; c and b
    are 0 when no live std feeds them. A source is a row of ``band_sums`` (0
    for B, s for scale s) or None for the pixel, the channel and scale 1's
    line sum. The mode chooses only the constants, the number type with its
    rounding, and which stds are live. Float mode: w = 1 / (n + 1), r
    divisions by L, W*W and 1, in doubles, each sum added in scale order and
    the channel last; std >= DEGENERATE_STD. Fixed mode: w = r_C * 2**g (r_C
    the quantized reciprocal of n + 1, g the ``_guard_bits``), r_L and r_W
    of ``_fixed_recips`` and r_p = 2**f, over the raw words of ``stats`` in
    exact rationals, each coefficient rounded once to an int64 of f + g
    fractional bits; std not 0. Raises FixedPointOverflowError unless every
    partial sum, doubled and plus 2**g, fits int64, as
    ``div_round_half_away_i64`` requires.
    """
    n, window = params.n_scales, params.window
    fixed = mode == "fixed"
    if fixed:
        f, g = params.frac_bits, _guard_bits(window)
        scale_recips, window_recip = _fixed_recips(window, f)
        # the reciprocals multiply; the channel's raw response is the pixel
        # shifted by f, so its reciprocal is 2**f
        muls, divs, window_mul, window_div = scale_recips + (1 << f,), (1,) * (n + 1), window_recip, 1
        weight, floor, ratio, rounded, word = fx_reciprocal(n + 1, f) << g, 1, Fraction, _rounded, np.int64
    else:
        # the reciprocals divide: by L, by 1 for the channel, and by W*W
        muls, divs, window_mul, window_div = (1,) * (n + 1), params.scales + (1,), 1, window * window
        weight, floor, ratio, rounded, word = 1.0 / (n + 1), DEGENERATE_STD, truediv, float, float
    means = stats.scale_means + (stats.igc_mean,)
    stds = stats.scale_stds + (stats.igc_std,)
    live = [s for s, std in enumerate(stds) if std >= floor]
    coeffs = {s: rounded(ratio(weight * muls[s], divs[s] * stds[s])) for s in live}
    window_coeff = offset = 0
    for s in live:
        if s < n:
            window_coeff += ratio(weight * window_mul, window_div * stds[s])
        offset += ratio(weight * means[s], stds[s])
    terms = [(None, coeffs.pop(n, 0)), (0, -rounded(window_coeff))] + [(s or None, a) for s, a in coeffs.items()]
    offset = rounded(offset)
    if fixed:
        # a partial sum lies between the negative and the positive terms' sums at their sources' peaks
        peaks = [255 * a * (window * window if source == 0 else params.scales[source or 0]) for source, a in terms]
        largest = max(sum(p for p in peaks if p > 0), -sum(p for p in peaks if p < 0))
        if 2 * (largest + abs(offset)) + (1 << g) >= RAW_LIMIT:
            raise FixedPointOverflowError(
                f"the fixed combined map exceeds the vectorized int64 range at frac_bits={f}: "
                f"each coefficient carries frac_bits + {g} guard bits = {f + g} fractional bits, "
                "scaled by the inverse std of its scale"
            )
    return [(source, word(a)) for source, a in terms], word(offset)


def _combine(terms: list, offset, rounding: tuple[int, int] | None, channel: np.ndarray, sums: np.ndarray,
             combined: np.ndarray, term: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """The combined map of a record: every term's coefficient times its
    source (the channel for source None, else sums[source]) summed into
    combined through the term buffer, less the offset. Float mode returns
    combined; fixed mode's rounding is (guard, unit), and it returns the
    int64 sum rounded once, through the term buffer, into out (a new array
    if out is None)."""
    for k, (source, coeff) in enumerate(terms):
        np.multiply(channel if source is None else sums[source], coeff, out=term if k else combined)
        if k:
            combined += term
    combined -= offset
    if rounding is None:
        return combined
    return np.divide(div_round_half_away_i64(combined, rounding[0], out=term), rounding[1], out=out)


def _run_pass2(shape: tuple[int, int], params: MsldParams, mode: ArithmeticMode, stats: ScaleStats,
               inside, kept: list, records: Iterable[Band]) -> ResponseMap:
    """The terms of ``_affine_terms`` over the kept records and then over
    the records, summed in float64 or in an int64 accumulator that fixed
    mode rounds once, with the same operations on every pixel (``_combine``).

    The kept records (``_two_passes``) are combined first, in buffers of
    their ROI pixels, each one's compact values dropped as its float64 ones
    are made; the map is then allocated, and each record's values are
    scattered into its rows at the ROI flags that inside gives again. The
    records are then combined whole in the output rows or in the
    accumulator, whose buffers each record takes and drops before the next
    band's sums are formed. Raises ValueError if the ROI pixels are not the
    ``stats.roi_count``."""
    fixed = mode == "fixed"
    dtype = np.int64 if fixed else np.float64
    terms, offset = _affine_terms(params, stats, mode)
    rounding = (1 << _guard_bits(params.window), 1 << params.frac_bits) if fixed else None
    count = 0
    for k in range(len(kept)):
        rows, values, pixels = kept[k]
        count += pixels.size
        combined, term = np.empty(pixels.size, dtype=dtype), np.empty(pixels.size, dtype=dtype)
        kept[k] = rows, _combine(terms, offset, rounding, pixels, values, combined, term, None)
        del values, pixels, combined, term
    out = np.zeros(shape, dtype=np.float64)
    kept.reverse()
    while kept:
        rows, combined = kept.pop()
        out[rows][inside[rows]] = combined
        del combined
    ncols = shape[1]
    for rows, roi, channel, sums in records:
        count += int(np.count_nonzero(roi))
        target, term = out[rows], np.empty(roi.shape, dtype=dtype)
        combined = np.empty_like(term) if fixed else target
        _combine(terms, offset, rounding, channel, sums[:, :, :ncols], combined, term, target)
        target[~roi] = 0.0
        del roi, channel, sums, target, term, combined
    if count != stats.roi_count:
        raise ValueError(f"stats cover {stats.roi_count} ROI pixels but mask has {count}")
    return ResponseMap(out)


def stream_pass2(
    img,
    mask,
    params: MsldParams,
    stats: ScaleStats,
    arithmetic_mode: ArithmeticMode = "float",
) -> ResponseMap:
    """Second raster sweep: read every band again, recompute its sums,
    standardize, combine.

    img and mask are taken as by ``stream_pass1``. Forms every band of
    ``band_height`` rows again and emits each band of the combined map as
    soon as its sums are recomputed; per-scale responses exist only as one
    band of one scale. Raises ValueError for stats of another scale count
    or fractional width.
    """
    pixels, inside = _check_inputs(img, mask, arithmetic_mode)
    if stats.n_scales != params.n_scales:
        raise ValueError(f"stats carry {stats.n_scales} scales but params require {params.n_scales}")
    expected_frac = params.frac_bits if arithmetic_mode == "fixed" else None
    if stats.frac_bits != expected_frac:
        raise ValueError(f"stats were produced with frac_bits={stats.frac_bits}, "
                         f"expected {expected_frac} for {arithmetic_mode} mode")
    height, width = pixels.shape
    bands = _bands(pixels, inside, params.window, band_height(width, height))
    return _run_pass2(pixels.shape, params, arithmetic_mode, stats, inside, [], bands)


def _room(width: int, height: int, window: int) -> int:
    """Bytes of ROI values ``msld_streaming``'s pass 1 keeps for pass 2: one
    pass-2 band's kernel bytes and float64 term register (see the module
    docstring)."""
    rows = band_height(width, height)
    return band_bytes(rows, width, window) + 8 * rows * width


def _two_passes(pixels, inside, params: MsldParams, mode: ArithmeticMode, band_rows: int, rows: int,
                room: float) -> Iterator:
    """Both engines' flow, on the schedule their callers give (see the
    module docstring); yields the statistics, then the map.

    Pass 1 sums the ROI values (``_roi_values``) of bands of band_rows rows
    as records of at most rows * width ROI pixels (``_split``), and keeps
    each record's as (rows, values, pixels) in raster order while their
    bytes fit in room. The first record that does not fit ends the keeping;
    pass 2 combines the kept records and forms bands of rows rows again from
    that record's first row on.
    """
    acc = StreamAccumulators(params)
    kept, resume = [], None
    for span, roi, channel, sums in _split(_bands(pixels, inside, params.window, band_rows), rows):
        values, roi_pixels = _roi_values(roi, channel, sums)
        # released before the next record is cut or the next band formed
        del roi, channel, sums
        acc.update_row(values, roi_pixels)
        if resume is None:
            room -= values.nbytes + roi_pixels.nbytes
            if room >= 0:
                kept.append((span, values, roi_pixels))
            else:
                resume = span.start
        del values, roi_pixels
    stats = acc.finalize(mode)
    # the frame outlives the yield, so it holds no more of pass 1
    del acc, span
    yield stats
    records = () if resume is None else _bands(pixels, inside, params.window, rows, resume)
    yield _run_pass2(pixels.shape, params, mode, stats, inside, kept, records)


def sweep(img, mask, params: MsldParams, arithmetic_mode: ArithmeticMode) -> tuple[ResponseMap, ScaleStats]:
    """Both passes on the reference's schedule (see the module docstring):
    every ROI value is kept, so each band's sums are formed once and pass 2
    forms no band again."""
    pixels, inside = _check_inputs(img, mask, arithmetic_mode)
    width = pixels.shape[1]
    stats, response = _two_passes(pixels, inside, params, arithmetic_mode, max(8, PASS1_BAND_PIXELS // width),
                                  max(8, BAND_PIXELS // width), math.inf)
    return response, stats


def streaming_passes(img, mask, params: MsldParams, arithmetic_mode: ArithmeticMode = "float") -> Iterator:
    """``msld_streaming``'s two passes on its schedule (see the module
    docstring), as an iterator that yields its statistics once pass 1 is
    done, then its map."""
    pixels, inside = _check_inputs(img, mask, arithmetic_mode)
    height, width = pixels.shape
    window = params.window
    return _two_passes(pixels, inside, params, arithmetic_mode, pass1_height(width, height, window),
                       band_height(width, height), _room(width, height, window))


def msld_streaming(
    img,
    mask,
    params: MsldParams,
    arithmetic_mode: ArithmeticMode = "float",
) -> tuple[ResponseMap, ScaleStats, MemoryFootprint]:
    """Run ``streaming_passes`` and report the auxiliary-memory footprint of
    their bands (the schedule is in the module docstring). The map and
    statistics are those of ``stream_pass1`` and then ``stream_pass2`` with
    its statistics."""
    stats, response = streaming_passes(img, mask, params, arithmetic_mode)
    height, width = row_source(img).shape
    return response, stats, memory_footprint(params, width, height)
