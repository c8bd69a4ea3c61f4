"""Raster-order two-pass engine with bounded auxiliary memory.

Both engines are this one, and both sweep the image in bands from the same
pixel budget. For each band the integer kernel (``kernel.band_sums``)
forms, in its padded layout and in one integer type, one array indexed by
scale: the window sums at index 0 and the maxima of the oriented line sums
of length 2s + 1 at index s >= 1; scale 1's line sum is the pixel. Pass 1
adds their ROI values to exact integer sums, the same in both arithmetic
modes; finalizing them yields each scale's mean and standard deviation,
which ``ScaleStats`` carries to pass 2 as doubles or as fixed-point words.
Pass 2 standardizes and combines the sums band by band, so no per-scale
response image is ever stored. ``msld_streaming`` is its two public passes,
``stream_pass1`` then ``stream_pass2``: pass 2 forms the sums again and
each pass drops a band's sums before the next is formed, so its auxiliary
state is one band of window + rows - 1 image rows with its sums, plus a
handful of per-scale words, regardless of image height.
``reference.msld_reference`` runs the float datapath through ``sweep``,
which keeps every band's sums for pass 2 instead.

The engines take the image and the mask as a ``GrayImage`` and a ``Mask``
or as row sources (``imageio``), such as the ``imageio.PnmRows`` that
``imageio.open_rows`` gives for a binary file. Each band reads its mask rows and then its image rows with the
window's halo once; the band record carries those rows to both passes'
arithmetic, so a run over a file holds no whole image or mask, and each
pass reads the file once more.

The streaming pass-2 band height is max(8, min(BAND_PIXELS // width,
height // 8)) rows. The first term spends a fixed pixel budget per kernel
call, so per-call overhead is amortized on wide images while the rows stay
bounded independently of the height; the second bounds the footprint of
pass 2, which holds the response map, on short images, where 64-row tiles
keep 8-row bands. Pass 1 runs before the map is allocated, so its bands
(``pass1_height``) take up to four budgets (``PASS1_BAND_PIXELS``) until
their kernel buffers fill the map's bytes plus one pass-2 band. The
reference keeps all its sums anyway, so its height sets only its transient
buffers: its bands take pass 1's cap, max(8, PASS1_BAND_PIXELS // width)
rows, and a tile is one band. Its pass 1 gathers, and every pass 2
multiplies and adds, at most one budget of max(8, BAND_PIXELS // width)
rows at a time. The height changes no output bit: pass 1 sums exact
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
and pass 2 multiplies and adds in one loop. The modes differ only in the
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
# (rows, roi, channel, sums) of one band: its ROI flags and channel rows, and
# its sums as ``kernel.band_sums`` returns them
Band = tuple[slice, np.ndarray, np.ndarray, np.ndarray]

# pixels per band above the 8-row floor: at DRIVE width (565 columns, 36
# rows) the largest budget of a sweep at which the float engine's measured
# peak stays that of the response write
BAND_PIXELS = 20480
# pixels per pass-1 band above the 8-row floor: four pass-2 budgets, 144
# rows at DRIVE width and 40 at HRF width (2048 columns). Pass 1 runs before
# the response map exists, so only this cap and the map's bytes hold its
# band. Kernel sweeps over the whole image (in process, interleaved,
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
    peak_total_bytes bounds both passes' bands: every buffer of the kernel
    (``kernel.band_bytes``: the padded band with its spare row, the column
    sums, and the padded-width sums of every scale and running line sum, all
    in one integer type) of the taller band, pass 1's of ``pass1_height``
    rows unless the image is lower than 8 rows, four 8-byte registers of one
    pass-2 band of ``band_height`` rows, and the words above. It models the
    band that runs, so it counts pass 1's band of up to four pixel budgets
    (2.50 MB at DRIVE size and W = 15), though pass 1 runs before the
    response map exists and its measured peak stays within pass 2's. The
    registers bound both datapaths: pass 1 gathers at most a pass-2 band's
    pixels at a time, and both modes hold their ROI indices, compact and
    padded, and the ROI values of the window sums and of one scale's line
    sums; in pass 2 both modes hold one term of the affine form, which float
    mode adds to the output rows and fixed mode to an int64 accumulator.
    Expression temporaries, the input image and the output response map are
    excluded; pass 1 runs before the map is allocated.
    """

    line_buffer_slots: int
    accumulator_words: int
    stored_stats_values: int
    peak_total_bytes: int


def band_height(width: int, height: int) -> int:
    """Output rows per pass-2 band of the streaming engine over a width x height image."""
    return max(8, min(BAND_PIXELS // width, height // 8))


def pass1_height(width: int, height: int, window: int) -> int:
    """Output rows per pass-1 band over a width x height image.

    Pass 1 runs before the float64 response map is allocated, so its band
    may spend the map's 8 * width * height bytes: it is the tallest band,
    of at most max(8, PASS1_BAND_PIXELS // width) rows and at most the
    image's height, whose kernel buffers (``band_bytes``, linear in the
    rows) fit in the map plus one pass-2 band of ``band_height`` rows. The
    map binds on short images (27 rows on a 64 x 64 tile at W = 15), the
    pixel cap at DRIVE (144 rows) and HRF (40 rows) widths.
    """
    band_rows = band_height(width, height)
    per_row = band_bytes(band_rows + 1, width, window) - band_bytes(band_rows, width, window)
    return min(max(8, PASS1_BAND_PIXELS // width), height, band_rows + 8 * width * height // per_row)


def memory_footprint(params: MsldParams, width: int, height: int) -> MemoryFootprint:
    """Footprint of ``msld_streaming`` over a width x height image: its
    pass-1 bands are ``pass1_height`` rows high and its pass-2 bands
    ``band_height`` rows high."""
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
            + 4 * 8 * rows * width
            + 8 * (accumulator_words + stored_stats_values)
        ),
    )


class StreamAccumulators:
    """Running exact integer ROI sums of the kernel outputs and of the channel.

    ``update_row`` adds, in Python integers, the ROI sums of every scale's
    maximal line sum S_L, of S_L * S_L and S_L * B (B the window sum), and
    of B and B * B, over blocks of pixels small enough that no int64
    partial sum can wrap. Scale 1's S_L is the pixel, so its sums are the
    channel's too. Both arithmetic modes keep these sums; ``finalize``
    forms from them the exact sums of a scale's raw response x = alpha *
    S_L - beta * B and of x * x. In float mode alpha = W*W and beta = L, so
    x is S_L / L - B / (W*W) scaled by L * W*W to an integer, and the exact
    rationals are rounded once (``scale_stats``). In fixed mode alpha and
    beta are the quantized reciprocals of L and W*W, so x is the modeled
    hardware's quantized raw response, and the sum of x * x, with 2 *
    frac_bits fractional bits, is rounded to frac_bits once; either sum
    outside the signed 64-bit range raises FixedPointOverflowError.
    """

    def __init__(self, params: MsldParams, mode: ArithmeticMode, block_pixels: int):
        _validate_mode(mode)
        self.params = params
        self.mode = mode
        self.line_sum = [0] * params.n_scales
        self.line_sum2 = [0] * params.n_scales
        self.line_window_sum = [0] * params.n_scales
        self.window_sum = 0
        self.window_sum2 = 0
        self.roi_count = 0
        # ROI pixels are added at most this many at a time: at most
        # block_pixels, one pass-2 band's pixels, so that a taller pass-1 band
        # brings no larger gathers; and few enough that no int64 partial sum
        # can wrap, since no product of two kernel sums exceeds the largest
        # window sum squared. Values are gathered as float64, whose dots run
        # in BLAS, when no partial sum of a whole block can pass 2**53, so
        # that every one is an exact integer in any order of addition
        largest = (255 * params.window**2) ** 2
        self._block = max(1, min(block_pixels, (2**63 - 1) // largest))
        self._dtype = np.float64 if self._block * largest <= 2**53 else np.int64

    def update_row(self, sums: np.ndarray, channel: np.ndarray, roi: np.ndarray):
        """Add one band: its padded kernel sums, channel rows and ROI flags.

        A band of more ROI pixels than a block is taken a block's rows at a
        time, so that its ROI indices are no larger than the gathers.
        """
        ncols = roi.shape[1]
        step = len(roi) if np.count_nonzero(roi) <= self._block else max(1, self._block // ncols)
        for y0 in range(0, len(roi), step):
            inside = np.flatnonzero(roi[y0:y0 + step])
            inside += y0 * ncols
            self.roi_count += inside.size
            for start in range(0, inside.size, self._block):
                self._add_pixels(sums, channel, inside[start:start + self._block])

    def _add_pixels(self, sums: np.ndarray, channel: np.ndarray, inside: np.ndarray):
        """Add the band pixels at the flat indices inside.

        Gathering by index is several times faster than by a boolean mask
        when the ROI is scattered. Pixel i of the channel sits at i + i //
        ncols * (W - 1) in the padded kernel sums. The values are gathered
        as the block's exact dtype (``__init__``).
        """
        ncols = channel.shape[1]
        padded = inside // ncols
        padded *= sums.shape[2] - ncols
        padded += inside
        wsums = sums[0].reshape(-1).take(padded).astype(self._dtype)
        self.window_sum += int(wsums.sum())
        self.window_sum2 += int(wsums @ wsums)
        # one scale's values at a time, in one buffer
        line = np.empty_like(wsums)
        for s in range(self.params.n_scales):
            # scale 1's line sum is the pixel
            source, index = (channel, inside) if s == 0 else (sums[s], padded)
            np.copyto(line, source.reshape(-1).take(index))
            self.line_sum[s] += int(line.sum())
            self.line_sum2[s] += int(line @ line)
            self.line_window_sum[s] += int(line @ wsums)

    def _raw_sums(self, s: int, alpha: int, beta: int) -> tuple[int, int]:
        """Exact ROI sums of x and x * x for x = alpha * S_L - beta * B at scale s."""
        return (alpha * self.line_sum[s] - beta * self.window_sum,
                alpha * alpha * self.line_sum2[s] - 2 * alpha * beta * self.line_window_sum[s]
                + beta * beta * self.window_sum2)

    def finalize(self) -> ScaleStats:
        if self.roi_count == 0:
            raise EmptyRoiError("mask contains no ROI pixels")
        n, f = self.roi_count, self.params.frac_bits
        fixed = self.mode == "fixed"
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


def _bands(pixels, inside, window: int, band_rows: int, keep: bool = False) -> Iterator[Band]:
    """Yield (rows, roi, channel, sums) for every band of band_rows output
    rows that holds an ROI pixel.

    Each band reads its ROI rows, then its channel rows with the window's
    halo once, from which ``band_sums`` forms its sums; the block holds every
    halo row inside the image, so it clamps at the image's edges only. A band
    that is kept holds compact channel rows, not a view of a block that was
    read with its halo.
    """
    height = pixels.shape[0]
    half = window // 2
    for y0 in range(0, height, band_rows):
        rows = slice(y0, min(y0 + band_rows, height))
        roi = inside[rows]
        if roi.any():
            lo = max(y0 - half, 0)
            block = pixels[lo:min(rows.stop + half, height)]
            channel = block[y0 - lo:rows.stop - lo]
            if keep and not isinstance(pixels, np.ndarray):
                channel = channel.copy()
            yield rows, roi, channel, band_sums(block, y0 - lo, rows.stop - lo, window)


def _run_pass1(params: MsldParams, mode: ArithmeticMode, bands: Iterable[Band],
               block_pixels: int) -> ScaleStats:
    acc = StreamAccumulators(params, mode, block_pixels)
    for rows, roi, channel, sums in bands:
        acc.update_row(sums, channel, roi)
        # released before the next band is read and its sums are formed
        del roi, channel, sums
    return acc.finalize()


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
    (``imageio.row_source``). Raw responses are consumed immediately and
    never stored. The bands are ``pass1_height`` rows, up to four pixel
    budgets and never lower than pass 2's: this sweep runs before the
    response map exists and spends its bytes. Float statistics are exact
    rationals rounded once; fixed-point variances that the sum-of-squares
    formula makes negative are clamped to zero and counted on the returned
    stats.
    """
    pixels, inside = _check_inputs(img, mask, arithmetic_mode)
    height, width = pixels.shape
    bands = _bands(pixels, inside, params.window, pass1_height(width, height, params.window))
    return _run_pass1(params, arithmetic_mode, bands, band_height(width, height) * width)


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


def _run_pass2(shape: tuple[int, int], params: MsldParams, mode: ArithmeticMode,
               bands: Iterable[Band], stats: ScaleStats) -> ResponseMap:
    """One band loop for both modes over the terms of ``_affine_terms``, summed
    in the output rows or in an int64 accumulator that fixed mode rounds once,
    max(8, BAND_PIXELS // width) rows at a time whatever the band height, so
    the term buffer and the accumulator stay one budget of rows. Raises
    ValueError if the bands' ROI pixels are not the ``stats.roi_count``."""
    out = np.zeros(shape, dtype=np.float64)
    fixed = mode == "fixed"
    terms, offset = _affine_terms(params, stats, mode)
    term = acc = None
    guard = 1 << _guard_bits(params.window)
    ncols = shape[1]
    step = max(8, BAND_PIXELS // ncols)
    count = 0
    for rows, roi, channel, sums in bands:
        count += int(np.count_nonzero(roi))
        if term is None:
            # only the last band can be lower than the first
            term = np.empty((min(step, len(roi)), ncols), dtype=np.int64 if fixed else np.float64)
            acc = np.empty_like(term) if fixed else None
        for y in range(0, len(roi), step):
            part = slice(y, y + step)
            target = out[rows][part]
            combined = acc[:len(target)] if fixed else target
            chunk_term = term[:len(target)]
            for k, (source, coeff) in enumerate(terms):
                # no name holds the view, so that del sums releases the band
                np.multiply(channel[part] if source is None else sums[source, part, :ncols], coeff,
                            out=chunk_term if k else combined)
                if k:
                    combined += chunk_term
            if y + step >= len(roi):
                # after the last chunk's products: released before the rounding's
                # temporaries and the next band's sums
                del channel, sums
            combined -= offset
            if fixed:
                # rounded into the term buffer, so the chunk holds no temporaries
                np.divide(div_round_half_away_i64(combined, guard, out=chunk_term), 1 << params.frac_bits,
                          out=target)
            target[~roi[part]] = 0.0
        del roi
    if count != stats.roi_count:
        raise ValueError(f"stats cover {stats.roi_count} ROI pixels but mask has {count}")
    return ResponseMap(out)


def _check_pass2_inputs(img, mask, params: MsldParams, stats: ScaleStats, arithmetic_mode: str):
    pixels, inside = _check_inputs(img, mask, arithmetic_mode)
    if stats.n_scales != params.n_scales:
        raise ValueError(
            f"stats carry {stats.n_scales} scales but params require {params.n_scales}"
        )
    expected_frac = params.frac_bits if arithmetic_mode == "fixed" else None
    if stats.frac_bits != expected_frac:
        raise ValueError(
            f"stats were produced with frac_bits={stats.frac_bits}, "
            f"expected {expected_frac} for {arithmetic_mode} mode"
        )
    return pixels, inside


def stream_pass2(
    img,
    mask,
    params: MsldParams,
    stats: ScaleStats,
    arithmetic_mode: ArithmeticMode = "float",
) -> ResponseMap:
    """Second raster sweep: read the bands again, recompute their sums,
    standardize, combine.

    img and mask are taken as by ``stream_pass1``. Emits each band of the
    combined map as soon as its sums are recomputed; per-scale responses
    exist only as one band of one scale.
    """
    pixels, inside = _check_pass2_inputs(img, mask, params, stats, arithmetic_mode)
    height, width = pixels.shape
    bands = _bands(pixels, inside, params.window, band_height(width, height))
    return _run_pass2(pixels.shape, params, arithmetic_mode, bands, stats)


def sweep(img, mask, params: MsldParams, arithmetic_mode: ArithmeticMode,
          band_rows: int) -> tuple[ResponseMap, ScaleStats]:
    """Both passes over bands of band_rows rows, each band's rows read and
    its sums formed once and kept for pass 2. Pass 1 gathers, and pass 2
    multiplies and adds, at most one budget of max(8, BAND_PIXELS // width)
    rows at a time, so a taller band grows no register while the kept sums
    are alive. ``reference.msld_reference`` fixes the height."""
    pixels, inside = _check_inputs(img, mask, arithmetic_mode)
    kept = list(_bands(pixels, inside, params.window, band_rows, keep=True))
    width = pixels.shape[1]
    stats = _run_pass1(params, arithmetic_mode, kept, max(8, BAND_PIXELS // width) * width)
    return _run_pass2(pixels.shape, params, arithmetic_mode, kept, stats), stats


def msld_streaming(
    img,
    mask,
    params: MsldParams,
    arithmetic_mode: ArithmeticMode = "float",
) -> tuple[ResponseMap, ScaleStats, MemoryFootprint]:
    """Run ``stream_pass1``, then ``stream_pass2`` with its statistics, and
    report the auxiliary-memory footprint of their bands."""
    stats = stream_pass1(img, mask, params, arithmetic_mode)
    response = stream_pass2(img, mask, params, stats, arithmetic_mode)
    height, width = row_source(img).shape
    return response, stats, memory_footprint(params, width, height)
