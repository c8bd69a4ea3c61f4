"""Raster-order two-pass engine with bounded auxiliary memory.

Pass 1 sweeps the image in bands of BAND_ROWS output rows. For each band
the integer kernel (``kernel.band_sums``) forms the window sums and the
per-scale maxima of the oriented line sums, the engine turns them into raw
responses one scale at a time, and the ROI values feed per-scale sums and
squared sums; finalizing them yields each scale's mean and standard
deviation. Pass 2 sweeps again, recomputes the identical raw responses,
and standardizes and combines them immediately, so no per-scale response
image is ever stored. Auxiliary state is one band of window + BAND_ROWS - 1
image rows with its sums, plus a handful of per-scale words, regardless of
image height.

Arithmetic runs either in IEEE doubles or in integer fixed point with a
configurable fractional width; divisions by the constant line lengths, the
window area, and the scale count are realized as multiplications by
precomputed reciprocals, while the data-dependent divisions (by the ROI
count and by each standard deviation) are true divisions. Taking the
maximum over orientations on the integer sums before multiplying by the
positive reciprocal of the line length gives the same value as scaling
each line first, in both modes.

The footprint reports the architectural line-buffer size of the modeled
datapath, (window - 1) * ncols + window pixels, next to the bytes a band
actually holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Literal

import numpy as np

from .detector import MsldParams
from .fixedpoint import (
    RAW_LIMIT,
    FixedPoint,
    FixedPointOverflowError,
    div_round_half_away_i64,
    fx_div,
    fx_from_int,
    fx_from_real,
    fx_mul,
    fx_reciprocal,
    fx_sqrt,
    fx_sub,
    shift_round_half_away_i64,
)
from .imageio import GrayImage, Mask
from .kernel import band_bytes, band_sums
from .reference import DEGENERATE_STD, EmptyRoiError, ResponseMap, ScaleStats, _check_dims

ArithmeticMode = Literal["float", "fixed"]

BAND_ROWS = 8


def _validate_mode(mode: str):
    if mode not in ("float", "fixed"):
        raise ValueError(f"arithmetic_mode must be 'float' or 'fixed', got {mode!r}")


@dataclass(frozen=True)
class MemoryFootprint:
    """Peak auxiliary state of a streaming run.

    line_buffer_slots is the architectural pixel-store size
    (window - 1) * ncols + window; stored_stats_values counts the retained
    mean/std pairs (one per scale plus one for the inverted input channel);
    accumulator_words counts the running sums and the ROI counter;
    peak_total_bytes counts the buffers one band holds: every buffer of
    the kernel (``kernel.band_bytes``: the padded band with its spare row,
    the padded-width column and window sums, the padded line-sum maxima and
    running line sum, and the compact outputs), the engine's four band
    registers (window means, one scale's raw responses, the channel, the
    standardized sum) and the words above.
    Expression temporaries, the input image and the output response map
    are excluded.
    """

    line_buffer_slots: int
    accumulator_words: int
    stored_stats_values: int
    peak_total_bytes: int


def memory_footprint(params: MsldParams, width: int) -> MemoryFootprint:
    """Footprint of a streaming run over an image ``width`` columns wide."""
    window = params.window
    accumulator_words = 2 * (params.n_scales + 1) + 1
    stored_stats_values = 2 * params.n_scales + 2
    return MemoryFootprint(
        line_buffer_slots=(window - 1) * width + window,
        accumulator_words=accumulator_words,
        stored_stats_values=stored_stats_values,
        peak_total_bytes=(
            band_bytes(BAND_ROWS, width, window)
            + 4 * 8 * BAND_ROWS * width
            + 8 * (accumulator_words + stored_stats_values)
        ),
    )


class StreamAccumulators:
    """Running per-scale sums of ROI responses and their squares.

    In fixed mode the sums are exact Python integers over the raw
    fixed-point values; in float mode they are IEEE doubles accumulated
    band by band in raster order. The ROI pixel count is shared across scales and counted
    once.
    """

    def __init__(self, n_scales: int, mode: ArithmeticMode, frac_bits: int | None):
        _validate_mode(mode)
        self.mode = mode
        self.frac_bits = frac_bits
        zero = 0 if mode == "fixed" else 0.0
        self.sum_x = [zero] * n_scales
        self.sum_x2 = [zero] * n_scales
        self.igc_sum = zero
        self.igc_sum2 = zero
        self.roi_count = 0

    @property
    def n_scales(self) -> int:
        return len(self.sum_x)

    def update_row(self, raws: Iterator[np.ndarray], igc: np.ndarray, roi: np.ndarray):
        """Add one band: raws yields each scale's raw responses in turn.

        igc holds the channel values and roi the band's ROI flags; raws is
        not drawn from when the band holds no ROI pixel.
        """
        n = int(np.count_nonzero(roi))
        if n == 0:
            return
        self.roi_count += n
        if self.mode == "fixed":
            # squares are non-negative, so rounding them half away from zero
            # by 2**frac_bits is adding half an ulp and shifting
            f = self.frac_bits
            half_ulp = 1 << (f - 1)
            for s, raw in enumerate(raws):
                vals = raw[roi]
                self.sum_x[s] += int(vals.sum())
                self.sum_x2[s] += int(((vals * vals + half_ulp) >> f).sum())
            ivals = igc[roi]
            self.igc_sum += int(ivals.sum())
            self.igc_sum2 += int(((ivals * ivals + half_ulp) >> f).sum())
        else:
            for s, raw in enumerate(raws):
                vals = raw[roi]
                self.sum_x[s] += float(vals.sum())
                self.sum_x2[s] += float((vals * vals).sum())
            ivals = igc[roi]
            self.igc_sum += float(ivals.sum())
            self.igc_sum2 += float((ivals * ivals).sum())

    def finalize(self) -> ScaleStats:
        if self.roi_count == 0:
            raise EmptyRoiError("mask contains no ROI pixels")
        clamps = 0
        means: list[float] = []
        stds: list[float] = []
        pairs = list(zip(self.sum_x + [self.igc_sum], self.sum_x2 + [self.igc_sum2]))
        if self.mode == "fixed":
            f = self.frac_bits
            n_fx = fx_from_int(self.roi_count, f)
            for sx, sx2 in pairs:
                m = fx_div(FixedPoint(sx, f), n_fx)
                var = fx_sub(fx_div(FixedPoint(sx2, f), n_fx), fx_mul(m, m))
                if var.raw < 0:
                    var = FixedPoint(0, f)
                    clamps += 1
                means.append(m.value)
                stds.append(fx_sqrt(var).value)
        else:
            for sx, sx2 in pairs:
                m = sx / self.roi_count
                var = sx2 / self.roi_count - m * m
                if var < 0.0:
                    var = 0.0
                    clamps += 1
                means.append(m)
                stds.append(math.sqrt(var))
        return ScaleStats(
            scale_means=tuple(means[:-1]),
            scale_stds=tuple(stds[:-1]),
            igc_mean=means[-1],
            igc_std=stds[-1],
            roi_count=self.roi_count,
            frac_bits=self.frac_bits,
            negative_variance_clamps=clamps,
        )


def _check_fixed_range(frac_bits: int):
    peak = 2 * (255 << frac_bits) ** 2 + (1 << frac_bits)
    if peak >= RAW_LIMIT:
        raise FixedPointOverflowError(
            f"frac_bits={frac_bits} exceeds the vectorized int64 range "
            "(squares of responses must fit a signed 64-bit word)"
        )


class _BandEngine:
    """Raster sweep producing raw responses band by band.

    The kernel's integer sums of a band are turned into raw responses one
    scale at a time, in the engine's arithmetic:
    raw = max line sum * recip(L) - window sum * recip(W * W).
    """

    def __init__(self, img: GrayImage, params: MsldParams, mode: ArithmeticMode):
        _validate_mode(mode)
        self.mode = mode
        self.params = params
        self._pixels = img.pixels
        area = params.window * params.window
        if mode == "fixed":
            _check_fixed_range(params.frac_bits)
            f = params.frac_bits
            self._scale_recips = [np.int64(fx_reciprocal(length, f).raw) for length in params.scales]
            self._window_recip = np.int64(fx_reciprocal(area, f).raw)
        else:
            self._scale_recips = [np.float64(1.0 / length) for length in params.scales]
            self._window_recip = np.float64(1.0 / area)

    def bands(self, mask: Mask) -> Iterator[tuple[slice, np.ndarray, Iterator[np.ndarray], np.ndarray]]:
        """Yield (rows, roi, raws, igc) for every band holding an ROI pixel.

        raws yields the band's raw responses scale by scale; igc is the
        channel in the engine's arithmetic.
        """
        height = self._pixels.shape[0]
        for y0 in range(0, height, BAND_ROWS):
            rows = slice(y0, min(y0 + BAND_ROWS, height))
            roi = mask.inside[rows]
            if not roi.any():
                continue
            window_sums, line_maxima = band_sums(self._pixels, rows.start, rows.stop, self.params.window)
            if self.mode == "fixed":
                igc = self._pixels[rows].astype(np.int64) << self.params.frac_bits
            else:
                igc = self._pixels[rows].astype(np.float64)
            yield rows, roi, self._raws(window_sums, line_maxima), igc

    def _raws(self, window_sums: np.ndarray, line_maxima: np.ndarray) -> Iterator[np.ndarray]:
        window_means = window_sums * self._window_recip
        for line_max, recip in zip(line_maxima, self._scale_recips):
            yield line_max * recip - window_means


def _run_pass1(engine: _BandEngine, mask: Mask) -> ScaleStats:
    params = engine.params
    frac = params.frac_bits if engine.mode == "fixed" else None
    acc = StreamAccumulators(params.n_scales, engine.mode, frac)
    for _, roi, raws, igc in engine.bands(mask):
        acc.update_row(raws, igc, roi)
    return acc.finalize()


def stream_pass1(
    img: GrayImage,
    mask: Mask,
    params: MsldParams,
    arithmetic_mode: ArithmeticMode = "float",
) -> ScaleStats:
    """Single raster sweep accumulating per-scale ROI statistics.

    Raw responses are consumed immediately and never stored; negative
    variances produced by the sum-of-squares formula are clamped to zero
    and counted on the returned stats.
    """
    _validate_mode(arithmetic_mode)
    _check_dims(img.pixels.shape, mask)
    if mask.count == 0:
        raise EmptyRoiError("mask contains no ROI pixels")
    return _run_pass1(_BandEngine(img, params, arithmetic_mode), mask)


def _stats_raws(stats: ScaleStats, frac_bits: int) -> tuple[list[int], list[int], int, int]:
    means = [fx_from_real(m, frac_bits).raw for m in stats.scale_means]
    stds = [fx_from_real(s, frac_bits).raw for s in stats.scale_stds]
    return means, stds, fx_from_real(stats.igc_mean, frac_bits).raw, fx_from_real(stats.igc_std, frac_bits).raw


def _check_combine_range(
    mean_raws: list[int], std_raws: list[int], frac_bits: int, combine_recip: int
):
    zbound = 0
    for m, s in zip(mean_raws, std_raws):
        if s == 0:
            continue
        zbound += (((255 << frac_bits) + abs(m)) << frac_bits) // s + 1
    if 2 * zbound * combine_recip + (1 << frac_bits) >= RAW_LIMIT:
        raise FixedPointOverflowError(
            "standardized responses exceed the vectorized int64 range "
            "(a near-degenerate standard deviation inflates the z values)"
        )


def _run_pass2(engine: _BandEngine, mask: Mask, stats: ScaleStats) -> ResponseMap:
    params = engine.params
    out = np.zeros(mask.inside.shape, dtype=np.float64)
    n_terms = params.n_scales + 1

    if engine.mode == "fixed":
        f = params.frac_bits
        mean_raws, std_raws, igc_mean_raw, igc_std_raw = _stats_raws(stats, f)
        combine_recip = fx_reciprocal(n_terms, f).raw
        _check_combine_range(
            mean_raws + [igc_mean_raw], std_raws + [igc_std_raw], f, combine_recip
        )
        for rows, roi, raws, igc in engine.bands(mask):
            zsum = np.zeros(igc.shape, dtype=np.int64)
            for s, raw in enumerate(raws):
                if std_raws[s] != 0:
                    zsum += div_round_half_away_i64((raw - mean_raws[s]) << f, std_raws[s])
            if igc_std_raw != 0:
                zsum += div_round_half_away_i64((igc - igc_mean_raw) << f, igc_std_raw)
            combined = shift_round_half_away_i64(zsum * combine_recip, f)
            out[rows] = np.where(roi, combined / (1 << f), 0.0)
    else:
        combine_recip = 1.0 / n_terms
        for rows, roi, raws, igc in engine.bands(mask):
            zsum = np.zeros(igc.shape, dtype=np.float64)
            for s, raw in enumerate(raws):
                if stats.scale_stds[s] >= DEGENERATE_STD:
                    raw -= stats.scale_means[s]
                    raw /= stats.scale_stds[s]
                    zsum += raw
            if stats.igc_std >= DEGENERATE_STD:
                igc -= stats.igc_mean
                igc /= stats.igc_std
                zsum += igc
            zsum *= combine_recip
            out[rows] = np.where(roi, zsum, 0.0)

    return ResponseMap(out)


def _check_pass2_inputs(img: GrayImage, mask: Mask, params: MsldParams,
                        stats: ScaleStats, arithmetic_mode: str):
    _validate_mode(arithmetic_mode)
    _check_dims(img.pixels.shape, mask)
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
    if stats.roi_count != mask.count:
        raise ValueError(
            f"stats cover {stats.roi_count} ROI pixels but mask has {mask.count}"
        )


def stream_pass2(
    img: GrayImage,
    mask: Mask,
    params: MsldParams,
    stats: ScaleStats,
    arithmetic_mode: ArithmeticMode = "float",
) -> ResponseMap:
    """Second raster sweep: recompute raw responses, standardize, combine.

    Emits each combined response as soon as its raw responses are
    recomputed; per-scale responses exist only as one band of one scale.
    """
    _check_pass2_inputs(img, mask, params, stats, arithmetic_mode)
    return _run_pass2(_BandEngine(img, params, arithmetic_mode), mask, stats)


def msld_streaming(
    img: GrayImage,
    mask: Mask,
    params: MsldParams,
    arithmetic_mode: ArithmeticMode = "float",
) -> tuple[ResponseMap, ScaleStats, MemoryFootprint]:
    """Run both passes and report the auxiliary-memory footprint."""
    _validate_mode(arithmetic_mode)
    _check_dims(img.pixels.shape, mask)
    if mask.count == 0:
        raise EmptyRoiError("mask contains no ROI pixels")

    engine = _BandEngine(img, params, arithmetic_mode)
    stats = _run_pass1(engine, mask)
    response = _run_pass2(engine, mask, stats)
    return response, stats, memory_footprint(params, img.width)
