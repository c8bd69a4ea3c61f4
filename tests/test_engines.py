"""Every engine entry point against the brute-force oracle, plus pinned
fixed-point outputs."""

import hashlib
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import combined_map_bruteforce
from compact_sums import compact_band_sums
from msld import (
    EmptyRoiError,
    GrayImage,
    Mask,
    MsldParams,
    ScaleStats,
    msld_reference,
    msld_streaming,
    scale_stats,
    stream_pass1,
    stream_pass2,
)
from msld import streaming
from msld.fixedpoint import (
    FixedPointOverflowError,
    div_round_half_away,
    fx_div,
    fx_from_int,
    fx_mul,
    fx_reciprocal,
    fx_sqrt,
    fx_sub,
)
from msld.kernel import band_bytes, band_sums

FLOAT_TOL = 1e-9


def float_runs(pixels, roi, window):
    """Maps and stats of every float entry point, keyed by entry point."""
    img, mask = GrayImage(pixels), Mask(roi)
    params = MsldParams(window=window)
    stats = stream_pass1(img, mask, params, "float")
    streaming = msld_streaming(img, mask, params, "float")[:2]
    return {
        "reference": msld_reference(img, mask, params),
        "streaming-float": streaming,
        "pass1+pass2": (stream_pass2(img, mask, params, stats, "float"), stats),
    }


def assert_match_oracle(pixels, roi, window):
    expected = np.array(combined_map_bruteforce(pixels, roi.tolist(), window))
    runs = float_runs(pixels, roi, window)
    ref_map, ref_stats = runs["reference"]
    for name, (resp, stats) in runs.items():
        # one engine at two band heights: the same values, not just close ones
        assert np.array_equal(resp.values, ref_map.values), name
        assert stats == ref_stats, name
        assert np.abs(resp.values - expected).max() <= FLOAT_TOL, name


@st.composite
def cases(draw, max_side=11):
    height = draw(st.integers(1, max_side))
    width = draw(st.integers(1, max_side))
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
    pixels, roi = np.full((6, 8), 77, dtype=np.uint8), np.ones((6, 8), dtype=bool)
    assert_match_oracle(pixels, roi, 5)
    for name, (_, stats) in float_runs(pixels, roi, 5).items():
        assert stats.scale_stds + (stats.igc_std,) == (0.0,) * 4, name
        assert stats.negative_variance_clamps == 0, name


def exact_stats(pixels, roi, window):
    """(scale means, scale stds, channel mean, channel std) from band_sums in Python ints."""
    window_sums, line_maxima = compact_band_sums(pixels, 0, pixels.shape[0], window)
    area, n = window * window, int(roi.sum())

    def rounded(values, divisor):
        sx, sx2 = values.sum(), (values * values).sum()
        nd = n * divisor
        return float(Fraction(sx, nd)), math.sqrt(Fraction(n * sx2 - sx * sx, nd * nd))

    sums = window_sums[roi].astype(object)
    scales = [rounded(area * line_max[roi].astype(object) - length * sums, length * area)
              for length, line_max in zip(range(1, window + 1, 2), line_maxima)]
    igc = rounded(pixels[roi].astype(object), 1)
    return tuple(m for m, _ in scales), tuple(s for _, s in scales), *igc


def exact_fixed_stats(pixels, roi, window, frac_bits):
    """Fixed-mode (scale means, scale stds, channel mean, channel std, clamps),
    raw at frac_bits: exact Python-int sums of the quantized raw responses
    S_L * recip(L) - B * recip(W*W) and of their squares, each sum of
    squares rounded to frac_bits once, then finalize's mean and variance."""
    f = frac_bits
    window_sums, line_maxima = compact_band_sums(pixels, 0, pixels.shape[0], window)
    n = fx_from_int(int(roi.sum()), f)
    clamps = 0

    def rounded(values):
        nonlocal clamps
        mean = fx_div(values.sum(), n, f)
        sum_sq = div_round_half_away((values * values).sum(), 1 << f)
        var = fx_sub(fx_div(sum_sq, n, f), fx_mul(mean, mean, f))
        clamps += var < 0
        return mean, fx_sqrt(max(var, 0), f)

    window_means = window_sums[roi].astype(object) * fx_reciprocal(window * window, f)
    scales = [rounded(line_max[roi].astype(object) * fx_reciprocal(length, f) - window_means)
              for length, line_max in zip(range(1, window + 1, 2), line_maxima)]
    igc = rounded(pixels[roi].astype(object) * (1 << f))
    return tuple(m for m, _ in scales), tuple(s for _, s in scales), *igc, clamps


def stats_tuple(stats):
    return (stats.scale_means, stats.scale_stds, stats.igc_mean, stats.igc_std,
            stats.negative_variance_clamps)


@given(cases(), st.sampled_from([8, 12, 18, 23]))
@settings(max_examples=40, deadline=None)
def test_fixed_stats_round_the_exact_sums_once(case, frac_bits):
    pixels, roi, window = case
    params = MsldParams(window=window, frac_bits=frac_bits)
    stats = stream_pass1(GrayImage(pixels), Mask(roi), params, "fixed")
    assert stats_tuple(stats) == exact_fixed_stats(pixels, roi, window, frac_bits)


def test_fixed_sum_of_squares_rounded_once():
    # rounding each pixel's square to 18 bits before summing gave
    # 65.23471450805664 here; the exact value is 65.2347164
    pixels = np.random.default_rng(622).integers(0, 256, (12, 12), dtype=np.uint8)
    roi = np.ones((12, 12), dtype=bool)
    stats = stream_pass1(GrayImage(pixels), Mask(roi), MsldParams(window=5, frac_bits=18), "fixed")
    assert stats_tuple(stats) == exact_fixed_stats(pixels, roi, 5, 18)
    assert stats.scale_stds[0] / (1 << 18) == 65.2347183227539


def test_exact_sums_do_not_wrap():
    # one whole-image band at W=255: its sum of squared window sums is
    # about 40000 * 2.75e14, beyond int64
    pixels = np.random.default_rng(4).integers(250, 256, (200, 200), dtype=np.uint8)
    roi = np.ones((200, 200), dtype=bool)
    img, mask, params = GrayImage(pixels), Mask(roi), MsldParams(window=255)
    expected = exact_stats(pixels, roi, 255)
    for stats in (msld_reference(img, mask, params)[1],
                  msld_streaming(img, mask, params, "float")[1]):
        assert (stats.scale_means, stats.scale_stds, stats.igc_mean, stats.igc_std) == expected
    fixed = stream_pass1(img, mask, params, "fixed")
    assert stats_tuple(fixed) == exact_fixed_stats(pixels, roi, 255, params.frac_bits)


def test_exact_sums_at_the_largest_squared_window_sums():
    # at W=611 an all-255 window sums to 95,196,855, whose odd square is
    # above 2**53: no double holds it, so the sums must stay integers
    pixels, roi = np.full((3, 4), 255, dtype=np.uint8), np.ones((3, 4), dtype=bool)
    img, mask, params = GrayImage(pixels), Mask(roi), MsldParams(window=611)
    assert (255 * 611**2) ** 2 > 2**53
    stats = msld_streaming(img, mask, params, "float")[1]
    assert (stats.scale_means, stats.scale_stds, stats.igc_mean, stats.igc_std) == exact_stats(pixels, roi, 611)
    assert stats.scale_stds == (0.0,) * params.n_scales
    fixed = stream_pass1(img, mask, params, "fixed")
    assert stats_tuple(fixed) == exact_fixed_stats(pixels, roi, 611, params.frac_bits)


def exact_fixed_map(pixels, roi, window, stats):
    """The fixed combined map at the ROI pixels as exact rationals: the z-scores
    of the quantized raw responses S_L * recip(L) - B * recip(W*W) and of the
    pixel against the stats, raw at frac_bits, summed over the scales of
    non-zero quantized std and scaled by recip(scale count), with no rounding."""
    f = stats.frac_bits
    window_sums, line_maxima = compact_band_sums(pixels, 0, pixels.shape[0], window)
    scale_recips, window_recip = streaming._fixed_recips(window, f)

    def quantized(v):
        return Fraction(v, 1 << f)

    scales = [(line_max[roi].tolist(), recip, quantized(mean), quantized(std))
              for line_max, recip, mean, std
              in zip(line_maxima, scale_recips, stats.scale_means, stats.scale_stds)]
    igc_mean, igc_std = quantized(stats.igc_mean), quantized(stats.igc_std)
    combine = Fraction(fx_reciprocal(len(scales) + 1, f), 1 << f)
    values = []
    for i, (b, p) in enumerate(zip(window_sums[roi].tolist(), pixels[roi].tolist())):
        z = sum((Fraction(sums[i] * recip - b * window_recip, 1 << f) - mean) / std
                for sums, recip, mean, std in scales if std)
        if igc_std:
            z += (p - igc_mean) / igc_std
        values.append(combine * z)
    return values


def assert_within_one_ulp(pixels, roi, window, resp, stats):
    exact = exact_fixed_map(pixels, roi, window, stats)
    ulp = Fraction(1, 1 << stats.frac_bits)
    for got, want in zip(resp.values[roi].tolist(), exact):
        assert abs(Fraction(got) - want) <= ulp


@given(cases(), st.sampled_from([8, 12, 18, 23, 26, 30]))
@settings(max_examples=40, deadline=None)
def test_fixed_map_within_one_ulp_of_exact_affine_form(case, frac_bits):
    # each coefficient rounded once with guard bits, the sum rounded once
    pixels, roi, window = case
    params = MsldParams(window=window, frac_bits=frac_bits)
    resp, stats, _ = msld_streaming(GrayImage(pixels), Mask(roi), params, "fixed")
    assert_within_one_ulp(pixels, roi, window, resp, stats)


@pytest.mark.parametrize("mean", [0.0, -4096.0])
def test_pass2_range_check_boundary(mean):
    # uniform scale stds at W=129, f=23: the smallest std the range check
    # accepts runs within the bound; one ulp less raises. With zero means the
    # partial sums of the products come closest to the int64 limit, with a
    # large offset the final sum that div_round_half_away_i64 doubles
    pixels = np.array([[255, 255, 0], [255, 0, 255]], dtype=np.uint8)
    roi = np.ones(pixels.shape, dtype=bool)
    img, mask, params = GrayImage(pixels), Mask(roi), MsldParams(window=129, frac_bits=23)

    def stats_at(ulps):
        return ScaleStats(scale_means=(int(mean) << 23,) * params.n_scales, scale_stds=(ulps,) * params.n_scales,
                          igc_mean=170 << 23, igc_std=120 << 23, roi_count=mask.count, frac_bits=23)

    def accepted(ulps):
        try:
            streaming._affine_terms(params, stats_at(ulps), "fixed")
        except FixedPointOverflowError:
            return False
        return True

    lo, hi = 1, 1 << 20
    assert not accepted(lo) and accepted(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if accepted(mid) else (mid, hi)
    stats = stats_at(hi)
    assert_within_one_ulp(pixels, roi, 129, stream_pass2(img, mask, params, stats, "fixed"), stats)
    with pytest.raises(FixedPointOverflowError):
        stream_pass2(img, mask, params, stats_at(lo), "fixed")


@pytest.mark.parametrize("mode", ["float", "fixed"])
def test_degenerate_scale_drops_its_term(mode):
    # the third scale's (L = 5) std set to zero in real stats: its term is
    # dropped, so its mean moves no bit of the map, which is not the full one
    rng = np.random.default_rng(8)
    pixels = rng.integers(0, 256, (12, 14), dtype=np.uint8)
    roi = rng.random((12, 14)) < 0.7
    img, mask, params = GrayImage(pixels), Mask(roi), MsldParams(window=7, frac_bits=18)
    stats = stream_pass1(img, mask, params, mode)
    means = (0, 1 << 30, -5 << 18) if mode == "fixed" else (0.0, 1e6, -5.0)

    def at_third_scale(values, value):
        return values[:2] + (value,) + values[3:]

    degenerate = [replace(stats, scale_means=at_third_scale(stats.scale_means, mean),
                          scale_stds=at_third_scale(stats.scale_stds, 0 if mode == "fixed" else 0.0))
                  for mean in (stats.scale_means[2], *means)]
    maps = [stream_pass2(img, mask, params, s, mode) for s in degenerate]
    assert all(np.array_equal(m.values, maps[0].values) for m in maps)
    assert not np.array_equal(maps[0].values, stream_pass2(img, mask, params, stats, mode).values)
    if mode == "fixed":
        assert_within_one_ulp(pixels, roi, 7, maps[0], degenerate[0])


@pytest.mark.parametrize("mode", ["float", "fixed"])
def test_pass2_term_list(mode):
    # at W = 15 pass 2 makes n + 2 = 10 multiply-accumulates per pixel: the
    # channel (the pixel), the window sums, scale 1 (the pixel again) and
    # the seven line sums above it, each read from its row of band_sums
    rng = np.random.default_rng(24)
    pixels = rng.integers(0, 256, (40, 36), dtype=np.uint8)
    roi = rng.random((40, 36)) < 0.8
    params = MsldParams(window=15)
    n = params.n_scales
    stats = stream_pass1(GrayImage(pixels), Mask(roi), params, mode)
    zero = 0 if mode == "fixed" else 0.0

    def terms_of(s):
        terms, _ = streaming._affine_terms(params, s, mode)
        (_, window_coeff), others = terms[1], terms[:1] + terms[2:]
        assert window_coeff <= 0 and all(coeff >= 0 for _, coeff in others)
        return terms

    assert [source for source, _ in terms_of(stats)] == [None, 0, None, 1, 2, 3, 4, 5, 6, 7]
    # a degenerate scale drops exactly its own term
    for s in range(n):
        dead = replace(stats, scale_stds=stats.scale_stds[:s] + (zero,) + stats.scale_stds[s + 1:])
        assert [source for source, _ in terms_of(dead)] == [None, 0] + [t or None for t in range(n) if t != s]
    # the channel and the window sums stay, at 0 when no live std feeds them
    no_scales = replace(stats, scale_stds=(zero,) * n)
    for dead, channel_live, window_live in [(stats, True, True), (no_scales, True, False),
                                            (replace(stats, igc_std=zero), False, True),
                                            (replace(no_scales, igc_std=zero), False, False)]:
        (channel, channel_coeff), (window, window_coeff), *_ = terms_of(dead)
        assert (channel, window) == (None, 0)
        assert (channel_coeff != 0, window_coeff != 0) == (channel_live, window_live)


def test_fixed_finalize_overflow_names_the_roi_count_and_width():
    # 600 ROI pixels shifted by 60 bits exceed the 64-bit range; on the
    # 3-pixel ROI of test_fixed_stats_wider_than_a_double the channel's sum
    # of squares does at f = 53
    pixels = np.random.default_rng(5).integers(0, 256, (20, 30), dtype=np.uint8)
    img, mask = GrayImage(pixels), Mask(np.ones((20, 30), dtype=bool))
    with pytest.raises(FixedPointOverflowError, match=r"^the ROI count 600 exceeds .* at frac_bits=60$"):
        stream_pass1(img, mask, MsldParams(window=3, frac_bits=60), "fixed")
    pixels = np.array([[10, 20, 31], [0, 0, 0], [0, 0, 0]], dtype=np.uint8)
    roi = np.zeros((3, 3), dtype=bool)
    roi[0] = True
    with pytest.raises(FixedPointOverflowError, match=r"^a fixed ROI sum exceeds .* at roi_count=3, frac_bits=53$"):
        stream_pass1(GrayImage(pixels), Mask(roi), MsldParams(window=3, frac_bits=53), "fixed")


def test_fixed_negative_variance_clamped_to_zero():
    # one 255 among 254s: at f=12 the channel's mean 254 + 1/36 rounds up by
    # about a fifth of an ulp, which raises its square by about 112 ulps,
    # more than the variance 35/36**2 (about 111 ulps)
    pixels = np.full((6, 6), 254, dtype=np.uint8)
    pixels[0, 0] = 255
    roi = np.ones((6, 6), dtype=bool)
    params = MsldParams(window=3, frac_bits=12)
    resp, stats, _ = msld_streaming(GrayImage(pixels), Mask(roi), params, "fixed")
    assert stats.negative_variance_clamps == 1 and stats.igc_std == 0.0
    assert stats_tuple(stats) == exact_fixed_stats(pixels, roi, 3, 12)
    assert_within_one_ulp(pixels, roi, 3, resp, stats)


def test_fixed_sums_range_check_boundary():
    # the channel's sum of squares rounded to f bits, 16 * 255**2 * 2**f,
    # fits below 2**63 at f=43 and not at f=44
    pixels = np.full((4, 4), 255, dtype=np.uint8)
    roi = np.ones((4, 4), dtype=bool)
    img, mask = GrayImage(pixels), Mask(roi)
    stats = stream_pass1(img, mask, MsldParams(window=3, frac_bits=43), "fixed")
    assert stats_tuple(stats) == exact_fixed_stats(pixels, roi, 3, 43)
    with pytest.raises(FixedPointOverflowError):
        stream_pass1(img, mask, MsldParams(window=3, frac_bits=44), "fixed")


def test_fixed_stats_wider_than_a_double():
    # the channel mean of the ROI (10, 20, 31) is 61/3, quantized to
    # round(61 * 2**f / 3): 54 bits at f=49, wider than a double's 53. Pass 1
    # returns the raw words up to f=52; at f=53 the channel's sum of squares
    # leaves the 64-bit range. Pass 2's own range check still rejects f=49
    # (exit 3): its coefficients, at f + guard bits, pass int64 from f=44 on
    pixels = np.array([[10, 20, 31], [0, 0, 0], [0, 0, 0]], dtype=np.uint8)
    roi = np.zeros((3, 3), dtype=bool)
    roi[0] = True
    img, mask = GrayImage(pixels), Mask(roi)
    for frac_bits in range(49, 53):
        stats = stream_pass1(img, mask, MsldParams(window=3, frac_bits=frac_bits), "fixed")
        assert stats_tuple(stats) == exact_fixed_stats(pixels, roi, 3, frac_bits)
    assert stats.igc_mean == div_round_half_away(61 << 52, 3)
    with pytest.raises(FixedPointOverflowError, match="a fixed ROI sum exceeds"):
        stream_pass1(img, mask, MsldParams(window=3, frac_bits=53), "fixed")
    with pytest.raises(FixedPointOverflowError, match="the fixed combined map exceeds"):
        msld_streaming(img, mask, MsldParams(window=3, frac_bits=49), "fixed")


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


def test_reference_forms_its_band_sums_once(monkeypatch):
    calls = []

    def counted(pixels, y0, y1, window):
        calls.append((y0, y1))
        return band_sums(pixels, y0, y1, window)

    monkeypatch.setattr(streaming, "band_sums", counted)
    pixels = np.random.default_rng(5).integers(0, 256, (20, 9), dtype=np.uint8)
    msld_reference(GrayImage(pixels), Mask(np.ones((20, 9), dtype=bool)), MsldParams(window=5))
    assert calls == [(0, 20)]


def recorded_bands(monkeypatch) -> list:
    """The (start, stop) rows of every band that ``streaming._bands`` yields, in order."""
    calls = []

    def recorded(*args, **kwargs):
        for band in bands(*args, **kwargs):
            calls.append((band[0].start, band[0].stop))
            yield band

    bands = streaming._bands
    monkeypatch.setattr(streaming, "_bands", recorded)
    return calls


def test_reference_forms_each_budget_band_once(monkeypatch):
    calls = recorded_bands(monkeypatch)
    pixels = np.random.default_rng(5).integers(0, 256, (200, 1024), dtype=np.uint8)
    msld_reference(GrayImage(pixels), Mask(np.ones((200, 1024), dtype=bool)), MsldParams(window=5))
    # pass 1's cap gives 80 rows at 1024 columns, and no eighth of the height caps them
    assert calls == [(0, 80), (80, 160), (160, 200)]


def test_reference_chunks_split_its_bands(monkeypatch):
    # pass 1's cap gives the reference 32-row bands at 2560 columns, which
    # pass 1 gathers and pass 2 multiplies and adds 8 rows at a time; the
    # streaming engine's bands are one chunk each
    calls, gathers = recorded_bands(monkeypatch), []
    add_pixels = streaming.StreamAccumulators._add_pixels

    def recorded(self, sums, channel, inside):
        gathers.append(inside.size)
        add_pixels(self, sums, channel, inside)

    monkeypatch.setattr(streaming.StreamAccumulators, "_add_pixels", recorded)
    rng = np.random.default_rng(14)
    pixels = rng.integers(0, 256, (50, 2560), dtype=np.uint8)
    img, mask, params = GrayImage(pixels), Mask(rng.random((50, 2560)) < 0.6), MsldParams(window=5)
    resp, stats = msld_reference(img, mask, params)
    assert calls == [(0, 32), (32, 50)]
    assert sum(gathers) == stats.roi_count and max(gathers) <= 8 * 2560
    for other, other_stats in (msld_streaming(img, mask, params, "float")[:2],
                               streaming.sweep(img, mask, params, "float", 8)):
        assert np.array_equal(resp.values, other.values)
        assert stats == other_stats


@pytest.mark.parametrize("width, height, rows", [(565, 584, 144), (2048, 1536, 40), (64, 64, 64)])
def test_reference_band_schedule_at_the_workload_sizes(monkeypatch, width, height, rows):
    # DRIVE and HRF take pass 1's cap; a 64 x 64 tile is one band
    heights = []
    monkeypatch.setattr(streaming, "sweep", lambda img, mask, params, mode, band_rows: heights.append(band_rows))
    image = GrayImage(np.zeros((height, width), dtype=np.uint8))
    msld_reference(image, Mask(np.ones((height, width), dtype=bool)), MsldParams(window=15))
    assert heights == [max(8, streaming.PASS1_BAND_PIXELS // width)]
    assert min(heights[0], height) == rows


def test_reference_registers_stay_one_budget_of_rows():
    # DRIVE size with a circular field of view: the reference keeps the sums
    # of its 144-row bands and the map, and pass 2 multiplies and adds 36 rows
    # at a time, so one float64 term register of 36 rows and the temporaries
    # of zeroing a chunk's outside pixels fit in two such registers, where a
    # 144-row register would not
    height, width = 584, 565
    pixels = np.random.default_rng(8).integers(0, 256, (height, width), dtype=np.uint8)
    y, x = np.ogrid[:height, :width]
    inside = (2 * y - height) ** 2 + (2 * x - width) ** 2 <= (0.9 * width) ** 2
    img, mask, params = GrayImage(pixels), Mask(inside), MsldParams(window=15)
    msld_reference(img, mask, params)  # fills the line-geometry cache outside the trace
    tracemalloc.start()
    try:
        msld_reference(img, mask, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows, step = max(8, streaming.PASS1_BAND_PIXELS // width), max(8, streaming.BAND_PIXELS // width)
    assert (rows, step) == (144, 36)
    kept_rows = sum(min(rows, height - y0) for y0 in range(0, height, rows) if inside[y0:y0 + rows].any())
    # uint16 sums of the padded width: the window sums and the line maxima of scales 3 to 15
    kept_sums = 2 * params.n_scales * kept_rows * (width + 14)
    assert peak <= kept_sums + 8 * height * width + 2 * 8 * step * width


def test_reference_peak_is_its_kept_sums_and_one_band():
    height, width = 300, 1024
    pixels = np.random.default_rng(8).integers(0, 256, (height, width), dtype=np.uint8)
    img, mask, params = GrayImage(pixels), Mask(np.ones((height, width), dtype=bool)), MsldParams(window=15)
    msld_reference(img, mask, params)  # fills the line-geometry cache outside the trace
    tracemalloc.start()
    try:
        msld_reference(img, mask, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = max(8, streaming.BAND_PIXELS // width)
    kept_sums = (4 + 2 * params.n_scales) * height * width
    response = 8 * height * width
    assert peak <= kept_sums + response + band_bytes(rows, width, 15) + 8 * rows * width


@pytest.mark.parametrize("mode", ["float", "fixed"])
@pytest.mark.parametrize("height, width", [(64, 64), (584, 565)])
def test_streaming_peak_is_the_response_and_its_modeled_footprint(height, width, mode):
    pixels = np.random.default_rng(8).integers(0, 256, (height, width), dtype=np.uint8)
    img, mask, params = GrayImage(pixels), Mask(np.ones((height, width), dtype=bool)), MsldParams(window=15)
    msld_streaming(img, mask, params, mode)  # fills the line-geometry cache outside the trace
    tracemalloc.start()
    try:
        msld_streaming(img, mask, params, mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    response = 8 * height * width
    assert peak <= response + streaming.memory_footprint(params, width, height).peak_total_bytes


@pytest.mark.parametrize("mode", ["float", "fixed"])
@pytest.mark.parametrize("height, width", [(64, 64), (584, 565)])
def test_pass2_peak_is_the_response_and_one_band(height, width, mode):
    # pass 2 drops each band's sums before it forms the next: its peak is the
    # map, one band's kernel buffers and its registers, the term buffer and,
    # in fixed mode, the accumulator, plus a few KB of small objects
    pixels = np.random.default_rng(8).integers(0, 256, (height, width), dtype=np.uint8)
    img, mask, params = GrayImage(pixels), Mask(np.ones((height, width), dtype=bool)), MsldParams(window=15)
    stats = stream_pass1(img, mask, params, mode)
    stream_pass2(img, mask, params, stats, mode)  # fills the line-geometry cache outside the trace
    tracemalloc.start()
    try:
        stream_pass2(img, mask, params, stats, mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = streaming.band_height(width, height)
    registers = (2 if mode == "fixed" else 1) * 8 * rows * width
    assert peak <= 8 * height * width + band_bytes(rows, width, 15) + registers + 4096


@given(cases(max_side=40), st.sampled_from(["float", "fixed"]))
@settings(max_examples=40, deadline=None)
def test_band_height_changes_no_bit(case, mode):
    # pass 1 sums exact integers and pass 2 works per pixel
    pixels, roi, window = case
    img, mask, params = GrayImage(pixels), Mask(roi), MsldParams(window=window)
    height, width = pixels.shape
    runs = [streaming.sweep(img, mask, params, mode, rows)
            for rows in (1, 8, streaming.band_height(width, height), height)]
    for resp, stats in runs[1:]:
        assert np.array_equal(resp.values, runs[0][0].values)
        assert stats == runs[0][1]


@given(st.integers(1, 5000), st.integers(1, 5000))
def test_band_height_rule(width, height):
    rows = streaming.band_height(width, height)
    assert 8 <= rows <= max(8, height // 8)
    if rows > 8:
        assert rows * width <= streaming.BAND_PIXELS


@given(st.integers(1, 5000), st.integers(1, 5000))
def test_pass1_height_rule(width, height):
    rows = streaming.band_height(width, height)
    first = streaming.pass1_height(width, height, 15)
    budget = max(8, streaming.PASS1_BAND_PIXELS // width)
    assert min(rows, height) <= first <= min(budget, height)
    # its kernel buffers fit in the response map plus one pass-2 band, and
    # one more row would not, unless the budget or the image stops it first
    room = 8 * width * height + band_bytes(rows, width, 15)
    assert band_bytes(first, width, 15) <= room
    assert first == min(budget, height) or band_bytes(first + 1, width, 15) > room


@pytest.mark.parametrize("width, height", [(565, 584), (2048, 1536)])
def test_pass1_height_is_the_budget_where_it_binds(width, height):
    # four pass-2 budgets
    assert streaming.pass1_height(width, height, 15) == {565: 144, 2048: 40}[width]


@pytest.mark.parametrize("width, height, pass1, pass2, peak", [
    (565, 584, 144, 36, 2_504_190), (2048, 1536, 40, 10, 2_533_448), (64, 64, 27, 8, 66_724),
])
def test_band_schedule_at_the_workload_sizes(width, height, pass1, pass2, peak):
    # DRIVE, HRF and a 64 x 64 tile at W = 15: the map binds pass 1 only on
    # the tile, where it still takes three kernel calls
    assert streaming.pass1_height(width, height, 15) == pass1
    assert streaming.band_height(width, height) == pass2
    assert streaming.memory_footprint(MsldParams(window=15), width, height).peak_total_bytes == peak


@pytest.mark.parametrize("height, width, share", [
    pytest.param(64, 64, 0.3, id="0.3"),
    pytest.param(64, 64, 1.0, id="1.0"),
    # DRIVE size, where the pixel cap and not the map sets the pass-1 band
    pytest.param(584, 565, None, id="565x584-fov"),
])
def test_pass1_peak_is_within_the_pass2_bound(height, width, share):
    # pass 1's taller bands spend the response map's bytes before it exists
    rng = np.random.default_rng(8)
    pixels = rng.integers(0, 256, (height, width), dtype=np.uint8)
    if share is None:
        # a circular field of view, as on a fundus image
        y, x = np.ogrid[:height, :width]
        inside = (2 * y - height) ** 2 + (2 * x - width) ** 2 <= (0.9 * width) ** 2
    else:
        inside = rng.random((height, width)) < share
    img, mask, params = GrayImage(pixels), Mask(inside), MsldParams(window=15)
    stream_pass1(img, mask, params)  # fills the line-geometry cache outside the trace
    tracemalloc.start()
    try:
        stream_pass1(img, mask, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = streaming.band_height(width, height)
    footprint = streaming.memory_footprint(params, width, height)
    words = footprint.accumulator_words + footprint.stored_stats_values
    # the response map and one pass-2 band with four registers
    pass2 = 8 * height * width + band_bytes(rows, width, 15) + 4 * 8 * rows * width + 8 * words
    assert peak <= pass2


@pytest.mark.parametrize("width, height", [(565, 584), (2048, 1536), (64, 64), (40, 100), (3, 7)])
def test_footprint_models_the_band(width, height):
    params = MsldParams(window=15)
    rows = streaming.band_height(width, height)
    first = streaming.pass1_height(width, height, 15)
    footprint = streaming.memory_footprint(params, width, height)
    words = footprint.accumulator_words + footprint.stored_stats_values
    # the taller band's kernel buffers and four registers of a pass-2 band
    taller = max(rows, first)
    registers = 4 * 8 * rows * width
    assert footprint.peak_total_bytes == band_bytes(taller, width, 15) + registers + 8 * words
    assert footprint.line_buffer_slots == 14 * width + 15
    # three sums per scale, two of the window sums, the ROI counter
    assert footprint.accumulator_words == 3 * params.n_scales + 3 == 27


def test_streaming_sweeps_bands_of_the_budget_height(monkeypatch):
    calls = recorded_bands(monkeypatch)
    pixels = np.random.default_rng(6).integers(0, 256, (100, 40), dtype=np.uint8)
    img, mask, params = GrayImage(pixels), Mask(np.ones((100, 40), dtype=bool)), MsldParams(window=5)
    msld_streaming(img, mask, params)
    stream_pass2(img, mask, params, stream_pass1(img, mask, params))
    # an eighth of 100 rows caps pass 2 below the 512 rows the budget allows
    # at 40 columns; pass 1 runs before the 32,000-byte response map and
    # spends it at 528 kernel bytes a row on 60 more rows
    first = [(0, 72), (72, 100)]
    bands = [(y0, min(y0 + 12, 100)) for y0 in range(0, 100, 12)]
    assert calls == (first + bands) * 2


@pytest.mark.parametrize("mode", ["float", "fixed"])
def test_empty_roi_rejected(mode):
    img, mask = GrayImage(np.zeros((4, 4), dtype=np.uint8)), Mask(np.zeros((4, 4), dtype=bool))
    params = MsldParams(window=3)
    for run in (lambda: msld_reference(img, mask, params),
                lambda: msld_streaming(img, mask, params, mode),
                lambda: stream_pass1(img, mask, params, mode)):
        with pytest.raises(EmptyRoiError):
            run()


def test_streaming_is_its_two_public_passes(monkeypatch):
    calls = []

    def recorded(run):
        def wrapper(*args):
            result = run(*args)
            calls.append((run.__name__, args, result))
            return result
        return wrapper

    monkeypatch.setattr(streaming, "stream_pass1", recorded(stream_pass1))
    monkeypatch.setattr(streaming, "stream_pass2", recorded(stream_pass2))
    pixels = np.random.default_rng(9).integers(0, 256, (20, 16), dtype=np.uint8)
    img, mask, params = GrayImage(pixels), Mask(pixels > 60), MsldParams(window=5)
    resp, stats, _ = msld_streaming(img, mask, params, "fixed")
    assert [name for name, *_ in calls] == ["stream_pass1", "stream_pass2"]
    (_, pass1_args, pass1_stats), (_, pass2_args, pass2_resp) = calls
    assert pass1_args == (img, mask, params, "fixed")
    assert pass2_args == (img, mask, params, pass1_stats, "fixed")
    assert stats is pass1_stats and resp is pass2_resp


@pytest.fixture
def small_run():
    pixels = np.random.default_rng(3).integers(0, 256, (10, 12), dtype=np.uint8)
    img, mask, params = GrayImage(pixels), Mask(np.ones((10, 12), dtype=bool)), MsldParams(window=5)
    return img, mask, params, stream_pass1(img, mask, params)


def entry_points(img, mask, params, stats, mode):
    return {
        "msld_streaming": lambda: msld_streaming(img, mask, params, mode),
        "stream_pass1": lambda: stream_pass1(img, mask, params, mode),
        "stream_pass2": lambda: stream_pass2(img, mask, params, stats, mode),
        "sweep": lambda: streaming.sweep(img, mask, params, mode, 8),
        "msld_reference": lambda: msld_reference(img, mask, params),
    }


@pytest.mark.parametrize("entry", ["msld_streaming", "stream_pass1", "stream_pass2", "sweep"])
def test_unknown_mode_rejected(small_run, entry):
    img, mask, params, stats = small_run
    with pytest.raises(ValueError, match="arithmetic_mode"):
        entry_points(img, mask, params, stats, "double")[entry]()


@pytest.mark.parametrize("entry", ["msld_streaming", "stream_pass1", "stream_pass2", "sweep", "msld_reference"])
def test_mask_of_other_dimensions_rejected(small_run, entry):
    img, _, params, stats = small_run
    # as many ROI pixels as the image has, transposed
    mask = Mask(np.ones((12, 10), dtype=bool))
    with pytest.raises(ValueError, match="mask dimensions"):
        entry_points(img, mask, params, stats, "float")[entry]()


@pytest.mark.parametrize("entry", ["msld_streaming", "stream_pass1", "stream_pass2", "sweep", "msld_reference"])
@pytest.mark.parametrize("case", ["uint8-mask", "int64-image", "3-D-image"])
def test_row_sources_of_other_types_rejected(small_run, entry, case):
    # bare arrays are row sources: a 0/255 mask would index by integers and a
    # wider image could overflow the sums
    img, mask, params, stats = small_run
    sources = {
        "uint8-mask": (img, mask.inside * np.uint8(255), "mask rows must be 2-D bool, got 2-D uint8"),
        "int64-image": (img.pixels.astype(np.int64), mask, "image rows must be 2-D uint8, got 2-D int64"),
        "3-D-image": (img.pixels[:, :, None], mask, "image rows must be 2-D uint8, got 3-D uint8"),
    }
    image, roi, message = sources[case]
    with pytest.raises(ValueError, match=message):
        entry_points(image, roi, params, stats, "float")[entry]()


@pytest.mark.parametrize("case", ["scales", "float-in-fixed", "fixed-in-float", "frac_bits", "roi_count"])
def test_pass2_rejects_stats_of_another_run(small_run, case):
    img, mask, params, float_stats = small_run
    fixed_stats = stream_pass1(img, mask, params, "fixed")
    stats, mode, message = {
        "scales": (stream_pass1(img, mask, MsldParams(window=7)), "float", "4 scales"),
        "float-in-fixed": (float_stats, "fixed", "frac_bits=None"),
        "fixed-in-float": (fixed_stats, "float", f"frac_bits={params.frac_bits}"),
        "frac_bits": (replace(fixed_stats, frac_bits=params.frac_bits - 1), "fixed", "frac_bits"),
        "roi_count": (replace(float_stats, roi_count=mask.count - 1), "float", "ROI pixels"),
    }[case]
    with pytest.raises(ValueError, match=message):
        stream_pass2(img, mask, params, stats, mode)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["scale_means", "scale_stds", "igc_mean", "igc_std"])
def test_stats_reject_non_finite_values(field, value):
    fields = dict(scale_means=(1.0, -2.0), scale_stds=(0.5, 0.25), igc_mean=100.0, igc_std=10.0)
    ScaleStats(**fields, roi_count=4)
    fields[field] = (fields[field][0], value) if field.startswith("scale") else value
    with pytest.raises(ValueError, match="finite"):
        ScaleStats(**fields, roi_count=4)


@pytest.mark.parametrize("change, message", [
    (dict(scale_stds=(0.5,)), "equal length"),
    (dict(roi_count=0), "roi_count"),
    (dict(scale_stds=(0.5, -0.25)), "non-negative"),
    (dict(igc_std=-10.0), "non-negative"),
    # one representation per mode: floats without frac_bits, raw 64-bit ints with it
    (dict(scale_means=(10**400, -2.0)), "finite floats"),
    (dict(frac_bits=18), "raw 64-bit ints"),
    (dict(scale_means=(1, -2), scale_stds=(1, 2), igc_mean=True, igc_std=3, frac_bits=18), "raw 64-bit ints"),
    (dict(scale_means=(1, -2), scale_stds=(1, 1 << 63), igc_mean=1, igc_std=3, frac_bits=18), "raw 64-bit ints"),
], ids=["unequal_lengths", "no_roi", "negative_scale_std", "negative_igc_std",
        "int_beyond_a_double", "float_in_fixed", "bool_in_fixed", "word_beyond_64_bits"])
def test_stats_reject_inconsistent_values(change, message):
    fields = dict(scale_means=(1.0, -2.0), scale_stds=(0.5, 0.25), igc_mean=100.0, igc_std=10.0,
                  roi_count=4)
    ScaleStats(**fields)
    with pytest.raises(ValueError, match=message):
        ScaleStats(**{**fields, **change})


def test_scale_stats_of_no_pixels_is_an_empty_roi():
    with pytest.raises(EmptyRoiError):
        scale_stats(0, 0, 0)


# sha256 of the float64 streaming-fixed maps, recorded from the pass 2
# that multiplies and accumulates coefficients rounded once with guard bits
# (each map was within one ulp of exact_fixed_map when pinned): the fixed
# datapath is bit-true.
# (seed, height, width, window, frac_bits) -> digest
FIXED_DIGESTS = {
    (0, 13, 17, 5, 18): "b5fb46f7e15247d6603f7ad68b4c1ba64f8e5fac9d0513c86a2cb846816b2880",
    (1, 20, 9, 7, 18): "b6e30834c512be262db2fbdea6c3d863a646ac3f46d9a907ecf62e2d05661a77",
    (2, 11, 11, 15, 12): "c0da673f1cc47b89aa839f22143007adfa33d573edcc4ebeee708e1a0439630e",
    (3, 32, 24, 9, 23): "986123729b8ec698d2f29453ee48aa395ac73fc3f7d328d70041ad8ad6dc6787",
    (4, 3, 40, 5, 8): "7d07c04ec597c5d8d1a5374f25e44824d0f89904f401b027a87d7457eac455f2",
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


# sha256 of the float64 msld_reference maps on the inputs of FIXED_DIGESTS,
# recorded from the builder that formed the float coefficients in doubles as
# w / (L * s), in scale order and then the channel: the float datapath is
# bit-true too, and each of its entry points gives the same bytes.
# (seed, height, width, window) -> digest
FLOAT_DIGESTS = {
    (0, 13, 17, 5): "02b5ac8373be53a5433395097aefb807e05c2e518c957f129245271f8acf5f08",
    (1, 20, 9, 7): "084257745290ff8281416df0f0cf2cbfebc2c90746b9913b130ecacbfcb1e296",
    (2, 11, 11, 15): "d4a2c6b60d851f1363d647455cc58f53e090ff88ed5fa490a324747d18a062c7",
    (3, 32, 24, 9): "62f4f40addc0b965eb7ed0b86c1740640dfe2c82abb2a66e1c6bd7346178e72f",
    (4, 3, 40, 5): "33976f418655166f5c07911b4cb9490942dfcaadc726d378222615dec34c2598",
    (5, 2, 3, 129): "96da4d7deddd1a442d909fc939c98b602c27e4e17998228b8548bfa9caaae8ff",
}


@pytest.mark.parametrize("case", sorted(FLOAT_DIGESTS))
def test_float_maps_pinned(case):
    seed, height, width, window = case
    rng = np.random.default_rng(seed)
    img = GrayImage(rng.integers(0, 256, (height, width), dtype=np.uint8))
    mask = Mask(rng.random((height, width)) < 0.6)
    params = MsldParams(window=window)
    stats = stream_pass1(img, mask, params, "float")
    for resp in (msld_reference(img, mask, params)[0], msld_streaming(img, mask, params, "float")[0],
                 stream_pass2(img, mask, params, stats, "float")):
        assert hashlib.sha256(resp.values.tobytes()).hexdigest() == FLOAT_DIGESTS[case]
