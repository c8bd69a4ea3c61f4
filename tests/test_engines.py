"""Every engine entry point against the brute-force oracle, plus pinned
fixed-point outputs."""

import hashlib
import math
import tracemalloc
import weakref
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


def banded_sweep(img, mask, params, mode, band_rows):
    """``streaming.sweep`` over bands of band_rows rows, with its records of
    one budget of rows and its room with no bound."""
    pixels, inside = streaming._check_inputs(img, mask, mode)
    step = max(8, streaming.BAND_PIXELS // pixels.shape[1])
    stats, resp = streaming._two_passes(pixels, inside, params, mode, band_rows, step, math.inf)
    return resp, stats


def test_reference_forms_each_budget_band_once(monkeypatch):
    calls = recorded_bands(monkeypatch)
    pixels = np.random.default_rng(5).integers(0, 256, (200, 1024), dtype=np.uint8)
    msld_reference(GrayImage(pixels), Mask(np.ones((200, 1024), dtype=bool)), MsldParams(window=5))
    # pass 1's cap gives 80 rows at 1024 columns, and no eighth of the height caps them
    assert calls == [(0, 80), (80, 160), (160, 200)]


def test_reference_chunks_split_its_bands(monkeypatch):
    # pass 1's cap gives the reference 32-row bands at 2560 columns, which
    # pass 1 gathers 8 rows of ROI values at a time; pass 2 combines the kept
    # values and forms no band again. The streaming engine's bands are one
    # record each
    calls, gathers = recorded_bands(monkeypatch), []
    add_pixels = streaming.StreamAccumulators._add_pixels

    def recorded(self, values, pixels):
        gathers.append(pixels.size)
        assert values.shape == (params.n_scales, pixels.size)
        add_pixels(self, values, pixels)

    monkeypatch.setattr(streaming.StreamAccumulators, "_add_pixels", recorded)
    rng = np.random.default_rng(14)
    pixels = rng.integers(0, 256, (50, 2560), dtype=np.uint8)
    img, mask, params = GrayImage(pixels), Mask(rng.random((50, 2560)) < 0.6), MsldParams(window=5)
    resp, stats = msld_reference(img, mask, params)
    assert calls == [(0, 32), (32, 50)]
    assert sum(gathers) == stats.roi_count and max(gathers) <= 8 * 2560
    for other, other_stats in (msld_streaming(img, mask, params, "float")[:2],
                               banded_sweep(img, mask, params, "float", 8)):
        assert np.array_equal(resp.values, other.values)
        assert stats == other_stats


@pytest.mark.parametrize("width, height, rows, band, step", [
    pytest.param(565, 584, 144, 144, 36, id="565-584-144"),
    pytest.param(2048, 1536, 40, 40, 10, id="2048-1536-40"),
    pytest.param(64, 64, 64, 1280, 320, id="64-64-64"),
])
def test_reference_band_schedule_at_the_workload_sizes(monkeypatch, width, height, rows, band, step):
    # DRIVE and HRF take pass 1's cap; a 64 x 64 tile is one band. The
    # (band rows, record rows, room) that sweep hands _two_passes
    schedules = []
    monkeypatch.setattr(streaming, "_two_passes", lambda *args: schedules.append(args[4:]) or (None, None))
    image = GrayImage(np.zeros((height, width), dtype=np.uint8))
    msld_reference(image, Mask(np.ones((height, width), dtype=bool)), MsldParams(window=15))
    assert schedules == [(band, step, math.inf)]
    assert band == max(8, streaming.PASS1_BAND_PIXELS // width)
    assert min(band, height) == rows


def kept_values(params, roi_count):
    """Bytes of the ROI values pass 1 keeps: every scale's uint16 sums and the pixel."""
    return (2 * params.n_scales + 1) * roi_count


# the ufunc's buffer of float64 casts when pass 2 multiplies an integer
# source at most this big
CAST_BUFFER = 8 * np.getbufsize()


def test_reference_peak_holds_no_map_beside_its_kept_values():
    # DRIVE size with a 0.9-circle field of view: pass 2 combines the kept
    # values into 8 bytes a pixel before it allocates the map, so the peak is
    # pass 1's, its kept values, one 144-row band's kernel buffers and the two
    # registers of a 36-row record, and not the map beside the kept values
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
    kept = kept_values(params, int(inside.sum()))
    assert peak <= kept + band_bytes(rows, width, 15) + 2 * 8 * step * width


def test_reference_peak_is_its_kept_sums_and_one_band():
    # a full-frame ROI: 17 bytes of kept values per pixel at W = 15, more
    # than the 16 * (1024 + 14) / 1024 bytes of the padded sums a kept band
    # held; then the map, the two compact float64 registers of one budget of
    # rows, as in the test above, and the kept records' objects: two arrays,
    # their tuple and their slice of rows each, and 4 KB of the engine's
    # small objects
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
    step = max(8, streaming.BAND_PIXELS // width)
    response = 8 * height * width
    registers = 2 * 8 * step * width
    objects = -(-height // step) * 4 * 160 + 4096
    assert peak <= kept_values(params, height * width) + response + registers + CAST_BUFFER + objects


def test_reference_peak_does_not_grow_with_its_band_height():
    # the ROI is six of 200 rows: the reference keeps their ROI values, not
    # the sums of the bands that hold them, so its peak is the map's and
    # pass 2's up to the height where pass 1's kernel buffers pass the map
    height, width = 200, 120
    pixels = np.random.default_rng(4).integers(0, 256, (height, width), dtype=np.uint8)
    inside = np.zeros((height, width), dtype=bool)
    inside[90:96] = True
    img, mask, params = GrayImage(pixels), Mask(inside), MsldParams(window=15)
    peaks = []
    for rows in (8, 16, 32, 48):
        assert band_bytes(rows, width, 15) <= 8 * height * width
        banded_sweep(img, mask, params, "float", rows)  # fills the line-geometry cache outside the trace
        tracemalloc.start()
        try:
            banded_sweep(img, mask, params, "float", rows)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) - min(peaks) <= 1024


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


@pytest.mark.parametrize("mode", ["float", "fixed"])
@pytest.mark.parametrize("height, width", [(100, 40), (64, 64), (584, 565)])
def test_streaming_forms_a_band_after_the_last_bands_sums_are_released(monkeypatch, height, width, mode):
    # each pass, and the splitter that cuts pass 1's bands into records,
    # drops a band's sums before the next band is formed
    formed = []

    def watched(*args):
        assert all(ref() is None for ref in formed)
        sums = band_sums(*args)
        formed.append(weakref.ref(sums))
        return sums

    monkeypatch.setattr(streaming, "band_sums", watched)
    pixels = np.random.default_rng(7).integers(0, 256, (height, width), dtype=np.uint8)
    msld_streaming(GrayImage(pixels), Mask(np.ones((height, width), dtype=bool)), MsldParams(window=5), mode)
    assert len(formed) > 2


@given(cases(max_side=40), st.sampled_from(["float", "fixed"]))
@settings(max_examples=40, deadline=None)
def test_band_height_changes_no_bit(case, mode):
    # pass 1 sums exact integers and pass 2 works per pixel
    pixels, roi, window = case
    img, mask, params = GrayImage(pixels), Mask(roi), MsldParams(window=window)
    height, width = pixels.shape
    runs = [banded_sweep(img, mask, params, mode, rows)
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
    # its kernel buffers fit in the response map, so that with one pass-2
    # band's kept values they fit in the map plus that band, and one more
    # row would not, unless the budget or the image stops it first or a
    # pass-2 band already passes the map
    room = 8 * width * height
    assert band_bytes(first, width, 15) <= room or first == min(rows, height)
    assert first == min(budget, height) or band_bytes(first + 1, width, 15) > room


@pytest.mark.parametrize("width, height, pass1, pass2, peak", [
    pytest.param(565, 584, 144, 36, 3_144_156, id="565x584"),
    pytest.param(2048, 1536, 40, 10, 3_214_096, id="2048x1536"),
    pytest.param(64, 64, 16, 8, 69_320, id="64x64"),
])
def test_band_schedule_at_the_workload_sizes(width, height, pass1, pass2, peak):
    # DRIVE, HRF and a 64 x 64 tile at W = 15: the map binds pass 1 only on
    # the tile, where it takes four kernel calls
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
    # the taller band's kernel buffers, the kept values of one pass-2 band's
    # kernel bytes and one float64 term register, and four registers of a
    # pass-2 band
    taller = max(rows, first)
    kept = band_bytes(rows, width, 15) + 8 * rows * width
    registers = 4 * 8 * rows * width
    assert footprint.peak_total_bytes == band_bytes(taller, width, 15) + kept + registers + 8 * words
    assert footprint.line_buffer_slots == 14 * width + 15
    # three sums per scale, two of the window sums, the ROI counter
    assert footprint.accumulator_words == 3 * params.n_scales + 3 == 27


def test_streaming_sweeps_bands_of_the_budget_height(monkeypatch):
    calls, gathers = recorded_bands(monkeypatch), []
    update_row = streaming.StreamAccumulators.update_row

    def recorded(self, values, pixels):
        gathers.append(values.shape)
        update_row(self, values, pixels)

    monkeypatch.setattr(streaming.StreamAccumulators, "update_row", recorded)
    pixels = np.random.default_rng(6).integers(0, 256, (100, 40), dtype=np.uint8)
    img, mask, params = GrayImage(pixels), Mask(np.ones((100, 40), dtype=bool)), MsldParams(window=5)
    msld_streaming(img, mask, params)
    stream_pass2(img, mask, params, stream_pass1(img, mask, params))
    # an eighth of 100 rows caps pass 2 below the 512 rows the budget allows
    # at 40 columns; pass 1 runs before the 32,000-byte response map and
    # spends it at 528 kernel bytes a row on 57 rows. Its 12-row records
    # hold 480 ROI pixels of 7 bytes, of which a 12-row band's 8,064 kernel
    # bytes and 3,840-byte term register keep three, so pass 2 forms the
    # bands from row 36 on again, where stream_pass2 forms them all
    first = [(0, 57), (57, 100)]
    bands = [(y0, min(y0 + 12, 100)) for y0 in range(0, 100, 12)]
    assert calls == first + bands[3:] + first + bands
    records = [(3, 12 * 40)] * 4 + [(3, 9 * 40)] + [(3, 12 * 40)] * 3 + [(3, 7 * 40)]
    assert gathers == records * 2


@pytest.mark.parametrize("mode", ["float", "fixed"])
def test_pass2_forms_no_band_on_a_tile(monkeypatch, mode):
    # a 64 x 64 tile with a 0.3 random ROI at W = 15, the tiles workload's
    # shape: its 1,161 ROI pixels keep 19,737 bytes of values within the
    # 21,472-byte room, and each 16-row pass-1 band holds fewer than the 512
    # ROI pixels of an 8-row record, so it is summed whole and pass 2 forms
    # no band again
    rng = np.random.default_rng(8)
    pixels = rng.integers(0, 256, (64, 64), dtype=np.uint8)
    roi = rng.random((64, 64)) < 0.3
    img, mask, params = GrayImage(pixels), Mask(roi), MsldParams(window=15)
    count = int(roi.sum())
    assert kept_values(params, count) <= streaming._room(64, 64, 15) == 21_472
    calls, records = recorded_bands(monkeypatch), []
    update_row = streaming.StreamAccumulators.update_row

    def recorded(self, values, pixels):
        records.append(pixels.size)
        update_row(self, values, pixels)

    monkeypatch.setattr(streaming.StreamAccumulators, "update_row", recorded)
    msld_streaming(img, mask, params, mode)  # fills the line-geometry cache outside the trace
    assert calls == [(y0, y0 + 16) for y0 in range(0, 64, 16)]
    assert len(records) == 4 and sum(records) == count
    passes = streaming.streaming_passes(img, mask, params, mode)
    next(passes)
    tracemalloc.start()
    try:
        next(passes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the map and the combined float64 values of every ROI pixel; 2 KB holds
    # each record's array and tuple objects (under 200 bytes), the affine
    # terms (under 400 bytes) and the views the scatter takes
    assert peak <= 8 * 64 * 64 + 8 * count + 2048


@pytest.mark.parametrize("mode", ["float", "fixed"])
def test_empty_roi_rejected(mode):
    img, mask = GrayImage(np.zeros((4, 4), dtype=np.uint8)), Mask(np.zeros((4, 4), dtype=bool))
    params = MsldParams(window=3)
    for run in (lambda: msld_reference(img, mask, params),
                lambda: msld_streaming(img, mask, params, mode),
                lambda: stream_pass1(img, mask, params, mode)):
        with pytest.raises(EmptyRoiError):
            run()


@st.composite
def banded_cases(draw):
    """Images of 9 to 60 rows of up to 30 pixels, so of at least two
    records, whose ROI leaves whole bands of rows empty, which no pass
    forms, at W = 3 to 7."""
    height = draw(st.integers(9, 60))
    width = draw(st.integers(1, 30))
    window = draw(st.sampled_from([3, 5, 7]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pixels = rng.integers(0, 256, (height, width), dtype=np.uint8)
    roi = rng.random((height, width)) < draw(st.floats(0.1, 1.0))
    for y0 in range(0, height, 4):
        if rng.random() < 0.4:
            roi[y0:y0 + draw(st.sampled_from([4, 8, 12]))] = False
    roi[rng.integers(height), rng.integers(width)] = True
    return pixels, roi, window


@given(banded_cases(), st.sampled_from(["float", "fixed"]), st.data())
@settings(max_examples=40, deadline=None)
def test_streaming_is_its_public_passes_bit_for_bit(case, mode, data):
    # the room holds the ROI values of the rows above a cut below the first
    # 8-row record, so it ends mid-image unless no ROI pixel lies below: pass
    # 2 combines the kept records and forms the bands after them again, and
    # gives the bits of stream_pass2, which forms every band
    pixels, roi, window = case
    img, mask, params = GrayImage(pixels), Mask(roi), MsldParams(window=window)
    room = kept_values(params, int(roi[:data.draw(st.integers(8, len(roi)))].sum()))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(streaming, "_room", lambda width, height, window: room)
        resp, stats, _ = msld_streaming(img, mask, params, mode)
    assert stats == stream_pass1(img, mask, params, mode)
    assert np.array_equal(resp.values, stream_pass2(img, mask, params, stats, mode).values)


@given(banded_cases(), st.integers(1, 24), st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_split_passes_a_band_whole_while_its_roi_fits(case, band_rows, rows):
    # a record's registers are per ROI pixel: a band is one record while it
    # holds at most rows * width of them, and else is cut into records of
    # at most rows rows, which cover its rows in order and give its ROI values
    pixels, roi, window = case
    width = pixels.shape[1]
    bands = list(streaming._bands(pixels, roi, window, band_rows))
    records = iter(list(streaming._split(bands, rows)))
    for span, band_roi, channel, sums in bands:
        mine, y = [], span.start
        while y < span.stop:
            record = next(records)
            assert record[0].start == y
            mine.append(record)
            y = record[0].stop
        assert y == span.stop
        if np.count_nonzero(band_roi) <= rows * width:
            assert [record[0] for record in mine] == [span]
        else:
            assert all(record[0].stop - record[0].start <= rows for record in mine)
        values, pixel_values = zip(*(streaming._roi_values(*record[1:]) for record in mine))
        expected = streaming._roi_values(band_roi, channel, sums)
        assert np.array_equal(np.concatenate(values, axis=1), expected[0])
        assert np.array_equal(np.concatenate(pixel_values), expected[1])
    assert next(records, None) is None


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
        "sweep": lambda: streaming.sweep(img, mask, params, mode),
        "msld_reference": lambda: msld_reference(img, mask, params),
        "StreamAccumulators.finalize": lambda: streaming.StreamAccumulators(params).finalize(mode),
    }


@pytest.mark.parametrize("entry", ["msld_streaming", "stream_pass1", "stream_pass2", "sweep",
                                   "StreamAccumulators.finalize"])
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
