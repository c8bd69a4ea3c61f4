import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compact_sums import compact_band_sums
from msld.detector import ORIENTATION_COUNT, MsldParams, line_offsets
from msld.imageio import GrayImage, Mask
from msld.streaming import msld_streaming


def rand_image(rng, height, width):
    return GrayImage(rng.randint(0, 256, (height, width), dtype=np.uint8))


def at_pixel(img, x, y, window):
    """Kernel outputs at (x, y) from the one-row band y: window mean and
    the maximum oriented line mean of every scale."""
    window_sums, line_maxima = compact_band_sums(img.pixels, y, y + 1, window)
    lengths = range(1, window + 1, 2)
    return (
        window_sums[0, x] / (window * window),
        [m[0, x] / length for m, length in zip(line_maxima, lengths)],
    )


def window_mean(img, x, y, window):
    return at_pixel(img, x, y, window)[0]


def raw_responses(img, x, y, params):
    avg, line_means = at_pixel(img, x, y, params.window)
    return [m - avg for m in line_means]


class TestParams:
    def test_scales_derived_from_window(self):
        p = MsldParams(window=15)
        assert p.scales == (1, 3, 5, 7, 9, 11, 13, 15)
        assert p.n_scales == 8

    @pytest.mark.parametrize("window", [2, 1, -3, 4])
    def test_bad_window_rejected(self, window):
        with pytest.raises(ValueError):
            MsldParams(window=window)

    def test_bad_frac_bits_rejected(self):
        with pytest.raises(ValueError):
            MsldParams(window=5, frac_bits=0)

    def test_integral_values_become_ints(self):
        p = MsldParams(window=np.int64(15), frac_bits=np.uint8(18))
        assert (type(p.window), type(p.frac_bits)) == (int, int)
        assert p == MsldParams(window=15, frac_bits=18)
        # fixed mode shifts and takes bit lengths of both
        pixels = np.random.default_rng(9).integers(0, 256, (6, 6), dtype=np.uint8)
        _, stats, _ = msld_streaming(GrayImage(pixels), Mask(np.ones((6, 6), dtype=bool)), p, "fixed")
        assert stats.frac_bits == 18

    @pytest.mark.parametrize("field, value", [
        ("window", 15.0), ("window", np.float64(15)), ("window", True), ("window", "15"),
        ("frac_bits", 18.0), ("frac_bits", True), ("frac_bits", np.True_), ("frac_bits", None),
    ], ids=["window-float", "window-float64", "window-bool", "window-str",
            "frac_bits-float", "frac_bits-bool", "frac_bits-numpy-bool", "frac_bits-none"])
    def test_non_integral_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            MsldParams(**{field: value})

    def test_orientations_fixed(self):
        # the count is the constant ORIENTATION_COUNT, not an option
        assert "orientations" not in {f.name for f in dataclasses.fields(MsldParams)}
        with pytest.raises(TypeError):
            MsldParams(window=5, orientations=12)


class TestLineOffsets:
    def test_horizontal(self):
        assert set(line_offsets(0, 3)) == {(-1, 0), (0, 0), (1, 0)}

    def test_vertical(self):
        assert set(line_offsets(6, 3)) == {(0, -1), (0, 0), (0, 1)}

    def test_diagonal_45(self):
        assert set(line_offsets(3, 5)) == {
            (-2, -2), (-1, -1), (0, 0), (1, 1), (2, 2)
        }

    def test_anti_diagonal_135(self):
        offsets = set(line_offsets(9, 5))
        assert offsets == {(-2, 2), (-1, 1), (0, 0), (1, -1), (2, -2)}

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            line_offsets(0, 4)
        with pytest.raises(ValueError):
            line_offsets(12, 3)

    @given(
        k=st.integers(min_value=0, max_value=11),
        length=st.sampled_from([1, 3, 5, 7, 9, 11, 13, 15]),
    )
    @settings(max_examples=200, deadline=None)
    def test_pattern_invariants(self, k, length):
        offsets = line_offsets(k, length)
        assert len(set(offsets)) == length
        assert (0, 0) in offsets
        # point symmetry about the origin
        assert set(offsets) == {(-dx, -dy) for dx, dy in offsets}
        # nesting: this pattern sits inside the next longer one
        longer = line_offsets(k, length + 2)
        assert set(offsets) < set(longer)
        # ordered along the dominant axis from -(L-1)/2 to (L-1)/2: the
        # dominant coordinate of offsets[i] is i - half, which only that
        # coordinate can be off the diagonals, and band_sums reads
        # offsets[half + j + 1] as the sample j + 1 steps out
        half = (length - 1) // 2
        steps = list(range(-half, half + 1))
        assert [dx for dx, _ in offsets] == steps or [dy for _, dy in offsets] == steps
        assert offsets[half] == (0, 0)

    def test_max_offset_within_half(self):
        for k in range(ORIENTATION_COUNT):
            for length in range(1, 16, 2):
                half = (length - 1) // 2
                for dx, dy in line_offsets(k, length):
                    assert max(abs(dx), abs(dy)) <= half


class TestWindowMean:
    def test_constant_image(self):
        img = GrayImage(np.full((7, 7), 42, dtype=np.uint8))
        assert window_mean(img, 3, 3, 5) == 42.0

    def test_single_bright_center(self):
        pixels = np.zeros((5, 5), dtype=np.uint8)
        pixels[2, 2] = 25
        assert window_mean(GrayImage(pixels), 2, 2, 5) == 1.0

    def test_matches_direct_average(self):
        rng = np.random.RandomState(5)
        img = rand_image(rng, 9, 9)
        for x, y in [(4, 4), (1, 7), (6, 2)]:
            direct = img.pixels[y - 1:y + 2, x - 1:x + 2].astype(float).mean()
            assert window_mean(img, x, y, 3) == pytest.approx(direct, abs=1e-12)

    def test_edge_clamping(self):
        rng = np.random.RandomState(6)
        img = rand_image(rng, 4, 4)
        total = 0
        for dy in range(-1, 2):
            for dx in range(-1, 2):
                total += int(img.pixels[max(0, dy), max(0, dx)])
        assert window_mean(img, 0, 0, 3) == total / 9


class TestLineMean:
    def test_constant(self):
        img = GrayImage(np.full((7, 7), 9, dtype=np.uint8))
        assert at_pixel(img, 3, 3, 5)[1] == [9.0, 9.0, 9.0]

    def test_vertical_stripe(self):
        pixels = np.zeros((7, 7), dtype=np.uint8)
        pixels[:, 3] = 100
        img = GrayImage(pixels)
        # on the stripe the vertical line wins; beside it the horizontal
        # line, like every other, crosses the stripe once
        assert at_pixel(img, 3, 3, 5)[1][-1] == 100.0
        assert at_pixel(img, 1, 3, 5)[1][-1] == 20.0


class TestRawResponse:
    def test_constant_image_all_zero(self):
        img = GrayImage(np.full((9, 9), 77, dtype=np.uint8))
        assert raw_responses(img, 4, 4, MsldParams(window=5)) == [0.0, 0.0, 0.0]

    def test_stripe_case(self):
        pixels = np.zeros((5, 5), dtype=np.uint8)
        pixels[:, 2] = 100
        img = GrayImage(pixels)
        avg, line_means = at_pixel(img, 2, 2, 5)
        assert avg == 20.0
        assert line_means[-1] == 100.0
        assert raw_responses(img, 2, 2, MsldParams(window=5))[-1] == 80.0

    def test_scale_one_degenerates_to_center(self):
        rng = np.random.RandomState(9)
        img = rand_image(rng, 9, 9)
        params = MsldParams(window=5)
        for x, y in [(4, 4), (2, 6)]:
            expected = img.pixels[y, x] - window_mean(img, x, y, 5)
            assert raw_responses(img, x, y, params)[0] == pytest.approx(expected, abs=1e-12)

    def test_response_is_max_minus_window_mean(self):
        # the kernel's sums against direct edge-clamped per-pixel loops
        rng = np.random.RandomState(10)
        img = rand_image(rng, 11, 11)
        params = MsldParams(window=7)
        window_sums, line_maxima = compact_band_sums(img.pixels, 0, 11, params.window)

        def clamped(x, y):
            return int(img.pixels[min(max(y, 0), 10), min(max(x, 0), 10)])

        for x, y in [(5, 5), (0, 0), (10, 3)]:
            assert window_sums[y, x] == sum(
                clamped(x + dx, y + dy) for dy in range(-3, 4) for dx in range(-3, 4)
            )
            for s, length in enumerate(params.scales):
                assert line_maxima[s, y, x] == max(
                    sum(clamped(x + dx, y + dy) for dx, dy in line_offsets(k, length))
                    for k in range(ORIENTATION_COUNT)
                )

    def test_constant_shift_invariance(self):
        rng = np.random.RandomState(12)
        base = rng.randint(0, 100, (9, 9), dtype=np.uint8)
        params = MsldParams(window=5)
        r0 = raw_responses(GrayImage(base), 4, 4, params)
        r1 = raw_responses(GrayImage(base + 100), 4, 4, params)
        for a, b in zip(r0, r1):
            assert a == pytest.approx(b, abs=1e-9)

    def test_quarter_turn_permutes_orientations(self):
        rng = np.random.RandomState(13)
        img = rand_image(rng, 10, 8)
        rotated = GrayImage(np.rot90(img.pixels, k=-1).copy())
        params = MsldParams(window=5)
        for x, y in [(3, 4), (5, 6), (0, 0)]:
            a = raw_responses(img, x, y, params)
            b = raw_responses(rotated, img.height - 1 - y, x, params)
            for ra, rb in zip(a, b):
                assert ra == pytest.approx(rb, abs=1e-9)
