"""Independent brute-force evaluator used as the oracle for the engines.

Everything here is deliberately written with direct nested loops over
plain Python lists and shares no code with the package under test: its
own edge clamping, its own line rasterization, its own two-pass
statistics, its own standardize-and-average step.
"""

import math


def _round_half_away(v):
    if v >= 0.0:
        return math.floor(v + 0.5)
    return math.ceil(v - 0.5)


def _line_points(k, length):
    theta = math.radians(15.0 * k)
    c, s = math.cos(theta), math.sin(theta)
    half = (length - 1) // 2
    points = []
    for j in range(-half, half + 1):
        if abs(c) >= abs(s):
            points.append((j, _round_half_away(j * (s / c))))
        else:
            points.append((_round_half_away(j * (c / s)), j))
    return points


def combined_map_bruteforce(pixels, roi, window):
    """Combined standardized response of every ROI pixel, 0 elsewhere.

    pixels and roi are lists of row lists; returns the same nested-list shape.
    pixels is copied to plain Python ints on entry, so rows of NumPy uint8
    give the same map as lists of ints: the sums never wrap at 256.
    """
    pixels = [[int(v) for v in row] for row in pixels]
    height = len(pixels)
    width = len(pixels[0])
    half = (window - 1) // 2
    scales = list(range(1, window + 1, 2))
    n_scales = len(scales)

    def sample(x, y):
        if x < 0:
            x = 0
        elif x >= width:
            x = width - 1
        if y < 0:
            y = 0
        elif y >= height:
            y = height - 1
        return pixels[y][x]

    patterns = [[_line_points(k, length) for k in range(12)] for length in scales]

    raw = [[[0.0] * width for _ in range(height)] for _ in range(n_scales)]
    for y in range(height):
        for x in range(width):
            total = 0
            for dy in range(-half, half + 1):
                for dx in range(-half, half + 1):
                    total += sample(x + dx, y + dy)
            window_avg = total / (window * window)
            for si, length in enumerate(scales):
                best = None
                for k in range(12):
                    line_total = 0
                    for dx, dy in patterns[si][k]:
                        line_total += sample(x + dx, y + dy)
                    line_avg = line_total / length
                    if best is None or line_avg > best:
                        best = line_avg
                raw[si][y][x] = best - window_avg

    def roi_mean_std(grid):
        values = [grid[y][x] for y in range(height) for x in range(width) if roi[y][x]]
        n = len(values)
        mean = sum(values) / n
        var = sum((v - mean) ** 2 for v in values) / n
        return mean, math.sqrt(var)

    igc_mean, igc_std = roi_mean_std(pixels)
    scale_stats = [roi_mean_std(raw[si]) for si in range(n_scales)]

    out = [[0.0] * width for _ in range(height)]
    for y in range(height):
        for x in range(width):
            if not roi[y][x]:
                continue
            total = 0.0
            for si in range(n_scales):
                mean, std = scale_stats[si]
                if std >= 1e-12:
                    total += (raw[si][y][x] - mean) / std
            if igc_std >= 1e-12:
                total += (pixels[y][x] - igc_mean) / igc_std
            out[y][x] = total / (n_scales + 1)
    return out


def band_sums_bruteforce(pixels, y0, y1, window):
    """Window sums and per-length maxima of the 12 oriented line sums of
    rows y0..y1-1, by direct loops over edge-clamped samples.

    Returns the window sums as a list of rows and the maxima as one such
    grid per line length 3, 5, ..., window; every value is a Python int.
    """
    pixels = [[int(v) for v in row] for row in pixels]
    height = len(pixels)
    width = len(pixels[0])
    half = (window - 1) // 2

    def sample(x, y):
        return pixels[min(max(y, 0), height - 1)][min(max(x, 0), width - 1)]

    window_sums = [[sum(sample(x + dx, y + dy) for dy in range(-half, half + 1) for dx in range(-half, half + 1))
                    for x in range(width)] for y in range(y0, y1)]
    maxima = []
    for length in range(3, window + 1, 2):
        patterns = [_line_points(k, length) for k in range(12)]
        maxima.append([[max(sum(sample(x + dx, y + dy) for dx, dy in points) for points in patterns)
                        for x in range(width)] for y in range(y0, y1)])
    return window_sums, maxima
