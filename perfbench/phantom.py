"""Seeded synthetic fundus phantoms with exact ground truth.

A phantom is a vessel-intensity image (vessels bright, as in the inverted
green channel), the vessel ground truth, and a circular field-of-view mask.
Vessels are branching, curved tubes with Gaussian cross-profiles whose full
width at half maximum runs from 8 px at the roots down to 1 px at the tips;
a pixel is vessel in the ground truth exactly when its profile value reaches
one half, i.e. when it lies within half a width of a centreline sample. An
illumination gradient with vignetting and Gaussian noise are added on top.

The same (seed, size) always yields byte-identical files: every random
draw comes from one ``numpy.random.default_rng(seed)`` stream in a fixed
order, and all arithmetic is plain float64 numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAX_WIDTH = 8.0
MIN_WIDTH = 1.0
FOV_RADIUS_SHARE = 0.48
OUTSIDE_FOV_GREEN = 6
NOISE_SIGMA = 8.0
# peak vessel contrast in gray levels: base + per_px * width
CONTRAST_BASE = 12.0
CONTRAST_PER_PX = 3.0


@dataclass(frozen=True)
class Phantom:
    """Vessel-intensity image (uint8, vessels bright), truth and FOV masks."""

    vessel: np.ndarray
    truth: np.ndarray
    fov: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.vessel.shape

    def rgb(self) -> np.ndarray:
        """Fundus-like RGB whose inverted green channel is ``vessel``."""
        green = 255 - self.vessel
        red = np.clip(green.astype(np.int16) + 90, 0, 255).astype(np.uint8)
        blue = (green // 3).astype(np.uint8)
        rgb = np.stack([red, green, blue], axis=-1)
        rgb[~self.fov] = OUTSIDE_FOV_GREEN
        return rgb


def _stamp(profile: np.ndarray, x: float, y: float, sigma: float, truth_r: float,
           truth: np.ndarray, amplitude: float):
    """Max-combine one Gaussian disc into ``profile`` and its core into ``truth``."""
    h, w = profile.shape
    reach = int(math.ceil(3.0 * sigma)) + 1
    x0, x1 = max(int(x) - reach, 0), min(int(x) + reach + 1, w)
    y0, y1 = max(int(y) - reach, 0), min(int(y) + reach + 1, h)
    if x0 >= x1 or y0 >= y1:
        return
    dy2 = (np.arange(y0, y1, dtype=np.float64) - y) ** 2
    dx2 = (np.arange(x0, x1, dtype=np.float64) - x) ** 2
    d2 = dy2[:, None] + dx2[None, :]
    disc = amplitude * np.exp(-d2 / (2.0 * sigma * sigma))
    np.maximum(profile[y0:y1, x0:x1], disc, out=profile[y0:y1, x0:x1])
    truth[y0:y1, x0:x1] |= d2 <= truth_r * truth_r


def _grow_tree(rng: np.random.Generator, profile: np.ndarray, truth: np.ndarray,
               fov: np.ndarray, root: tuple[float, float], heading: float):
    """Walk one vessel tree from ``root``; branches halve the remaining width."""
    h, w = profile.shape
    scale = min(h, w)
    stack = [(root[0], root[1], heading, MAX_WIDTH * rng.uniform(0.75, 1.0), 0)]
    while stack:
        x, y, theta, width, depth = stack.pop()
        turn = 0.0
        length = 0.0
        next_branch = rng.uniform(0.08, 0.2) * scale
        while width >= MIN_WIDTH:
            sigma = width / (2.0 * math.sqrt(2.0 * math.log(2.0)))
            amplitude = CONTRAST_BASE + CONTRAST_PER_PX * width
            _stamp(profile, x, y, sigma, width / 2.0, truth, amplitude)
            turn = 0.9 * turn + rng.normal(0.0, 0.007)
            theta += turn
            x += 0.5 * math.cos(theta)
            y += 0.5 * math.sin(theta)
            length += 0.5
            width *= 1.0 - 0.35 / scale
            ix, iy = int(x), int(y)
            if not (0 <= ix < w and 0 <= iy < h) or not fov[iy, ix]:
                break
            if length >= next_branch and depth < 6:
                side = rng.choice((-1.0, 1.0))
                child = width * rng.uniform(0.45, 0.75)
                stack.append((x, y, theta + side * rng.uniform(0.4, 1.1), child, depth + 1))
                width *= rng.uniform(0.8, 0.95)
                theta -= side * rng.uniform(0.05, 0.25)
                length = 0.0
                next_branch = rng.uniform(0.06, 0.16) * scale


def make_phantom(seed: int, height: int, width: int) -> Phantom:
    """Build one phantom; the same arguments give identical arrays."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    cy, cx = (height - 1) / 2.0, (width - 1) / 2.0
    radius = FOV_RADIUS_SHARE * min(height, width)
    fov = (yy - cy) ** 2 + (xx - cx) ** 2 <= radius * radius

    profile = np.zeros((height, width), dtype=np.float64)
    truth = np.zeros((height, width), dtype=bool)
    # Roots sit on a small optic-disc ring; trees fan out across the FOV.
    disc_x = cx + rng.uniform(-0.25, 0.25) * radius
    disc_y = cy + rng.uniform(-0.1, 0.1) * radius
    n_roots = 6
    for i in range(n_roots):
        angle = 2.0 * math.pi * (i + rng.uniform(0.0, 0.6)) / n_roots
        root = (disc_x + 0.04 * radius * math.cos(angle), disc_y + 0.04 * radius * math.sin(angle))
        _grow_tree(rng, profile, truth, fov, root, angle)

    gx, gy = rng.uniform(-0.4, 0.4, size=2)
    ramp = gx * (xx - cx) / radius + gy * (yy - cy) / radius
    vignette = ((yy - cy) ** 2 + (xx - cx) ** 2) / (radius * radius)
    background = 120.0 + 25.0 * ramp + 30.0 * vignette
    noise = rng.normal(0.0, NOISE_SIGMA, size=(height, width))
    vessel = np.clip(np.rint(background + profile + noise), 0, 255).astype(np.uint8)
    vessel[~fov] = 255 - OUTSIDE_FOV_GREEN
    truth &= fov
    return Phantom(vessel=vessel, truth=truth, fov=fov)


def pnm_bytes(pixels: np.ndarray) -> bytes:
    """Binary PGM (2-D uint8) or PPM (H x W x 3 uint8) with maxval 255."""
    magic = "P6" if pixels.ndim == 3 else "P5"
    header = f"{magic}\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode("ascii")
    return header + np.ascontiguousarray(pixels, dtype=np.uint8).tobytes()


def mask_bytes(mask: np.ndarray) -> bytes:
    return pnm_bytes(np.where(mask, 255, 0).astype(np.uint8))


def write_files(directory: Path, stem: str, image: np.ndarray, truth: np.ndarray,
                roi: np.ndarray) -> dict[str, Path]:
    """Write image, truth and ROI files; returns their paths by role."""
    directory.mkdir(parents=True, exist_ok=True)
    suffix = ".ppm" if image.ndim == 3 else ".pgm"
    paths = {
        "image": directory / f"{stem}{suffix}",
        "truth": directory / f"{stem}_truth.pgm",
        "mask": directory / f"{stem}_mask.pgm",
    }
    paths["image"].write_bytes(pnm_bytes(image))
    paths["truth"].write_bytes(mask_bytes(truth))
    paths["mask"].write_bytes(mask_bytes(roi))
    return paths


def sample_tiles(rng: np.random.Generator, phantom: Phantom, count: int, size: int,
                 roi_share: float) -> list[tuple[int, int, np.ndarray]]:
    """Crops centred on vessel pixels, each with a sparse random ROI.

    Returns (top, left, roi) triples. Each ROI keeps about ``roi_share`` of
    the crop's FOV pixels and is redrawn until it holds both classes.
    """
    height, width = phantom.shape
    half = size // 2
    ys, xs = np.nonzero(phantom.truth)
    inside = (ys >= half) & (ys < height - half) & (xs >= half) & (xs < width - half)
    ys, xs = ys[inside], xs[inside]
    if ys.size == 0:
        raise ValueError("phantom has no vessel pixel far enough from the border")
    tiles = []
    while len(tiles) < count:
        pick = int(rng.integers(ys.size))
        top, left = int(ys[pick]) - half, int(xs[pick]) - half
        fov = phantom.fov[top:top + size, left:left + size]
        truth = phantom.truth[top:top + size, left:left + size]
        roi = fov & (rng.random((size, size)) < roi_share)
        vessels = int(np.count_nonzero(truth[roi]))
        if 0 < vessels < int(np.count_nonzero(roi)):
            tiles.append((top, left, roi))
    return tiles
