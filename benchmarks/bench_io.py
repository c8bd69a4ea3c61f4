"""Timings of reading a DRIVE-size P6 input: band by band, as the engines
read it through ``imageio.open_rows``, against loading it whole with
``load_pnm`` and ``extract_inverted_green``.

Run with pytest-benchmark (the file name keeps the tier-1 suite from
collecting it):

    PYTHONPATH=src python -m pytest benchmarks/bench_io.py

(``--benchmark-disable`` runs each case once.) ``read_bands`` reads the
rows ``stream_pass1`` and ``stream_pass2`` read at W = 15: pass 1's bands
of ``streaming.pass1_height`` rows (144 at 565 columns) and pass 2's bands
of ``streaming.band_height`` rows (36), each with the window's halo of
seven rows above and below, clamped at the image's edges. A band read is
one seek and one read of its RGB rows and one inverted-green extraction,
so the file's bytes are read about 2.5 times over against once for the
whole load. ``msld_streaming``'s pass 2 reads only the bands after the
records whose ROI values its pass 1 kept, and the kept records' mask rows.
"""

from pathlib import Path

import numpy as np

from msld.imageio import RgbImage, extract_inverted_green, load_pnm, open_rows, save_pnm
from msld.streaming import band_height, pass1_height

WIDTH, HEIGHT, WINDOW = 565, 584, 15


def drive_file(directory: Path) -> Path:
    """A random 565 x 584 P6 image in directory."""
    path = Path(directory) / "drive.ppm"
    save_pnm(RgbImage(np.random.default_rng(0).integers(0, 256, (HEIGHT, WIDTH, 3), dtype=np.uint8)), path)
    return path


def read_bands(path) -> int:
    """Read both passes' bands with their halo rows; returns the rows read."""
    half = WINDOW // 2
    read = 0
    with open_rows(path) as rows:
        height = rows.shape[0]
        for band_rows in (pass1_height(WIDTH, HEIGHT, WINDOW), band_height(WIDTH, HEIGHT)):
            for y0 in range(0, height, band_rows):
                read += len(rows[max(y0 - half, 0):min(y0 + band_rows + half, height)])
    return read


def load_whole(path) -> np.ndarray:
    return extract_inverted_green(load_pnm(path)).pixels


def test_band_reads(benchmark, tmp_path):
    benchmark(read_bands, drive_file(tmp_path))


def test_whole_load(benchmark, tmp_path):
    benchmark(load_whole, drive_file(tmp_path))
