"""Timing of ``metrics.best_threshold`` and ``metrics.report_at_threshold``,
the work of ``msld eval`` without and with ``--threshold``.

Run with pytest-benchmark (the file name keeps the tier-1 suite from
collecting it):

    PYTHONPATH=src python -m pytest benchmarks/bench_eval.py

The map is a seeded 565x584 (DRIVE size) grid of mostly distinct scores,
with about 13 % vessel truth and a circular ROI of about 229,000 pixels,
so the sort and the per-group counts of the ROI scores set the time.
"""

import numpy as np

from msld import Mask, ResponseMap
from msld.metrics import best_threshold, report_at_threshold


def drive_case():
    rng = np.random.default_rng(0)
    y, x = np.ogrid[:584, :565]
    roi = (y - 292) ** 2 + (x - 282) ** 2 < 270 ** 2
    truth = rng.random((584, 565)) < 0.13
    values = rng.standard_normal((584, 565)) + truth
    return ResponseMap(np.where(roi, values, 0.0)), Mask(truth), Mask(roi)


def test_best_threshold(benchmark):
    benchmark(best_threshold, *drive_case())


def test_report_at_threshold(benchmark):
    benchmark(report_at_threshold, *drive_case(), 0.5)
