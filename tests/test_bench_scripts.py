"""The pytest-benchmark scripts under ``benchmarks/`` still run.

Their file names keep the tier-1 suite from collecting them, so a changed
signature would break them unseen. Each is loaded by path and its work
run once.
"""

import importlib.util
import math
from pathlib import Path


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"benchmarks_{name}", Path(__file__).resolve().parents[1] / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kernel_sweep_runs():
    bench = load("bench_kernel")
    bench.sweep(bench.image(64, 64))


def test_best_threshold_case_runs():
    bench = load("bench_eval")
    threshold, _ = bench.best_threshold(*bench.drive_case())
    assert math.isfinite(threshold)


def test_report_at_threshold_case_runs():
    bench = load("bench_eval")
    report = bench.report_at_threshold(*bench.drive_case(), 0.5)
    assert report.threshold == 0.5


def test_io_cases_run(tmp_path):
    bench = load("bench_io")
    path = bench.drive_file(tmp_path)
    # 5 pass-1 bands and 17 pass-2 bands, each with up to 14 halo rows
    assert bench.read_bands(path) == 2 * 584 + 14 * (5 + 17) - 4 * 7
    assert bench.load_whole(path).shape == (584, 565)
