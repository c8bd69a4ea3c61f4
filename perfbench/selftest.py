"""Tests of the benchmark itself (not of msld).

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's default pytest
collection; they start the benchmark in subprocesses and take about a
minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import phantom  # noqa: E402
import run  # noqa: E402
from spans import Span, Tracer, layer_totals, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_phantom_is_byte_identical_for_a_seed():
    a = phantom.make_phantom(7, 160, 150)
    b = phantom.make_phantom(7, 160, 150)
    c = phantom.make_phantom(8, 160, 150)
    for make in (lambda p: phantom.pnm_bytes(p.rgb()), lambda p: phantom.pnm_bytes(p.vessel),
                 lambda p: phantom.mask_bytes(p.truth), lambda p: phantom.mask_bytes(p.fov)):
        assert make(a) == make(b)
    assert phantom.pnm_bytes(a.vessel) != phantom.pnm_bytes(c.vessel)


def test_phantom_truth_lies_in_fov_and_holds_vessels():
    p = phantom.make_phantom(5, *run.DRIVE_SHAPE)
    assert not (p.truth & ~p.fov).any()
    share = p.truth.sum() / p.fov.sum()
    assert 0.05 < share < 0.3
    assert 0.65 < p.fov.mean() < 0.75


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_tile_roi_holds_both_classes(tmp_path, seed):
    inputs, crop, _ = run.build_inputs("tiles", seed, tmp_path)
    assert len(inputs) == run.TILE_COUNT
    for inp in inputs:
        assert inp.shape == (run.TILE_SIZE, run.TILE_SIZE)
        labels = inp.truth[inp.roi]
        assert labels.any() and not labels.all(), inp.name
        assert 0.15 < inp.roi.mean() < 0.35
    assert crop.roi.all()


def test_benchmark_json_is_well_formed():
    s = spec()
    assert set(s) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    # hrf is runnable on demand but not a listed workload
    assert all(run.WORKLOAD_WHY[w["name"]] == w["why"] for w in s["workloads"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in s["workloads"])
    names = [m["name"] for m in s["end_to_end"] + s["per_layer"]] + [w["name"] for w in s["workloads"]]
    assert len(names) == len(set(names))
    for m in s["end_to_end"] + s["per_layer"]:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m["unit"]
        assert m["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_listed_metric_is_emitted(trace, key):
    done = run_benchmark("tiles", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = {m["name"]: m["unit"] for m in spec()[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == listed
    for name in result["metrics"]:
        assert NAME.fullmatch(name), name


def test_benchmark_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench" / f.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = run_benchmark("drive", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_self_time_subtracts_direct_children():
    spans = [Span(0, "a", 0.0, 10.0, None, 1), Span(1, "b", 1.0, 4.0, 0, 1),
             Span(2, "c", 2.0, 3.0, 1, 1), Span(3, "b", 5.0, 6.0, 0, 1)]
    assert self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    total, own = layer_totals(spans)
    assert total["b"] == 4.0 and own["b"] == 3.0


def test_wrappers_reach_names_imported_elsewhere_and_are_restored():
    run.import_program()
    from msld import cli, fixedpoint, imageio, streaming

    load_pnm, div = imageio.load_pnm, fixedpoint.div_round_half_away_i64
    update_row = streaming.StreamAccumulators.update_row
    with Tracer().installed():
        assert cli.load_pnm is imageio.load_pnm is not load_pnm
        assert streaming.div_round_half_away_i64 is fixedpoint.div_round_half_away_i64 is not div
        assert streaming.StreamAccumulators.update_row is not update_row
    assert cli.load_pnm is imageio.load_pnm is load_pnm
    assert streaming.div_round_half_away_i64 is div
    assert streaming.StreamAccumulators.update_row is update_row


def test_spans_nest_and_count_bytes(tmp_path):
    msld, _, _ = run.import_program()
    img = np.arange(35 * 40, dtype=np.uint8).reshape(35, 40)
    mask_path = tmp_path / "m.pgm"
    mask_path.write_bytes(phantom.mask_bytes(img > 10))
    tracer = Tracer()
    tracer.run_id = 4
    with tracer.installed():
        msld.load_mask(mask_path)
    names = {s.span_id: s for s in tracer.spans}
    inner = [s for s in tracer.spans if s.name == "imageio.load_pnm"]
    assert len(inner) == 1 and names[inner[0].parent].name == "imageio.load_mask"
    assert tracer.counts[4]["imageio.load_pnm.bytes"] == mask_path.stat().st_size
    assert all(s.run_id == 4 for s in tracer.spans)
