import argparse
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from msld.cli import (
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_VALIDATION,
    RESPONSE_BLOCK_PIXELS,
    main,
    read_response_file,
    write_response_file,
)
import msld
from msld.cli import build_parser
from msld.detector import MsldParams
from msld.imageio import (
    GrayImage,
    Mask,
    PnmRows,
    RgbImage,
    encode_pnm,
    extract_inverted_green,
    full_mask,
    load_mask,
    load_pnm,
    save_pnm,
)
from msld.metrics import binarize
from msld.reference import ResponseMap, msld_reference
from msld.streaming import band_height, msld_streaming


def report(capsys) -> dict:
    pairs = {}
    for line in capsys.readouterr().out.splitlines():
        key, _, value = line.partition(" ")
        pairs[key] = value
    return pairs


@pytest.fixture
def inputs(tmp_path):
    """A 24x20 image with one bright vertical vessel, its truth and a ROI."""
    rng = np.random.default_rng(0)
    pixels = rng.integers(90, 110, (24, 20), dtype=np.uint8)
    pixels[:, 9:11] += 60
    truth = np.zeros((24, 20), dtype=np.uint8)
    truth[:, 9:11] = 255
    roi = np.full((24, 20), 255, dtype=np.uint8)
    roi[:2] = 0
    paths = {name: tmp_path / f"{name}.pgm" for name in ("image", "truth", "mask")}
    for name, values in (("image", pixels), ("truth", truth), ("mask", roi)):
        save_pnm(GrayImage(values), paths[name])
    return paths


ENGINES = ("reference", "streaming-float", "streaming-fixed")


def segment_args(paths, out, *extra):
    return ["segment", "--input", str(paths["image"]), "--mask", str(paths["mask"]),
            "--window", "5", "--out", str(out), *extra]


@pytest.mark.parametrize("engine", ENGINES)
def test_segment_eval_round_trip(inputs, tmp_path, capsys, engine):
    out = tmp_path / "resp.msldf"
    assert main(segment_args(inputs, out, "--engine", engine, "--threshold", "0.5")) == EXIT_OK
    resp = read_response_file(out)
    assert (resp.height, resp.width) == (24, 20)
    assert (resp.values[:2] == 0).all()
    seg = load_mask(tmp_path / "resp.msldf.seg.pgm")
    assert np.array_equal(seg.inside, resp.values > 0.5)
    capsys.readouterr()
    assert main(["eval", "--input", str(out), "--truth", str(inputs["truth"]),
                 "--mask", str(inputs["mask"])]) == EXIT_OK
    assert float(report(capsys)["auc"]) > 0.9


@pytest.mark.parametrize("shape", [(6, 8), (1, 11), (11, 1)])
def test_segment_of_degenerate_images(tmp_path, capsys, shape):
    # a window wider than the image; a constant image has no live term at
    # all, so its map is zero and ranks every pixel alike
    constant = shape == (6, 8)
    pixels = (np.full(shape, 77, dtype=np.uint8) if constant
              else np.random.default_rng(3).integers(0, 256, shape, dtype=np.uint8))
    save_pnm(GrayImage(pixels), tmp_path / "image.pgm")
    for engine in ENGINES:
        assert main(["segment", "--input", str(tmp_path / "image.pgm"), "--window", "15",
                     "--engine", engine, "--out", str(tmp_path / f"{engine}.msldf")]) == EXIT_OK, engine
    assert ((tmp_path / "reference.msldf").read_bytes()
            == (tmp_path / "streaming-float.msldf").read_bytes())
    if constant:
        truth = np.zeros(shape, dtype=np.uint8)
        truth[:, :4] = 255
        save_pnm(GrayImage(truth), tmp_path / "truth.pgm")
        for engine in ENGINES:
            out = tmp_path / f"{engine}.msldf"
            assert not read_response_file(out).values.any(), engine
            capsys.readouterr()
            assert main(["eval", "--input", str(out), "--truth", str(tmp_path / "truth.pgm")]) == EXIT_OK
            pairs = report(capsys)
            assert (pairs["auc"], pairs["threshold"]) == ("0.500000", "0.0"), engine


def test_bench_and_segment_report_the_same_footprint(inputs, tmp_path, capsys, monkeypatch):
    # and bench times the passes segment runs: pass 2 forms no band the
    # values pass 1 kept cover, so both form the same bands
    keys = ("line_buffer_slots", "accumulator_words", "stored_stats_values", "peak_total_bytes")
    calls = []
    band_sums = msld.streaming.band_sums
    monkeypatch.setattr(msld.streaming, "band_sums", lambda *band: calls.append(band[1:3]) or band_sums(*band))
    for engine in ("streaming-float", "streaming-fixed"):
        args = ["--input", str(inputs["image"]), "--window", "5", "--engine", engine]
        calls.clear()
        assert main(["segment", *args, "--out", str(tmp_path / "r.msldf")]) == EXIT_OK
        seg, seg_calls = report(capsys), calls[:]
        calls.clear()
        assert main(["bench", *args]) == EXIT_OK
        bench = report(capsys)
        assert {k: seg[k] for k in keys} == {k: bench[k] for k in keys}
        assert int(seg["line_buffer_slots"]) == 4 * 20 + 5
        assert calls == seg_calls
        assert "rep0_pass1_seconds" in bench and "rep0_pass2_seconds" in bench


@pytest.mark.parametrize("engine", ["streaming-float", "streaming-fixed"])
def test_tile_segment_forms_at_most_six_bands(tmp_path, capsys, monkeypatch, engine):
    # a 64 x 64 tile with a 0.3 random ROI at W = 15: pass 1 forms four
    # 16-row bands and keeps the ROI values of six 8-row records in one
    # 8-row band's 17,376 kernel bytes, so pass 2 forms two bands again,
    # where both passes formed three and eight
    rng = np.random.default_rng(11)
    save_pnm(GrayImage(rng.integers(0, 256, (64, 64), dtype=np.uint8)), tmp_path / "tile.pgm")
    save_pnm(GrayImage((rng.random((64, 64)) < 0.3) * np.uint8(255)), tmp_path / "roi.pgm")
    calls = []
    band_sums = msld.streaming.band_sums
    monkeypatch.setattr(msld.streaming, "band_sums", lambda *band: calls.append(band) or band_sums(*band))
    assert main(["segment", "--input", str(tmp_path / "tile.pgm"), "--mask", str(tmp_path / "roi.pgm"),
                 "--engine", engine, "--out", str(tmp_path / "r.msldf")]) == EXIT_OK
    capsys.readouterr()
    assert len(calls) <= 6


@pytest.mark.parametrize("reps", [0, -3])
def test_bench_rejects_reps_below_one(inputs, tmp_path, capsys, reps):
    report_path = tmp_path / "report.txt"
    assert main(["bench", "--input", str(inputs["image"]), "--window", "5",
                 "--reps", str(reps), "--report", str(report_path)]) == EXIT_VALIDATION
    assert capsys.readouterr().out == ""
    assert not report_path.exists()


def test_bench_of_the_reference_reports_only_seconds(inputs, capsys):
    assert main(["bench", "--input", str(inputs["image"]), "--window", "5",
                 "--engine", "reference", "--reps", "2"]) == EXIT_OK
    pairs = report(capsys)
    assert list(pairs) == ["engine", "window", "reps", "rep0_seconds", "rep1_seconds"]
    assert pairs["engine"] == "reference"


def test_segment_of_a_ppm_is_segment_of_its_inverted_green(tmp_path):
    rgb = RgbImage(np.random.default_rng(5).integers(0, 256, (12, 10, 3), dtype=np.uint8))
    save_pnm(rgb, tmp_path / "image.ppm")
    save_pnm(extract_inverted_green(rgb), tmp_path / "green.pgm")
    for name in ("image.ppm", "green.pgm"):
        assert main(["segment", "--input", str(tmp_path / name), "--window", "3",
                     "--out", str(tmp_path / f"{name}.msldf")]) == EXIT_OK
    assert (tmp_path / "image.ppm.msldf").read_bytes() == (tmp_path / "green.pgm.msldf").read_bytes()


@pytest.mark.parametrize("name", ["image", "mask"])
def test_segment_reads_an_input_from_a_pipe_whole(inputs, tmp_path, name):
    # a pipe cannot seek, so its rows cannot be read band by band
    assert main(segment_args(inputs, tmp_path / "file.msldf")) == EXIT_OK
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(inputs[name].read_bytes()))
    writer.start()
    try:
        assert main(segment_args({**inputs, name: fifo}, tmp_path / "pipe.msldf")) == EXIT_OK
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert (tmp_path / "pipe.msldf").read_bytes() == (tmp_path / "file.msldf").read_bytes()


def test_module_run_exits_with_the_code_of_main(inputs, tmp_path):
    empty_roi = tmp_path / "empty.pgm"
    save_pnm(GrayImage(np.zeros((24, 20), dtype=np.uint8)), empty_roi)
    src = str(Path(msld.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-m", "msld.cli", *segment_args(inputs, tmp_path / "r.msldf"),
                          "--mask", str(empty_roi)], env=env, capture_output=True, text=True)
    assert run.returncode == EXIT_NUMERIC
    assert "msld: numeric error" in run.stderr
    assert not (tmp_path / "r.msldf").exists()


def test_compare_prints_plain_numbers(inputs, capsys):
    assert main(["compare", "--input", str(inputs["image"]), "--mask", str(inputs["mask"]),
                 "--window", "5"]) == EXIT_OK
    pairs = report(capsys)
    for value in pairs.values():
        float(value)
    # streaming-float is the reference engine at another band height, so
    # only fixed mode is diffed: max, mean, clamps, 3 scales and the channel
    assert not [k for k in pairs if k.startswith("float_")]
    assert len([k for k in pairs if k.startswith("fixed_")]) == 3 + 2 * 3 + 2
    assert list(pairs)[:2] == ["window", "frac_bits"] and len(pairs) == 2 + 11


# the full compare reports of the inputs fixture at W=5, recorded when the
# fixed stats were carried as doubles: the float view of the raw words must
# print the same bytes
COMPARE_REPORTS = {
    18: ("window 5\nfrac_bits 18\nfixed_max_abs_diff 3.252816555088245e-05\n"
         "fixed_mean_abs_diff 1.0205462827285082e-05\nfixed_negative_variance_clamps 0\n"
         "fixed_scale1_mean_delta -0.00240701571377841\nfixed_scale1_std_delta -2.235854189258646e-05\n"
         "fixed_scale3_mean_delta -0.0028281582919031933\nfixed_scale3_std_delta -0.00014982146374364902\n"
         "fixed_scale5_mean_delta -0.001980241255326476\nfixed_scale5_std_delta -7.195056920039633e-05\n"
         "fixed_igc_mean_delta -6.935813701147708e-08\nfixed_igc_std_delta -7.511288409034478e-07\n"),
    12: ("window 5\nfrac_bits 12\nfixed_max_abs_diff 0.0017481036899722469\n"
         "fixed_mean_abs_diff 0.0005221638358066176\nfixed_negative_variance_clamps 0\n"
         "fixed_scale1_mean_delta -0.10282510653409091\nfixed_scale1_std_delta -0.0008310743622050865\n"
         "fixed_scale3_mean_delta -0.1295829190340907\nfixed_scale3_std_delta -0.007657145682493649\n"
         "fixed_scale5_mean_delta -0.13008540482954523\nfixed_scale5_std_delta -0.009536214485216021\n"
         "fixed_igc_mean_delta 2.6633522722363523e-05\nfixed_igc_std_delta -0.00017241250579402845\n"),
}


@pytest.mark.parametrize("frac_bits", sorted(COMPARE_REPORTS))
def test_compare_report_pinned(inputs, capsys, frac_bits):
    assert main(["compare", "--input", str(inputs["image"]), "--mask", str(inputs["mask"]),
                 "--window", "5", "--frac-bits", str(frac_bits)]) == EXIT_OK
    assert capsys.readouterr().out == COMPARE_REPORTS[frac_bits]


def test_main_builds_the_parser_once(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    missing = str(tmp_path / "missing.msldf")
    for _ in range(2):
        assert main(["eval", "--input", missing, "--truth", missing]) == EXIT_IO
    assert built.count("msld") <= 1


def test_existing_temporary_of_another_run_untouched(inputs, tmp_path):
    out = tmp_path / "resp.msldf"
    other = tmp_path / "resp.msldf.tmp"
    other.write_bytes(b"another run")
    assert main(segment_args(inputs, out)) == EXIT_OK
    assert other.read_bytes() == b"another run"


def test_failures_exit_with_their_code_and_leave_no_output(inputs, tmp_path):
    bad_image = tmp_path / "bad.pgm"
    bad_image.write_bytes(b"P5\n4 4\n255\n\x00")
    empty_roi = tmp_path / "empty.pgm"
    save_pnm(GrayImage(np.zeros((24, 20), dtype=np.uint8)), empty_roi)
    other_dims = tmp_path / "other_dims.pgm"
    save_pnm(GrayImage(np.full((20, 24), 255, dtype=np.uint8)), other_dims)
    out = tmp_path / "out" / "resp.msldf"
    out.parent.mkdir()
    base = [*segment_args(inputs, out), "--report", str(out.parent / "report.txt")]
    for code, extra in [
        (EXIT_VALIDATION, ["--window", "4"]),
        (EXIT_VALIDATION, ["--threshold", "nan"]),
        (EXIT_IO, ["--input", str(bad_image)]),
        (EXIT_NUMERIC, ["--mask", str(empty_roi)]),
        # the ROI count shifted by 60 bits exceeds the 64-bit range
        (EXIT_NUMERIC, ["--frac-bits", "60"]),
        (EXIT_VALIDATION, ["--mask", str(other_dims)]),
    ]:
        assert main([*base, *extra]) == code, extra
        assert list(out.parent.iterdir()) == []


def test_fixed_range_error_names_the_fractional_width(tmp_path, capsys):
    # the 3-pixel ROI (10, 20, 31) of test_fixed_stats_wider_than_a_double:
    # its scale stds are about 4.77 and 1.91 at every f, far from degenerate,
    # and pass 2's coefficients leave the int64 range from f = 44 on
    pixels = np.zeros((3, 3), dtype=np.uint8)
    pixels[0] = (10, 20, 31)
    roi = np.zeros((3, 3), dtype=np.uint8)
    roi[0] = 255
    save_pnm(GrayImage(pixels), tmp_path / "image.pgm")
    save_pnm(GrayImage(roi), tmp_path / "mask.pgm")
    out = tmp_path / "out" / "resp.msldf"
    out.parent.mkdir()
    args = ["segment", "--input", str(tmp_path / "image.pgm"), "--mask", str(tmp_path / "mask.pgm"),
            "--window", "3", "--engine", "streaming-fixed", "--out", str(out)]
    assert main([*args, "--frac-bits", "44"]) == EXIT_NUMERIC
    assert "frac_bits=44" in capsys.readouterr().err
    assert list(out.parent.iterdir()) == []
    assert main([*args, "--frac-bits", "43"]) == EXIT_OK


def test_response_write_allocates_one_payload(tmp_path):
    # four blocks of 128 rows
    resp = ResponseMap(np.random.default_rng(1).random((512, 512)))
    tracemalloc.start()
    try:
        write_response_file(resp, tmp_path / "r.msldf")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * RESPONSE_BLOCK_PIXELS + 16384
    assert read_response_file(tmp_path / "r.msldf") == ResponseMap(resp.values.astype(np.float32))


def test_response_read_allocates_the_file_and_one_map(tmp_path):
    write_response_file(ResponseMap(np.random.default_rng(2).random((256, 256))), tmp_path / "r.msldf")
    tracemalloc.start()
    try:
        resp = read_response_file(tmp_path / "r.msldf")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the file's bytes and the float64 map, but no copy of the payload
    assert peak <= (4 + 8) * 256 * 256 + 16384
    assert (resp.height, resp.width) == (256, 256)


def test_eval_failures_exit_with_their_code_and_write_no_report(inputs, tmp_path):
    resp = tmp_path / "resp.msldf"
    write_response_file(ResponseMap(np.random.default_rng(3).random((24, 20))), resp)
    payload = resp.read_bytes()
    malformed = {
        "truncated": payload[:-4],
        "trailing": payload + b"\0",
        "negative": b"MSLDF -2 -2\n",
        "empty": b"MSLDF 0 20\n",
        "nan": payload[:-4] + np.array([np.nan], "<f4").tobytes(),
        "inf": payload[:-4] + np.array([-np.inf], "<f4").tobytes(),
        "no_newline": b"MSLDF 20 24",
        "magic": b"MSLDX" + payload[5:],
        "non_integer": b"MSLDF 20 x4\n" + payload[payload.index(b"\n") + 1:],
        # int() would read these headers as 20 x 24
        "underscore": b"MSLDF 2_0 24\n" + payload[payload.index(b"\n") + 1:],
        "signed": b"MSLDF 20 +24\n" + payload[payload.index(b"\n") + 1:],
    }
    for name, data in malformed.items():
        (tmp_path / f"{name}.msldf").write_bytes(data)
    # vessel pixels only in rows 0-1, which the ROI leaves out
    single_class = np.zeros((24, 20), dtype=np.uint8)
    single_class[:2] = 255
    other_dims = np.zeros((20, 24), dtype=np.uint8)
    for name, values in (("single_class", single_class), ("other_dims", other_dims)):
        save_pnm(GrayImage(values), tmp_path / f"{name}.pgm")
    out = tmp_path / "out"
    out.mkdir()
    base = ["eval", "--input", str(resp), "--truth", str(inputs["truth"]),
            "--mask", str(inputs["mask"]), "--report", str(out / "report.txt")]
    assert main([*base, "--threshold", "0.5"]) == EXIT_OK
    (out / "report.txt").unlink()
    cases = [(EXIT_IO, ["--input", str(tmp_path / f"{name}.msldf")]) for name in malformed]
    cases += [
        (EXIT_NUMERIC, ["--truth", str(tmp_path / "single_class.pgm")]),
        (EXIT_VALIDATION, ["--truth", str(tmp_path / "other_dims.pgm")]),
        (EXIT_VALIDATION, ["--mask", str(tmp_path / "other_dims.pgm")]),
        (EXIT_VALIDATION, ["--threshold", "nan"]),
    ]
    for code, extra in cases:
        assert main([*base, *extra]) == code, extra
        assert list(out.iterdir()) == []


def test_failed_write_leaves_no_temporary(inputs, tmp_path):
    out = tmp_path / "out"
    out.mkdir()  # a directory cannot be replaced by the response file
    assert main(segment_args(inputs, out)) == EXIT_IO
    assert sorted(p.name for p in tmp_path.iterdir()) == ["image.pgm", "mask.pgm", "out", "truth.pgm"]


@pytest.mark.parametrize("case", ["seg_is_a_directory", "report_dir_missing"])
def test_failed_later_write_removes_the_earlier_outputs(inputs, tmp_path, case, capsys):
    out = tmp_path / "out" / "r.msldf"
    out.parent.mkdir()
    if case == "seg_is_a_directory":
        (out.parent / "r.msldf.seg.pgm").mkdir()
        extra = ["--threshold", "0"]
    else:
        extra = ["--threshold", "0", "--report", str(tmp_path / "missing" / "report.txt")]
    assert main([*segment_args(inputs, out), *extra]) == EXIT_IO
    assert [p.name for p in out.parent.iterdir()] == (
        ["r.msldf.seg.pgm"] if case == "seg_is_a_directory" else [])
    # the report file is written before stdout, so a failed run prints no report
    assert capsys.readouterr().out == ""


def test_segment_of_a_giant_ascii_header_is_a_format_error(tmp_path):
    image = tmp_path / "giant.pgm"
    image.write_bytes(b"P2\n1000000 1000000\n255\n1 2 3\n")
    out = tmp_path / "r.msldf"
    assert main(["segment", "--input", str(image), "--out", str(out)]) == EXIT_IO
    assert not out.exists()


@pytest.mark.parametrize("case", ["dir_missing", "is_a_directory"])
def test_write_error_names_the_given_path(inputs, tmp_path, capsys, case):
    out = tmp_path / "missing" / "r.msldf" if case == "dir_missing" else tmp_path / "r.msldf"
    if case == "is_a_directory":
        out.mkdir()
    before = sorted(tmp_path.rglob("*"))
    assert main(segment_args(inputs, out)) == EXIT_IO
    err = capsys.readouterr().err
    assert str(out) in err and ".tmp" not in err.replace(str(tmp_path), "")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", ["segment", "eval", "compare", "bench"])
def test_run_refuses_to_write_over_a_file_it_reads_or_writes(inputs, tmp_path, monkeypatch, capsys, command):
    # paths are compared as absolute paths, before anything is loaded
    monkeypatch.chdir(tmp_path)
    resp = tmp_path / "r.msldf"
    write_response_file(ResponseMap(np.random.default_rng(3).random((24, 20))), resp)
    image, mask, truth = (str(inputs[name]) for name in ("image", "mask", "truth"))
    common = ["--input", image, "--mask", mask, "--window", "5"]
    cases = {
        "segment": [
            [*common, "--out", "s.msldf", "--report", "./s.msldf"],
            [*common, "--out", image],
            [*common, "--out", "s.msldf", "--threshold", "0", "--report", str(tmp_path / "s.msldf.seg.pgm")],
            [*common, "--out", "s.msldf", "--report", "mask.pgm"],
            ["--input", "missing.pgm", "--out", "missing.pgm"],
        ],
        "eval": [
            ["--input", "r.msldf", "--truth", truth, "--report", str(resp)],
            ["--input", str(resp), "--truth", truth, "--mask", mask, "--report", "truth.pgm"],
        ],
        "compare": [[*common, "--report", image]],
        "bench": [[*common, "--report", "./mask.pgm"]],
    }
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    for extra in cases[command]:
        assert main([command, *extra]) == EXIT_VALIDATION, extra
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before
        assert "over a file it reads or writes" in capsys.readouterr().err


@pytest.mark.parametrize("out", [".", "/", ""])
def test_output_path_that_names_no_file_is_refused(tmp_path, monkeypatch, capsys, out):
    # refused before the input, which does not exist, is opened
    monkeypatch.chdir(tmp_path)
    assert main(["segment", "--input", "missing.pgm", "--out", out]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"msld: validation error: cannot write {out!r}: the path names no file\n"
    assert list(tmp_path.iterdir()) == []


def ascii_pnm(image) -> bytes:
    """An image as ASCII PGM (P2) or PPM (P3), with a comment in its header."""
    magic = "P3" if isinstance(image, RgbImage) else "P2"
    samples = " ".join(map(str, image.pixels.ravel()))
    return f"{magic}\n# ascii\n{image.width} {image.height}\n255\n{samples}\n".encode("ascii")


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("fmt", ["P2", "P3", "P5", "P6"])
def test_segment_writes_what_the_engine_gives_on_the_whole_arrays(tmp_path, capsys, fmt, engine):
    # every format, with and without a mask (binary or ASCII) and a threshold:
    # the files equal those of the engine run on the whole loaded arrays
    rng = np.random.default_rng(13)
    shape = (30, 26, 3) if fmt in ("P3", "P6") else (30, 26)
    image = (RgbImage if len(shape) == 3 else GrayImage)(rng.integers(0, 256, shape, dtype=np.uint8))
    (tmp_path / "image").write_bytes(ascii_pnm(image) if fmt in ("P2", "P3") else encode_pnm(image))
    roi = GrayImage(rng.integers(0, 256, shape[:2], dtype=np.uint8) * (rng.random(shape[:2]) < 0.7))
    (tmp_path / "mask5").write_bytes(encode_pnm(roi))
    (tmp_path / "mask2").write_bytes(ascii_pnm(roi))
    loaded = load_pnm(tmp_path / "image")
    gray = extract_inverted_green(loaded) if fmt in ("P3", "P6") else loaded
    params = MsldParams(window=5)
    for mask_name in (None, "mask5", "mask2"):
        mask = load_mask(tmp_path / mask_name) if mask_name else full_mask(26, 30)
        mode = {"streaming-float": "float", "streaming-fixed": "fixed"}.get(engine)
        resp = msld_reference(gray, mask, params)[0] if mode is None else msld_streaming(gray, mask, params, mode)[0]
        write_response_file(resp, tmp_path / "expected.msldf")
        for threshold in (None, "0.25", "-0.25"):
            args = ["segment", "--input", str(tmp_path / "image"), "--engine", engine, "--window", "5",
                    "--out", str(tmp_path / "r.msldf")]
            args += ["--mask", str(tmp_path / mask_name)] if mask_name else []
            args += ["--threshold", threshold] if threshold else []
            assert main(args) == EXIT_OK
            assert (tmp_path / "r.msldf").read_bytes() == (tmp_path / "expected.msldf").read_bytes()
            if threshold:
                vessel = binarize(resp, mask, float(threshold)).inside
                seg = GrayImage(np.where(vessel, 255, 0).astype(np.uint8))
                assert (tmp_path / "r.msldf.seg.pgm").read_bytes() == encode_pnm(seg)
                (tmp_path / "r.msldf.seg.pgm").unlink()
    capsys.readouterr()


@pytest.mark.parametrize("name", ["image", "mask"])
def test_input_that_shrinks_during_the_run_exits_2_and_leaves_no_output(inputs, tmp_path, monkeypatch, name):
    # the header and the length are checked on opening; the file then loses
    # its last row before the first band is read
    path = inputs[name]
    whole = path.read_bytes()
    read = PnmRows.__getitem__

    def shrinking(rows, band):
        if path.stat().st_size == len(whole):
            path.write_bytes(whole[:-20])
        return read(rows, band)

    monkeypatch.setattr(PnmRows, "__getitem__", shrinking)
    out = tmp_path / "out" / "r.msldf"
    out.parent.mkdir()
    for engine in ENGINES:
        path.write_bytes(whole)
        assert main([*segment_args(inputs, out), "--engine", engine]) == EXIT_IO
        assert list(out.parent.iterdir()) == []
        assert len(path.read_bytes()) == len(whole) - 20


@pytest.mark.parametrize("engine", ["streaming-float", "streaming-fixed"])
def test_segment_peak_is_the_engines_and_one_bands_input_rows(tmp_path, capsys, engine):
    # a DRIVE-size P6 image with a circular field of view: the run reads its
    # inputs band by band, so it holds neither the gray image nor the mask
    height, width = 584, 565
    rgb = RgbImage(np.random.default_rng(12).integers(0, 256, (height, width, 3), dtype=np.uint8))
    y, x = np.ogrid[:height, :width]
    fov = Mask((2 * y - height) ** 2 + (2 * x - width) ** 2 <= (0.9 * width) ** 2)
    save_pnm(rgb, tmp_path / "image.ppm")
    save_pnm(GrayImage(fov.inside * np.uint8(255)), tmp_path / "mask.pgm")
    args = ["segment", "--input", str(tmp_path / "image.ppm"), "--mask", str(tmp_path / "mask.pgm"),
            "--engine", engine, "--out", str(tmp_path / "r.msldf")]
    gray, params, mode = extract_inverted_green(rgb), MsldParams(window=15), engine.split("-")[1]
    build_parser()
    # fills the line-geometry cache outside the traces
    assert main(args) == EXIT_OK
    peaks = []
    for run in (lambda: msld_streaming(gray, fov, params, mode), lambda: main(args)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    # a pass-2 band's P6 rows with the window's halo and its mask rows
    rows = band_height(width, height)
    input_rows = (rows + 14) * width * 3 + rows * width
    assert peaks[1] <= peaks[0] + input_rows


def test_segment_threshold_peak_is_one_more_frame(tmp_path, capsys):
    # the .seg.pgm is its header and then the 0/255 frame's own buffer:
    # neither a bytes copy of the frame nor one joined to the header. The
    # streaming-float engine has the lowest peak, so a copy shows there first
    height, width = 584, 565
    pixels = np.random.default_rng(13).integers(0, 256, (height, width), dtype=np.uint8)
    y, x = np.ogrid[:height, :width]
    fov = (2 * y - height) ** 2 + (2 * x - width) ** 2 <= (0.9 * width) ** 2
    save_pnm(GrayImage(pixels), tmp_path / "image.pgm")
    save_pnm(GrayImage(fov * np.uint8(255)), tmp_path / "mask.pgm")
    args = ["segment", "--input", str(tmp_path / "image.pgm"), "--mask", str(tmp_path / "mask.pgm"),
            "--engine", "streaming-float", "--out", str(tmp_path / "r.msldf")]
    build_parser()
    # fills the line-geometry cache outside the traces
    assert main(args) == EXIT_OK
    peaks = []
    for extra in ([], ["--threshold", "0.5"]):
        tracemalloc.start()
        try:
            assert main([*args, *extra]) == EXIT_OK
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    assert (tmp_path / "r.msldf.seg.pgm").stat().st_size == len(f"P5\n{width} {height}\n255\n") + height * width
    assert peaks[1] <= peaks[0] + height * width + 1024
