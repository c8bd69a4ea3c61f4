"""Command-line interface: segment, eval, compare, bench.

Exit codes: 0 success, 1 validation failure, 2 I/O or format failure,
3 numeric failure (empty ROI, single-class ground truth, fixed-point
range exceeded). Each output file is written atomically via a uniquely
named temporary sibling, and a failed run removes the ones it wrote, so it
leaves no outputs and concurrent runs never share a temporary. A run that
would write over a file it reads, write two outputs to one path, or write
to a path that names no file, is refused before it loads anything.

``segment``, ``compare`` and ``bench`` open their image and mask with
``imageio.open_rows``: a binary (P5, P6) file's header and length errors
are raised on opening and the engines read its rows band by band, so no
whole gray image or mask is held. ASCII (P2, P3) files have no row index
and are loaded whole, as is a file that cannot seek, such as a pipe. A run
without ``--mask`` reads its full-frame ROI from a view of one flag.
``eval`` scores whole maps, so it loads its masks whole.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import os
import sys
import time
from pathlib import Path
from typing import Iterable

import numpy as np

from .detector import MsldParams
from .fixedpoint import FixedPointOverflowError, fx_to_real
from .imageio import (
    GrayImage,
    Mask,
    PnmFormatError,
    full_mask,
    load_mask,
    # not called here, as inputs are opened with open_rows; perfbench's
    # selftest checks that its span wrapper replaces this name too
    load_pnm,
    open_rows,
    pnm_chunks,
)
from .metrics import (
    SingleClassRoiError,
    best_threshold,
    binarize,
    report_at_threshold,
)
from .reference import EmptyRoiError, ResponseMap, msld_reference
from .streaming import memory_footprint, msld_streaming, stream_pass1, stream_pass2

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_NUMERIC = 3

RESPONSE_MAGIC = "MSLDF"
# pixels per float32 block of a response write
RESPONSE_BLOCK_PIXELS = 1 << 16

# engine name -> arithmetic mode of the streaming engine; None is the reference
ENGINES = {"reference": None, "streaming-float": "float", "streaming-fixed": "fixed"}


def write_response_file(resp: ResponseMap, path):
    """Header line 'MSLDF <width> <height>' then row-major little-endian f32."""
    header = f"{RESPONSE_MAGIC} {resp.width} {resp.height}\n".encode("ascii")
    rows = max(1, RESPONSE_BLOCK_PIXELS // resp.width)
    # each block is converted as it is written, so one is alive at a time
    blocks = (resp.values[y:y + rows].astype("<f4") for y in range(0, resp.height, rows))
    _atomic_write_bytes(Path(path), itertools.chain([header], blocks))


def read_response_file(path) -> ResponseMap:
    data = Path(path).read_bytes()
    newline = data.find(b"\n")
    if newline < 0:
        raise PnmFormatError("response file has no header line")
    parts = data[:newline].split()
    if len(parts) != 3 or parts[0] != RESPONSE_MAGIC.encode("ascii"):
        raise PnmFormatError(f"bad response header {data[:newline]!r}")
    try:
        width, height = int(parts[1]), int(parts[2])
    except ValueError:
        width = height = 0
    if width <= 0 or height <= 0:
        raise PnmFormatError(f"bad response dimensions {data[:newline]!r}")
    count = width * height
    payload_bytes = len(data) - (newline + 1)
    if payload_bytes != 4 * count:
        raise PnmFormatError(f"response payload must be {4 * count} bytes, found {payload_bytes}")
    # a view of the file bytes; astype makes the one float64 copy
    values = np.frombuffer(data, dtype="<f4", count=count, offset=newline + 1).astype(np.float64)
    # no sum of float32 values overflows a double, so the sum is finite
    # exactly when every value is, and it allocates no per-pixel flags
    if not np.isfinite(values.sum()):
        raise PnmFormatError("response payload holds NaN or infinite values")
    return ResponseMap(values.reshape(height, width))


def _atomic_write_bytes(path: Path, chunks: Iterable):
    """Write the byte buffers of chunks in turn through a uniquely named
    sibling, so runs never share a temporary."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as f:
            # writelines drops each chunk before it takes the next
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            # the error names the user's path, not the temporary
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


def _check_paths(args):
    """Refuse a run that would write to a path that names no file, write
    over a file it reads or write two outputs to one path, before anything
    is loaded."""
    options = vars(args)
    seen = {os.path.abspath(options[key]) for key in ("input", "mask", "truth") if options.get(key)}
    writes = [options.get("out"), args.report]
    if writes[0] and args.threshold is not None:
        writes.append(writes[0] + ".seg.pgm")
    for path in (path for path in writes if path is not None):
        # the temporary is a sibling of the named file, and '', '.' and '/' name none
        if not Path(path).name:
            raise ValueError(f"cannot write {path!r}: the path names no file")
        if os.path.abspath(path) in seen:
            raise ValueError(f"this run would write {path} over a file it reads or writes")
        seen.add(os.path.abspath(path))


def _atomic_write_text(path: Path, text: str):
    _atomic_write_bytes(path, [text.encode("ascii")])


@contextlib.contextmanager
def _inputs(args):
    """The gray input and the ROI of a run as row sources: the mask file or,
    without one, the full frame as a view of one flag. The engines reject a
    mask of other dimensions."""
    with contextlib.ExitStack() as files:
        img = files.enter_context(open_rows(args.input))
        roi = files.enter_context(open_rows(args.mask, mask=True)) if args.mask else np.broadcast_to(True, img.shape)
        yield img, roi


def _params(args) -> MsldParams:
    return MsldParams(window=args.window, frac_bits=args.frac_bits)


def _run_engine(engine: str, img, mask, params):
    """Returns (response, stats, footprint_or_None)."""
    mode = ENGINES[engine]
    if mode is None:
        return (*msld_reference(img, mask, params), None)
    return msld_streaming(img, mask, params, mode)


def _report_lines(pairs) -> str:
    return "".join(f"{key} {value}\n" for key, value in pairs)


def _emit_report(args, lines: str):
    # the file first, so a run whose report write fails prints no report
    if args.report:
        _atomic_write_text(Path(args.report), lines)
    sys.stdout.write(lines)


def _segmentation(resp: ResponseMap, roi, threshold: float) -> GrayImage:
    """``metrics.binarize`` as 0/255 samples, made a write block of rows at a
    time from the ROI's row source."""
    seg = np.empty(resp.values.shape, dtype=np.uint8)
    rows = max(1, RESPONSE_BLOCK_PIXELS // resp.width)
    for y in range(0, resp.height, rows):
        vessel = binarize(ResponseMap(resp.values[y:y + rows]), Mask(roi[y:y + rows]), threshold)
        seg[y:y + rows] = np.where(vessel.inside, 255, 0)
    return GrayImage(seg)


def cmd_segment(args) -> int:
    params = _params(args)
    with _inputs(args) as (img, roi):
        start = time.perf_counter()
        resp, stats, footprint = _run_engine(args.engine, img, roi, params)
        elapsed = time.perf_counter() - start
        # binarize before writing anything, so a bad threshold leaves no output
        if args.threshold is not None:
            seg = _segmentation(resp, roi, args.threshold)
    pairs = [
        ("engine", args.engine),
        ("window", params.window),
        ("scales", params.n_scales),
        ("roi_count", stats.roi_count),
        ("seconds", f"{elapsed:.3f}"),
        ("negative_variance_clamps", stats.negative_variance_clamps),
    ]
    if footprint is not None:
        pairs += vars(footprint).items()

    # a later write that fails takes the outputs written before it along
    write_response_file(resp, args.out)
    written = [Path(args.out)]
    try:
        if args.threshold is not None:
            seg_path = Path(args.out + ".seg.pgm")
            _atomic_write_bytes(seg_path, pnm_chunks(seg))
            written.append(seg_path)
        _emit_report(args, _report_lines(pairs))
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return EXIT_OK


def cmd_eval(args) -> int:
    resp = read_response_file(args.input)
    truth = load_mask(args.truth)
    roi = load_mask(args.mask) if args.mask else full_mask(resp.width, resp.height)
    if args.threshold is not None:
        report = report_at_threshold(resp, truth, roi, args.threshold)
    else:
        _, report = best_threshold(resp, truth, roi)

    pairs = [
        ("auc", f"{report.auc:.6f}"),
        ("se", f"{report.se:.6f}"),
        ("sp", f"{report.sp:.6f}"),
        ("acc", f"{report.acc:.6f}"),
        ("threshold", repr(report.threshold)),
        ("roi_count", report.roi_count),
    ]
    _emit_report(args, _report_lines(pairs))
    return EXIT_OK


def cmd_compare(args) -> int:
    """Diff fixed mode against the float reference; streaming-float equals
    the reference by construction, so it is not run."""
    params = _params(args)
    with _inputs(args) as (img, roi):
        ref_resp, ref_stats = msld_reference(img, roi, params)
        resp, stats, _ = msld_streaming(img, roi, params, "fixed")
        # the ROI's diffs in raster order, read a block of rows at a time
        step = max(1, RESPONSE_BLOCK_PIXELS // resp.width)
        diff = np.concatenate([np.abs(resp.values[y:y + step] - ref_resp.values[y:y + step])[roi[y:y + step]]
                               for y in range(0, resp.height, step)])
    pairs = [
        ("window", params.window),
        ("frac_bits", params.frac_bits),
        ("fixed_max_abs_diff", repr(float(diff.max()))),
        ("fixed_mean_abs_diff", repr(float(diff.mean()))),
        ("fixed_negative_variance_clamps", stats.negative_variance_clamps),
    ]
    names = [f"scale{scale}" for scale in params.scales] + ["igc"]
    fixed = zip(stats.scale_means + (stats.igc_mean,), stats.scale_stds + (stats.igc_std,))
    ref = zip(ref_stats.scale_means + (ref_stats.igc_mean,), ref_stats.scale_stds + (ref_stats.igc_std,))
    for name, (mean, std), (ref_mean, ref_std) in zip(names, fixed, ref):
        pairs += [(f"fixed_{name}_mean_delta", repr(fx_to_real(mean, params.frac_bits) - ref_mean)),
                  (f"fixed_{name}_std_delta", repr(fx_to_real(std, params.frac_bits) - ref_std))]
    _emit_report(args, _report_lines(pairs))
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.reps < 1:
        raise ValueError(f"--reps must be at least 1, got {args.reps}")
    params = _params(args)
    mode = ENGINES[args.engine]
    pairs = [("engine", args.engine), ("window", params.window), ("reps", args.reps)]
    with _inputs(args) as (img, roi):
        for rep in range(args.reps):
            start = time.perf_counter()
            if mode is None:
                msld_reference(img, roi, params)
                pairs.append((f"rep{rep}_seconds", f"{time.perf_counter() - start:.3f}"))
            else:
                stats = stream_pass1(img, roi, params, mode)
                mid = time.perf_counter()
                stream_pass2(img, roi, params, stats, mode)
                end = time.perf_counter()
                pairs += [
                    (f"rep{rep}_pass1_seconds", f"{mid - start:.3f}"),
                    (f"rep{rep}_pass2_seconds", f"{end - mid:.3f}"),
                ]
    if mode is not None:
        height, width = img.shape
        pairs += vars(memory_footprint(params, width, height)).items()
    _emit_report(args, _report_lines(pairs))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msld",
        description=(
            "Multi-scale line detector for vessel segmentation. Inputs are "
            "PGM/PPM files with maxval 255 (convert other formats "
            "externally); PPM inputs are reduced to the inverted green "
            "channel, PGM inputs are used as-is."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_out: bool):
        p.add_argument("--input", required=True, help="input image (PGM/PPM)")
        p.add_argument("--mask", help="ROI mask PGM; defaults to the full frame")
        p.add_argument("--window", type=int, default=15, help="odd window size W (default 15)")
        p.add_argument("--frac-bits", type=int, default=18, dest="frac_bits",
                       help="fractional bits for fixed-point mode (default 18)")
        if need_out:
            p.add_argument("--out", required=True, help="output response file")
        p.add_argument("--report", help="also write the report lines to this file")

    p_seg = sub.add_parser("segment", help="compute a combined response map")
    add_common(p_seg, need_out=True)
    p_seg.add_argument("--engine", choices=ENGINES, default="streaming-fixed")
    p_seg.add_argument("--threshold", type=float,
                       help="also write a binarized PGM at <out>.seg.pgm")
    p_seg.set_defaults(func=cmd_segment)

    p_eval = sub.add_parser("eval", help="score a response file against ground truth")
    p_eval.add_argument("--input", required=True, help="response file from segment")
    p_eval.add_argument("--truth", required=True, help="ground-truth vessel PGM")
    p_eval.add_argument("--mask", help="ROI mask PGM; defaults to the full frame")
    p_eval.add_argument("--threshold", type=float,
                        help="fixed threshold; defaults to the accuracy-optimal one")
    p_eval.add_argument("--report", help="also write the report lines to this file")
    p_eval.set_defaults(func=cmd_eval)

    p_cmp = sub.add_parser("compare", help="diff fixed mode against the float reference")
    add_common(p_cmp, need_out=False)
    p_cmp.set_defaults(func=cmd_compare)

    p_bench = sub.add_parser("bench", help="wall-clock timings and memory footprint")
    add_common(p_bench, need_out=False)
    p_bench.add_argument("--engine", choices=ENGINES, default="streaming-fixed")
    p_bench.add_argument("--reps", type=int, default=1, help="timing repetitions")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_paths(args)
        return args.func(args)
    except (EmptyRoiError, SingleClassRoiError, FixedPointOverflowError, ZeroDivisionError) as exc:
        print(f"msld: numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except PnmFormatError as exc:
        print(f"msld: format error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"msld: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, TypeError) as exc:
        print(f"msld: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
