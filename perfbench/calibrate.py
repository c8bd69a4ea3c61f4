"""Machine-speed calibration for timings on a shared host.

On a few vCPUs of a shared host the machine runs up to twice as slow, in
spells from under a second to minutes, while a neighbour is busy; a call's
wall time then tracks the host more than the program. The benchmark
therefore times a fixed calibration loop, which owns its inputs and never
touches ``msld``, between consecutive timed calls, and scales the calls'
time to the speed at which the loop takes ``NOMINAL_S``:

    normalised seconds = measured seconds * NOMINAL_S / mean loop seconds

A change to the program moves the calls' time but not the loop's, so it
shows in full; a slow spell of the host moves both, so it cancels. Such a
spell hurts interpreter-bound code most and whole-array numpy passes least,
so the loop has one part of each kind the user path does: short numpy
operations driven from Python (``rows``, like the streaming engines' per-row
work), plain Python bookkeeping (``pure``) and whole-frame array passes
(``frame``, like the reference engine and the response payloads). ``frame``
takes about two thirds of the loop's time, a weight picked from 16 runs of
each workload; other weights moved the spread across runs only within its
run-to-run noise, since each engine bears a slow spell a little differently.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# seconds the loop takes on this host's 2 GHz Xeon vCPUs when no neighbour
# is busy; it sets only the scale of the normalised numbers, not their spread
NOMINAL_S = 0.015
REPEATS = 4

_ROW = np.arange(600, dtype=np.float64) * 0.37
_FRAME = (np.arange(584 * 565, dtype=np.float64).reshape(584, 565) % 251.0) * 0.5


def _rows() -> float:
    acc = 0.0
    for i in range(320):
        off = i % 9
        row = _ROW[off:off + 512] * 1.5 + _ROW[:512]
        acc += float(np.cumsum(row)[-1]) - float(row.max())
    return acc


def _pure() -> int:
    acc, window = 0, []
    for i in range(320):
        window.append(i % 9)
        if len(window) > 15:
            window.pop(0)
        acc += sum(max(window[j], window[j - 1]) for j in range(1, len(window)))
    return acc


def _frame() -> float:
    acc = 0.0
    for _ in range(3):
        frame = np.cumsum(_FRAME, axis=1)
        frame = frame[:, 15:] - frame[:, :-15]
        acc += float((frame * frame).sum())
    return acc


PARTS = {"rows": _rows, "pure": _pure, "frame": _frame}


def part_seconds() -> dict[str, float]:
    """Mean wall time of each part over REPEATS rounds: one slot.

    A mean, not a median: the timed calls bear every stall of the host, so
    the loop counts them too.
    """
    times = {name: [] for name in PARTS}
    for _ in range(REPEATS):
        for name, part in PARTS.items():
            start = time.perf_counter()
            part()
            times[name].append(time.perf_counter() - start)
    return {name: statistics.fmean(t) for name, t in times.items()}


def scale(slots: list[dict[str, float]]) -> float:
    """Factor from measured to normalised seconds over the given slots."""
    return NOMINAL_S / statistics.fmean(sum(parts.values()) for parts in slots)
