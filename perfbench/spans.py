"""Spans and counts recorded from outside the program.

``Tracer.installed()`` replaces public functions of the ``msld`` modules
with wrappers for the duration of a ``with`` block and restores the
originals afterwards. A function is replaced under every name an ``msld``
module holds it by, so a module that imported it with ``from .x import f``
calls the wrapper too. Wrapped methods are replaced on their class.

A span records name, start, end, parent span and run id (one id per
top-level operation of the benchmark), and counts its calls. Spans stay in
memory until ``write_spans`` is called at the end of the benchmark. A
counted function only increments a per-operation counter, for calls too
frequent to span.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


# (module, attribute, span name, bytes counted after the call from the args)
SPAN_TARGETS = (
    ("msld.cli", "write_response_file", "cli.write_response", lambda a, k: os.path.getsize(a[1])),
    ("msld.cli", "read_response_file", "cli.read_response", lambda a, k: os.path.getsize(a[0])),
    ("msld.imageio", "load_pnm", "imageio.load_pnm", lambda a, k: os.path.getsize(a[0])),
    ("msld.imageio", "load_mask", "imageio.load_mask", None),
    ("msld.imageio", "extract_inverted_green", "imageio.extract_inverted_green", None),
    ("msld.reference", "msld_reference", "reference.engine", None),
    ("msld.reference", "scale_stats", "reference.stats", None),
    ("msld.streaming", "msld_streaming", "streaming.engine", None),
    ("msld.streaming", "stream_pass1", "streaming.pass1", None),
    ("msld.streaming", "stream_pass2", "streaming.pass2", None),
    ("msld.streaming", "StreamAccumulators.update_row", "streaming.accumulate", None),
    ("msld.streaming", "StreamAccumulators.finalize", "streaming.finalize", None),
    ("msld.metrics", "best_threshold", "metrics.best_threshold", None),
    ("msld.metrics", "auc", "metrics.auc", None),
)

COUNT_TARGETS = (
    ("msld.fixedpoint", "div_round_half_away_i64", "fixedpoint.vector_div_calls"),
) + tuple(
    ("msld.fixedpoint", name, "fixedpoint.scalar_calls")
    for name in ("fx_from_real", "fx_from_int", "fx_to_real", "fx_add", "fx_sub",
                 "fx_mul", "fx_div", "fx_sqrt", "fx_reciprocal")
)


class Tracer:
    """Holds the spans and counts of one benchmark process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.run_id = 0
        self._stack: list[int] = []
        self._next_id = 0

    def _span_wrapper(self, fn, name, nbytes):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append(Span(span_id, name, start, end, parent, tracer.run_id))
                counts = tracer.counts[tracer.run_id]
                counts[name + ".calls"] += 1
                if nbytes is not None:
                    counts[name + ".bytes"] += nbytes(args, kwargs)

        return wrapper

    def _count_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[tracer.run_id][name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        replaced = []  # (owner, attribute, original)
        try:
            for module, attr, name, nbytes in SPAN_TARGETS:
                self._install(module, attr, replaced,
                              lambda fn, name=name, nbytes=nbytes: self._span_wrapper(fn, name, nbytes))
            for module, attr, name in COUNT_TARGETS:
                self._install(module, attr, replaced,
                              lambda fn, name=name: self._count_wrapper(fn, name))
            yield self
        finally:
            for owner, attr, original in reversed(replaced):
                setattr(owner, attr, original)

    @staticmethod
    def _install(module_name, attr, replaced, make):
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            replaced.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        # every msld module that holds the same object, under any name
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "msld" or mod_name.startswith("msld.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    replaced.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def spans_by_run(self) -> dict[int, list[Span]]:
        grouped: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            grouped[s.run_id].append(s)
        return grouped

    def write_spans(self, path):
        with open(path, "w", encoding="ascii") as out:
            for s in self.spans:
                out.write(json.dumps({"id": s.span_id, "name": s.name, "start": s.start,
                                      "end": s.end, "parent": s.parent, "run": s.run_id}) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the durations of its direct children."""
    child_total: Counter = Counter()
    for s in spans:
        if s.parent is not None:
            child_total[s.parent] += s.duration
    return {s.span_id: s.duration - child_total[s.span_id] for s in spans}


def layer_totals(spans: list[Span]) -> tuple[Counter, Counter]:
    """Per span name: summed duration and summed self time within ``spans``."""
    selfs = self_times(spans)
    total: Counter = Counter()
    own: Counter = Counter()
    for s in spans:
        total[s.name] += s.duration
        own[s.name] += selfs[s.span_id]
    return total, own
