"""The names the benchmark wraps still exist.

``perfbench/spans.py`` replaces every ``SPAN_TARGETS`` and ``COUNT_TARGETS``
name with a wrapper, and ``perfbench/run.py`` reads the cache statistics of
``msld.detector.line_offsets``; a removed name crashes the traced run.
``spans.py`` is loaded by path and only read.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import msld.detector

_spec = importlib.util.spec_from_file_location(
    "perfbench_spans", Path(__file__).resolve().parents[1] / "perfbench" / "spans.py")
spans = importlib.util.module_from_spec(_spec)
# its dataclass looks its module up in sys.modules
sys.modules[_spec.name] = spans
_spec.loader.exec_module(spans)

TARGETS = [(module, attr) for module, attr, *_ in spans.SPAN_TARGETS + spans.COUNT_TARGETS]


def test_all_targets_are_listed():
    assert len(TARGETS) == 24


@pytest.mark.parametrize("module, attr", TARGETS, ids=[".".join(t) for t in TARGETS])
def test_benchmark_target_resolves(module, attr):
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        assert attr in vars(owner)
    assert callable(getattr(owner, attr))


def test_line_offsets_keeps_its_cache_statistics():
    assert callable(msld.detector.line_offsets.cache_info)


def test_wrapped_names_are_imported_not_copied():
    # the benchmark's wrappers replace these names in the modules that
    # import them; a module that stopped importing one would go uncounted
    from msld import cli, fixedpoint, imageio, streaming

    assert streaming.div_round_half_away_i64 is fixedpoint.div_round_half_away_i64
    assert cli.load_pnm is imageio.load_pnm
