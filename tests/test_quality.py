"""Segmentation quality of every engine on small seeded fundus phantoms.

The phantoms come from ``perfbench/phantom.py``, loaded by path, so the
inputs are the benchmark's and stay deterministic.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from msld import GrayImage, Mask, MsldParams, msld_reference, msld_streaming
from msld.metrics import best_threshold

_spec = importlib.util.spec_from_file_location(
    "phantom", Path(__file__).resolve().parents[1] / "perfbench" / "phantom.py")
phantom = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(phantom)

# AUC and accuracy at the accuracy-optimal threshold of 128x128 phantoms,
# W=15 and frac_bits=18, as the engines gave them when the gate was added:
# seed -> engine -> (auc, acc)
RECORDED = {
    1: {"reference": (0.89138, 0.86093), "streaming-float": (0.89138, 0.86093),
        "streaming-fixed": (0.89141, 0.86101)},
    2: {"reference": (0.89284, 0.86388), "streaming-float": (0.89284, 0.86388),
        "streaming-fixed": (0.89287, 0.86388)},
}
# a floor sits this far below the recorded figure
SLACK = 1e-3
# measured max |fixed - float| on the FOV: 5.8e-4 (seed 1), 6.1e-4 (seed 2)
FIXED_DELTA = 1e-3


@pytest.mark.parametrize("seed", sorted(RECORDED))
def test_phantom_quality_floors(seed):
    ph = phantom.make_phantom(seed, 128, 128)
    img, fov, truth = GrayImage(ph.vessel), Mask(ph.fov), Mask(ph.truth)
    params = MsldParams(window=15, frac_bits=18)
    maps = {
        "reference": msld_reference(img, fov, params)[0],
        "streaming-float": msld_streaming(img, fov, params, "float")[0],
        "streaming-fixed": msld_streaming(img, fov, params, "fixed")[0],
    }
    for engine, resp in maps.items():
        report = best_threshold(resp, truth, fov)[1]
        auc, acc = RECORDED[seed][engine]
        assert report.auc >= auc - SLACK, engine
        assert report.acc >= acc - SLACK, engine
    delta = np.abs(maps["streaming-fixed"].values - maps["streaming-float"].values)[ph.fov]
    assert delta.max() <= FIXED_DELTA
