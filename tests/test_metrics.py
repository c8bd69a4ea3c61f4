"""ROI metrics against brute-force scans over every threshold."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from msld import Mask, ResponseMap
from msld.metrics import SingleClassRoiError, auc, best_threshold, report_at_threshold


@st.composite
def scored_rois(draw):
    """Small response grids with many ties, ground truth and an ROI holding both classes."""
    height = draw(st.integers(1, 6))
    width = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.integers(1, 5))
    values = rng.integers(0, levels, (height, width)) / 4.0 - 0.5
    truth = rng.random((height, width)) < 0.5
    roi = rng.random((height, width)) < draw(st.floats(0.3, 1.0))
    labels = truth[roi]
    assume(labels.any() and not labels.all())
    return ResponseMap(values), Mask(truth), Mask(roi)


def rates(scores, labels, t):
    """Exact (SE, SP, ACC) when a pixel is predicted vessel for score > t."""
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    tp = sum(1 for s, y in zip(scores, labels) if s > t and y)
    tn = sum(1 for s, y in zip(scores, labels) if s <= t and not y)
    return Fraction(tp, n_pos), Fraction(tn, n_neg), Fraction(tp + tn, len(labels))


def trapezoid_auc(scores, labels):
    """Area under the ROC through the points of every threshold."""
    points = []
    for t in [-np.inf] + sorted(set(scores)):
        se, sp, _ = rates(scores, labels, t)
        points.append((1 - sp, se))
    points.sort()
    return sum((x1 - x0) * (y0 + y1) / 2 for (x0, y0), (x1, y1) in zip(points, points[1:]))


def roi_lists(resp, truth, roi):
    return resp.values[roi.inside].tolist(), truth.inside[roi.inside].tolist()


@given(scored_rois())
@settings(max_examples=150, deadline=None)
def test_auc_is_the_trapezoidal_roc_area(case):
    scores, labels = roi_lists(*case)
    assert auc(*case) == pytest.approx(float(trapezoid_auc(scores, labels)), abs=1e-12)


@given(scored_rois())
@settings(max_examples=150, deadline=None)
def test_best_threshold_breaks_ties_by_specificity_then_larger_threshold(case):
    scores, labels = roi_lists(*case)

    def preference(t):
        # accuracy first, then specificity, then the larger threshold
        _, sp, acc = rates(scores, labels, t)
        return acc, sp, t

    best = max(set(scores), key=preference)
    threshold, report = best_threshold(*case)
    se, sp, acc = rates(scores, labels, best)
    assert threshold == best
    assert (report.se, report.sp, report.acc) == (float(se), float(sp), float(acc))
    assert report.auc == auc(*case) and report.roi_count == len(scores)
    assert report_at_threshold(*case, threshold) == report


def test_accuracy_tie_goes_to_the_higher_specificity():
    resp = ResponseMap(np.array([[0.0, 1.0, 2.0, 3.0]]))
    truth = Mask(np.array([[False, True, False, True]]))
    roi = Mask(np.ones((1, 4), dtype=bool))
    # t=0 and t=2 both classify 3 of 4 pixels right; t=2 misses no negative
    threshold, report = best_threshold(resp, truth, roi)
    assert threshold == 2.0 and report.acc == 0.75 and report.sp == 1.0 and report.se == 0.5


def test_single_class_roi_rejected():
    resp = ResponseMap(np.zeros((2, 2)))
    truth = Mask(np.array([[True, False], [False, False]]))
    roi = Mask(np.array([[False, True], [True, True]]))
    for run in (auc, best_threshold):
        with pytest.raises(SingleClassRoiError):
            run(resp, truth, roi)


def rearranged(case, seed):
    """The same pixels flipped, transposed and randomly permuted."""
    grids = (case[0].values, case[1].inside, case[2].inside)
    perm = np.random.default_rng(seed).permutation(grids[0].size)
    for move in (lambda g: g[::-1, ::-1], lambda g: g.T,
                 lambda g: g.ravel()[perm].reshape(g.shape)):
        values, truth, roi = (move(g) for g in grids)
        yield ResponseMap(values), Mask(truth), Mask(roi)


def assert_order_free(case, seed):
    thresholds = [-1.0, *sorted(set(roi_lists(*case)[0]))[:3], 0.3]

    def results(c):
        return auc(*c), best_threshold(*c), [report_at_threshold(*c, t) for t in thresholds]

    expected = results(case)
    for moved in rearranged(case, seed):
        assert results(moved) == expected


@given(scored_rois(), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_metrics_do_not_depend_on_the_pixel_order(case, seed):
    assert_order_free(case, seed)


def test_large_tie_heavy_auc_is_the_exact_mann_whitney_count():
    rng = np.random.default_rng(11)
    levels = rng.integers(0, 24, (100, 100))
    truth = rng.random((100, 100)) < levels / 30.0
    roi = rng.random((100, 100)) < 0.8
    case = ResponseMap(levels / 8.0 - 1.0), Mask(truth), Mask(roi)
    # pairs of a positive over a negative count 1, tied pairs count 1/2
    pos = np.bincount(levels[roi & truth], minlength=24).tolist()
    neg = np.bincount(levels[roi & ~truth], minlength=24).tolist()
    wins = sum(p * (2 * sum(neg[:v]) + neg[v]) for v, p in enumerate(pos))
    assert auc(*case) == float(Fraction(wins, 2 * sum(pos) * sum(neg)))
    assert_order_free(case, 12)
