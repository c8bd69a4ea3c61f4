"""ROI metrics against brute-force scans over every threshold."""

import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from msld import Mask, ResponseMap
from msld.metrics import (SingleClassRoiError, _tie_groups, auc, best_threshold,
                          report_at_threshold)


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


def group_thresholds(scores):
    """Every group value, the midpoints between neighbours and one beyond each end."""
    values = sorted(set(scores))
    mids = [(a + b) / 2 for a, b in zip(values, values[1:])]
    return [values[0] - 1.0, *values, *mids, values[-1] + 1.0]


@given(scored_rois())
@settings(max_examples=150, deadline=None)
def test_report_at_threshold_is_the_brute_force_rates(case):
    scores, labels = roi_lists(*case)
    area = auc(*case)
    for t in group_thresholds(scores):
        report = report_at_threshold(*case, t)
        se, sp, acc = rates(scores, labels, t)
        assert (report.se, report.sp, report.acc) == (float(se), float(sp), float(acc))
        assert report.threshold == t and report.auc == area and report.roi_count == len(scores)


@given(scored_rois())
@settings(max_examples=150, deadline=None)
def test_tie_groups_count_every_score_and_label(case):
    scores, labels = roi_lists(*case)
    pairs = Counter(zip(scores, labels))
    values, upto, pos_in, n_pos, n_neg = _tie_groups(*case)
    expected = sorted(set(scores))
    assert values.tolist() == expected
    assert upto.tolist() == [sum(1 for s in scores if s <= v) for v in expected]
    assert pos_in.tolist() == [pairs[v, True] for v in expected]
    assert (n_pos, n_neg) == (sum(labels), len(labels) - sum(labels))


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


def metric_runs(threshold):
    return (auc, best_threshold, lambda *case: report_at_threshold(*case, threshold))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_roi_score_rejected(bad):
    values = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
    values[1, 1] = bad
    truth = Mask(np.array([[False, True, False], [True, False, True]]))
    roi = Mask(np.ones((2, 3), dtype=bool))
    for run in metric_runs(2.5):
        with pytest.raises(ValueError, match="finite"):
            run(ResponseMap(values), truth, roi)


def test_nan_outside_the_roi_is_ignored():
    values = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
    truth = Mask(np.array([[False, True, False], [True, False, True]]))
    roi = Mask(np.array([[True, True, True], [True, False, True]]))
    clean = ResponseMap(values)
    values = values.copy()
    values[1, 1] = np.nan
    for run in metric_runs(2.5):
        assert run(ResponseMap(values), truth, roi) == run(clean, truth, roi)


@pytest.mark.parametrize("size", [2, 200, 2000])
def test_a_group_of_signed_zeros_reads_positive_zero(size):
    zeros = np.where(np.arange(size) % 2, -0.0, 0.0)
    truth = Mask(np.arange(2 * size).reshape(1, -1) >= size)
    roi = Mask(np.ones((1, 2 * size), dtype=bool))
    # the negatives score 0 and the positives 1, so the best threshold is 0
    for negatives in (zeros, -zeros, np.random.default_rng(size).permutation(zeros),
                      np.full(size, -0.0)):
        resp = ResponseMap(np.concatenate([negatives, np.ones(size)]).reshape(1, -1))
        assert repr(best_threshold(resp, truth, roi)[0]) == "0.0"


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


def disc(height, width):
    y, x = np.ogrid[:height, :width]
    return (y - height / 2) ** 2 + (x - width / 2) ** 2 < (0.45 * min(height, width)) ** 2


def level_case():
    """200x200 with 30 score levels in a disc."""
    rng = np.random.default_rng(1612)
    levels = rng.integers(0, 30, (200, 200))
    truth = rng.random((200, 200)) < levels / 40.0
    return ResponseMap(levels / 7.0 - 2.0), Mask(truth), Mask(disc(200, 200))


def distinct_case():
    """565x584 (DRIVE size) with 158,004 distinct scores among 203,084 in a disc."""
    rng = np.random.default_rng(9524)
    truth = rng.random((584, 565)) < 0.13
    values = np.round(rng.standard_normal((584, 565)) + 1.1 * truth, 5)
    return ResponseMap(values), Mask(truth), Mask(disc(584, 565))


# repr of auc, best_threshold and report_at_threshold at two thresholds,
# recorded from the argsort-based tie groups that the positives' own sort
# and a bincount replaced
PINNED_METRICS = {
    level_case: (
        (0.0, 5 / 7.0 - 2.0),
        "0.7721750928841913",
        "(0.7142857142857144, MetricsReport(auc=0.7721750928841913, se=0.5673887525344147, "
        "sp=0.7933632175320633, acc=0.7101010498171667, threshold=0.7142857142857144, "
        "roi_count=25433))",
        "MetricsReport(auc=0.7721750928841913, se=0.7648063173620745, sp=0.6473664549869257, "
        "acc=0.6906381472889553, threshold=0.0, roi_count=25433)",
        "MetricsReport(auc=0.7721750928841913, se=0.9671326432611247, sp=0.29367451126883326, "
        "acc=0.5418157511893996, threshold=-1.2857142857142856, roi_count=25433)",
    ),
    distinct_case: (
        (0.5, -0.25),
        "0.782626885182988",
        "(2.3202, MetricsReport(auc=0.782626885182988, se=0.11282437006393381, "
        "sp=0.989835348510431, acc=0.8750073861062417, threshold=2.3202, roi_count=203084))",
        "MetricsReport(auc=0.782626885182988, se=0.7277924031590823, sp=0.6922558273935658, "
        "acc=0.6969086683342853, threshold=0.5, roi_count=203084)",
        "MetricsReport(auc=0.782626885182988, se=0.9121098157201956, sp=0.4002685643704602, "
        "acc=0.4672844734198657, threshold=-0.25, roi_count=203084)",
    ),
}


@pytest.mark.parametrize("make", list(PINNED_METRICS), ids=lambda make: make.__name__)
def test_metrics_pinned(make):
    case = make()
    thresholds, *expected = PINNED_METRICS[make]
    got = [repr(auc(*case)), repr(best_threshold(*case)),
           *(repr(report_at_threshold(*case, t)) for t in thresholds)]
    assert got == expected


@pytest.mark.parametrize("run", [best_threshold, lambda *case: report_at_threshold(*case, 0.5)],
                         ids=["best_threshold", "report_at_threshold"])
def test_metrics_peak_in_a_fixed_set_of_roi_buffers(run):
    side = 256
    rng = np.random.default_rng(22)
    case = (ResponseMap(rng.permutation(side * side).reshape(side, side) / side**2),
            Mask(rng.random((side, side)) < 0.125), Mask(np.ones((side, side), dtype=bool)))
    run(*case)
    tracemalloc.start()
    try:
        run(*case)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # per ROI pixel, with every score its own group, at most these are alive
    # at once: the scores (8 B), the truth flags and the group-end flags (1 B
    # each), per group its value, upto and positives count (8 B each), and
    # the positives' scores and group indices (8 B each per positive, 2 B at
    # this truth), 36 B; the accuracy key (8 B) is formed once the scores are
    # freed
    assert peak <= 36 * side * side + 16384
