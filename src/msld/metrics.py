"""Segmentation quality metrics restricted to the ROI.

All counts and rates consider ROI pixels only; pixels outside the mask
never enter a confusion cell. A pixel is predicted vessel when its
response is strictly greater than the threshold.

The ROI scores are sorted in place and reduced to their groups of equal
value; the positives' scores are sorted on their own and counted into
those groups, so no argsort permutation is formed. The AUC, the best
threshold and the rates at a fixed threshold are integer counts per tie
group, so no result depends on the order of the pixels or on the order
the sort leaves inside a group. The ROI scores must be finite.

Each ROI-sized quantity has one buffer, updated in place: the group ends
are found once and become the counts at or below each group, the group
values are taken from the sorted scores, which are then freed, the AUC is
two integer dot products over the groups, the positives per group become
their running count in place, and the accuracy key is formed in one more
buffer. So a call peaks at a fixed number of bytes per ROI pixel, about
32 when the scores are distinct.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .imageio import Mask
from .reference import ResponseMap


class SingleClassRoiError(ValueError):
    """Raised when the ROI ground truth contains only one class."""


@dataclass(frozen=True)
class MetricsReport:
    """AUC plus threshold metrics over the ROI."""

    auc: float
    se: float
    sp: float
    acc: float
    threshold: float
    roi_count: int


def _check_same_dims(*grids):
    shapes = {(g.height, g.width) for g in grids}
    if len(shapes) > 1:
        raise ValueError(f"dimension mismatch: {sorted(shapes)}")


def _check_threshold(threshold: float):
    if not np.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")


def binarize(resp: ResponseMap, roi: Mask, threshold: float) -> Mask:
    """Vessel mask: ROI pixels whose response exceeds the threshold."""
    _check_threshold(threshold)
    _check_same_dims(resp, roi)
    return Mask(roi.inside & (resp.values > threshold))


def _tie_groups(resp: ResponseMap, truth: Mask, roi: Mask):
    """The ROI scores reduced to their groups of equal value.

    Returns (values, upto, pos_in, n_pos, n_neg): per group in ascending
    order, its score, the count of ROI scores at or below it and the count
    of positives at it.
    """
    _check_same_dims(resp, truth, roi)
    inside = roi.inside
    scores = resp.values[inside]
    positives = scores[truth.inside[inside]]
    n_pos = positives.size
    n_neg = scores.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassRoiError(
            f"ROI ground truth has {n_pos} positives and {n_neg} negatives; "
            "both classes are required"
        )
    scores.sort()
    # the sort puts -inf first and +inf and NaN last
    if not (np.isfinite(scores[0]) and np.isfinite(scores[-1])):
        raise ValueError(f"ROI scores must be finite, got a range of "
                         f"{float(scores[0])!r} .. {float(scores[-1])!r}")
    # a group ends where the next score differs, and the last at the end
    ends = np.empty(scores.size, dtype=bool)
    np.not_equal(scores[1:], scores[:-1], out=ends[:-1])
    ends[-1] = True
    upto = np.flatnonzero(ends)
    values = scores.take(upto)
    del scores
    # + 0.0 makes a group of zeros read 0.0 whichever of -0.0 and 0.0 the
    # sort leaves last
    values += 0.0
    upto += 1
    # sorted needles make the binary searches walk the groups in order
    positives.sort()
    pos_in = np.bincount(np.searchsorted(values, positives), minlength=values.size)
    return values, upto, pos_in, n_pos, n_neg


def _auc_of_groups(upto, pos_in, n_pos: int, n_neg: int) -> float:
    """Rank-sum AUC from the positives per group; tied scores share the
    average rank of their group.

    A group at 0-based sorted positions start..upto-1 has the 1-based
    midrank (start + 1 + upto) / 2, and start is the previous group's upto
    (0 for the first), so twice the positives' rank sum is the exact integer
    pos_in . upto + pos_in[1:] . upto[:-1] + n_pos: two int64 dots over the
    group arrays, with no temporary.
    """
    rank_sum2 = int(np.dot(pos_in, upto)) + int(np.dot(pos_in[1:], upto[:-1])) + n_pos
    return (rank_sum2 / 2 - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _report(area: float, upto: int, pos_upto: int, n_pos: int, n_neg: int,
            threshold: float) -> MetricsReport:
    """Rates at a threshold with upto ROI scores, pos_upto of them positive, at or below it."""
    tp = n_pos - pos_upto
    tn = upto - pos_upto
    return MetricsReport(
        auc=area, se=tp / n_pos, sp=tn / n_neg, acc=(tp + tn) / (n_pos + n_neg),
        threshold=float(threshold), roi_count=n_pos + n_neg,
    )


def auc(resp: ResponseMap, truth: Mask, roi: Mask) -> float:
    """Rank-based AUC with midrank tie handling.

    Equals the exact trapezoidal area under the ROC curve swept over all
    thresholds.
    """
    _, upto, pos_in, n_pos, n_neg = _tie_groups(resp, truth, roi)
    return _auc_of_groups(upto, pos_in, n_pos, n_neg)


def best_threshold(resp: ResponseMap, truth: Mask, roi: Mask) -> tuple[float, MetricsReport]:
    """Threshold maximizing accuracy over all distinct response values.

    Ties on accuracy are broken toward higher specificity, then toward the
    larger threshold.
    """
    values, upto, pos_in, n_pos, n_neg = _tie_groups(resp, truth, roi)
    area = _auc_of_groups(upto, pos_in, n_pos, n_neg)
    pos_upto = np.cumsum(pos_in, out=pos_in)
    # at t = a group's value, tp are the positives above it and tn the
    # negatives at or below it; accuracy and specificity rank the groups as
    # the integers tp + tn and tn do, so as the key (tp + tn) * (n_neg + 1)
    # + tn, formed here in one buffer less its constant n_pos * (n_neg + 1)
    # as (tn - pos_upto) * (n_neg + 1) + tn with tn = upto - pos_upto
    key = np.subtract(upto, pos_upto)
    key -= pos_upto
    key *= n_neg + 1
    key += upto
    key -= pos_upto
    # key mod (n_neg + 1) is tn, so two groups share a key only with equal
    # tn and tp, which no two groups have: the maximum is unique and is
    # already the one at the larger threshold
    pick = int(np.argmax(key))
    threshold = float(values[pick])
    report = _report(area, int(upto[pick]), int(pos_upto[pick]), n_pos, n_neg, threshold)
    return threshold, report


def report_at_threshold(
    resp: ResponseMap, truth: Mask, roi: Mask, threshold: float
) -> MetricsReport:
    """AUC plus SE/SP/ACC at one fixed threshold."""
    _check_threshold(threshold)
    values, upto, pos_in, n_pos, n_neg = _tie_groups(resp, truth, roi)
    below = int(np.searchsorted(values, threshold, side="right"))
    at = (int(upto[below - 1]), int(pos_in[:below].sum())) if below else (0, 0)
    return _report(_auc_of_groups(upto, pos_in, n_pos, n_neg), *at, n_pos, n_neg, threshold)
