"""Segmentation quality metrics restricted to the ROI.

All counts and rates consider ROI pixels only; pixels outside the mask
never enter a confusion cell. A pixel is predicted vessel when its
response is strictly greater than the threshold.
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


def binarize(resp: ResponseMap, roi: Mask, threshold: float) -> Mask:
    """Vessel mask: ROI pixels whose response exceeds the threshold."""
    if not np.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    _check_same_dims(resp, roi)
    return Mask(roi.inside & (resp.values > threshold))


def _roi_scores_labels(resp: ResponseMap, truth: Mask, roi: Mask):
    _check_same_dims(resp, truth, roi)
    inside = roi.inside
    scores = resp.values[inside]
    labels = truth.inside[inside]
    n_pos = int(np.count_nonzero(labels))
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassRoiError(
            f"ROI ground truth has {n_pos} positives and {n_neg} negatives; "
            "both classes are required"
        )
    return scores, labels, n_pos, n_neg


def auc(resp: ResponseMap, truth: Mask, roi: Mask) -> float:
    """Rank-based AUC with midrank tie handling.

    Equals the exact trapezoidal area under the ROC curve swept over all
    thresholds.
    """
    scores, labels, n_pos, n_neg = _roi_scores_labels(resp, truth, roi)
    order = np.argsort(scores, kind="mergesort")
    return _auc_of_order(scores[order], order, labels, n_pos, n_neg)


def _auc_of_order(sorted_scores: np.ndarray, order: np.ndarray, labels: np.ndarray,
                  n_pos: int, n_neg: int) -> float:
    """Rank-sum AUC from the scores' stable ascending order.

    sorted_scores is scores[order]. Ranks are 1-based, and tied scores
    share the average rank of their group (midranks).
    """
    n = order.size
    boundary = np.concatenate(([True], sorted_scores[1:] != sorted_scores[:-1]))
    group_id = np.cumsum(boundary) - 1
    group_start = np.nonzero(boundary)[0]
    group_size = np.diff(np.concatenate((group_start, [n])))
    mid = group_start + (group_size - 1) / 2.0 + 1.0
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = mid[group_id]
    rank_sum = float(ranks[labels].sum())
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def _metrics_at(tp: int, fp: int, n_pos: int, n_neg: int) -> tuple[float, float, float]:
    fn = n_pos - tp
    tn = n_neg - fp
    se = tp / n_pos
    sp = tn / n_neg
    acc = (tp + tn) / (n_pos + n_neg)
    return se, sp, acc


def best_threshold(resp: ResponseMap, truth: Mask, roi: Mask) -> tuple[float, MetricsReport]:
    """Threshold maximizing accuracy over all distinct response values.

    Ties on accuracy are broken toward higher specificity, then toward the
    larger threshold.
    """
    scores, labels, n_pos, n_neg = _roi_scores_labels(resp, truth, roi)
    n = scores.size

    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    area = _auc_of_order(sorted_scores, order, labels, n_pos, n_neg)
    sorted_labels = labels[order]

    # predicted positive means score > t, so for t = sorted_scores[i] the
    # positives are everything after the last index holding that value
    pos_suffix = np.concatenate(([0], np.cumsum(sorted_labels[::-1])))[::-1]
    last_of_value = np.concatenate((sorted_scores[:-1] != sorted_scores[1:], [True]))
    cand = np.nonzero(last_of_value)[0]

    tp = pos_suffix[cand + 1]
    fp = (n - (cand + 1)) - tp
    tn = n_neg - fp
    acc = (tp + tn) / n
    sp = tn / n_neg
    # primary key last; stable sort keeps ascending-threshold order within ties
    pick = np.lexsort((sp, acc))[-1]

    threshold = float(sorted_scores[cand[pick]])
    se_v, sp_v, acc_v = _metrics_at(int(tp[pick]), int(fp[pick]), n_pos, n_neg)
    report = MetricsReport(
        auc=area, se=se_v, sp=sp_v, acc=acc_v,
        threshold=threshold, roi_count=n,
    )
    return threshold, report


def report_at_threshold(
    resp: ResponseMap, truth: Mask, roi: Mask, threshold: float
) -> MetricsReport:
    """AUC plus SE/SP/ACC at one fixed threshold."""
    scores, labels, n_pos, n_neg = _roi_scores_labels(resp, truth, roi)
    area = auc(resp, truth, roi)
    pred = scores > threshold
    tp = int(np.count_nonzero(pred & labels))
    fp = int(np.count_nonzero(pred & ~labels))
    se, sp, acc = _metrics_at(tp, fp, n_pos, n_neg)
    return MetricsReport(
        auc=area, se=se, sp=sp, acc=acc,
        threshold=float(threshold), roi_count=scores.size,
    )
