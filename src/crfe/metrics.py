"""Evaluation of set-valued and point predictions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _labels_below
from .exceptions import EmptyTestSetError, LengthMismatchError, require_int


@dataclass(frozen=True)
class SetMetricsReport:
    """Averages over a test set of label-set predictions.

    coverage: fraction of samples whose set contains the true label.
    inefficiency: mean set size.
    certainty: fraction predicted as a singleton holding the true label.
    uncertainty: fraction predicted as the full label set.
    mistrust: fraction predicted as the empty set.
    """

    coverage: float
    inefficiency: float
    certainty: float
    uncertainty: float
    mistrust: float
    n: int


@dataclass(frozen=True, eq=False)
class PointMetricsReport:
    """Accuracy plus per-class precision/recall/F1 and macro averages.

    Undefined ratios (0/0) are reported as 0.
    """

    accuracy: float
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    macro_precision: float
    macro_recall: float
    macro_f1: float
    n: int


def set_metrics(mask, y_true) -> SetMetricsReport:
    """Score prediction-set membership rows against true labels.

    Parameters
    ----------
    mask : ndarray of bool, shape (n, m)
        Row i marks the labels inside sample i's prediction set.
    y_true : ndarray of whole numbers in [0, m), shape (n,)
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise LengthMismatchError("mask must be 2-dimensional")
    return _set_reports(mask[None], y_true)[0]


def _set_reports(masks, y_true) -> list[SetMetricsReport]:
    """set_metrics of each (n, m) mask of the (M, n, m) boolean stack
    ``masks``, against labels y_true, which are checked once.

    Each metric is a mean over one contiguous row of 0/1 or whole-number
    values, whose float sum is exact, so it has the bits of one mask
    scored alone.
    """
    _, n, m = masks.shape
    y_true = _labels_below(y_true, m, "labels")
    if y_true.shape != (n,):
        raise LengthMismatchError("y_true length does not match mask rows")
    if n == 0:
        raise EmptyTestSetError("no test samples to score")
    sizes = masks.sum(axis=2)
    hits = masks[:, np.arange(n), y_true]
    stats = np.stack([
        hits.mean(axis=1),
        sizes.mean(axis=1),
        (hits & (sizes == 1)).mean(axis=1),
        (sizes == m).mean(axis=1),
        (sizes == 0).mean(axis=1),
    ], axis=1)
    return [SetMetricsReport(*row, n=n) for row in stats.tolist()]


def point_predict(D) -> np.ndarray:
    """Argmax label per row of a decision matrix (ties: lowest class id)."""
    D = np.asarray(D, dtype=float)
    return D.argmax(axis=1)


def point_metrics(y_pred, y_true, n_classes: int) -> PointMetricsReport:
    """Score labels in [0, n_classes); zero-count ratios come out as 0."""
    require_int("n_classes", n_classes, 1)
    y_pred = _labels_below(y_pred, n_classes, "predicted labels")
    return _point_reports(y_pred[None], y_true, n_classes)[0]


def _point_reports(y_pred, y_true, n_classes: int) -> list[PointMetricsReport]:
    """point_metrics of each row of the (M, n) predictions ``y_pred``,
    each in [0, n_classes), against labels y_true, which are checked once.

    Counts are exact, and each ratio and mean is taken per model along a
    contiguous row, so a report has the bits of one row scored alone.
    """
    y_true = _labels_below(y_true, n_classes, "true labels")
    if y_pred.shape[1:] != y_true.shape:
        raise LengthMismatchError("prediction and truth lengths differ")
    if y_true.shape[0] == 0:
        raise EmptyTestSetError("no test samples to score")
    M, n = y_pred.shape
    offset = n_classes * np.arange(M)[:, None]  # model i counts class k at i * n_classes + k
    right = y_pred == y_true
    tp = np.bincount((y_true + offset)[right], minlength=M * n_classes).reshape(M, n_classes)
    pred_k = np.bincount((y_pred + offset).ravel(), minlength=M * n_classes).reshape(M, n_classes)
    true_k = np.bincount(y_true, minlength=n_classes)
    with np.errstate(divide="ignore", invalid="ignore"):  # the 0/0 cases are set to 0
        precision = np.where(pred_k > 0, tp / pred_k, 0.0)
        recall = np.where(true_k > 0, tp / true_k, 0.0)
        f1 = np.where(precision + recall > 0, 2 * precision * recall / (precision + recall), 0.0)
    means = np.stack([right.mean(axis=1), precision.mean(axis=1), recall.mean(axis=1),
                      f1.mean(axis=1)], axis=1).tolist()
    return [
        PointMetricsReport(
            accuracy=acc,
            precision=precision[i],
            recall=recall[i],
            f1=f1[i],
            macro_precision=mp,
            macro_recall=mr,
            macro_f1=mf,
            n=n,
        )
        for i, (acc, mp, mr, mf) in enumerate(means)
    ]
