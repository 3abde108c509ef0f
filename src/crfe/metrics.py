"""Evaluation of set-valued and point predictions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _whole_labels
from .exceptions import EmptyTestSetError, LengthMismatchError


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
    y_true : ndarray of whole numbers, shape (n,)
    """
    mask = np.asarray(mask, dtype=bool)
    y_true = _whole_labels(y_true)
    if mask.ndim != 2:
        raise LengthMismatchError("mask must be 2-dimensional")
    n, m = mask.shape
    if y_true.shape != (n,):
        raise LengthMismatchError("y_true length does not match mask rows")
    if n == 0:
        raise EmptyTestSetError("no test samples to score")
    sizes = mask.sum(axis=1)
    hits = mask[np.arange(n), y_true]
    return SetMetricsReport(
        coverage=float(hits.mean()),
        inefficiency=float(sizes.mean()),
        certainty=float((hits & (sizes == 1)).mean()),
        uncertainty=float((sizes == m).mean()),
        mistrust=float((sizes == 0).mean()),
        n=n,
    )


def point_predict(D) -> np.ndarray:
    """Argmax label per row of a decision matrix (ties: lowest class id)."""
    D = np.asarray(D, dtype=float)
    return D.argmax(axis=1)


def point_metrics(y_pred, y_true, n_classes: int) -> PointMetricsReport:
    """Score whole-number label predictions; zero-count ratios come out as 0."""
    y_pred = _whole_labels(y_pred)
    y_true = _whole_labels(y_true)
    if y_pred.shape != y_true.shape:
        raise LengthMismatchError("prediction and truth lengths differ")
    n = y_true.shape[0]
    if n == 0:
        raise EmptyTestSetError("no test samples to score")
    precision = np.zeros(n_classes)
    recall = np.zeros(n_classes)
    f1 = np.zeros(n_classes)
    for k in range(n_classes):
        tp = int(((y_pred == k) & (y_true == k)).sum())
        pred_k = int((y_pred == k).sum())
        true_k = int((y_true == k).sum())
        p = tp / pred_k if pred_k else 0.0
        r = tp / true_k if true_k else 0.0
        precision[k] = p
        recall[k] = r
        f1[k] = 2 * p * r / (p + r) if p + r else 0.0
    return PointMetricsReport(
        accuracy=float((y_pred == y_true).mean()),
        precision=precision,
        recall=recall,
        f1=f1,
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_f1=float(f1.mean()),
        n=n,
    )
