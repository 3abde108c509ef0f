"""Inductive conformal prediction on top of one-vs-all linear scores.

A calibration set supplies reference non-conformity scores; test samples
get one p-value per candidate label and a prediction set keeps the labels
whose p-value exceeds the significance level. Ties between a test score
and calibration scores count in the test sample's favor (inclusive >=),
which preserves the validity guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifier import LinearModelSet, decision_matrix
from .data import _labels_below, write_csv
from .exceptions import ConfigError, DimensionMismatchError, EmptyCalibrationError


def nonconformity_all_labels(D, lam: float) -> np.ndarray:
    """Score every sample under every candidate label.

    For candidate label y, the own-class score contributes -lam * D[i, y]
    and every other class contributes its score weighted by
    (1 - lam) / (m - 1).

    Parameters
    ----------
    D : ndarray of shape (n, m)
        Per-class decision values.
    lam : float

    Returns
    -------
    ndarray of shape (n, m)
        Entry [i, y] is the non-conformity of sample i if its label were y.
    """
    D = np.asarray(D, dtype=float)
    if D.ndim != 2 or D.shape[1] < 2:
        raise DimensionMismatchError("D must be (n_samples, n_classes>=2)")
    if not 0.0 <= lam <= 1.0:
        raise ConfigError("lam must lie in [0, 1]")
    return _nonconformity(D, lam)


def _nonconformity(D, lam) -> np.ndarray:
    """nonconformity_all_labels of each (n, m) matrix of a stack D of shape
    (..., n, m), with lam a float or an array that broadcasts against D.

    Each entry takes the operations of one matrix scored alone, so its
    bits do not depend on the stack.
    """
    lam_prime = (1.0 - lam) / (D.shape[-1] - 1)
    return -lam * D + lam_prime * (D.sum(axis=-1, keepdims=True) - D)


@dataclass(frozen=True, eq=False)
class CalibrationRecord:
    """Sorted non-conformity scores of the calibration samples."""

    alphas: np.ndarray

    def __post_init__(self):
        a = np.sort(np.asarray(self.alphas, dtype=float))
        if a.size == 0:
            raise EmptyCalibrationError("calibration set is empty")
        object.__setattr__(self, "alphas", a)

    @property
    def n(self) -> int:
        return self.alphas.shape[0]


def calibrate(ms: LinearModelSet, X_cal, y_cal) -> CalibrationRecord:
    """Score calibration samples at their true labels (whole numbers)."""
    return _calibrations([ms], [X_cal], y_cal)[0]


def _calibrations(models, X_cals, y_cal) -> list[CalibrationRecord]:
    """calibrate(ms, X, y_cal) per ms, X of ``models`` and ``X_cals``,
    models of one class count whose X hold the same rows.

    The labels are checked once, and non-conformity is computed over the
    stacked decision matrices, each entry with the operations of one
    model scored alone.
    """
    y_cal = _labels_below(y_cal, models[0].n_classes, "calibration labels", ConfigError)
    if y_cal.size == 0:
        raise EmptyCalibrationError("calibration set is empty")
    D = np.stack([decision_matrix(ms, X) for ms, X in zip(models, X_cals)])
    if D.shape[1] != y_cal.shape[0]:
        raise DimensionMismatchError("X_cal rows do not match y_cal length")
    lam = np.array([ms.lam for ms in models])[:, None, None]
    alphas = _nonconformity(D, lam)[:, np.arange(y_cal.size), y_cal]
    return [CalibrationRecord(alphas=a) for a in alphas]


def p_value_matrix(record: CalibrationRecord, A) -> np.ndarray:
    """p-value of every candidate-label score in A.

    Entry-wise (#{calibration scores >= a} + 1) / (n + 1).
    """
    A = np.asarray(A, dtype=float)
    ge = record.n - np.searchsorted(record.alphas, A, side="left")
    return (ge + 1) / (record.n + 1)


def prediction_mask(P, epsilon: float) -> np.ndarray:
    """Boolean matrix (n, m): True where the label enters the set."""
    epsilon = float(epsilon)
    if not 0.0 <= epsilon <= 1.0:
        raise ConfigError("epsilon must lie in [0, 1]")
    return np.asarray(P, dtype=float) > epsilon


def conformal_predict(
    ms: LinearModelSet, record: CalibrationRecord, X, epsilon: float
) -> tuple[np.ndarray, np.ndarray]:
    """Full test-time pipeline: scores -> p-values -> set membership.

    Returns
    -------
    P : ndarray of shape (n, m)
        Per-label p-values.
    mask : ndarray of bool, shape (n, m)
        Prediction-set membership at the given epsilon.
    """
    D = decision_matrix(ms, X)
    P = p_value_matrix(record, nonconformity_all_labels(D, ms.lam))
    return P, prediction_mask(P, epsilon)


def write_prediction_csv(path, P, mask, class_names, sample_ids=None) -> None:
    """Write one row per test sample: id, per-class p-values, joined set.

    Columns are ``sample_id, p_class_0..p_class_{m-1}, set``; the set cell
    joins member class names with '|' (empty cell for the empty set).
    Floats are written with round-trip precision. ``sample_ids``, if
    given, holds one id per row of P.
    """
    P = np.asarray(P, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    n, m = P.shape
    if mask.shape != (n, m) or len(class_names) != m:
        raise DimensionMismatchError("P, mask and class_names disagree on shape")
    if sample_ids is None:
        sample_ids = range(n)
    if len(sample_ids) != n:
        raise DimensionMismatchError(f"{len(sample_ids)} sample ids for {n} rows of P")
    columns = ["sample_id", *(f"p_class_{k}" for k in range(m)), "set"]
    rows = (
        [sid, *P[i], "|".join(class_names[k] for k in np.flatnonzero(mask[i]))]
        for i, sid in enumerate(sample_ids)
    )
    write_csv(path, columns, rows)
