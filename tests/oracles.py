"""Scalar reference forms of the package's vectorized computations.

The package computes non-conformity, p-values, prediction sets, decision
values, feature scores, feature picks and pairwise agreement over whole
arrays at once, trains all one-vs-all problems, and all
cross-validation folds of one size, in one stacked solve, and imputes the
rows of one missing pattern together. The forms here handle one sample,
one model, one binary problem, one feature, one fold, one family or one
imputed row at a time, straight from the definitions, so tests can
check the array code entry by entry against them; a trained binary model
is checked against its objective and gradient. The stop check here
keeps the second differences in a list of their own, as an engine that
appends each pass's value would.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from crfe.classifier import LinearModelSet, decision_matrix, train_ova
from crfe.conformal import CalibrationRecord, nonconformity_all_labels
from crfe.consistency import SubsetFamily, kuncheva
from crfe.exceptions import (
    ConfigError,
    DegenerateLabelsError,
    DimensionMismatchError,
    EmptyVectorError,
    InvalidFamilyError,
    NotEnoughDonorsError,
)
from crfe.metrics import point_predict
from crfe.selection import BetaStopResult


def theta(y, k):
    """Agreement sign: +1 where y == k, else -1. Broadcasts like numpy."""
    return np.where(np.asarray(y) == np.asarray(k), 1, -1)


def binary_nonconformity(d, y, k):
    """Non-conformity of one binary model's score d for true label y.

    Samples of class k (theta = +1) are stranger the lower their score;
    all other samples are stranger the higher it.
    """
    return -theta(y, k) * np.asarray(d, dtype=float)


def multiclass_nonconformity(d_values, own_class: int, lam: float) -> float:
    """Combine per-class scores into one score for the candidate label.

    The own-class model contributes -lam * d_own; every other model
    contributes its score weighted by (1 - lam) / (m - 1).
    """
    d = np.asarray(d_values, dtype=float)
    m = d.shape[0]
    if not 0 <= own_class < m:
        raise ConfigError(f"own_class {own_class} out of range for {m} classes")
    if not 0.0 <= lam <= 1.0:
        raise ConfigError("lam must lie in [0, 1]")
    lam_prime = (1.0 - lam) / (m - 1)
    rest = d.sum() - d[own_class]
    return float(-lam * d[own_class] + lam_prime * rest)


def p_value(record: CalibrationRecord, alpha: float) -> float:
    """(#{calibration scores >= alpha} + 1) / (n + 1)."""
    ge = record.n - int(np.searchsorted(record.alphas, alpha, side="left"))
    return (ge + 1) / (record.n + 1)


@dataclass(frozen=True, eq=False)
class PredictionSet:
    """Label set for one sample at significance epsilon.

    members holds the class ids whose p-value strictly exceeds epsilon,
    in ascending order.
    """

    p: np.ndarray
    epsilon: float
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)

    def is_singleton(self) -> bool:
        return len(self.members) == 1

    def is_empty(self) -> bool:
        return not self.members

    def contains(self, y: int) -> bool:
        return int(y) in self.members


def prediction_set(p_row, epsilon: float) -> PredictionSet:
    """Keep the labels whose p-value exceeds epsilon."""
    epsilon = float(epsilon)
    if not 0.0 <= epsilon <= 1.0:
        raise ConfigError("epsilon must lie in [0, 1]")
    p = np.asarray(p_row, dtype=float)
    members = tuple(int(k) for k in np.flatnonzero(p > epsilon))
    return PredictionSet(p=p, epsilon=epsilon, members=members)


def decision_value(w, b: float, X) -> np.ndarray:
    """Scores X @ w + b for one hyperplane; X columns must match len(w)."""
    w = np.asarray(w, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != w.shape[0]:
        raise DimensionMismatchError(
            f"X has shape {X.shape}, model expects {w.shape[0]} columns"
        )
    return X @ w + b


def squared_hinge_objective(w, b: float, X, z, c: float) -> float:
    """Objective one binary problem minimizes (bias penalized too):
    (||w||^2 + b^2) / 2 + (c / 2) sum_i max(0, 1 - z_i (w . x_i + b))^2."""
    w = np.asarray(w, dtype=float)
    slack = np.maximum(0.0, 1.0 - np.asarray(z, dtype=float) * decision_value(w, b, X))
    return float((w @ w + b * b) / 2.0 + c / 2.0 * (slack @ slack))


def squared_hinge_gradient(w, b: float, X, z, c: float) -> tuple[np.ndarray, float]:
    """Gradient of squared_hinge_objective in (w, b), one row at a time."""
    gw, gb = np.array(w, dtype=float), float(b)
    for x_i, z_i in zip(np.asarray(X, dtype=float), z):
        slack = 1.0 - z_i * (x_i @ w + b)
        if slack > 0:
            gw -= c * slack * z_i * x_i
            gb -= c * slack * z_i
    return gw, gb


def cv_accuracy(X, y, n_classes, tcfg, folds: int = 5) -> float:
    """Mean held-out argmax accuracy over contiguous folds, one fold at a time.

    A fold that holds out no row, or whose training rows miss a class, is
    skipped; -1.0 when every fold is skipped.
    """
    n = X.shape[0]
    accs = []
    for hold in np.array_split(np.arange(n), folds):
        if not hold.size:
            continue
        train_rows = np.setdiff1d(np.arange(n), hold)
        try:
            ms = train_ova(X[train_rows], y[train_rows], n_classes, tcfg)
        except DegenerateLabelsError:
            continue
        pred = point_predict(decision_matrix(ms, X[hold]))
        accs.append(float((pred == y[hold]).mean()))
    return float(np.mean(accs)) if accs else -1.0


class UnknownPositionError(IndexError):
    """A position does not index the active feature list."""


def restrict(ms: LinearModelSet, positions) -> LinearModelSet:
    """Keep only the given positions (indices into the active feature list).

    Weights are sliced without retraining; biases are kept. The result
    scores as if the dropped features contributed nothing.
    """
    positions = np.asarray(positions, dtype=int)
    if positions.size and (positions.min() < 0 or positions.max() >= ms.n_features):
        raise UnknownPositionError(
            f"positions out of range for {ms.n_features} active features"
        )
    active = tuple(ms.active_features[p] for p in positions)
    return LinearModelSet(W=ms.W[:, positions], b=ms.b, lam=ms.lam, active_features=active)


def delta_nonconformity_oracle(ms: LinearModelSet, X, y, position: int) -> float:
    """Change in total non-conformity when one feature's contribution goes.

    Rescoring implementation kept independent of the closed form in
    beta_measures: the total calibration score is computed with the full
    model and again with the feature sliced out of every weight vector,
    and the difference (full minus reduced) is returned. Agrees with
    beta_measures to floating-point accuracy.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    rows = np.arange(y.size)
    full = nonconformity_all_labels(decision_matrix(ms, X), ms.lam)[rows, y]
    keep = [p for p in range(ms.n_features) if p != position]
    sub = restrict(ms, keep)
    reduced = nonconformity_all_labels(decision_matrix(sub, X[:, keep]), ms.lam)[rows, y]
    return float(full.sum() - reduced.sum())


def argmax_beta(beta) -> int:
    """Position of the largest score; ties go to the lowest original index."""
    beta = np.asarray(beta, dtype=float)
    if beta.size == 0:
        raise EmptyVectorError("no features left to score")
    return int(np.argmax(beta))


def beta_stop_check(mean_history, second_derivative_history, sigma: float, psi: int,
                    warmup: int) -> BetaStopResult:
    """The automatic stop, with the earlier second differences passed in.

    ``second_derivative_history`` must hold the values of earlier passes
    only; the newest is computed from the last psi means (at least three)
    and compared against sigma times the population std of the last psi
    entries of the history, with the package's zero-variance fallback.
    """
    hist = np.asarray(mean_history, dtype=float)
    if hist.size < 3:
        return BetaStopResult(False, math.nan, math.nan)
    window = hist[-psi:] if psi >= 3 else hist[-3:]
    latest = float(np.diff(window, n=2)[-1])
    prior = np.asarray(second_derivative_history, dtype=float)[-psi:]
    if prior.size == 0:
        return BetaStopResult(False, latest, math.nan)
    std = float(prior.std())
    threshold = max(sigma * std, 1e-9 * max(1.0, abs(float(hist[-1]))))
    if hist.size <= warmup:
        return BetaStopResult(False, latest, threshold)
    return BetaStopResult(abs(latest) > threshold, latest, threshold)


def kuncheva_family(family: SubsetFamily, universe_size: int) -> float:
    """Mean pairwise index over all unordered pairs in the family."""
    if family.n < 2:
        raise InvalidFamilyError("need at least two subsets for pairwise agreement")
    vals = [
        kuncheva(a, b, universe_size)
        for a, b in combinations(family.subsets, 2)
    ]
    return float(np.mean(vals))


def weighted_consistency(family: SubsetFamily, denominator: str = "union",
                         universe_size: int | None = None) -> float:
    """Weighted majority-recurrence index, one majority count at a time.

    C_j counts the features found in at least j of the n subsets; the
    majority counts j > n // 2 are weighted by j / sum(j) and divided by
    D = |union| ("union", the only form the package computes) or by an
    explicit universe size ("universe"), which must cover the union.
    """
    union = family.union()
    if denominator == "union":
        denom = len(union)
    elif denominator == "universe":
        if universe_size is None or universe_size < len(union):
            raise InvalidFamilyError("universe_size must cover the union")
        denom = universe_size
    else:
        raise InvalidFamilyError(f"unknown denominator {denominator!r}")
    majority = range(family.n // 2 + 1, family.n + 1)
    total = 0.0
    for j in majority:
        c_j = sum(1 for f in union if sum(f in s for s in family.subsets) >= j)
        total += j / sum(majority) * c_j / denom
    return total


def impute_knn(d, k: int) -> np.ndarray:
    """The filled matrix of crfe.data.impute_knn, one row with a gap at a time.

    Every row rebuilds its shared-feature masks, takes the mean squared
    difference over the shared features with NaN terms dropped as in
    np.nansum, and picks its donors by a full stable argsort.
    """
    X = d.X
    mask = d.missing_mask
    present = ~mask
    filled = X.copy()
    shared = np.empty_like(present)
    unshared = np.empty_like(present)
    sq = np.empty_like(X)

    rows_with_missing = np.flatnonzero(mask.any(axis=1))
    for i in rows_with_missing:
        np.logical_and(present, present[i], out=shared)
        np.logical_not(shared, out=unshared)
        n_shared = shared.sum(axis=1)
        np.subtract(X, X[i], out=sq)
        np.copyto(sq, 0.0, where=unshared)
        np.multiply(sq, sq, out=sq)
        np.copyto(sq, 0.0, where=np.isnan(sq))
        with np.errstate(invalid="ignore"):
            dist = np.sqrt(np.where(n_shared > 0, sq.sum(axis=1), np.inf)
                           / np.maximum(n_shared, 1))
        dist[n_shared == 0] = np.inf
        dist[i] = np.inf
        for j in np.flatnonzero(mask[i]):
            donor_ok = present[:, j] & np.isfinite(dist)
            donors = np.flatnonzero(donor_ok)
            if donors.size < k:
                raise NotEnoughDonorsError(
                    f"column {d.feature_names[j]!r}: {donors.size} donors < k={k}"
                )
            order = donors[np.argsort(dist[donors], kind="stable")[:k]]
            filled[i, j] = X[order, j].mean()
    return filled
