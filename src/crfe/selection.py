"""Recursive feature elimination driven by calibration non-conformity.

Each iteration retrains the one-vs-all models on the surviving features
and scores every feature j with

    beta_j = -lam * sum_i w_j^{y_i} x_ij + lam' * sum_i sum_{r != y_i} w_j^r x_ij

over the calibration samples. beta_j equals the drop in total calibration
non-conformity when feature j's contribution is deleted from every score
(no retraining), so the feature with the largest beta is the one whose
removal makes the calibration set look most conforming; it is eliminated
and the loop continues. Stopping is either a fixed target size or an
automatic criterion watching the mean-beta trajectory. A classical
baseline that removes the smallest squared-weight feature shares the same
engine.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from enum import Enum

import numpy as np

from .classifier import LinearModelSet, TrainConfig, _train_sets
from .data import _labels_below, write_csv
from .exceptions import (
    DimensionMismatchError, EmptyVectorError, InvalidPolicyError, require_int, require_real,
)

DEFAULT_SIGMA = 5.0
DEFAULT_PSI = 10
DEFAULT_WARMUP = 5


# ------------------------------------------------------------------ scoring


def beta_measures(ms: LinearModelSet, X, y) -> np.ndarray:
    """Score every active feature on a calibration set.

    Closed form over the whole set: with t1_j = sum_i w_j^{y_i} x_ij and
    t2_j = (sum_k w_j^k)(sum_i x_ij) - t1_j,

        beta_j = -lam * t1_j + lam' * t2_j.

    Returns the (n_features,) scores in active-feature order. Runs in
    O((n + m) l); bias terms cancel and never enter. Labels must be whole
    numbers.
    """
    X = np.asarray(X, dtype=float)
    y = _labels_below(y, ms.n_classes, "labels", DimensionMismatchError)
    if X.ndim != 2 or X.shape[1] != ms.n_features:
        raise DimensionMismatchError("X columns do not match the model's features")
    if y.shape != (X.shape[0],):
        raise DimensionMismatchError("y length does not match X rows")
    t1 = (X * ms.W[y]).sum(axis=0)
    t2 = ms.W.sum(axis=0) * X.sum(axis=0) - t1
    return -ms.lam * t1 + ms.lambda_prime * t2


def rfe_criterion(ms: LinearModelSet) -> np.ndarray:
    """Classical elimination score: sum over classes of squared weights."""
    return (ms.W * ms.W).sum(axis=0)


# ----------------------------------------------------------------- stopping


@dataclass(frozen=True)
class FixedSize:
    """Stop once the active set is down to ``target`` features."""

    target: int

    def __post_init__(self):
        require_int("target size", self.target, 1, InvalidPolicyError)


@dataclass(frozen=True)
class BetaCriterion:
    """Stop when the mean-beta trajectory bends abnormally hard.

    The second difference of the mean-beta history is compared against
    sigma times the standard deviation of its own last psi values
    (excluding the newest). No firing during the first ``warmup``
    iterations.
    """

    sigma: float = DEFAULT_SIGMA
    psi: int = DEFAULT_PSI
    warmup: int = DEFAULT_WARMUP

    def __post_init__(self):
        require_real("sigma", self.sigma, InvalidPolicyError)
        if self.sigma < 1:
            raise InvalidPolicyError("sigma must be >= 1")
        require_int("psi", self.psi, 3, InvalidPolicyError)
        require_int("warmup", self.warmup, 0, InvalidPolicyError)


@dataclass(frozen=True)
class BetaStopResult:
    fired: bool
    second_derivative: float
    threshold: float


def beta_stop_check(
    mean_history,
    sigma: float = DEFAULT_SIGMA,
    psi: int = DEFAULT_PSI,
    warmup: int = DEFAULT_WARMUP,
) -> BetaStopResult:
    """Evaluate the automatic stop on the mean-beta history so far.

    The newest second difference of ``mean_history`` (it reads only the
    last three means) is compared against sigma times the population std
    of the psi second differences before it. A zero-variance window falls
    back to a small absolute threshold scaled by the newest mean, so an
    exactly flat history still fires on a real kink. Never fires while
    fewer than 4 means exist, or while the history holds at most
    ``warmup`` means.
    """
    hist = np.asarray(mean_history, dtype=float)
    if hist.size < 3:
        return BetaStopResult(False, math.nan, math.nan)
    d2 = np.diff(hist, n=2)
    latest = float(d2[-1])
    prior = d2[:-1][-psi:]
    if prior.size == 0:
        return BetaStopResult(False, latest, math.nan)
    std = float(prior.std())
    threshold = max(sigma * std, 1e-9 * max(1.0, abs(float(hist[-1]))))
    if hist.size <= warmup:
        return BetaStopResult(False, latest, threshold)
    return BetaStopResult(abs(latest) > threshold, latest, threshold)


# ------------------------------------------------------------------- traces


class StopReason(Enum):
    REACHED_TARGET_SIZE = "ReachedTargetSize"
    BETA_CRITERION_FIRED = "BetaCriterionFired"
    EXHAUSTED_TO_ONE_FEATURE = "ExhaustedToOneFeature"


@dataclass(frozen=True)
class SelectionStep:
    """One elimination-loop pass.

    removed_feature is the original column index, or None on the pass
    where the automatic criterion fired (nothing is removed then).
    remaining_count counts active features after the pass. criterion_value
    is the removed feature's score; mean_beta / second_derivative are NaN
    where the method does not compute them.
    """

    iteration: int
    removed_feature: int | None
    criterion_value: float
    mean_beta: float
    second_derivative: float
    remaining_count: int


@dataclass(frozen=True, eq=False)
class SelectionTrace:
    """Full record of one elimination run. models holds the LinearModelSet of
    every pass, in pass order, so the last one is trained on ``selected``."""

    method: str
    steps: tuple[SelectionStep, ...]
    selected: tuple[int, ...]
    stop_reason: StopReason
    models: tuple[LinearModelSet, ...] = ()

    @property
    def n_selected(self) -> int:
        return len(self.selected)


TRACE_CSV_COLUMNS = tuple(f.name for f in fields(SelectionStep))


def trace_to_csv(trace: SelectionTrace, path) -> None:
    """One row per pass; NaN and None become empty cells."""
    write_csv(path, TRACE_CSV_COLUMNS, (astuple(s) for s in trace.steps))


def trace_to_json(trace: SelectionTrace, feature_names=None) -> dict:
    """Plain-dict form (NaN mapped to None) for json.dump.

    When feature_names are given, final_subset lists names; otherwise it
    lists the original column indices.
    """

    def num(v):
        if v is None or (isinstance(v, float) and math.isnan(v)):
            return None
        return v

    if feature_names is None:
        final = list(trace.selected)
    else:
        final = [feature_names[j] for j in trace.selected]
    return {
        "method": trace.method,
        "stop_reason": trace.stop_reason.value,
        "final_subset": final,
        "steps": [
            {f.name: num(getattr(s, f.name)) for f in fields(SelectionStep)}
            for s in trace.steps
        ],
    }


# ------------------------------------------------------------------- engine


def _elimination(X_train, X_cal, y_cal, method: str, policy):
    """The backward loop shared by both selectors, as a generator.

    It yields each pass's active set as a tuple and is sent that set's
    LinearModelSet with its scores, a dict method -> criterion that every
    run on the set and the same calibration data shares; it returns the
    SelectionTrace, which keeps every model it was sent. Its checks run
    at the first next(), before anything trains. Each pass scores the
    active features with the method's criterion (beta for crfe, squared
    weights for rfe), unless a run of the same method scored them, and
    removes the one it picks. For crfe the criterion's mean is the mean beta: its history
    and second difference are recorded under either policy, and only
    BetaCriterion stops on them.
    """
    # built per run, so the scores go through this module's names at call time
    score, pick, beta = {
        "crfe": (beta_measures, np.argmax, True),
        "rfe": (lambda ms, _X, _y: rfe_criterion(ms), np.argmin, False),
    }[method]
    if isinstance(policy, BetaCriterion) and not beta:
        raise InvalidPolicyError("the baseline has no automatic stop; use FixedSize")
    if X_train.ndim != 2 or X_cal.ndim != 2 or X_train.shape[1] != X_cal.shape[1]:
        raise DimensionMismatchError("train and calibration matrices disagree on columns")
    if not isinstance(policy, (FixedSize, BetaCriterion)):
        raise InvalidPolicyError(f"unsupported policy {policy!r}")
    if X_train.shape[1] < 1:
        raise EmptyVectorError("no features to select from")
    if isinstance(policy, FixedSize):
        if policy.target >= X_train.shape[1]:
            raise InvalidPolicyError(
                f"target {policy.target} must be below the initial {X_train.shape[1]} features"
            )
        floor, floor_reason = policy.target, StopReason.REACHED_TARGET_SIZE
        # the derivative record is kept so fixed-size traces can be
        # replayed against the criterion, which never stops them
        stop = BetaCriterion()
    else:
        floor, floor_reason, stop = 1, StopReason.EXHAUSTED_TO_ONE_FEATURE, policy

    active = list(range(X_train.shape[1]))
    steps: list[SelectionStep] = []
    models: list[LinearModelSet] = []
    mean_hist: list[float] = []
    fired = False
    while not fired:
        ms, scores = yield tuple(active)
        models.append(ms)
        if method not in scores:
            scores[method] = score(ms, X_cal[:, active], y_cal)
        crit = scores[method]
        if beta:
            mean = float(crit.mean())
            mean_hist.append(mean)
            check = beta_stop_check(mean_hist, stop.sigma, stop.psi, stop.warmup)
            d2, fired = check.second_derivative, check.fired and stop is policy
        else:
            mean = d2 = math.nan

        if fired:
            removed, value = None, math.nan
        elif len(active) <= floor:
            break
        else:
            pos = int(pick(crit))
            removed, value = active.pop(pos), float(crit[pos])
        steps.append(SelectionStep(len(steps) + 1, removed, value, mean, d2, len(active)))

    return SelectionTrace(
        method=method,
        steps=tuple(steps),
        selected=tuple(active),
        stop_reason=StopReason.BETA_CRITERION_FIRED if fired else floor_reason,
        models=tuple(models),
    )


def _lockstep(groups, n_classes: int, config: TrainConfig, lam: float) -> list[SelectionTrace]:
    """Every elimination of ``groups`` in lock-step; one trace each, in group and plan order.

    A group is (X_train, y_train, X_cal, y_cal, plan), plan a list of
    (method, policy); the runs of a group share the model of each active
    set they train, and each method's scores of it. Every policy is
    checked before anything trains. Each round, the sets new to their
    group train in one classifier._train_sets call, each a job of every
    training row (one row array per group, so its labels are signed once a
    call), started from the model its run was last sent, on the columns
    the run keeps. A set that several runs want starts from the first of
    them in run order.
    """
    models = [{} for _ in groups]  # per group, tuple(active) -> its model and scores
    data, runs = [], []  # per group (X_train, y_train), then its rows; per run (group, generator)
    for X_train, y_train, X_cal, y_cal, plan in groups:
        X_train, X_cal = np.asarray(X_train, dtype=float), np.asarray(X_cal, dtype=float)
        runs += [(len(data), _elimination(X_train, X_cal, y_cal, method, policy))
                 for method, policy in plan]
        data.append((X_train, y_train))
    wants = {i: next(gen) for i, (_, gen) in enumerate(runs)}  # each live run's active set
    data = [(X, y, np.arange(len(X))[None]) for X, y in data]  # every row as one set, once
    last: dict = {}  # each run's model of its last pass
    traces = [None] * len(runs)
    while wants:
        new: dict = {}  # (group, active set) -> the run that starts it
        for i, a in wants.items():
            if a not in models[runs[i][0]]:
                new.setdefault((runs[i][0], a), i)
        keys = list(new)
        jobs = [(*data[g], a, last.get(i)) for (g, a), i in new.items()]
        for j, (W, b) in _train_sets(jobs, n_classes, config):
            g, a = keys[j]
            models[g][a] = LinearModelSet(W=W[0], b=b[0], lam=lam, active_features=a), {}
        for i, active in list(wants.items()):
            g, gen = runs[i]
            last[i], scores = models[g][active]
            try:
                wants[i] = gen.send((last[i], scores))
            except StopIteration as done:
                traces[i] = done.value
                del wants[i]
    return traces


def run_crfe(
    X_train,
    y_train,
    X_cal,
    y_cal,
    n_classes: int,
    policy,
    config: TrainConfig = TrainConfig(),
    lam: float = 0.5,
) -> SelectionTrace:
    """Conformal elimination: retrain, score with beta, drop the largest.

    policy is FixedSize or BetaCriterion. The calibration split feeds the
    beta scores and is never used for weight fitting. The trace's models
    end with the one trained on the selected features.
    """
    return _lockstep([(X_train, y_train, X_cal, y_cal, [("crfe", policy)])],
                     n_classes, config, lam)[0]


def run_rfe(
    X_train,
    y_train,
    X_cal,
    y_cal,
    n_classes: int,
    policy,
    config: TrainConfig = TrainConfig(),
    lam: float = 0.5,
) -> SelectionTrace:
    """Weight-norm elimination baseline; drops the smallest squared weight.

    Accepts the calibration split so callers can swap methods freely, but
    the criterion itself only reads the trained weights. Only FixedSize
    stopping applies.
    """
    return _lockstep([(X_train, y_train, X_cal, y_cal, [("rfe", policy)])],
                     n_classes, config, lam)[0]
