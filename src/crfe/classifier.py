"""Linear one-vs-all classifiers trained on the squared hinge.

Each binary problem minimizes the L2-regularized squared-hinge objective

    J(w, b) = (||w||^2 + b^2) / 2 + (C / 2) sum_i max(0, 1 - z_i (w . x_i + b))^2

with the bias folded into the weight vector as a constant input. Its
minimizer is found exactly, with no seed, by a finite Newton method
(_train_stacked). A LinearModelSet holds the K one-vs-all models as one
(K, l) weight matrix W and one (K,) bias vector b, the form in which the
solver returns them and in which scoring and feature selection read them.

_train_sets, the drivers' one entry, solves the K problems of every
training set of one shape together, F sets times K classes in one
stacked solve, each from zero or from a given start. A job is one set
on every row of a matrix, returned as a LinearModelSet, or a block of
sets on rows of it (a path model's cross-validation folds), returned as
weight and bias arrays; its start is a model set or an earlier block.
Each problem's model is the one a solve over it alone returns, bit for
bit, and the one a solve from zero returns unless a row lies within
_TIE of its margin.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .data import _labels_below
from .exceptions import (
    ConfigError, ConvergenceError, DegenerateLabelsError, DimensionMismatchError,
    NonFiniteInputError, require_real,
)

DEFAULT_LAMBDA = 0.5


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of the solver.

    c weighs the squared hinge against the penalty (larger = weaker
    penalty). It is the only one: the Newton solve is exact and draws no
    random numbers, so it has no step size, seed or epoch count.
    """

    c: float = 0.1

    def __post_init__(self):
        require_real("c", self.c)
        if self.c <= 0:
            raise ConfigError("c must be positive")


@dataclass(frozen=True, eq=False)
class LinearModelSet:
    """One-vs-all hyperplanes plus the mixing weight for scoring.

    Attributes
    ----------
    W : ndarray of shape (n_classes, n_features)
        Row k separates class k (+1) from the rest (-1):
        score_k(x) = W[k] . x + b[k].
    b : ndarray of shape (n_classes,)
    lam : float
        Weight in [0, 1] given to the own-class score when scores are
        combined downstream; the remaining classes share (1 - lam).
    active_features : tuple of int
        Original column indices the columns of W refer to: non-negative
        and strictly ascending, so each column appears once.

    W and b are stored as C-contiguous float copies, so a model set never
    shares memory with the arrays it was built from.
    """

    W: np.ndarray
    b: np.ndarray
    lam: float = DEFAULT_LAMBDA
    active_features: tuple[int, ...] = ()

    def __post_init__(self):
        W = np.array(self.W, dtype=float, order="C")
        b = np.array(self.b, dtype=float, order="C")
        active = tuple(int(a) for a in self.active_features)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "active_features", active)
        if b.size < 2:
            raise ConfigError("need one model per class, at least two classes")
        if not (np.isfinite(W).all() and np.isfinite(b).all()):
            raise ConfigError("weights and biases must be finite")
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError("lam must lie in [0, 1]")
        if min(active, default=0) < 0 or any(a >= c for a, c in zip(active, active[1:])):
            raise ConfigError(
                f"active_features must be non-negative and strictly ascending, got {active}"
            )
        if b.ndim != 1 or W.shape != (b.size, len(active)):
            raise DimensionMismatchError(
                f"W {W.shape} and b {b.shape} do not fit {b.size} classes"
                f" and {len(active)} active features"
            )

    @property
    def n_classes(self) -> int:
        return self.b.size

    @property
    def n_features(self) -> int:
        return len(self.active_features)

    @property
    def lambda_prime(self) -> float:
        """Per-class share of the non-own weight: (1 - lam) / (m - 1)."""
        return (1.0 - self.lam) / (self.n_classes - 1)


def _check_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatchError("X must be 2-dimensional")
    if not np.isfinite(X).all():
        raise NonFiniteInputError("X contains NaN or infinite entries")
    return X


# rows summed into the systems at a time, so only one block of rows is masked and copied
_ROW_BLOCK = 128

# Newton iterations after which a solve is given up; each takes an exact step
_NEWTON_CAP = 1000

# rows whose margin is within this of 1 may change sides without forcing a step
_TIE = 1e-9

# bytes one stacked solve may hold: its label-signed rows, their masked copy and
# about 32 values of solver state per row; larger groups take several solves
_STACK_BYTES = 1 << 21


def _line_search(w, delta, r, dd, c):
    """For each problem p, the t >= 0 minimizing f(w[p] + t delta[p])
    exactly, shape (P, 1).

    r = 1 - A w and dd = A delta are the rows' residuals and their rates
    of change, shape (P, n). f' along the line is continuous, increasing
    and linear between the breakpoints r_i / dd_i where a row enters or
    leaves the active set, so the breakpoints are sorted once and the
    piece where f' crosses zero is read off cumulative sums of the rows'
    slope terms.
    """
    p = np.arange(len(r))[:, None]  # with order, picks each problem's breakpoints in time order
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = r / dd
    event = (dd != 0) & (cross > 0)  # a row enters (dd < 0) or leaves (dd > 0) at t > 0
    on = (r > 0) | ((r == 0) & (dd < 0))  # active just after t = 0
    times = np.where(event, cross, np.inf)
    order = np.argsort(times, axis=1)
    ends = np.concatenate([times[p, order], np.full((len(r), 1), np.inf)], axis=1)
    sign = np.where(event, np.sign(-dd), 0.0)[p, order]

    def slope(term, base):  # one coefficient of f' on every piece, from its term per active row
        term = c * term
        first = ((term * on).sum(axis=1) + base)[:, None]
        return np.concatenate([first, first + np.cumsum(term[p, order] * sign, axis=1)], axis=1)

    # an active row adds c (dd^2 t - r dd) to f'(t) = alpha + beta t
    alpha = slope(-r * dd, (w * delta).sum(axis=1))
    beta = slope(dd * dd, (delta * delta).sum(axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        piece = np.argmax(alpha + beta * ends >= 0, axis=1)[:, None]  # where f' turns positive
        t = -alpha[p, piece] / beta[p, piece]
    return np.clip(t, np.where(piece > 0, ends[p, piece - 1], 0.0), ends[p, piece])


def _train_stacked(ZX, config: TrainConfig, w0=None) -> tuple[np.ndarray, np.ndarray]:
    """Fit the F x K binary problems whose label-signed rows are ZX[f, k].

    ZX has shape (F, K, n, l + 1): F training sets of K one-vs-all
    problems, row a_i of problem (f, k) being z_fki * (x_fi, 1) with z_fki
    in {-1, +1}. Each problem minimizes
    1/2 ||w||^2 + c/2 sum_i max(0, 1 - a_i . w)^2 by the modified finite
    Newton method of Keerthi and DeCoste (JMLR 2005): starting from
    w0[f, k] = [W | b], shape (F, K, l + 1), or from zero, solve
    (I + c A_I^T A_I) w' = c A_I^T 1 over the rows I with margin below 1,
    stop when the rows below 1 at w' are I (up to rows within _TIE of
    the margin), and otherwise take the exact line search step towards
    w' and repeat. The returned w' depends on its final active set alone,
    so a problem's model does not depend on the problems solved with it.
    Nor does it depend on where its solve starts, except through a row
    within _TIE of the margin at the optimum: such a row never counts as
    moved, so it keeps the side the path gave it, and a warm and a cold
    solve may then return equal optima that differ in their last bits.
    Returns the weights, shape (F, K, l), and biases, shape (F, K).
    """
    F, K, n, d = ZX.shape
    A = ZX.reshape(F * K, n, d)
    c = config.c
    W = np.zeros((F * K, d))  # each problem's last system solution
    # each problem's line search point, and its rows' residuals 1 - A w
    w = np.zeros((F * K, d)) if w0 is None else np.array(w0, dtype=float).reshape(F * K, d)
    r = 1.0 - np.matmul(A, w[:, :, None])[..., 0]
    live = np.arange(F * K)
    for _ in range(_NEWTON_CAP):
        act = r[live] > 0
        H = np.zeros((live.size, d, d))
        g = np.zeros((live.size, 1, d))
        for s in range(0, n, _ROW_BLOCK):  # masked rows one block at a time
            rows = A[live, s:s + _ROW_BLOCK]
            rows *= act[:, s:s + _ROW_BLOCK, None]
            H += np.matmul(rows.transpose(0, 2, 1), rows)
            g += np.matmul(np.ones((1, rows.shape[1])), rows)
        with np.errstate(over="ignore"):  # a c that overflows is caught just below
            H *= c
            g *= c
        H.reshape(live.size, d * d)[:, ::d + 1] += 1.0  # the diagonal, through a strided view
        if not (np.isfinite(H).all() and np.isfinite(g).all()):
            raise ConfigError("weights and biases must be finite")
        Wl = np.linalg.solve(H, g.transpose(0, 2, 1))
        if not np.isfinite(Wl).all():
            raise ConfigError("weights and biases must be finite")
        W[live] = Wl[..., 0]
        r_new = 1.0 - np.matmul(A[live], Wl)[..., 0]
        moved = ((r_new > 0) != act) & (np.abs(r_new) > _TIE)
        on = moved.any(axis=1)
        live, r_new = live[on], r_new[on]
        if not live.size:
            return W[:, :-1].reshape(F, K, d - 1), W[:, -1].reshape(F, K)
        delta = W[live] - w[live]
        dd = r[live] - r_new  # A delta
        t = _line_search(w[live], delta, r[live], dd, c)
        w[live] += t * delta
        r[live] -= t * dd
    raise ConvergenceError(
        f"finite-Newton solve of {live.size} of {F * K} problems of {n} rows and {d} columns"
        f" did not converge in {_NEWTON_CAP} iterations")


def _label_signs(y, shape, n_classes: int) -> np.ndarray:
    """The +-1 signs of labels y of the given shape (..., n), shape
    (..., n_classes, n): +1 where y is class k, after checking that each
    set of n labels can train n_classes models."""
    y = _labels_below(y, n_classes, "labels")
    if y.shape != shape:
        raise DimensionMismatchError("y length does not match X rows")
    Z = np.where(y[..., None, :] == np.arange(n_classes)[:, None], 1.0, -1.0)
    absent = (Z < 0).all(axis=-1).reshape(-1, n_classes).any(axis=0)
    if absent.any():
        raise DegenerateLabelsError(
            f"classes absent from training labels: {np.flatnonzero(absent).tolist()}")
    return Z


def train_ova(
    X,
    y,
    n_classes: int,
    config: TrainConfig = TrainConfig(),
    lam: float = DEFAULT_LAMBDA,
    active_features=None,
) -> LinearModelSet:
    """Train one binary model per class (class k vs the rest).

    Labels must be whole numbers, and every class id in [0, n_classes)
    must occur in y.
    """
    X = _check_matrix(X)
    (_, ms), = _train_sets([(X, y, None, range(X.shape[1]), None)], n_classes, config, lam)
    return ms if active_features is None else replace(ms, active_features=active_features)


def _train_sets(jobs, n_classes: int, config: TrainConfig, lam: float = DEFAULT_LAMBDA):
    """Yield (job index, result) per job (X, y, rows, cols, start), once
    its last set is solved.

    rows is None for one set of every row of X, whose result is a
    LinearModelSet on cols, or an (F, n) index array for a block of F
    sets, whose result is their (F, K, len(cols)) weights and (F, K)
    biases. start is None for a solve from zero; a LinearModelSet whose
    active features include cols, whose weights on cols and biases every
    set starts from; or the index of an earlier job of the same rows
    whose cols include these, each set then starting from its set of the
    same rows. A job so named is kept for the one job that names it, and
    ConfigError is raised if it is unsolved, or read, when that job fills.

    Each set is train_ova(X[r][:, cols], y[r], n_classes, config, lam,
    active_features=cols) for its rows r, whatever its start up to rows
    tied within _TIE of the margin (see _train_stacked). The sets of one
    (n, len(cols)) train together, in job order, after the groups whose
    first job comes earlier, in stacked solves of at most _STACK_BYTES
    (one set at least), so a block may span solves; a solve fills each
    job's sets with one gather and one multiply. Each
    distinct X is checked once per call, and each distinct (y, rows)
    once, with its label signs, when the first solve that reads it is
    filled; so of several bad jobs the first in solve order raises.
    """
    if n_classes < 2:
        raise DegenerateLabelsError("need at least two classes")
    groups: dict = {}  # (n, len(cols)) -> (job, its number of sets) per job
    for i, (X, _, rows, cols, _) in enumerate(jobs):
        F, n = (1, X.shape[0]) if rows is None else rows.shape
        groups.setdefault((n, len(cols)), []).append((i, F))
    named = {s for *_, s in jobs if s is not None and not isinstance(s, LinearModelSet)}
    matrices: dict = {}  # id(X) -> X as a checked float matrix
    signs: dict = {}  # (id(y), id(rows)) -> the (F, K, n) label signs, +1 for class k
    parts: dict = {}  # job -> the (weights, biases) of its sets solved so far
    done: dict = {}  # named job -> its (weights, biases, cols)
    for (n, l), group in groups.items():
        step = max(1, _STACK_BYTES // (8 * n_classes * max(n, 1) * (2 * (l + 1) + 32)))
        solves: dict = {}  # solve -> (job, first set, end set, is it the last?) per job in it
        first = 0  # the group's number of the job's first set
        for i, F in group:
            for lo in range(-(first % step), F, step):
                solves.setdefault((first + max(lo, 0)) // step, []).append(
                    (i, max(lo, 0), min(F, lo + step), lo + step >= F))
            first += F
        for solve in solves.values():
            ZX = np.empty((sum(hi - lo for _, lo, hi, _ in solve), n_classes, n, l + 1))
            w0 = np.zeros(ZX.shape[:2] + (l + 1,))
            at = 0
            for i, lo, hi, last in solve:
                X, y, rows, cols, start = jobs[i]
                if id(X) not in matrices:
                    matrices[id(X)] = _check_matrix(X)
                key = (id(y), id(rows))
                if key not in signs:
                    signs[key] = (_label_signs(y, (n,), n_classes)[None] if rows is None
                                  else _label_signs(y[rows], rows.shape, n_classes))
                f, X, Z = slice(at, at + hi - lo), matrices[id(X)][:, cols], signs[key][lo:hi]
                X = X[None] if rows is None else X[rows[lo:hi]]  # (sets, n, l)
                np.multiply(Z[..., None], X[:, None], out=ZX[f, :, :, :l])
                ZX[f, :, :, l] = Z
                if isinstance(start, LinearModelSet):
                    W0, b0, has = start.W, start.b, start.active_features
                elif start is not None:
                    if start not in done:
                        raise ConfigError(f"job {i} starts from job {start}, unsolved or read")
                    W0, b0, has = done.pop(start) if last else done[start]
                    W0, b0 = W0[lo:hi], b0[lo:hi]
                if start is not None:  # its columns ascend, so each of cols is found
                    w0[f, :, :l] = W0[..., np.searchsorted(has, cols)]
                    w0[f, :, l] = b0
                at += hi - lo
            W, b = _train_stacked(ZX, config, w0)
            del ZX  # freed before the next solve allocates its own
            at = 0
            for i, lo, hi, last in solve:
                parts.setdefault(i, []).append((W[at:at + hi - lo], b[at:at + hi - lo]))
                at += hi - lo
                if last:  # its sets as one C-contiguous block
                    W_i, b_i = (np.concatenate(part) for part in zip(*parts.pop(i)))
                    rows, cols = jobs[i][2:4]
                    if i in named:
                        done[i] = W_i, b_i, cols
                    yield i, ((W_i, b_i) if rows is not None else
                              LinearModelSet(W=W_i[0], b=b_i[0], lam=lam, active_features=cols))


def decision_matrix(ms: LinearModelSet, X) -> np.ndarray:
    """All per-class scores, shape (n_samples, n_classes).

    X must already be restricted to the model's active features (same
    column count and order).
    """
    X = _check_matrix(X)
    if X.shape[1] != ms.n_features:
        raise DimensionMismatchError(
            f"X has {X.shape[1]} columns, model set expects {ms.n_features}"
        )
    return X @ ms.W.T + ms.b


# ------------------------------------------------------------- serialization
#
# Floats are written with 17 significant digits so the decimal text
# round-trips to the exact same IEEE double on reload.


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def model_set_to_json(ms: LinearModelSet) -> str:
    lines = ["{"]
    lines.append(f'  "lambda": {_fmt(ms.lam)},')
    feats = ", ".join(str(a) for a in ms.active_features)
    lines.append(f'  "active_features": [{feats}],')
    lines.append('  "models": [')
    last = ms.n_classes - 1
    for k, (w, b) in enumerate(zip(ms.W, ms.b)):
        wtxt = ", ".join(_fmt(v) for v in w)
        tail = "," if k < last else ""
        lines.append(f'    {{"w": [{wtxt}], "b": {_fmt(b)}}}{tail}')
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def model_set_from_json(text: str) -> LinearModelSet:
    """Read what model_set_to_json writes.

    A document of any other shape, or with a non-finite weight or bias
    (LinearModelSet checks that), raises ConfigError; weight lists of
    different lengths raise DimensionMismatchError.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"invalid model JSON: {e}") from None
    if not isinstance(data, dict):
        raise ConfigError("model JSON must be an object")
    for key in ("lambda", "active_features", "models"):
        if key not in data:
            raise ConfigError(f"model JSON missing key {key!r}")
    entries = data["models"]
    if not isinstance(entries, list) or not all(
        isinstance(m, dict) and isinstance(m.get("w"), list) and "b" in m
        for m in entries
    ):
        raise ConfigError('model JSON "models" must be a list of {"w": [...], "b": ...}')
    # numpy raises ValueError on ragged rows, so their lengths are compared first
    if len({len(m["w"]) for m in entries}) > 1:
        raise DimensionMismatchError("model weight lists differ in length")
    try:
        W = [[float(v) for v in m["w"]] for m in entries]
        b = [float(m["b"]) for m in entries]
        lam = float(data["lambda"])
        active = [int(a) for a in data["active_features"]]
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad value in model JSON: {e}") from None
    if active != data["active_features"]:
        raise ConfigError("model JSON active_features must be whole numbers")
    return LinearModelSet(W=W, b=b, lam=lam, active_features=active)


def save_model(ms: LinearModelSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_set_to_json(ms))


def load_model(path) -> LinearModelSet:
    with open(path, encoding="utf-8") as fh:
        return model_set_from_json(fh.read())
