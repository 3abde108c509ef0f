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
stacked solve, each from zero or from a given start. A job is a block
of sets on rows of a matrix (one set on every row, or a path model's
cross-validation folds), returned as weight and bias arrays; its start
is a model set or the block of a job with more columns, solved first,
which is how _cv_accuracies, the baseline's CV stop, chains its folds.
Each problem's model is the one a solve over it alone returns, bit for
bit, and the one a solve from zero returns unless a row lies within
_TIE of its margin.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

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

# bytes a stacked solve is filled to: its label-signed rows, their masked copy and
# about 32 values of solver state per row; it takes whole jobs, so its last may pass it
_STACK_BYTES = 1 << 21

_CV_FOLDS = 5  # folds of the baseline's cross-validated stop


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
    A = ZX.reshape(F * K, n, d)  # the rows of each unsettled problem, as w and r below
    c = config.c
    W = np.zeros((F * K, d))  # each problem's last system solution
    # each unsettled problem's line search point, and its rows' residuals 1 - A w
    w = np.zeros((F * K, d)) if w0 is None else np.array(w0, dtype=float).reshape(F * K, d)
    r = 1.0 - np.matmul(A, w[:, :, None])[..., 0]
    live = np.arange(F * K)  # where each unsettled problem's solution is written in W
    for _ in range(_NEWTON_CAP):
        act = r > 0
        H = np.zeros((live.size, d, d))
        g = np.zeros((live.size, 1, d))
        for s in range(0, n, _ROW_BLOCK):  # masked rows one block at a time
            rows = A[:, s:s + _ROW_BLOCK] * act[:, s:s + _ROW_BLOCK, None]
            H += np.matmul(rows.transpose(0, 2, 1), rows)
            g += np.matmul(np.ones((1, rows.shape[1])), rows)
            del rows  # freed before the next block is masked
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
        r_new = 1.0 - np.matmul(A, Wl)[..., 0]
        moved = ((r_new > 0) != act) & (np.abs(r_new) > _TIE)
        on = moved.any(axis=1)
        if not on.all():  # some problems settled: only the others keep their state
            if not on.any():  # weights C-contiguous, as a LinearModelSet holds them
                return np.ascontiguousarray(W[:, :-1]).reshape(F, K, d - 1), W[:, -1].reshape(F, K)
            live, A, w, r, r_new, Wl = live[on], A[on], w[on], r[on], r_new[on], Wl[on]
        delta = Wl[..., 0] - w
        dd = r - r_new  # A delta
        t = _line_search(w, delta, r, dd, c)
        w += t * delta
        r -= t * dd
    raise ConvergenceError(
        f"finite-Newton solve of {live.size} of {F * K} problems of {n} rows and {d} columns"
        f" did not converge in {_NEWTON_CAP} iterations")


def _label_signs(y, rows, n_rows: int, n_classes: int) -> np.ndarray:
    """The +-1 signs of labels y[rows] for rows of shape (F, n), shape
    (F, n_classes, n): +1 where the label is class k, after checking that
    y labels n_rows rows and each set of n labels can train n_classes
    models."""
    y = _labels_below(y, n_classes, "labels")
    if y.shape != (n_rows,):
        raise DimensionMismatchError("y length does not match X rows")
    Z = np.where(y[rows][..., None, :] == np.arange(n_classes)[:, None], 1.0, -1.0)
    absent = (Z < 0).all(axis=-1).any(axis=0)
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
    cols = range(X.shape[1])
    (_, (W, b)), = _train_sets([(X, y, np.arange(X.shape[0])[None], cols, None)], n_classes, config)
    return LinearModelSet(W=W[0], b=b[0], lam=lam,
                          active_features=cols if active_features is None else active_features)


def _train_sets(jobs, n_classes: int, config: TrainConfig):
    """Yield (job index, (W, b)) per job (X, y, rows, cols, start), once
    it is solved.

    rows is an (F, n) index array, F training sets of n rows of X each
    (np.arange(n)[None] is one set of every row); W is their
    (F, K, len(cols)) weights and b their (F, K) biases. start is None
    for a solve from zero; a LinearModelSet whose active features include
    cols, whose weights on cols and biases every set starts from; or the
    index of a job of the same rows whose cols include these and more,
    each set then starting from its set of the same rows. A job so named
    is kept for the one job that names it, and ConfigError is raised if
    it has no more columns than that job, or is read twice.

    Each set is train_ova(X[r][:, cols], y[r], n_classes, config,
    active_features=cols) for its rows r, whatever its start up to rows
    tied within _TIE of the margin (see _train_stacked). The jobs of one
    (n, len(cols)) train together, in job order, the groups with the most
    columns first (so a named job is solved before the job naming it), in
    stacked solves that each take whole jobs until they hold at least the
    sets _STACK_BYTES allows; a solve fills each job's sets with one
    gather and one multiply. Each distinct X is checked once per call,
    and each distinct (X, y, rows) once, with its label signs, when the
    first solve that reads it is filled; so of several bad jobs the first
    in solve order raises.
    """
    if n_classes < 2:
        raise DegenerateLabelsError("need at least two classes")
    groups: dict = {}  # (n, len(cols)) -> its jobs
    for i, (_, _, rows, cols, _) in enumerate(jobs):
        groups.setdefault((rows.shape[1], len(cols)), []).append(i)
    named = {s for *_, s in jobs if s is not None and not isinstance(s, LinearModelSet)}
    matrices: dict = {}  # id(X) -> X as a checked float matrix
    signs: dict = {}  # (id(X), id(y), id(rows)) -> the (F, K, n) label signs, +1 for class k
    done: dict = {}  # named job -> its (weights, biases, cols)
    for (n, l), group in sorted(groups.items(), key=lambda g: -g[0][1]):  # widest first, stable
        step = max(1, _STACK_BYTES // (8 * n_classes * max(n, 1) * (2 * (l + 1) + 32)))
        solves, held = [], step  # held: the sets of the last solve
        for i in group:
            if held >= step:
                solves.append([])
                held = 0
            solves[-1].append(i)
            held += len(jobs[i][2])
        for solve in solves:
            ends = np.cumsum([len(jobs[i][2]) for i in solve]).tolist()  # where each job's sets end
            ZX = np.empty((ends[-1], n_classes, n, l + 1))
            w0 = np.zeros(ZX.shape[:2] + (l + 1,))
            for i, at, end in zip(solve, [0] + ends, ends):
                X, y, rows, cols, start = jobs[i]
                key = id(X), id(y), id(rows)
                if key[0] not in matrices:
                    matrices[key[0]] = _check_matrix(X)
                X = matrices[key[0]]
                if key not in signs:
                    signs[key] = _label_signs(y, rows, len(X), n_classes)
                f, Z = slice(at, end), signs[key]
                np.multiply(Z[..., None], X[:, cols][rows][:, None], out=ZX[f, :, :, :l])
                ZX[f, :, :, l] = Z
                if isinstance(start, LinearModelSet):
                    W0, b0, has = start.W, start.b, start.active_features
                elif start is not None:
                    if start not in done or len(done[start][2]) <= l:
                        raise ConfigError(f"job {i} starts from job {start}, no unread wider job")
                    W0, b0, has = done.pop(start)
                if start is not None:  # its columns ascend, so each of cols is found
                    w0[f, :, :l] = W0[..., np.searchsorted(has, cols)]
                    w0[f, :, l] = b0
            W, b = _train_stacked(ZX, config, w0)
            del ZX  # freed before the next solve allocates its own
            for i, at, end in zip(solve, [0] + ends, ends):
                if i in named:
                    done[i] = W[at:end], b[at:end], jobs[i][3]
                yield i, (W[at:end], b[at:end])


def _cv_accuracies(paths, n_classes, tcfg) -> list[list[float]]:
    """Per (X, y, models) in ``paths``, the cross-validated accuracy of
    X[:, ms.active_features] per ms in models, each ms a model trained on
    those columns of every row of X.

    Each is the mean held-out argmax accuracy over _CV_FOLDS contiguous
    folds, in fold order. A fold that holds out no row, or whose training
    rows miss a class, is skipped; -1.0 when every fold is skipped. A
    path's folds are cut once, into a block per held-out size (two when
    its row count is not a multiple of _CV_FOLDS), and each (model, block)
    is one job of _train_sets, whose fold models are scored together as
    they are trained. A block starts from the path's block of the model
    before when that model's columns strictly include its own (so it is
    solved first), and otherwise from ms.
    """
    jobs, held, accs = [], [], []  # held: (path, model, first fold, held-out rows) of each job
    for p, (X, y, models) in enumerate(paths):
        every = np.arange(X.shape[0])
        blocks: dict = {}  # held-out size -> (training rows, held-out rows) of its folds that train
        for hold in np.array_split(every, _CV_FOLDS):
            rows = np.delete(every, hold)
            if hold.size and np.bincount(y[rows], minlength=n_classes).all():
                blocks.setdefault(hold.size, []).append((rows, hold))
        blocks = [tuple(map(np.array, zip(*folds))) for folds in blocks.values()]
        firsts = np.cumsum([0] + [len(rows) for rows, _ in blocks]).tolist()
        for k, ms in enumerate(models):
            cols = ms.active_features
            chain = k and set(cols) < set(models[k - 1].active_features)
            for (rows, hold), first in zip(blocks, firsts):
                jobs.append((X, y, rows, cols, len(jobs) - len(blocks) if chain else ms))
                held.append((p, k, first, hold))
        accs.append(np.empty((len(models), firsts[-1])))
    for j, (W, b) in _train_sets(jobs, n_classes, tcfg):
        (X, y, _, cols, _), (p, k, first, hold) = jobs[j], held[j]
        hits = np.count_nonzero(_scores(X[:, cols][hold], W, b).argmax(axis=2) == y[hold], axis=1)
        accs[p][k, first:first + len(hold)] = hits / hold.shape[1]
    return [a.mean(axis=1).tolist() if a.shape[1] else [-1.0] * len(a) for a in accs]


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
    return _scores(X, ms.W, ms.b)


def _scores(X, W, b) -> np.ndarray:
    """X @ W.T + b, per stacked (W, b) if W is (F, K, l) and X (F, n, l)."""
    return np.matmul(X, np.swapaxes(W, -1, -2)) + b[..., None, :]


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

    A document of any other shape, with a value that is not a JSON number
    where a number belongs (true, false and strings included), or with a
    non-finite weight or bias (LinearModelSet checks that), raises
    ConfigError; weight lists of different lengths raise
    DimensionMismatchError.
    """
    try:
        data = json.loads(text, parse_int=float)  # no integer is then too large for a float
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

    def number(v) -> float:  # not float(v), which also reads a JSON bool or a numeric string
        if not isinstance(v, float):
            raise ConfigError(f"bad value in model JSON: {v!r} is not a number")
        return v

    feats = data["active_features"]
    if not isinstance(feats, list) or not all(number(a).is_integer() for a in feats):
        raise ConfigError("model JSON active_features must be whole numbers")
    return LinearModelSet(W=[[number(v) for v in m["w"]] for m in entries],
                          b=[number(m["b"]) for m in entries], lam=number(data["lambda"]),
                          active_features=[int(a) for a in feats])


def save_model(ms: LinearModelSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_set_to_json(ms))


def load_model(path) -> LinearModelSet:
    with open(path, encoding="utf-8") as fh:
        return model_set_from_json(fh.read())
