"""Linear one-vs-all classifiers trained by averaged stochastic subgradient.

Each binary problem minimizes the L2-regularized hinge objective

    J(w, b) = mean_i max(0, 1 - z_i (w . x_i + b)) + (||w||^2 + b^2) / (2 C n)

with the bias folded into the weight vector as a constant input. Updates
run over seeded mini-batch shuffles with learning rate
eta0 / (1 + eta0 * t / (C n)), and the returned model averages the
iterates of the second half of the run. Everything is deterministic for a
fixed TrainConfig. A LinearModelSet holds the K one-vs-all models as one
(K, l) weight matrix W and one (K,) bias vector b, the form in which the
solver returns them and in which scoring and feature selection read them.

train_ova solves its K one-vs-all problems in one stacked loop, and the
cross-validation folds of one training-set size go through the same loop
together, F folds times K classes. Each step gathers one mini-batch per
problem, shape (P, b, l + 1), and updates all P weight vectors with a
handful of array calls, so the Python overhead of a step is paid once per
step rather than once per problem. The result is bit-identical to
training each problem on its own (tests/oracles.py keeps that
per-problem loop):

- the step counter t, and with it eta and the penalty, depends only on n,
  so all problems share one schedule;
- Generator.permuted along the epoch axis of a block of epochs draws from
  problem p's stream exactly what one Generator.permutation(n) call per
  epoch draws, so every problem visits its rows in its own seeded order
  (folds share n and the per-class seeds, so their streams are drawn once
  and copied);
- the margins come from the same matrix-vector product per problem, and
  the update sums the masked batch rows in batch order, so the rows of
  non-violators add exact zeros and every other sum keeps its order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .data import _whole_labels
from .exceptions import (
    ConfigError,
    DegenerateLabelsError,
    DimensionMismatchError,
    NonFiniteInputError,
    require_int,
    require_real,
)

DEFAULT_LAMBDA = 0.5


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of the subgradient solver.

    c is the inverse regularization strength (larger = weaker penalty).
    """

    c: float = 1.0
    epochs: int = 200
    batch_size: int = 48
    eta0: float = 0.5
    seed: int = 0

    def __post_init__(self):
        require_real("c", self.c)
        require_real("eta0", self.eta0)
        if self.c <= 0 or self.eta0 <= 0:
            raise ConfigError("c and eta0 must be positive")
        require_int("epochs", self.epochs, 1)
        require_int("batch_size", self.batch_size, 1)
        require_int("seed", self.seed, 0)


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


# int32 entries of the buffer that row orders are drawn into: small
# problems draw every epoch at once, large ones a block of epochs at a time
_ORDER_BUFFER = 1 << 16


def _epoch_orders(seeds, n: int, epochs: int):
    """Yield each epoch's (P, n) row order into the stacked rows.

    Problem p draws from default_rng(seeds[p]), and its orders are offset
    by p * n. Problems with the same seed share one stream: it is drawn
    once and copied. Generator.permuted over a block of epochs draws
    exactly what one Generator.permutation(n) call per epoch would. The
    yielded array is a view that the next block overwrites.
    """
    P = len(seeds)
    first = {}  # seed -> the first problem that uses it
    for p, s in enumerate(seeds):
        first.setdefault(s, p)
    rngs = [(p, np.random.default_rng(s)) for s, p in first.items()]
    copies = [(p, first[s]) for p, s in enumerate(seeds) if first[s] != p]
    block = max(1, min(epochs, _ORDER_BUFFER // (P * n)))
    order = np.tile(np.arange(n, dtype=np.int32), (block, 1))
    idx = np.empty((P, block, n), dtype=np.int32)
    offsets = np.arange(0, P * n, n, dtype=np.int32)[:, None, None]
    for start in range(0, epochs, block):
        m = min(block, epochs - start)
        for p, rng in rngs:
            rng.permuted(order[:m], axis=1, out=idx[p, :m])
        for p, q in copies:
            idx[p, :m] = idx[q, :m]
        idx[:, :m] += offsets
        for e in range(m):
            yield idx[:, e]


def _train_stacked(ZX, seeds, config: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """Fit the P binary problems whose label-signed rows are ZX[p].

    ZX has shape (P, n, l + 1); row i of problem p is z_pi * (x_pi, 1) with
    z_pi in {-1, +1}. Problem p shuffles with seed seeds[p]. Returns the
    tail-averaged weights, shape (P, l), and biases, shape (P,).
    """
    P, n, l = ZX.shape[0], ZX.shape[1], ZX.shape[2] - 1
    ZX = ZX.reshape(P * n, l + 1)
    lam_reg = 1.0 / (config.c * n)
    batch = min(config.batch_size, n)
    tail_from = config.epochs * math.ceil(n / batch) // 2

    w = np.zeros((P, l + 1))
    w_col = w[:, :, None]  # view for the batched margins
    w_sum = np.zeros((P, l + 1))
    n_tail = 0
    t = 0
    for order in _epoch_orders(seeds, n, config.epochs):
        for start in range(0, n, batch):
            rows = ZX[order[:, start:start + batch]]  # (P, b, l + 1)
            eta = config.eta0 / (1.0 + config.eta0 * lam_reg * t)
            viol = (np.matmul(rows, w_col) < 1.0).astype(float)  # (P, b, 1)
            w *= 1.0 - eta * lam_reg
            w += (eta / rows.shape[1]) * np.einsum("kbi,kbj->kj", viol, rows)
            t += 1
            if t > tail_from:
                w_sum += w
                n_tail += 1
    w_avg = w_sum / n_tail
    return w_avg[:, :l], w_avg[:, l]


def _check_labels(y, n_rows: int, n_classes: int) -> np.ndarray:
    """y as an int array, after checking it can train n_classes models."""
    y = _whole_labels(y)
    if y.shape != (n_rows,):
        raise DimensionMismatchError("y length does not match X rows")
    if n_classes < 2:
        raise DegenerateLabelsError("need at least two classes")
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        raise DegenerateLabelsError("labels outside [0, n_classes)")
    counts = np.bincount(y, minlength=n_classes)
    if (counts == 0).any():
        raise DegenerateLabelsError(
            f"classes absent from training labels: {np.flatnonzero(counts == 0).tolist()}"
        )
    return y


def _signed_rows(X, y, n_classes: int) -> np.ndarray:
    """The (n_classes, n, l + 1) one-vs-all rows: +-(x_i, 1), + for class k."""
    Z = np.where(y == np.arange(n_classes)[:, None], 1.0, -1.0)
    return Z[:, :, None] * np.hstack([X, np.ones((X.shape[0], 1))])


def train_ova(
    X,
    y,
    n_classes: int,
    config: TrainConfig = TrainConfig(),
    lam: float = DEFAULT_LAMBDA,
    active_features=None,
) -> LinearModelSet:
    """Train one binary model per class (class k vs the rest).

    Model k uses seed config.seed + k. Labels must be whole numbers, and
    every class id in [0, n_classes) must occur in y.
    """
    X = _check_matrix(X)
    y = _check_labels(y, X.shape[0], n_classes)
    if active_features is None:
        active_features = range(X.shape[1])
    seeds = [config.seed + k for k in range(n_classes)]
    W, b = _train_stacked(_signed_rows(X, y, n_classes), seeds, config)
    return LinearModelSet(W=W, b=b, lam=lam, active_features=active_features)


def _train_ova_folds(X, y, train_rows, n_classes: int, config: TrainConfig):
    """train_ova(X[rows], y[rows], n_classes, config) for every rows in train_rows.

    train_rows has shape (F, n_train): F training sets of one size. All
    F * n_classes problems run in one stacked solve, fold f's class k with
    seed config.seed + k, so each returned model set is bit-identical to
    its own train_ova call.
    """
    X = _check_matrix(X)
    y = np.asarray(y)
    K = n_classes
    ZX = np.concatenate([
        _signed_rows(X[rows], _check_labels(y[rows], len(rows), K), K)
        for rows in train_rows
    ])
    seeds = [config.seed + k for _ in train_rows for k in range(K)]
    W, b = _train_stacked(ZX, seeds, config)
    return [
        LinearModelSet(W=W[f:f + K], b=b[f:f + K], active_features=range(X.shape[1]))
        for f in range(0, len(W), K)
    ]


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

    A document of any other shape, or with a non-finite weight or bias,
    raises ConfigError; weight lists of different lengths raise
    DimensionMismatchError.
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
    if not (np.isfinite(W).all() and np.isfinite(b).all()):
        raise ConfigError("model JSON weights and biases must be finite")
    return LinearModelSet(W=W, b=b, lam=lam, active_features=active)


def save_model(ms: LinearModelSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_set_to_json(ms))


def load_model(path) -> LinearModelSet:
    with open(path, encoding="utf-8") as fh:
        return model_set_from_json(fh.read())
