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

train_ova solves its K one-vs-all problems in one stacked loop. Training
sets of one shape go through the same loop together, F sets times K
classes, each set with its own seed: _train_sets, the drivers' one
entry, groups the active sets all repeats reach in one pass, and the
cross-validation folds of one shape across repeats.
Each step gathers one mini-batch per problem, shape (F * K, b, l + 1),
and updates all F * K weight vectors with a handful of array calls, so
the Python overhead of a step is paid once per step rather than once
per problem. The result is bit-identical
to training each problem on its own (tests/oracles.py keeps that
per-problem loop):

- the step counter t, and with it eta and the penalty, depends only on n,
  so all problems share one schedule;
- Generator.permuted along the epoch axis of a block of epochs draws from
  a class's stream exactly what one Generator.permutation(n) call per
  epoch draws, so every problem visits its rows in the seeded order of
  its set and class (_train_stacked states the seed rule). A stream is
  keyed by its integer seed s + k alone, and one of at most
  _ORDER_BUFFER entries is drawn whole and kept, read-only, by
  _kept_stream for every later solve of its seed and row count;
- the margins come from the same matrix-vector product per problem, and
  the update sums the masked batch rows in batch order, so the rows of
  non-violators add exact zeros and every other sum keeps its order.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace

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


# entries of the longest row-order stream that is drawn whole and kept, and
# int32 entries of the buffer that longer streams fill a block of epochs at a time
_ORDER_BUFFER = 1 << 16

# bytes of label-signed rows in one stacked solve; larger groups take several
_STACK_BYTES = 1 << 21


# 128 streams hold the README default's largest working set, 53 stream seeds at
# each of two CV fold sizes; at most _ORDER_BUFFER 2-byte entries each, 16 MiB
@functools.lru_cache(maxsize=128)
def _kept_stream(seed: int, n: int, epochs: int) -> np.ndarray:
    """The (epochs, n) row orders default_rng(seed) draws, read-only, in the
    smallest unsigned type that holds n - 1 (at most _ORDER_BUFFER entries)."""
    rows = np.arange(n, dtype=np.min_scalar_type(n - 1))
    stream = np.random.default_rng(seed).permuted(np.tile(rows, (epochs, 1)), axis=1)
    stream.flags.writeable = False
    return stream


def _epoch_orders(seeds, n: int, epochs: int):
    """Yield each epoch's (R, n) row orders, row r from default_rng(seeds[r]).

    Generator.permuted over a block of epochs draws exactly what one
    Generator.permutation(n) call per epoch would, whatever the integer
    type. Streams of at most _ORDER_BUFFER entries are drawn whole, once
    per process, by _kept_stream. Larger ones are drawn a block of epochs
    at a time into a buffer that the next block overwrites, and are not
    kept.
    """
    if n * epochs <= _ORDER_BUFFER:
        yield from np.stack([_kept_stream(s, n, epochs) for s in seeds], axis=1)
        return
    R = len(seeds)
    rngs = [np.random.default_rng(s) for s in seeds]
    block = max(1, min(epochs, _ORDER_BUFFER // (R * n)))
    order = np.tile(np.arange(n, dtype=np.int32), (block, 1))
    idx = np.empty((R, block, n), dtype=np.int32)
    for start in range(0, epochs, block):
        m = min(block, epochs - start)
        for r, rng in enumerate(rngs):
            rng.permuted(order[:m], axis=1, out=idx[r, :m])
        for e in range(m):
            yield idx[:, e]


def _train_stacked(ZX, config: TrainConfig, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Fit the F x K binary problems whose label-signed rows are ZX[f, k].

    ZX has shape (F, K, n, l + 1): F training sets of K one-vs-all
    problems, row i of problem (f, k) being z_fki * (x_fi, 1) with z_fki
    in {-1, +1}. Class k of set f visits its rows in the orders drawn
    from default_rng(seeds[f] + k), so each set's models equal those of
    a solve over it alone. Streams are keyed by that seed s + k alone:
    problems of one stream seed read one draw, and _kept_stream keeps
    the short ones for later solves. Returns the tail-averaged weights,
    shape (F, K, l), and biases, shape (F, K).
    """
    F, K, n, l = ZX.shape[0], ZX.shape[1], ZX.shape[2], ZX.shape[3] - 1
    P = F * K
    ZX = ZX.reshape(P * n, l + 1)
    lam_reg = 1.0 / (config.c * n)
    batch = min(config.batch_size, n)
    tail_from = config.epochs * math.ceil(n / batch) // 2

    w = np.zeros((P, l + 1))
    w_col = w[:, :, None]  # view for the batched margins
    w_sum = np.zeros((P, l + 1))
    n_tail = 0
    t = 0
    streams = list(dict.fromkeys(s + k for s in seeds for k in range(K)))
    stream = [streams.index(s + k) for s in seeds for k in range(K)]  # per problem
    offsets = np.arange(0, P * n, n)[:, None]  # to each problem's own rows
    for order in _epoch_orders(streams, n, config.epochs):
        idx = order[stream] + offsets
        for start in range(0, n, batch):
            rows = np.take(ZX, idx[:, start:start + batch], axis=0)  # (P, b, l + 1)
            eta = config.eta0 / (1.0 + config.eta0 * lam_reg * t)
            viol = (np.matmul(rows, w_col) < 1.0).astype(float)  # (P, b, 1)
            w *= 1.0 - eta * lam_reg
            w += (eta / rows.shape[1]) * np.einsum("kbi,kbj->kj", viol, rows)
            t += 1
            if t > tail_from:
                w_sum += w
                n_tail += 1
    w_avg = (w_sum / n_tail).reshape(F, K, l + 1)
    return w_avg[..., :l], w_avg[..., l]


def _check_labels(y, n_rows: int, n_classes: int) -> np.ndarray:
    """y as an int array, after checking it can train n_classes models."""
    y = _whole_labels(y)
    if y.shape != (n_rows,):
        raise DimensionMismatchError("y length does not match X rows")
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        raise DegenerateLabelsError("labels outside [0, n_classes)")
    counts = np.bincount(y, minlength=n_classes)
    if (counts == 0).any():
        raise DegenerateLabelsError(
            f"classes absent from training labels: {np.flatnonzero(counts == 0).tolist()}"
        )
    return y


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
    (_, ms), = _train_sets([(X, y, None, range(X.shape[1]), config.seed)], n_classes, config, lam)
    return ms if active_features is None else replace(ms, active_features=active_features)


def _train_sets(jobs, n_classes: int, config: TrainConfig, lam: float = DEFAULT_LAMBDA):
    """Yield (job index, LinearModelSet) per job (X, y, rows, cols, seed), in
    solve order; rows None means every row of X.

    Each set is train_ova(X[rows][:, cols], y[rows], n_classes, config with
    seed, lam, active_features=cols), bit for bit; config.seed is not read.
    Jobs of one (row count, len(cols)) train together, in stacked solves
    of at most _STACK_BYTES of label-signed rows (one set at least). Each
    job is sliced and checked just before its solve, straight into the
    solve's (F, K, n, l + 1) rows.
    """
    if n_classes < 2:
        raise DegenerateLabelsError("need at least two classes")
    groups: dict = {}
    for i, (X, _, rows, cols, _) in enumerate(jobs):
        groups.setdefault((X.shape[0] if rows is None else len(rows), len(cols)), []).append(i)
    classes = np.arange(n_classes)[:, None]
    for (n, l), group in groups.items():
        step = max(1, _STACK_BYTES // (8 * n_classes * max(n, 1) * (l + 1)))
        for start in range(0, len(group), step):
            solve = group[start:start + step]
            ZX = np.empty((len(solve), n_classes, n, l + 1))
            for f, i in enumerate(solve):
                X, y, rows, cols, _ = jobs[i]
                X = _check_matrix(X[:, cols] if rows is None else X[np.ix_(rows, cols)])
                y = _check_labels(y if rows is None else y[rows], n, n_classes)
                Z = np.where(y == classes, 1.0, -1.0)  # (K, n): +1 for class k
                np.multiply(Z[:, :, None], X, out=ZX[f, :, :, :l])
                ZX[f, :, :, l] = Z
            W, b = _train_stacked(ZX, config, [jobs[i][4] for i in solve])
            del ZX  # freed before the next solve allocates its own
            for f, i in enumerate(solve):
                yield i, LinearModelSet(W=W[f], b=b[f], lam=lam, active_features=jobs[i][3])


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
