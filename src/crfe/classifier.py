"""Linear one-vs-all classifiers trained by averaged stochastic subgradient.

Each binary problem minimizes the L2-regularized hinge objective

    J(w, b) = mean_i max(0, 1 - z_i (w . x_i + b)) + (||w||^2 + b^2) / (2 C n)

with the bias folded into the weight vector as a constant input. Updates
run over seeded mini-batch shuffles with learning rate
eta0 / (1 + eta0 * t / (C n)), and the returned model averages the
iterates of the second half of the run. Everything is deterministic for a
fixed TrainConfig.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import (
    ConfigError,
    DegenerateLabelsError,
    DimensionMismatchError,
    NonFiniteInputError,
    UnknownFeatureError,
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
        if self.c <= 0 or self.eta0 <= 0:
            raise ConfigError("c and eta0 must be positive")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")


@dataclass(frozen=True, eq=False)
class LinearModel:
    """A single hyperplane: score(x) = w . x + b."""

    w: np.ndarray
    b: float

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float))
        object.__setattr__(self, "b", float(self.b))


@dataclass(frozen=True, eq=False)
class LinearModelSet:
    """One binary model per class plus the mixing weight for scoring.

    Attributes
    ----------
    models : tuple of LinearModel
        Model k separates class k (+1) from the rest (-1).
    lam : float
        Weight in [0, 1] given to the own-class score when scores are
        combined downstream; the remaining classes share (1 - lam).
    active_features : tuple of int
        Original column indices the weight vectors refer to, ascending.
    """

    models: tuple[LinearModel, ...]
    lam: float = DEFAULT_LAMBDA
    active_features: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(self, "active_features", tuple(int(a) for a in self.active_features))
        if len(self.models) < 2:
            raise ConfigError("need one model per class, at least two classes")
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError("lam must lie in [0, 1]")
        l = len(self.active_features)
        for m in self.models:
            if m.w.shape != (l,):
                raise DimensionMismatchError(
                    f"model weight length {m.w.shape} != {l} active features"
                )

    @property
    def n_classes(self) -> int:
        return len(self.models)

    @property
    def n_features(self) -> int:
        return len(self.active_features)

    @property
    def lambda_prime(self) -> float:
        """Per-class share of the non-own weight: (1 - lam) / (m - 1)."""
        return (1.0 - self.lam) / (self.n_classes - 1)

    def weight_matrix(self) -> np.ndarray:
        """Stack weights into shape (n_classes, n_features)."""
        return np.stack([m.w for m in self.models])

    def bias_vector(self) -> np.ndarray:
        return np.array([m.b for m in self.models])


def _check_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatchError("X must be 2-dimensional")
    if not np.isfinite(X).all():
        raise NonFiniteInputError("X contains NaN or infinite entries")
    return X


def train_binary(X, z, config: TrainConfig = TrainConfig()) -> LinearModel:
    """Fit one hyperplane to labels z in {-1, +1}.

    Parameters
    ----------
    X : ndarray of shape (n, l)
    z : ndarray of shape (n,)
        Must contain both classes.
    config : TrainConfig

    Returns
    -------
    LinearModel
        Tail-averaged iterate of the subgradient run.
    """
    X = _check_matrix(X)
    z = np.asarray(z, dtype=float)
    if z.shape != (X.shape[0],):
        raise DimensionMismatchError("z length does not match X rows")
    if not np.isfinite(z).all():
        raise NonFiniteInputError("z contains non-finite entries")
    if not set(np.unique(z)) <= {-1.0, 1.0}:
        raise ValueError("z must take values in {-1, +1}")
    if np.unique(z).size < 2:
        raise DegenerateLabelsError("all samples carry the same label")

    n, l = X.shape
    ZX = np.hstack([X, np.ones((n, 1))]) * z[:, None]  # rows are z_i * (x_i, 1)
    lam_reg = 1.0 / (config.c * n)
    rng = np.random.default_rng(config.seed)
    batch = min(config.batch_size, n)
    total = config.epochs * math.ceil(n / batch)
    tail_from = total // 2

    w = np.zeros(l + 1)
    w_sum = np.zeros(l + 1)
    n_tail = 0
    t = 0
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            idx = order[start:start + batch]
            eta = config.eta0 / (1.0 + config.eta0 * lam_reg * t)
            rows = ZX[idx]
            viol = rows @ w < 1.0
            w *= 1.0 - eta * lam_reg
            if viol.any():
                w += (eta / idx.size) * rows[viol].sum(axis=0)
            t += 1
            if t > tail_from:
                w_sum += w
                n_tail += 1
    w_avg = w_sum / n_tail
    return LinearModel(w=w_avg[:l], b=w_avg[l])


def train_ova(
    X,
    y,
    n_classes: int,
    config: TrainConfig = TrainConfig(),
    lam: float = DEFAULT_LAMBDA,
    active_features=None,
) -> LinearModelSet:
    """Train one binary model per class (class k vs the rest).

    Model k uses seed config.seed + k. Every class id in [0, n_classes)
    must occur in y.
    """
    X = _check_matrix(X)
    y = np.asarray(y, dtype=int)
    if y.shape != (X.shape[0],):
        raise DimensionMismatchError("y length does not match X rows")
    counts = np.bincount(y, minlength=n_classes)
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        raise DegenerateLabelsError("labels outside [0, n_classes)")
    if (counts == 0).any():
        raise DegenerateLabelsError(
            f"classes absent from training labels: {np.flatnonzero(counts == 0).tolist()}"
        )
    if active_features is None:
        active_features = range(X.shape[1])
    models = []
    for k in range(n_classes):
        z = np.where(y == k, 1.0, -1.0)
        models.append(train_binary(X, z, replace(config, seed=config.seed + k)))
    return LinearModelSet(models=tuple(models), lam=lam, active_features=tuple(active_features))


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
    return X @ ms.weight_matrix().T + ms.bias_vector()


def restrict(ms: LinearModelSet, positions) -> LinearModelSet:
    """Keep only the given positions (indices into the active feature list).

    Weights are sliced without retraining; biases are kept. The result
    scores as if the dropped features contributed nothing.
    """
    positions = np.asarray(positions, dtype=int)
    if positions.size and (positions.min() < 0 or positions.max() >= ms.n_features):
        raise UnknownFeatureError(
            f"positions out of range for {ms.n_features} active features"
        )
    models = tuple(LinearModel(w=m.w[positions], b=m.b) for m in ms.models)
    active = tuple(ms.active_features[p] for p in positions)
    return LinearModelSet(models=models, lam=ms.lam, active_features=active)


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
    last = len(ms.models) - 1
    for i, m in enumerate(ms.models):
        wtxt = ", ".join(_fmt(v) for v in m.w)
        tail = "," if i < last else ""
        lines.append(f'    {{"w": [{wtxt}], "b": {_fmt(m.b)}}}{tail}')
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def model_set_from_json(text: str) -> LinearModelSet:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"invalid model JSON: {e}") from None
    for key in ("lambda", "active_features", "models"):
        if key not in data:
            raise ConfigError(f"model JSON missing key {key!r}")
    models = tuple(
        LinearModel(w=np.asarray(m["w"], dtype=float), b=float(m["b"]))
        for m in data["models"]
    )
    return LinearModelSet(
        models=models,
        lam=float(data["lambda"]),
        active_features=tuple(int(a) for a in data["active_features"]),
    )


def save_model(ms: LinearModelSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_set_to_json(ms))


def load_model(path) -> LinearModelSet:
    with open(path, encoding="utf-8") as fh:
        return model_set_from_json(fh.read())
