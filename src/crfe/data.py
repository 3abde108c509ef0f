"""Dataset container, CSV input, report CSVs, preprocessing and seeded splitting.

Everything here is pure given its inputs and seed: datasets are treated as
immutable after construction, and every stochastic operation takes an
explicit seed that feeds numpy's PCG64 generator.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, asdict
from types import SimpleNamespace

import numpy as np

from .exceptions import (
    DegenerateLabelsError,
    DimensionMismatchError,
    EmptyRowSetError,
    InvalidSpecError,
    MissingFileError,
    MissingLabelColumnError,
    NonFiniteInputError,
    NotEnoughDonorsError,
    SingleClassError,
    TooFewSamplesError,
    UnparsableCellError,
    require_int,
    require_real,
)

TEST_FRACTION = 0.25
DEFAULT_IMPUTE_NEIGHBORS = 5
DEFAULT_MISSING_DROP_THRESHOLD = 0.25


@dataclass(frozen=True, eq=False)
class Dataset:
    """A dense feature matrix with integer class labels.

    Attributes
    ----------
    X : ndarray of shape (n_samples, n_features)
        Feature values; missing entries hold NaN and are flagged in
        ``missing_mask``.
    y : ndarray of shape (n_samples,)
        Class ids in ``[0, n_classes)``; every class occurs at least once.
    feature_names : tuple of str
        One name per column of ``X``.
    class_names : tuple of str
        One name per class id.
    missing_mask : ndarray of bool or None
        True where the original cell was missing; None once fully observed.
    """

    X: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...]
    class_names: tuple[str, ...]
    missing_mask: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "X", np.asarray(self.X, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=int))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "class_names", tuple(self.class_names))
        if self.X.ndim != 2:
            raise DimensionMismatchError("X must be 2-dimensional")
        if self.y.shape != (self.X.shape[0],):
            raise DimensionMismatchError("y must hold one label per row of X")
        if len(self.feature_names) != self.X.shape[1]:
            raise DimensionMismatchError("feature_names length does not match X columns")
        m = len(self.class_names)
        if m < 2:
            raise SingleClassError("a dataset needs at least two classes")
        if self.y.size and (self.y.min() < 0 or self.y.max() >= m):
            raise DegenerateLabelsError("class ids out of range")
        counts = np.bincount(self.y, minlength=m)
        if (counts == 0).any():
            missing = [self.class_names[i] for i in np.flatnonzero(counts == 0)]
            raise DegenerateLabelsError(f"classes never observed: {missing}")
        if self.missing_mask is not None:
            mask = np.asarray(self.missing_mask, dtype=bool)
            if mask.shape != self.X.shape:
                raise DimensionMismatchError("missing_mask shape does not match X")
            object.__setattr__(self, "missing_mask", mask)

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def has_missing(self) -> bool:
        return self.missing_mask is not None and bool(self.missing_mask.any())


@dataclass(frozen=True, eq=False)
class DataSplit:
    """Disjoint train/calibration/test row indices covering a dataset."""

    train_idx: np.ndarray
    calib_idx: np.ndarray
    test_idx: np.ndarray

    def __post_init__(self):
        for name in ("train_idx", "calib_idx", "test_idx"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=int))


@dataclass(frozen=True, eq=False)
class Scaler:
    """Per-feature location/scale estimated on training rows only.

    Standard deviations are strictly positive: constant columns store 1 so
    their transformed values are exactly 0.
    """

    mean: np.ndarray
    std: np.ndarray


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the seeded synthetic multiclass generator."""

    n_samples: int
    n_features: int
    n_informative: int
    n_redundant: int
    n_classes: int
    class_sep: float
    flip_y: float
    seed: int

    def __post_init__(self):
        for name in ("n_samples", "n_features", "n_informative", "n_classes"):
            require_int(name, getattr(self, name), 1, InvalidSpecError)
        require_int("n_redundant", self.n_redundant, 0, InvalidSpecError)
        require_int("seed", self.seed, 0, InvalidSpecError)
        require_real("class_sep", self.class_sep, InvalidSpecError)
        require_real("flip_y", self.flip_y, InvalidSpecError)
        if self.n_informative + self.n_redundant > self.n_features:
            raise InvalidSpecError("informative + redundant exceeds n_features")
        if self.n_classes < 2:
            raise InvalidSpecError("need at least two classes")
        if self.n_samples < self.n_classes:
            raise InvalidSpecError("fewer samples than classes")
        if self.n_classes > 2 ** self.n_informative:
            raise InvalidSpecError("more classes than informative hypercube vertices")
        if not 0.0 <= self.flip_y <= 1.0:
            raise InvalidSpecError("flip_y must lie in [0, 1]")
        if self.class_sep <= 0:
            raise InvalidSpecError("class_sep must be positive")


def load_csv(
    path,
    label_column: str,
    drop_missing_over: float | None = DEFAULT_MISSING_DROP_THRESHOLD,
) -> Dataset:
    """Read an RFC-4180-style CSV with a header row into a Dataset.

    Parameters
    ----------
    path : str or Path
        CSV file, UTF-8, '.' decimal separator.
    label_column : str
        Header name of the label column. Distinct label strings are sorted
        and mapped to class ids by rank. An empty feature cell marks a
        missing value; every other feature cell must parse as a finite
        float.
    drop_missing_over : float or None
        Drop any feature whose missing fraction exceeds this threshold
        before returning (default 0.25); None disables the filter.

    Raises
    ------
    MissingFileError, MissingLabelColumnError, SingleClassError,
    UnparsableCellError (a ragged row, or a cell that is neither a finite
    number nor empty; it names the 1-based file line, the
    header being line 1, and blank lines are skipped but counted)
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise SingleClassError(f"{path}: empty file") from None
            # each row and the file line it ends on; the lines go into an
            # int array, since one object per row pins heap memory. Blank
            # lines carry no row and are skipped.
            rows, lines = [], array("l")
            for row in reader:
                if row:
                    rows.append(row)
                    lines.append(reader.line_num)
    except FileNotFoundError:
        raise MissingFileError(f"no such file: {path}") from None

    if label_column not in header:
        raise MissingLabelColumnError(
            f"label column {label_column!r} not in header {header}"
        )
    label_pos = header.index(label_column)
    feature_names = [h for i, h in enumerate(header) if i != label_pos]

    labels: list[str] = []
    values = np.empty((len(rows), len(feature_names)), dtype=float)
    mask = np.zeros_like(values, dtype=bool)
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise UnparsableCellError(
                lines[r], None, f"row has {len(row)} cells, expected {len(header)}"
            )
        labels.append(row[label_pos])
        c = 0
        for i, cell in enumerate(row):
            if i == label_pos:
                continue
            if not cell:
                values[r, c] = np.nan
                mask[r, c] = True
            else:
                try:
                    v = float(cell)
                except ValueError:
                    v = math.nan
                # 'nan', 'inf' and overflowing spellings parse but are
                # not observations: only an empty cell marks a gap
                if not math.isfinite(v):
                    raise UnparsableCellError(lines[r], i + 1, cell)
                values[r, c] = v
            c += 1

    class_names = sorted(set(labels))
    if len(class_names) < 2:
        raise SingleClassError(f"label column has {len(class_names)} distinct value(s)")
    rank = {name: i for i, name in enumerate(class_names)}
    y = np.array([rank[s] for s in labels], dtype=int)

    if drop_missing_over is not None and len(rows):
        frac = mask.mean(axis=0)
        keep = frac <= drop_missing_over
        values = values[:, keep]
        mask = mask[:, keep]
        feature_names = [n for n, k in zip(feature_names, keep) if k]

    return Dataset(
        X=values,
        y=y,
        feature_names=feature_names,
        class_names=class_names,
        missing_mask=mask if mask.any() else None,
    )


def save_csv(d: Dataset, path, label_column: str = "label") -> None:
    """Write a Dataset back to CSV (label column last, class names as labels).

    A masked cell is left empty; every other cell is the round-trip repr
    of its value, so an unmasked NaN is written as ``nan``.
    """
    mask = d.missing_mask if d.has_missing() else np.zeros(d.X.shape, dtype=bool)
    rows = (
        [None if gap else repr(v) for v, gap in zip(values, gaps)] + [d.class_names[c]]
        for values, gaps, c in zip(d.X.tolist(), mask.tolist(), d.y.tolist())
    )
    write_csv(path, [*d.feature_names, label_column], rows)


def csv_cell(v) -> str:
    """Report-CSV cell: empty for None and NaN, round-trip repr for floats.

    numpy floats are converted first, because numpy 2 spells
    ``repr(np.float64(0.5))`` as ``np.float64(0.5)``.
    """
    if v is None:
        return ""
    if isinstance(v, float):
        v = float(v)
        return "" if math.isnan(v) else repr(v)
    return str(v)


def write_csv(path, columns, rows) -> None:
    """Write a header line of ``columns``, then one line per row.

    A row is a sequence of cells in column order, or a mapping from
    column name to cell in which a missing column stays empty. A cell is
    quoted only when it holds a comma, a quote, a line feed or a carriage
    return, as a name read from a CSV file may. Lines end in a line feed.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        # minimal quoting catches the terminator's characters, so a "\r\n"
        # terminator quotes a bare "\r" as well; the writer hands over one
        # whole line per write, whose "\r\n" becomes "\n" here
        lines = SimpleNamespace(write=lambda line: fh.write(line[:-2] + "\n"))
        writer = csv.writer(lines, lineterminator="\r\n")
        writer.writerow(columns)
        for row in rows:
            if isinstance(row, Mapping):
                row = [row.get(c) for c in columns]
            writer.writerow(map(csv_cell, row))


def impute_knn(d: Dataset, k: int = DEFAULT_IMPUTE_NEIGHBORS) -> Dataset:
    """Fill missing cells with the mean of the k nearest rows.

    Distances between two rows use only the features observed in both,
    normalized by the count of shared features. Donor rows for a cell must
    have that column observed; ties in distance go to the lower row index.
    All fills are computed from the original (pre-imputation) values,
    which makes the operation idempotent. Every observed cell must be
    finite.

    Rows are processed one missing pattern at a time, so the masks of
    shared features are built once per pattern rather than once per row;
    the filled values are the same as a row-by-row pass would give.

    Raises
    ------
    NonFiniteInputError
        If an observed (unmasked) cell is NaN or infinite.
    NotEnoughDonorsError
        If any column with missing entries has fewer than k donor rows.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not d.has_missing():
        return d

    X = d.X
    mask = d.missing_mask
    present = ~mask
    if not (np.isfinite(X) | mask).all():
        raise NonFiniteInputError("observed cells must be finite to impute")
    filled = X.copy()
    # scratch reused for every row: fresh X-sized temporaries per row made
    # the run time swing with where the allocator placed and faulted them in
    unshared = np.empty_like(mask)
    sq = np.empty_like(X)

    rows_with_missing = np.flatnonzero(mask.any(axis=1))
    patterns, which = np.unique(mask[rows_with_missing], axis=0, return_inverse=True)
    which = which.ravel()  # numpy 2.0.0 shapes it (rows, 1)
    for p, pattern in enumerate(patterns):
        np.logical_or(mask, pattern, out=unshared)
        n_shared = X.shape[1] - unshared.sum(axis=1)
        denom = np.maximum(n_shared, 1)
        no_shared = n_shared == 0
        missing_cols = np.flatnonzero(pattern)
        for i in rows_with_missing[which == p]:
            # mean squared difference over the features both rows observe:
            # every other term, NaN from a missing cell included, is
            # zeroed before squaring, and the (n, l) layout keeps numpy's
            # summation order
            np.subtract(X, X[i], out=sq)
            np.copyto(sq, 0.0, where=unshared)
            np.multiply(sq, sq, out=sq)
            dist = np.sqrt(sq.sum(axis=1) / denom)
            dist[no_shared] = np.inf
            dist[i] = np.inf
            reachable = np.isfinite(dist)
            for j in missing_cols:
                donors = np.flatnonzero(present[:, j] & reachable)
                if donors.size < k:
                    raise NotEnoughDonorsError(
                        f"column {d.feature_names[j]!r}: {donors.size} donors < k={k}"
                    )
                # the donors up to the k-th smallest distance, in row order,
                # then stably sorted: the first k of a full stable sort
                near = dist[donors]
                near = donors[near <= np.partition(near, k - 1)[k - 1]]
                order = near[np.argsort(dist[near], kind="stable")[:k]]
                filled[i, j] = X[order, j].mean()

    return Dataset(
        X=filled,
        y=d.y,
        feature_names=d.feature_names,
        class_names=d.class_names,
        missing_mask=None,
    )


def fit_scaler(d: Dataset, rows) -> Scaler:
    """Estimate per-feature mean and std (population) on the given rows."""
    rows = np.asarray(rows, dtype=int)
    if rows.size == 0:
        raise EmptyRowSetError("cannot fit a scaler on zero rows")
    sub = d.X[rows]
    mean = sub.mean(axis=0)
    std = sub.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return Scaler(mean=mean, std=std)


def apply_scaler(s: Scaler, d: Dataset) -> Dataset:
    """Standardize every row of ``d`` with a fitted scaler (apply exactly once)."""
    return Dataset(
        X=(d.X - s.mean) / s.std,
        y=d.y,
        feature_names=d.feature_names,
        class_names=d.class_names,
        missing_mask=d.missing_mask,
    )


def split(d: Dataset, seed) -> DataSplit:
    """Shuffle rows and carve out test/train/calibration indices.

    The test set takes round(0.25 * n) rows (half-up); the remainder is
    halved between train and calibration, train taking the extra row when
    odd. Deterministic for a given seed, an int or a SeedSequence.
    """
    n = d.n_samples
    if n < 8:
        raise TooFewSamplesError(f"need at least 8 samples, got {n}")
    n_test = math.floor(TEST_FRACTION * n + 0.5)
    rest = n - n_test
    n_train = rest - rest // 2
    perm = np.random.default_rng(seed).permutation(n)
    return DataSplit(
        train_idx=perm[:n_train],
        calib_idx=perm[n_train:n_train + (rest - n_train)],
        test_idx=perm[rest:],
    )


def split_with_all_classes(d: Dataset, seed: int, max_tries: int = 10) -> DataSplit:
    """Split, retrying while train or calibration misses a class.

    The first attempt shuffles with ``seed``; attempt a > 0 with
    SeedSequence([seed, a]), which no integer seed below 2**32 draws, so
    a retried split does not copy the split of the repeat seeded seed + a.
    Raises TooFewSamplesError when no class-preserving split is found in
    ``max_tries`` attempts.
    """
    m = d.n_classes
    for attempt in range(max_tries):
        sp = split(d, np.random.SeedSequence([seed, attempt]) if attempt else seed)
        ok = all(
            np.unique(d.y[idx]).size == m for idx in (sp.train_idx, sp.calib_idx)
        )
        if ok:
            return sp
    raise TooFewSamplesError(
        f"no split kept all {m} classes in train and calibration after {max_tries} tries"
    )


def scaled_split(d: Dataset, seed: int):
    """Class-preserving split, standardized with train-row statistics.

    Returns the DataSplit followed by the (X, y) pairs of its train,
    calibration and test rows.
    """
    sp = split_with_all_classes(d, seed)
    ds = apply_scaler(fit_scaler(d, sp.train_idx), d)
    parts = (sp.train_idx, sp.calib_idx, sp.test_idx)
    return (sp, *((ds.X[idx], ds.y[idx]) for idx in parts))


def generate_synthetic(spec: SyntheticSpec) -> tuple[Dataset, np.ndarray]:
    """Generate a seeded multiclass dataset with known informative features.

    Informative features are drawn from unit-variance Gaussian clusters
    whose class centers sit on distinct vertices of a hypercube scaled by
    ``class_sep``. Redundant features are random linear combinations of the
    informative block; the rest is standard-normal noise. Columns are
    shuffled; the second return value gives the post-shuffle indices of the
    informative features.
    """
    rng = np.random.default_rng(spec.seed)
    n, l = spec.n_samples, spec.n_features
    li, lr, m = spec.n_informative, spec.n_redundant, spec.n_classes

    # distinct hypercube vertices as class centers
    vertices: list[tuple[int, ...]] = []
    seen = set()
    while len(vertices) < m:
        v = tuple(int(b) for b in rng.integers(0, 2, size=li))
        if v not in seen:
            seen.add(v)
            vertices.append(v)
    centers = (2.0 * np.array(vertices, dtype=float) - 1.0) * spec.class_sep

    y = np.arange(n) % m
    X_info = centers[y] + rng.standard_normal((n, li))
    blocks = [X_info]
    if lr:
        combo = rng.standard_normal((li, lr))
        blocks.append(X_info @ combo)
    if l - li - lr:
        blocks.append(rng.standard_normal((n, l - li - lr)))
    X = np.hstack(blocks)

    n_flip = math.floor(spec.flip_y * n + 0.5)
    if n_flip:
        flip_rows = rng.choice(n, size=n_flip, replace=False)
        y = y.copy()
        y[flip_rows] = rng.integers(0, m, size=n_flip)

    perm = rng.permutation(l)
    X = X[:, perm]
    informative = np.flatnonzero(perm < li)

    dataset = Dataset(
        X=X,
        y=y,
        feature_names=tuple(f"f{j}" for j in range(l)),
        class_names=tuple(f"c{k}" for k in range(m)),
    )
    return dataset, informative


def save_synthetic(spec: SyntheticSpec, path) -> tuple[Dataset, np.ndarray]:
    """Generate, write ``<path>`` as CSV plus a ``<stem>.meta.json`` sidecar."""
    dataset, informative = generate_synthetic(spec)
    save_csv(dataset, path)
    meta = {
        "informative_indices": [int(j) for j in informative],
        "spec": asdict(spec),
    }
    sidecar = str(path)
    if sidecar.endswith(".csv"):
        sidecar = sidecar[: -len(".csv")]
    with open(sidecar + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return dataset, informative
