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
    CrfeError,
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


def _whole_labels(y) -> np.ndarray:
    """y as an int array; labels that are not whole numbers are rejected."""
    y = np.asarray(y)
    if y.dtype.kind not in "iu":
        yf = y.astype(float)
        if not (np.isfinite(yf).all() and np.array_equal(yf, np.trunc(yf))):
            raise DegenerateLabelsError("labels must be whole numbers")
    return y.astype(int)


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
        Float ids must be whole numbers.
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
        object.__setattr__(self, "y", _whole_labels(self.y))
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
    header being line 1, and blank lines are skipped but counted),
    CrfeError (bytes that are not UTF-8, or a field over csv's size limit)
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
    except UnicodeDecodeError as e:
        raise CrfeError(f"{path}: not UTF-8 text ({e.reason})") from None
    except csv.Error as e:  # a field longer than csv.field_size_limit()
        raise CrfeError(f"{path}, line {reader.line_num}: {e}") from None

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


# missing cells per block of the shortlist stage: each (cells, rows)
# array of a block holds about this many entries
_IMPUTE_BLOCK_CELLS = 1 << 15

# the shortlist margin _MARGIN_C (l + 8) (u (|x_i|^2 + |x_r|^2) + eta), with
# u the unit roundoff and eta the underflow bound; see impute_knn
_MARGIN_C = 16
_UNIT_ROUNDOFF = 2.0 ** -53
_UNDERFLOW = 2.0 ** -1022


def impute_knn(d: Dataset, k: int = DEFAULT_IMPUTE_NEIGHBORS) -> Dataset:
    """Fill missing cells with the mean of the k nearest rows.

    Distances between two rows use only the features observed in both,
    normalized by the count of shared features. Donor rows for a cell must
    have that column observed; ties in distance go to the lower row index.
    All fills are computed from the original (pre-imputation) values,
    which makes the operation idempotent. Every observed cell must be
    finite. A row that shares no feature with the imputed row, or whose
    sum of squared differences overflows, is no donor.

    Each donor distance that decides a fill is computed exactly as a
    row-by-row pass computes it (subtract, zero the unshared terms,
    square, sum in the (rows, features) layout, divide, root), so the
    fills are bit-identical to that pass. Only a shortlist of donors is
    scored so. It comes from the Gram form of each shared sum of squares,
    sum x_i^2 + sum x_r^2 - 2 x_i . x_r over the shared features, taken
    by matrix products for a block of missing cells at a time. By the
    dot-product error bound (Higham, *Accuracy and Stability of
    Numerical Algorithms*, sec. 3.1), the Gram form and the exact pass
    together are off the true sum by at most
    (6 l + 14) (u (|x_i|^2 + |x_r|^2) + eta), where l is the number of
    features, |x|^2 the sum of squares of a row's observed cells,
    u = 2**-53 the unit roundoff and eta = 2**-1022 the most a product
    can lose to underflow, flushed to zero or not. Each form gets the
    margin

        16 (l + 8) (u (|x_i|^2 + |x_r|^2) + eta),

    more than twice that, before both bounds are divided by the shared
    count. A cell's shortlist holds every donor whose lower bound is at
    most the k-th smallest upper bound among the donors of its column,
    and every donor whose form is not finite. Division and square root
    keep order, so no donor the exact pass would pick is left out. A
    cell whose shortlist holds fewer than k donors at a finite distance
    has all its donors scored before any error is raised.

    Raises
    ------
    ConfigError
        If k is not an integer >= 1.
    NonFiniteInputError
        If an observed (unmasked) cell is NaN or infinite.
    NotEnoughDonorsError
        If a missing cell has fewer than k donor rows; the first such
        cell in column order, then row order, is named.
    """
    require_int("k", k, 1)
    if not d.has_missing():
        return d

    X = d.X
    mask = d.missing_mask
    present = ~mask
    if not (np.isfinite(X) | mask).all():
        raise NonFiniteInputError("observed cells must be finite to impute")
    n, l = X.shape
    filled = X.copy()
    gram = _GramBounds(X, mask)
    kth = min(k, n) - 1
    block = max(1, _IMPUTE_BLOCK_CELLS // n)

    for j in np.flatnonzero(mask.any(axis=0)):
        donor = present[:, j]
        missing = np.flatnonzero(mask[:, j])
        for start in range(0, missing.size, block):
            cells = missing[start:start + block]
            lo, up = gram.bounds(cells)
            up[:, ~donor] = np.inf
            bound = np.partition(up, kth, axis=1)[:, kth]
            shortlist = donor & (lo <= bound[:, None])
            for _ in range(2):
                # the exact distance of each (cell, donor) pair: every
                # term outside the shared features, NaN from a missing cell
                # included, is zeroed before squaring, and the (pairs, l)
                # layout keeps numpy's summation order of a row-by-row pass
                c, r = np.nonzero(shortlist)
                unshared = mask[cells[c]] | mask[r]
                n_shared = l - unshared.sum(axis=1)
                with np.errstate(over="ignore", invalid="ignore"):  # inf is no donor
                    sq = X[r] - X[cells[c]]
                    np.copyto(sq, 0.0, where=unshared)
                    np.multiply(sq, sq, out=sq)
                    dist = np.sqrt(sq.sum(axis=1) / np.maximum(n_shared, 1))
                ok = np.isfinite(dist) & (n_shared > 0)
                counts = np.bincount(c[ok], minlength=cells.size)
                short = counts < k
                if not short.any():
                    break
                # score every donor of a cell short of k before counting,
                # so the count is the one a full pass would find
                shortlist[short] = donor
            else:
                raise NotEnoughDonorsError(
                    f"column {d.feature_names[j]!r}: {counts[short][0]} donors < k={k}"
                )
            # per cell, its donors by distance, ties in row order (the
            # order nonzero lists them in), and the first k of them
            c, r, dist = c[ok], r[ok], dist[ok]
            order = np.lexsort((dist, c))
            first = np.cumsum(counts) - counts
            picks = r[order[first[:, None] + np.arange(k)]]
            filled[cells, j] = X[picks, j].mean(axis=1)

    return Dataset(
        X=filled,
        y=d.y,
        feature_names=d.feature_names,
        class_names=d.class_names,
        missing_mask=None,
    )


class _GramBounds:
    """Bounds on shared-feature mean squares from the Gram form.

    The shared sum of squares of rows i and r is
    |x_i|^2 + |x_r|^2 - 2 x_i . x_r, less the squares of each row's
    observed cells that the other row misses. With missing cells set to
    0 the dot product runs over the shared features by itself, and only
    the columns with a gap can hold an unshared square.
    """

    def __init__(self, X, mask):
        l = X.shape[1]
        gaps = np.flatnonzero(mask.any(axis=0))
        gap = mask[:, gaps].astype(float)
        self.X0 = np.where(mask, 0.0, X)
        with np.errstate(over="ignore"):
            sq = self.X0[:, gaps] ** 2
            norms = np.einsum("ij,ij->i", self.X0, self.X0)
        self.gap = gap
        # unshared squares of (i, r): [sq_i, gap_i] . [gap_r, sq_r]
        self.sq_gap = np.hstack([sq, gap])
        self.gap_sq = np.hstack([gap, sq])
        self.norms = norms
        self.observed = l - mask.sum(axis=1)
        self.l = l
        # margin of (i, r) is part[i] + part[r] + floor
        scale = _MARGIN_C * (l + 8)
        self.part = scale * _UNIT_ROUNDOFF * norms
        self.floor = scale * _UNDERFLOW

    def bounds(self, rows):
        """Lower and upper bounds of the (rows, all rows) mean squares.

        Where the form is not finite they are -inf and inf; for a pair
        that shares no feature both are inf.
        """
        # shared = observed by i + observed by r - l + missing in both,
        # small whole numbers that the products hold exactly
        n_shared = self.gap[rows] @ self.gap.T
        n_shared += (self.observed[rows] - self.l)[:, None]
        n_shared += self.observed
        with np.errstate(over="ignore", invalid="ignore"):
            form = self.X0[rows] @ self.X0.T
            form *= -2.0
            form -= self.sq_gap[rows] @ self.gap_sq.T
            form += self.norms[rows, None]
            form += self.norms
            margin = (self.part[rows] + self.floor)[:, None] + self.part
            lo = form - margin
            up = form + margin
        none = n_shared == 0
        np.maximum(n_shared, 1.0, out=n_shared)
        lo /= n_shared
        up /= n_shared
        unbounded = ~np.isfinite(form)
        lo[unbounded] = -np.inf
        up[unbounded] = np.inf
        lo[none] = np.inf
        up[none] = np.inf
        return lo, up


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
    s = fit_scaler(d, sp.train_idx)
    X = (d.X - s.mean) / s.std
    parts = (sp.train_idx, sp.calib_idx, sp.test_idx)
    return (sp, *((X[idx], d.y[idx]) for idx in parts))


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
