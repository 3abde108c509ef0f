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
    ConfigError, CrfeError, DegenerateLabelsError, DimensionMismatchError, EmptyRowSetError,
    InvalidSpecError, MissingFileError, MissingLabelColumnError, NonFiniteInputError,
    NotEnoughDonorsError, SingleClassError, TooFewSamplesError, UnparsableCellError, require_int,
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


def _labels_below(y, m: int, what: str, error=DegenerateLabelsError) -> np.ndarray:
    """y as whole-number labels, each in [0, m); ``error`` names ``what`` otherwise."""
    y = _whole_labels(y)
    if y.size and (y.min() < 0 or y.max() >= m):
        raise error(f"{what} outside [0, {m})")
    return y


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
        _labels_below(self.y, m, "class ids")
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

    Rows are converted as they are read, so memory stays near the size of
    the matrix rather than of the text. Errors are raised only after the
    whole file has been read: the file's own, then the header's, then the
    first bad row or cell in file order, then too few classes.

    Parameters
    ----------
    path : str or Path
        CSV file, UTF-8, '.' decimal separator.
    label_column : str
        Header name of the label column. Distinct label strings are sorted
        and mapped to class ids by rank; a label cell may not be empty. An
        empty feature cell marks a missing value; every other feature cell
        must parse as a finite float.
    drop_missing_over : float in [0, 1] or None
        Drop any feature whose missing fraction exceeds this threshold
        before returning (default 0.25); None disables the filter.

    Raises
    ------
    ConfigError (a threshold neither None nor in [0, 1], before any read),
    MissingFileError, MissingLabelColumnError, SingleClassError,
    UnparsableCellError (a column name that appears twice, a ragged row,
    an empty label cell, or a feature cell that is neither a finite
    number nor empty; it names the 1-based file line, the header being
    line 1, and blank lines are skipped but counted),
    CrfeError (bytes that are not UTF-8, or a field over csv's size limit)
    """
    if drop_missing_over is not None:
        require_real("drop_missing_over", drop_missing_over)
        if not 0 <= drop_missing_over <= 1:
            raise ConfigError(f"drop_missing_over must lie in [0, 1], not {drop_missing_over}")
    labels, values, gaps = [], array("d"), bytearray()
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise SingleClassError(f"{path}: empty file") from None
            label_pos = header.index(label_column) if label_column in header else None
            # a bad header or the first bad row ends the conversion, not
            # the reading: a decoding error later in the file comes first
            fault = len(set(header)) < len(header) or label_pos is None
            for row in reader:
                if fault or not row:  # blank lines carry no row
                    continue
                if len(row) != len(header):
                    msg = f"row has {len(row)} cells, expected {len(header)}"
                    fault = UnparsableCellError(reader.line_num, None, msg)
                    continue
                label = row.pop(label_pos)
                if not label:
                    msg = f"label column {label_column!r} is empty"
                    fault = UnparsableCellError(reader.line_num, None, msg)
                    continue
                labels.append(label)
                gaps.extend([not c for c in row])
                try:  # a gap reads as 0 here and as NaN once the file is read
                    cells = list(map(float, [c or "0" for c in row] if "" in row else row))
                except ValueError:  # a cell that is no number, named by the scan
                    cells = [math.nan]
                # 'nan', 'inf' and overflowing spellings parse but are not
                # observations; a finite row whose sum overflows passes the scan
                if not math.isfinite(sum(cells)):
                    fault = _first_bad_cell(row, label_pos, reader.line_num)
                values.fromlist(cells)
    except FileNotFoundError:
        raise MissingFileError(f"no such file: {path}") from None
    except UnicodeDecodeError as e:
        raise CrfeError(f"{path}: not UTF-8 text ({e.reason})") from None
    except csv.Error as e:  # a field longer than csv.field_size_limit()
        raise CrfeError(f"{path}, line {reader.line_num}: {e}") from None

    if len(set(header)) < len(header):
        twice = next(h for i, h in enumerate(header) if h in header[:i])
        raise UnparsableCellError(1, None, f"column name {twice!r} appears twice")
    if label_pos is None:
        raise MissingLabelColumnError(f"label column {label_column!r} not in header {header}")
    if fault:
        raise fault
    class_names = sorted(set(labels))
    if len(class_names) < 2:
        raise SingleClassError(f"label column has {len(class_names)} distinct value(s)")
    rank = {name: i for i, name in enumerate(class_names)}
    y = np.array([rank[s] for s in labels], dtype=int)
    feature_names = header[:label_pos] + header[label_pos + 1:]
    X = np.frombuffer(values).reshape(len(labels), len(feature_names))
    mask = np.frombuffer(gaps, dtype=bool).reshape(X.shape)
    X[mask] = np.nan
    if drop_missing_over is not None:
        keep = mask.mean(axis=0) <= drop_missing_over
        if not keep.all():
            X, mask = X[:, keep], mask[:, keep]
            feature_names = [n for n, k in zip(feature_names, keep) if k]
    return Dataset(X=X, y=y, feature_names=feature_names, class_names=class_names,
                   missing_mask=mask if mask.any() else None)


def _first_bad_cell(cells, label_pos: int, line: int) -> UnparsableCellError | None:
    """The error for the first feature cell of a row, its label popped, that
    is neither empty nor a finite float; None if there is none."""
    for i, cell in enumerate(cells):
        try:
            if not cell or math.isfinite(float(cell)):
                continue
        except ValueError:
            pass
        return UnparsableCellError(line, i + 1 + (i >= label_pos), cell)
    return None


def save_csv(d: Dataset, path, label_column: str = "label") -> None:
    """Write a Dataset back to CSV (label column last, class names as labels).

    A masked cell is left empty; every other cell is the round-trip repr
    of its value, so an unmasked NaN is written as ``nan``. A label column
    named like a feature raises ConfigError before the file is opened.
    """
    if label_column in d.feature_names:
        raise ConfigError(f"label_column {label_column!r} is also the name of a feature")
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


def _write_json(path, obj, **options) -> None:
    """json.dump ``obj`` to ``path`` with an indent of 2 and a final line feed."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, **options)
        fh.write("\n")


# entries per (cells, rows) bound array of a block of rows and per (pairs,
# features) square array of the exact pass; about the pairs scored together
_IMPUTE_BLOCK = 1 << 16

# the shortlist margin _MARGIN_C (l + 2) (u (|x_i|^2 + |x_r|^2) + eta); see impute_knn
_MARGIN_C = 32
_UNIT_ROUNDOFF = 2.0 ** -53
_UNDERFLOW = 2.0 ** -1022
_DBL_MAX = np.finfo(float).max


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
    scored so, in one pass and one lexsort per _IMPUTE_BLOCK pairs or so.
    It is bounded by the Gram form of each shared sum of squares, taken
    per row with a gap against all rows: one dot product of length
    m = l + 2 g + 2 <= 3 l + 2 (g the columns with a gap) whose terms sum
    in magnitude to at most 3 S, S = |x_i|^2 + |x_r|^2 and |x|^2 the sum
    of squares of a row's observed cells (see _shortlists). By the
    dot-product error bound (Higham, *Accuracy and Stability of Numerical
    Algorithms*, sec. 3.1), to first order in u = 2**-53, its rounding is
    off by 3 m u S, its rounded norms and squares by (l + 1) u S and the
    exact pass by 2 (l + 2) u S; each of at most 8 l + 2 products can lose
    eta = 2**-1022 to underflow, flushed to zero or not. So the form is
    off the exact pass by at most (12 l + 16) (u S + eta). The product
    carries the margin 32 (l + 2) (u S + eta), more than twice that, in
    its norm terms, or NaN for a row whose |x|^2 passes an eighth of the
    largest double, where a partial sum could overflow. Over the shared
    count it bounds the donor's mean square from above; the count being at
    least 1, that bound less twice the margin bounds it from below, and
    the roundings stay within the other half of the margin. A cell's
    shortlist holds every donor whose lower bound is at most the k-th
    smallest minimum of its column's donors' upper bounds over chunks of
    rows (each a distinct donor's), and every pair with NaN bounds. Square
    root keeps order, so no donor the exact pass would pick is left out. A
    cell whose shortlist holds fewer than k donors at a finite distance has
    all its donors scored before any error is raised.

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
    X, mask = d.X, d.missing_mask
    if not (np.isfinite(X) | mask).all():
        raise NonFiniteInputError("observed cells must be finite to impute")
    fills, shorts = [], []  # per batch: (rows, columns, fills), or its first short cell
    for i, j, c, r in _shortlists(X, mask, k):
        for _ in range(2):
            dist = _distances(X, mask, i[c], r)
            dist[mask[r, j[c]]] = np.inf  # no donor, shortlisted by a NaN bound
            counts = np.bincount(c[dist < np.inf], minlength=i.size)
            short = np.flatnonzero(counts < k)
            if not short.size:
                break
            # score all donors of a cell short of k: its count is a full pass's
            s, every = np.divmod(np.flatnonzero(~mask[:, j[short]].T), X.shape[0])
            keep = counts[c] >= k
            c, r = np.concatenate([c[keep], short[s]]), np.concatenate([r[keep], every])
        else:
            shorts.append(min(zip(j[short], i[short], counts[short])))
            continue
        # per cell, its donors by distance (inf last), ties to the lower row; the first k
        order = np.lexsort((r, dist, c))
        size = np.bincount(c, minlength=i.size)
        picks = r[order[(np.cumsum(size) - size)[:, None] + np.arange(k)]]
        fills.append((i, j, X[picks, j[:, None]].mean(axis=1)))
    if shorts:
        j, _, count = min(shorts)  # (column, row, donors)
        raise NotEnoughDonorsError(f"column {d.feature_names[j]!r}: {count} donors < k={k}")
    filled = X.copy()
    for i, j, fill in fills:
        filled[i, j] = fill
    return Dataset(X=filled, y=d.y, feature_names=d.feature_names,
                   class_names=d.class_names, missing_mask=None)


def _distances(X, mask, a, r):
    """Per p the distance of rows a[p] and r[p] (inf: no donor), as a row-by-row
    pass gets it: unshared terms zeroed, summed in the (pairs, l) layout."""
    l = X.shape[1]
    dist = np.empty(a.size)
    step = max(1, _IMPUTE_BLOCK // l)
    for s in range(0, a.size, step):
        ai, ri = a[s:s + step], r[s:s + step]
        unshared = mask[ai] | mask[ri]
        n_shared = l - unshared.sum(axis=1)
        with np.errstate(over="ignore", invalid="ignore"):  # inf is no donor
            sq = X[ri] - X[ai]
            np.copyto(sq, 0.0, where=unshared)
            np.multiply(sq, sq, out=sq)
            dist[s:s + step] = np.sqrt(sq.sum(axis=1) / np.maximum(n_shared, 1))
        dist[s:s + step][n_shared == 0] = np.inf
    return dist


def _shortlists(X, mask, k):
    """Batches (i, j, c, r): missing cells (i, j), and the cell c[p] and
    donor r[p] of each shortlisted pair p; see impute_knn.

    With gaps set to 0 and sq, gap the squares and gap flags of the columns
    with a gap, the shared sum of squares of rows i and r is the product
    [-2 x_i, 1, gap_i, |x_i|^2, -sq_i] . [x_r, |x_r|^2, -sq_r, 1, gap_r];
    each |x|^2 carries its row's half of the margin, or NaN where the row's
    margin is infinite. Their shared count, with h = observed - l/2, is the
    product [h_i, gap_i, 1] . [1, gap_r, h_r] of small whole numbers, which
    is exact.
    """
    n, l = X.shape
    gaps = np.flatnonzero(mask.any(axis=0))
    g = gaps.size
    X0 = np.where(mask, 0.0, X)
    with np.errstate(over="ignore"):
        norms = np.einsum("ij,ij->i", X0, X0)
        half = _MARGIN_C * (l + 2) * (_UNIT_ROUNDOFF * norms + _UNDERFLOW / 2)
        F = np.column_stack([X0, np.where(norms > _DBL_MAX / 8, np.nan, norms + half),
                             -X0[:, gaps] ** 2, np.ones(n), mask[:, gaps],
                             l / 2 - mask.sum(axis=1)])
    del X0
    w = l + 2 * g + 2
    side = np.r_[:l, l + g + 1:w, l:l + g + 1, w, l + g + 2:w, l + g + 1]  # F -> row i's side
    no_donor = np.where(mask[:, gaps].T, np.inf, -np.inf)  # per gap column
    kth, q = min(k, n) - 1, max(1, n // (16 * k))  # q rows per chunk minimum, ~16 per k

    # blocks of about _IMPUTE_BLOCK // n cells: rows with one gap in one column, or more
    gap_count = mask.sum(axis=1)
    key = np.where(gap_count == 1, mask.argmax(axis=1), np.where(gap_count > 0, l, l + 1))
    holed = np.argsort(key, kind="stable")[:np.count_nonzero(gap_count)]
    block = max(1, _IMPUTE_BLOCK // n)
    before = np.cumsum(gap_count[holed]) - gap_count[holed]
    cut = np.flatnonzero(np.diff(before // block) | np.diff(key[holed])) + 1
    buf = np.empty((2, min(block - 1 + gap_count.max(), np.count_nonzero(mask)), n))
    batch, cells, pairs = [], 0, 0
    for rows in np.split(holed, cut):
        left = F[rows[:, None], side]
        # cells by column, then row; a row with more gaps than one is copied per cell
        cg, cr = np.nonzero(mask[rows][:, gaps].T)
        with np.errstate(all="ignore"):  # inf and NaN are meant below
            left[:, :l] *= -2.0
            up = np.matmul(left[:, :w], F[:, :w].T, out=buf[0, :rows.size])
            up /= np.matmul(left[:, w:], F[:, l + g + 1:].T, out=buf[1, :rows.size])
            if cr.size > rows.size:  # (clip: unbuffered; cr is in range)
                up = np.take(up, cr, axis=0, out=buf[1, :cr.size], mode="clip")
            starts = np.flatnonzero(np.diff(cg, prepend=-1))
            for s, e in zip(starts, [*starts[1:], cg.size]):  # inf where no donor
                np.maximum(up[s:e], no_donor[cg[s]], out=up[s:e])
            mins = np.concatenate([up[:, n % q:].reshape(-1, q, n // q).min(axis=1),
                                   up[:, :n % q]], axis=1)
            bound = np.fmin(np.partition(mins, kth, axis=1)[:, kth], _DBL_MAX)  # NaN last
            up -= 2 * half  # up less twice the margin is below the mean square
            low = np.flatnonzero(~(up > (bound + 2 * half[rows[cr]])[:, None]))  # or NaN
        c, r = np.divmod(low, n)
        batch.append((rows[cr], gaps[cg], c + cells, r))
        cells, pairs = cells + cr.size, pairs + c.size
        if pairs >= _IMPUTE_BLOCK:
            yield tuple(map(np.concatenate, zip(*batch)))
            batch, cells, pairs = [], 0, 0
    del F, buf, up  # free the bounds before the last batch is scored
    if batch:
        yield tuple(map(np.concatenate, zip(*batch)))


def fit_scaler(d: Dataset, rows) -> Scaler:
    """Estimate per-feature mean and std (population) on the given rows; both must be finite."""
    rows = np.asarray(rows, dtype=int)
    if rows.size == 0:
        raise EmptyRowSetError("cannot fit a scaler on zero rows")
    sub = d.X[rows]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        mean, std = sub.mean(axis=0), sub.std(axis=0)
    finite = np.isfinite(mean) & np.isfinite(std)
    if not finite.all():
        raise NonFiniteInputError(f"feature {d.feature_names[int(finite.argmin())]!r}: its mean or"
                                  " standard deviation over the training rows is not finite")
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


def split(d: Dataset, seed: int) -> DataSplit:
    """Shuffle rows and carve out test/train/calibration indices.

    The test set takes round(0.25 * n) rows (half-up); the remainder is
    halved between train and calibration, train taking the extra row when
    odd. Deterministic for a given seed.
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


def split_with_all_classes(d: Dataset, seed: int) -> DataSplit:
    """split(d, seed), repaired so that train and calibration hold every class.

    Every class needs 2 rows and calibration as many rows as there are
    classes, else TooFewSamplesError names what is short. For each class
    that train, then calibration, misses, the part takes the first row of
    it that another part can spare, test rows first, and gives in its
    place its last row of a class it holds twice. No random number is
    drawn, and a split that holds every class is returned as drawn.
    """
    m, y = d.n_classes, d.y
    counts = np.bincount(y, minlength=m)
    if counts.min() < 2:
        k = int(counts.argmin())
        raise TooFewSamplesError(f"class {d.class_names[k]!r} has {counts[k]} row;"
                                 " train and calibration need one each")
    sp = split(d, seed)
    parts = (sp.train_idx, sp.calib_idx, sp.test_idx)  # fresh arrays, repaired in place
    if parts[1].size < m:  # calibration is never larger than train
        raise TooFewSamplesError(f"calibration holds {parts[1].size} rows, under {m} classes")
    for p in (0, 1):
        for k in np.flatnonzero(np.bincount(y[parts[p]], minlength=m) == 0):
            q = 2 if (y[parts[2]] == k).any() else 1 - p  # the other part then holds k twice
            i = np.flatnonzero(y[parts[q]] == k)[0]
            held = y[parts[p]]
            j = np.flatnonzero(np.bincount(held, minlength=m)[held] >= 2)[-1]
            parts[p][j], parts[q][i] = parts[q][i], parts[p][j]
    return sp


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
    _write_json(sidecar + ".meta.json", meta, sort_keys=True)
    return dataset, informative
