import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from crfe.data import (
    Dataset,
    SyntheticSpec,
    apply_scaler,
    fit_scaler,
    generate_synthetic,
    impute_knn,
    load_csv,
    save_csv,
    save_synthetic,
    split,
    split_with_all_classes,
)
from crfe.exceptions import (
    ConfigError,
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
)
from oracles import impute_knn as per_row_impute_knn


def make_dataset(X, y, m=None):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    m = m if m is not None else int(y.max()) + 1
    return Dataset(
        X=X,
        y=y,
        feature_names=tuple(f"f{j}" for j in range(X.shape[1])),
        class_names=tuple(f"c{k}" for k in range(m)),
    )


def test_dataset_rejects_inconsistent_fields():
    X, y = np.zeros((4, 2)), np.array([0, 1, 0, 1])
    names = ("f0", "f1")
    for bad in (
        dict(X=np.zeros(4)),                     # not 2-D
        dict(y=np.array([0, 1, 0])),             # one label short
        dict(feature_names=("f0",)),
        dict(missing_mask=np.zeros((4, 3), dtype=bool)),
    ):
        with pytest.raises(DimensionMismatchError):
            Dataset(**{"X": X, "y": y, "feature_names": names,
                       "class_names": ("a", "b"), **bad})
    for bad_y, classes in (([0, 1, 0, -1], ("a", "b")),   # id out of range
                           ([0, 1, 0, 1], ("a", "b", "c")),  # "c" never seen
                           ([0.2, 1.9, 0.7, 1.1], ("a", "b")),  # not whole
                           ([0.0, 1.0, 0.0, np.inf], ("a", "b"))):
        with pytest.raises(DegenerateLabelsError):
            Dataset(X=X, y=np.array(bad_y), feature_names=names, class_names=classes)
    # whole-valued floats are the same labels as their ints
    whole = Dataset(X=X, y=[0.0, 1.0, 0.0, 1.0], feature_names=names, class_names=("a", "b"))
    assert whole.y.tolist() == [0, 1, 0, 1] and whole.y.dtype.kind == "i"


# ---------------------------------------------------------------- loading


def test_load_csv_basic(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b,label\n1.5,2.0,yes\n-1.0,0.25,no\n0.0,1.0,yes\n")
    d = load_csv(p, label_column="label")
    assert d.feature_names == ("a", "b")
    assert d.class_names == ("no", "yes")
    # class ids follow the sorted label strings
    assert d.y.tolist() == [1, 0, 1]
    assert d.X[0].tolist() == [1.5, 2.0]
    assert not d.has_missing()


def test_load_csv_label_column_anywhere(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("label,a,b\nx,1,2\ny,3,4\n")
    d = load_csv(p, label_column="label")
    assert d.feature_names == ("a", "b")
    assert d.X[1].tolist() == [3.0, 4.0]


def test_load_csv_missing_file():
    with pytest.raises(MissingFileError):
        load_csv("/nonexistent/nope.csv", label_column="label")


def test_load_csv_missing_label_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(MissingLabelColumnError):
        load_csv(p, label_column="label")


def test_load_csv_unparsable_cell_reports_location(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b,label\n1,2,x\n1,oops,y\n")
    with pytest.raises(UnparsableCellError) as ei:
        load_csv(p, label_column="label")
    assert ei.value.line == 3
    assert ei.value.col == 2
    assert ei.value.value == "oops"
    assert "line 3, column 2" in str(ei.value)
    p.write_text("a,b,label\n1,2,x\n1,y\n")
    with pytest.raises(UnparsableCellError) as ei:
        load_csv(p, label_column="label")
    assert ei.value.line == 3
    assert ei.value.col is None
    assert str(ei.value) == "line 3: row has 2 cells, expected 3"
    # a quoted line break in the header moves every later row down a line
    p.write_text('a,"b\nb",label\n1,2,x\n1,oops,y\n')
    with pytest.raises(UnparsableCellError) as ei:
        load_csv(p, label_column="label")
    assert (ei.value.line, ei.value.col) == (4, 2)


def test_load_csv_skips_blank_lines(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b,label\n1,2,x\n3,4,y\n5,6,x\n\n")  # one trailing blank line
    d = load_csv(p, label_column="label")
    assert d.X.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
    assert d.y.tolist() == [0, 1, 0]
    p.write_text("a,b,label\n1,2,x\n\n3,4,y\n\n\n5,6,x\n")  # interior blank lines
    assert load_csv(p, label_column="label").X.tolist() == d.X.tolist()
    # a later error still names its file line, blank lines counted
    p.write_text("a,b,label\n1,2,x\n\n3,4,y\n\n5,oops,x\n")
    with pytest.raises(UnparsableCellError) as ei:
        load_csv(p, label_column="label")
    assert (ei.value.line, ei.value.col) == (6, 2)
    p.write_text("a,b,label\n1,2,x\n\n3,y\n")
    with pytest.raises(UnparsableCellError) as ei:
        load_csv(p, label_column="label")
    assert (ei.value.line, ei.value.col) == (4, None)


@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "+Infinity", "1e999"])
def test_load_csv_rejects_non_finite_cells(tmp_path, cell):
    p = tmp_path / "d.csv"
    p.write_text(f"a,b,label\n1,2,x\n3,4,y\n5,{cell},x\n")
    with pytest.raises(UnparsableCellError) as ei:
        load_csv(p, label_column="label")
    assert (ei.value.line, ei.value.col, ei.value.value) == (4, 2, cell)


def test_load_csv_single_class(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,label\n1,x\n2,x\n")
    with pytest.raises(SingleClassError):
        load_csv(p, label_column="label")


def test_load_csv_missing_token_and_drop_threshold(tmp_path):
    p = tmp_path / "d.csv"
    # column b is 50% missing: dropped at the default threshold, kept with None
    p.write_text("a,b,label\n1,,x\n2,5,y\n3,,x\n4,7,y\n")
    d = load_csv(p, label_column="label")
    assert d.feature_names == ("a",)
    assert not d.has_missing()
    full = load_csv(p, label_column="label", drop_missing_over=None)
    assert full.feature_names == ("a", "b")
    assert full.has_missing()
    assert full.missing_mask[:, 1].tolist() == [True, False, True, False]
    assert np.isnan(full.X[0, 1])


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(7)
    X = rng.standard_normal((11, 4))
    y = rng.integers(0, 3, size=11)
    y[:3] = [0, 1, 2]
    d = make_dataset(X, y, m=3)
    p = tmp_path / "rt.csv"
    save_csv(d, p)
    back = load_csv(p, label_column="label")
    assert back.feature_names == d.feature_names
    assert back.class_names == d.class_names
    assert back.y.tolist() == d.y.tolist()
    assert np.array_equal(back.X, d.X)  # repr round-trips doubles exactly


def test_csv_round_trip_missing_cells(tmp_path):
    X = np.array([[1.0, np.nan], [2.0, 5.0], [3.0, 6.0]])
    mask = np.isnan(X)
    d = Dataset(X=X, y=np.array([0, 1, 0]), feature_names=("a", "b"),
                class_names=("n", "p"), missing_mask=mask)
    p = tmp_path / "m.csv"
    save_csv(d, p)
    back = load_csv(p, label_column="label", drop_missing_over=None)
    assert back.missing_mask.tolist() == mask.tolist()


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(
    arrays(np.float64, (n, 3), elements=st.floats(allow_nan=False, allow_infinity=False)),
    arrays(np.bool_, (n, 3)),
)))
def test_csv_round_trip_keeps_every_observed_double(problem):
    """-0.0, subnormals and the largest doubles come back bit for bit."""
    X, mask = problem
    n = X.shape[0]
    d = Dataset(X=X, y=np.arange(n) % 2, feature_names=("a", "b", "c"),
                class_names=("n", "p"), missing_mask=mask)
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "rt.csv"
        save_csv(d, p)
        back = load_csv(p, label_column="label", drop_missing_over=None)
    got_mask = back.missing_mask if back.has_missing() else np.zeros_like(mask)
    assert got_mask.tolist() == mask.tolist()
    assert back.X[~mask].tobytes() == X[~mask].tobytes()
    assert back.y.tolist() == d.y.tolist()


# ---------------------------------------------------------------- imputation


def test_impute_knn_two_neighbor_mean():
    # shared-feature distances from row 0: 1, 2, 10 -> donors rows 1 and 2
    X = np.array([
        [0.0, np.nan],
        [1.0, 2.0],
        [2.0, 4.0],
        [10.0, 100.0],
    ])
    d = Dataset(X=X, y=np.array([0, 1, 0, 1]), feature_names=("a", "b"),
                class_names=("n", "p"), missing_mask=np.isnan(X))
    out = impute_knn(d, k=2)
    assert out.X[0, 1] == 3.0
    assert out.missing_mask is None
    # observed cells untouched
    assert np.array_equal(out.X[1:], X[1:])


def test_impute_knn_idempotent_and_uses_original_values():
    rng = np.random.default_rng(3)
    for trial in range(20):
        X = rng.standard_normal((12, 5))
        holes = rng.random((12, 5)) < 0.15
        holes[:, 0] = False  # keep one column fully observed
        Xm = X.copy()
        Xm[holes] = np.nan
        d = Dataset(X=Xm, y=np.array([0, 1] * 6), feature_names=tuple("abcde"),
                    class_names=("n", "p"), missing_mask=holes)
        once = impute_knn(d, k=3)
        assert np.isfinite(once.X).all()
        twice = impute_knn(once, k=3)
        assert np.array_equal(once.X, twice.X)


def test_impute_knn_not_enough_donors():
    X = np.array([[1.0, np.nan], [2.0, np.nan], [3.0, 4.0]])
    d = Dataset(X=X, y=np.array([0, 1, 0]), feature_names=("a", "b"),
                class_names=("n", "p"), missing_mask=np.isnan(X))
    with pytest.raises(NotEnoughDonorsError):
        impute_knn(d, k=2)  # only row 2 can donate column b


@st.composite
def holed_matrices(draw):
    n = draw(st.integers(2, 40))
    l = draw(st.integers(1, 12))
    k = draw(st.integers(1, 6))
    hole_rate = draw(st.floats(0.0, 0.6))
    decimals = draw(st.sampled_from((None, 1, 0)))  # rounding makes distances tie
    isolated = draw(st.integers(0, min(n, 3)))  # rows that observe one column only
    return n, l, k, hole_rate, decimals, isolated, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(holed_matrices())
def test_impute_knn_matches_per_row_oracle(problem):
    """Imputing by missing pattern fills exactly what the per-row loop fills."""
    n, l, k, hole_rate, decimals, isolated, seed = problem
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, l)) * 2.0
    if decimals is not None:
        X = np.round(X, decimals)
    mask = rng.random((n, l)) < hole_rate
    for r in range(isolated):
        # such a row shares no feature with the rows that lack its column
        mask[r] = True
        mask[r, rng.integers(l)] = False
    d = Dataset(X=np.where(mask, np.nan, X), y=np.arange(n) % 2,
                feature_names=tuple(f"f{j}" for j in range(l)),
                class_names=("n", "p"), missing_mask=mask)
    try:
        want = per_row_impute_knn(d, k)
    except NotEnoughDonorsError:
        with pytest.raises(NotEnoughDonorsError):
            impute_knn(d, k)
        return
    assert impute_knn(d, k).X.tobytes() == want.tobytes()


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_impute_knn_rejects_non_finite_observed_cells(value):
    X = np.array([[1.0, np.nan], [2.0, 5.0], [value, 4.0], [4.0, 6.0]])
    mask = np.zeros(X.shape, dtype=bool)
    mask[0, 1] = True  # the cell holding value counts as observed
    d = Dataset(X=X, y=np.array([0, 1, 0, 1]), feature_names=("a", "b"),
                class_names=("n", "p"), missing_mask=mask)
    with pytest.raises(NonFiniteInputError):
        impute_knn(d, k=2)


@pytest.mark.parametrize("k", [2.5, True, 0])
def test_impute_knn_rejects_a_k_that_is_not_a_count(k):
    X = np.array([[1.0, np.nan], [2.0, 5.0], [3.0, 4.0], [4.0, 6.0]])
    d = Dataset(X=X, y=np.array([0, 1, 0, 1]), feature_names=("a", "b"),
                class_names=("n", "p"), missing_mask=np.isnan(X))
    with pytest.raises(ConfigError, match="k must be an integer >= 1"):
        impute_knn(d, k)


@st.composite
def hard_holed_matrices(draw):
    """Rows that defeat a Gram-form distance: cancellation, ties, overflow.

    Most draws keep several donors per cell, so most of them impute.
    """
    n = draw(st.integers(4, 30))
    l = draw(st.integers(2, 8))
    k = draw(st.integers(1, max(1, min(9, n // 4))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("offset", "nextafter", "magnitude")))
    if kind == "offset":
        # a large common offset with tiny relative noise: |x|^2 dwarfs
        # every squared difference
        offset = draw(st.floats(1.0, 1e8)) * draw(st.sampled_from((1.0, -1.0)))
        X = offset * (1.0 + 1e-12 * rng.standard_normal((n, l)))
    elif kind == "nextafter":
        # rows a few ulps apart from a handful of base rows
        base = rng.standard_normal((3, l)) * 10.0 ** draw(st.integers(-8, 8))
        X = base[rng.integers(0, 3, n)]
        for _ in range(3):
            step = rng.integers(-1, 2, X.shape)
            X = np.where(step > 0, np.nextafter(X, np.inf),
                         np.where(step < 0, np.nextafter(X, -np.inf), X))
    else:
        # copies of two rows whose columns have magnitudes from 1e-300 to
        # 1e200: squares underflow or overflow, while a copy stays at
        # distance 0
        exps = rng.integers(-300, 201, l).astype(float)
        X = (rng.standard_normal((2, l)) * 10.0 ** exps)[rng.integers(0, 2, n)]
    mask = rng.random((n, l)) < draw(st.floats(0.0, 0.3))
    mask[rng.integers(0, n), rng.integers(0, l)] = True
    return np.where(mask, np.nan, X), mask, k


@settings(max_examples=300, deadline=None)
@given(hard_holed_matrices())
@example((np.array([[1e200, np.nan], [1e200, 1.0], [1e200, 2.0],
                    [1.0000000002e200, 3.0], [5.0, 4.0]]),
          np.array([[False, True]] + [[False, False]] * 4), 2))
@example((np.array([[np.nan, 0.0, np.nan], [1e200, 0.0, 7.0],
                    [np.nan, 1.0, 3.0], [np.nan, 2.0, 5.0]]),
          np.array([[True, False, True], [False, False, False],
                    [True, False, False], [True, False, False]]), 1))
def test_impute_knn_matches_per_row_oracle_under_cancellation_and_overflow(problem):
    """The shortlist never drops a donor that the per-row loop would pick.

    Squares of 1e200 overflow. In the first example the exact distances
    from row 0 are 0 to rows 1 and 2 and overflow to the others, so the
    fill is 1.5. In the second the nearest donor of row 0 for column 2,
    row 1 at distance 0, has no finite Gram form, while rows 2 and 3
    have one.
    """
    X, mask, k = problem
    n, l = X.shape
    d = Dataset(X=X, y=np.arange(n) % 2, feature_names=tuple(f"f{j}" for j in range(l)),
                class_names=("n", "p"), missing_mask=mask)
    # a squared difference past the largest double overflows in both
    with np.errstate(over="ignore"):
        try:
            want = per_row_impute_knn(d, k)
        except NotEnoughDonorsError:
            with pytest.raises(NotEnoughDonorsError):
                impute_knn(d, k)
            return
        assert impute_knn(d, k).X.tobytes() == want.tobytes()


def test_impute_knn_gram_overflow_stays_silent():
    """Squares past 1e308 raise no warning, in the shortlist stage or the exact pass."""
    rng = np.random.default_rng(5)
    X = 1e160 * (1.0 + 1e-12 * rng.standard_normal((12, 4)))
    mask = np.zeros(X.shape, dtype=bool)
    mask[[0, 3, 7], [1, 2, 0]] = True
    d = Dataset(X=np.where(mask, np.nan, X), y=np.arange(12) % 2,
                feature_names=tuple("abcd"), class_names=("n", "p"), missing_mask=mask)
    assert impute_knn(d, 3).X.tobytes() == per_row_impute_knn(d, 3).tobytes()
    # the exact distances from row 0 to rows 3 and 4 overflow: they are no donors
    X = np.array([[1e200, np.nan], [1e200, 1.0], [1e200, 2.0],
                  [1.0000000002e200, 3.0], [5.0, 4.0]])
    d = Dataset(X=X, y=np.arange(5) % 2, feature_names=("a", "b"),
                class_names=("n", "p"), missing_mask=np.isnan(X))
    assert impute_knn(d, 2).X[0, 1] == 1.5


def test_impute_noop_when_complete():
    d = make_dataset([[1.0, 2.0], [3.0, 4.0]], [0, 1])
    assert impute_knn(d) is d


# ---------------------------------------------------------------- scaling


def test_scaler_two_point_column():
    d = make_dataset([[1.0], [3.0]], [0, 1])
    s = fit_scaler(d, [0, 1])
    assert s.mean[0] == 2.0 and s.std[0] == 1.0
    out = apply_scaler(s, d)
    assert out.X[:, 0].tolist() == [-1.0, 1.0]


def test_scaler_constant_column_maps_to_zero():
    d = make_dataset([[5.0, 1.0], [5.0, 2.0]], [0, 1])
    s = fit_scaler(d, [0, 1])
    assert s.std[0] == 1.0
    out = apply_scaler(s, d)
    assert out.X[:, 0].tolist() == [0.0, 0.0]


def test_scaler_empty_rows_rejected():
    d = make_dataset([[1.0], [2.0]], [0, 1])
    with pytest.raises(EmptyRowSetError):
        fit_scaler(d, [])


def test_scaler_train_rows_standardized():
    rng = np.random.default_rng(11)
    for trial in range(10):
        X = rng.standard_normal((30, 6)) * rng.uniform(0.5, 4) + rng.uniform(-3, 3)
        d = make_dataset(X, np.arange(30) % 2)
        rows = rng.permutation(30)[:17]
        out = apply_scaler(fit_scaler(d, rows), d)
        assert np.allclose(out.X[rows].mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(out.X[rows].std(axis=0), 1.0, atol=1e-12)


# ---------------------------------------------------------------- splitting


def test_split_sizes_350():
    d = make_dataset(np.zeros((350, 2)) + np.arange(350)[:, None], np.arange(350) % 4)
    sp = split(d, seed=0)
    assert sp.test_idx.size == 88
    assert sp.train_idx.size == 131
    assert sp.calib_idx.size == 131


def test_split_sizes_odd_remainder():
    d = make_dataset(np.arange(20).reshape(10, 2), np.arange(10) % 2)
    sp = split(d, seed=1)
    # test gets round(2.5)=3 rows, train takes the extra one from the odd rest
    assert (sp.train_idx.size, sp.calib_idx.size, sp.test_idx.size) == (4, 3, 3)


def test_split_partitions_rows():
    d = make_dataset(np.arange(60).reshape(30, 2), np.arange(30) % 3)
    for seed in range(25):
        sp = split(d, seed)
        allidx = np.concatenate([sp.train_idx, sp.calib_idx, sp.test_idx])
        assert sorted(allidx.tolist()) == list(range(30))


def test_split_deterministic_and_seed_sensitive():
    d = make_dataset(np.arange(80).reshape(40, 2), np.arange(40) % 2)
    a = split(d, 5)
    b = split(d, 5)
    assert np.array_equal(a.train_idx, b.train_idx)
    assert np.array_equal(a.test_idx, b.test_idx)
    c = split(d, 6)
    assert not np.array_equal(a.train_idx, c.train_idx)


def test_split_too_few_samples():
    d = make_dataset(np.arange(14).reshape(7, 2), np.arange(7) % 2)
    with pytest.raises(TooFewSamplesError):
        split(d, 0)


def test_split_with_all_classes_retries():
    # class 1 has two rows; both must not land in the same non-train part
    y = np.zeros(20, dtype=int)
    y[[3, 17]] = 1
    d = make_dataset(np.arange(40).reshape(20, 2), y)
    bad = None
    for seed in range(300):
        sp = split(d, seed)
        if np.unique(d.y[sp.train_idx]).size < 2 or np.unique(d.y[sp.calib_idx]).size < 2:
            bad = seed
            break
    assert bad is not None
    with pytest.raises(TooFewSamplesError):
        split_with_all_classes(d, bad, max_tries=1)
    sp = split_with_all_classes(d, bad)
    assert np.unique(d.y[sp.train_idx]).size == 2
    assert np.unique(d.y[sp.calib_idx]).size == 2


def test_split_retry_does_not_take_the_next_seed():
    """A retried split draws a stream of its own, not the next repeat's split."""
    y = np.zeros(20, dtype=int)
    y[[3, 9, 17]] = 1  # 129 of these 300 seeds retry; none runs out of tries
    d = make_dataset(np.arange(40).reshape(20, 2), y)
    retried = 0
    for seed in range(300):
        sp = split(d, seed)
        if np.unique(d.y[sp.train_idx]).size == 2 and np.unique(d.y[sp.calib_idx]).size == 2:
            # attempt 0 keeps the plain seed
            assert np.array_equal(split_with_all_classes(d, seed).train_idx, sp.train_idx)
            continue
        retried += 1
        got = split_with_all_classes(d, seed)
        nxt = split(d, seed + 1)
        assert not (np.array_equal(got.train_idx, nxt.train_idx)
                    and np.array_equal(got.calib_idx, nxt.calib_idx))
    assert retried >= 5


# ---------------------------------------------------------------- synthesis


def test_synthetic_spec_validation():
    good = dict(n_samples=40, n_features=8, n_informative=3, n_redundant=1,
                n_classes=3, class_sep=1.0, flip_y=0.0, seed=0)
    SyntheticSpec(**good)
    for bad in (
        dict(good, n_informative=8),            # 8 + 1 > 8 columns
        dict(good, n_classes=1),
        dict(good, n_classes=9),                # > 2**3 vertices
        dict(good, flip_y=1.5),
        dict(good, class_sep=0.0),
        dict(good, n_redundant=-1),
        dict(good, n_samples=2),                # fewer samples than classes
        dict(good, n_samples=40.5),
        dict(good, seed=-1),
        dict(good, class_sep=float("inf")),
        dict(good, flip_y=None),
    ):
        with pytest.raises(InvalidSpecError):
            SyntheticSpec(**bad)


def test_synthetic_shapes_and_determinism():
    spec = SyntheticSpec(n_samples=90, n_features=12, n_informative=4,
                         n_redundant=2, n_classes=3, class_sep=1.5,
                         flip_y=0.05, seed=42)
    d1, info1 = generate_synthetic(spec)
    d2, info2 = generate_synthetic(spec)
    assert d1.X.shape == (90, 12)
    assert np.array_equal(d1.X, d2.X)
    assert np.array_equal(d1.y, d2.y)
    assert np.array_equal(info1, info2)
    assert info1.size == 4
    d3, _ = generate_synthetic(SyntheticSpec(n_samples=90, n_features=12,
                                             n_informative=4, n_redundant=2,
                                             n_classes=3, class_sep=1.5,
                                             flip_y=0.05, seed=43))
    assert not np.array_equal(d1.X, d3.X)


def test_synthetic_informative_columns_carry_signal():
    # informative columns separate classes, noise columns do not
    spec = SyntheticSpec(n_samples=600, n_features=10, n_informative=3,
                         n_redundant=0, n_classes=2, class_sep=3.0,
                         flip_y=0.0, seed=9)
    d, info = generate_synthetic(spec)
    gaps = np.abs(d.X[d.y == 0].mean(axis=0) - d.X[d.y == 1].mean(axis=0))
    info_set = set(info.tolist())
    noise = [j for j in range(10) if j not in info_set]
    # vertices may agree on a coordinate, but at least one must differ widely
    assert gaps[info].max() > 2.0
    assert gaps[noise].max() < 0.5


def test_synthetic_label_flips_bounded():
    spec = SyntheticSpec(n_samples=200, n_features=6, n_informative=3,
                         n_redundant=0, n_classes=4, class_sep=2.0,
                         flip_y=0.1, seed=5)
    d, _ = generate_synthetic(spec)
    clean = np.arange(200) % 4
    assert (d.y != clean).sum() <= round(0.1 * 200)


def test_save_synthetic_sidecar(tmp_path):
    spec = SyntheticSpec(n_samples=40, n_features=6, n_informative=2,
                         n_redundant=1, n_classes=2, class_sep=2.0,
                         flip_y=0.0, seed=3)
    p = tmp_path / "synth.csv"
    d, info = save_synthetic(spec, p)
    assert p.exists()
    meta = (tmp_path / "synth.meta.json").read_text()
    import json
    parsed = json.loads(meta)
    assert parsed["informative_indices"] == [int(j) for j in info]
    assert parsed["spec"]["seed"] == 3
    back = load_csv(p, label_column="label")
    assert np.array_equal(back.X, d.X)
