from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crfe import classifier
from crfe.classifier import (
    LinearModelSet,
    TrainConfig,
    decision_matrix,
    load_model,
    model_set_from_json,
    model_set_to_json,
    save_model,
    train_ova,
)
from crfe.exceptions import (
    ConfigError,
    ConvergenceError,
    DegenerateLabelsError,
    DimensionMismatchError,
    NonFiniteInputError,
)
from oracles import (
    UnknownPositionError,
    decision_value,
    restrict,
    squared_hinge_gradient,
    squared_hinge_objective,
)


def train_sets(jobs, n_classes, config):
    """The model sets of classifier._train_sets, one per training set in job order."""
    got = dict(classifier._train_sets(jobs, n_classes, config))
    return [LinearModelSet(W=W, b=b, active_features=job[3])
            for i, job in enumerate(jobs) for W, b in zip(*got[i])]


def train_binary(X, z, config=TrainConfig()):
    """The (w, b) train_ova fits to labels z in {-1, +1}: its class-1 model."""
    ms = train_ova(X, (np.asarray(z) > 0).astype(int), 2, config)
    return ms.W[1], float(ms.b[1])


def separable_blobs(seed=0, n=40, gap=3.0):
    rng = np.random.default_rng(seed)
    X = np.vstack([
        rng.standard_normal((n, 2)) + gap,
        rng.standard_normal((n, 2)) - gap,
    ])
    z = np.array([1.0] * n + [-1.0] * n)
    return X, z


def random_problem(rng, n, l, k):
    """n rows of l features, some informative, and labels using all k classes."""
    X = rng.standard_normal((n, l)) * rng.uniform(0.1, 10.0)
    y = rng.permutation(np.arange(n) % k)
    X[:, :min(l, 2)] += y[:, None] * rng.uniform(0.0, 2.0)
    return X, y


# A zero gradient is met up to rounding, which grows with the size of its
# terms: c times the rows' column sums times the residuals.
GRADIENT_TOL = 1e-9


def assert_optimal(X, z, w, b, c):
    gw, gb = squared_hinge_gradient(w, b, X, z, c)
    margins = np.abs(decision_value(w, b, X))
    size = 1.0 + c * (np.abs(X).sum(axis=0).max(initial=0.0) + X.shape[0]) * (1.0 + margins.max())
    assert max(np.abs(gw).max(initial=0.0), abs(gb)) <= GRADIENT_TOL * size


def test_train_config_validation():
    TrainConfig()
    for bad in (dict(c=0.0), dict(c=-1.0), dict(c=float("inf")), dict(c="0.5")):
        with pytest.raises(ConfigError):
            TrainConfig(**bad)
    # settings of the SGD solver this one replaced
    for gone in ("eta0", "seed", "epochs", "batch_size"):
        with pytest.raises(TypeError, match=gone):
            TrainConfig(**{gone: 1})


def test_binary_separates_blobs():
    X, z = separable_blobs()
    w, b = train_binary(X, z)
    pred = np.sign(decision_value(w, b, X))
    assert (pred == z).all()


def test_binary_deterministic_and_seed_free():
    X, z = separable_blobs(seed=2)
    a_w, a_b = train_binary(X, z)
    with mock.patch.object(np.random, "default_rng", side_effect=AssertionError("drew")):
        b_w, b_b = train_binary(X, z)
    assert np.array_equal(a_w, b_w) and a_b == b_b


def test_binary_objective_beats_zero_model():
    rng = np.random.default_rng(4)
    for trial in range(5):
        X = rng.standard_normal((60, 5))
        w_true = rng.standard_normal(5)
        z = np.where(X @ w_true + 0.3 * rng.standard_normal(60) > 0, 1.0, -1.0)
        if np.unique(z).size < 2:
            continue
        w, b = train_binary(X, z)
        assert squared_hinge_objective(w, b, X, z, 0.1) < squared_hinge_objective(
            np.zeros(5), 0.0, X, z, 0.1)


@pytest.mark.parametrize("c", [0.01, 0.1, 1.0, 10.0, 100.0])
def test_random_perturbations_never_lower_the_objective(c):
    rng = np.random.default_rng(int(c * 100))
    for _ in range(5):
        X, y = random_problem(rng, int(rng.integers(4, 60)), int(rng.integers(1, 12)), 2)
        z = np.where(y == 1, 1.0, -1.0)
        w, b = train_binary(X, z, TrainConfig(c=c))
        best = squared_hinge_objective(w, b, X, z, c)
        for scale in (1e-4, 1e-2, 1.0):
            for u in rng.standard_normal((20, w.size + 1)) * scale:
                assert squared_hinge_objective(w + u[:-1], b + u[-1], X, z, c) > best


def test_ova_input_validation():
    X, z = separable_blobs()
    y = (z > 0).astype(int)
    with pytest.raises(DegenerateLabelsError):
        train_ova(X, np.ones(X.shape[0], dtype=int), 2)
    with pytest.raises(DegenerateLabelsError):
        train_ova(X, y, 1)
    with pytest.raises(NonFiniteInputError):
        bad = X.copy()
        bad[0, 0] = np.nan
        train_ova(bad, y, 2)
    for labels in (y[:-1], np.append(y, 0)):
        with pytest.raises(DimensionMismatchError):
            train_ova(X, labels, 2)
    # a block whose rows lie within a shorter y still needs y to label every row of X
    with pytest.raises(DimensionMismatchError, match="y length"):
        train_sets([(X, y[:-1], np.arange(10)[None], range(2), None)], 2, TrainConfig())
    with pytest.raises(DegenerateLabelsError):
        train_ova(X, 2 * y, 2)


@st.composite
def ova_problems(draw):
    k = draw(st.integers(2, 6))
    n = draw(st.integers(k, 40))
    l = draw(st.integers(1, 12))
    return n, l, k, TrainConfig(c=draw(st.floats(0.01, 100.0))), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(ova_problems())
@example((10, 3, 2, TrainConfig(), 0))
@example((37, 5, 4, TrainConfig(c=100.0), 2))
def test_stacked_solver_matches_per_class_oracle(problem):
    """Each class's model of train_ova's stacked solve zeroes the per-class
    oracle's gradient of its objective."""
    n, l, k, config, data_seed = problem
    X, y = random_problem(np.random.default_rng(data_seed), n, l, k)
    ms = train_ova(X, y, k, config)
    for cls in range(k):
        assert_optimal(X, np.where(y == cls, 1.0, -1.0), ms.W[cls], ms.b[cls], config.c)


def stack(rng, f, k, n, l):
    """Label-signed rows of f random training sets, shape (f, k, n, l + 1)."""
    ZX = np.empty((f, k, n, l + 1))
    for i in range(f):
        X, y = random_problem(rng, n, l, k)
        Z = np.where(y == np.arange(k)[:, None], 1.0, -1.0)
        ZX[i, :, :, :l] = Z[:, :, None] * X
        ZX[i, :, :, l] = Z
    return ZX


@pytest.mark.parametrize("f,k,n,l", [(15, 4, 131, 35), (15, 3, 36, 8), (2, 3, 300, 60),
                                     (3, 2, 5, 0)])
@pytest.mark.parametrize("c", [0.1, 10.0])
def test_stacked_solves_are_bit_identical_alone_or_in_chunks(f, k, n, l, c):
    ZX = stack(np.random.default_rng(n + l), f, k, n, l).reshape(f * k, 1, n, l + 1)
    config = TrainConfig(c=c)
    W, b = classifier._train_stacked(ZX, config)
    for size in (1, 7):
        parts = [classifier._train_stacked(ZX[i:i + size], config)
                 for i in range(0, f * k, size)]
        assert np.array_equal(np.concatenate([w for w, _ in parts]), W)
        assert np.array_equal(np.concatenate([b for _, b in parts]), b)


def tied_stack(rng, f, k, n, l):
    """A stack whose training sets repeat each row; with k = 2, the two
    problems of a set are mirror images (their rows negated)."""
    ZX = stack(rng, f, k, n, l)
    return np.concatenate([ZX, ZX[:, :, ::-1]], axis=2)


@pytest.mark.parametrize("make", [stack, tied_stack])
@pytest.mark.parametrize("f,k,n,l", [(4, 2, 30, 3), (3, 3, 36, 8), (2, 4, 131, 35), (5, 2, 5, 0),
                                     (2, 3, 200, 12)])
@pytest.mark.parametrize("c", [0.01, 0.1, 10.0])
def test_warm_starts_give_the_cold_model_bit_for_bit(make, f, k, n, l, c):
    rng = np.random.default_rng(f * 1000 + n + l)
    ZX = make(rng, f, k, n, l)
    config = TrainConfig(c=c)
    W, b = classifier._train_stacked(ZX, config)
    optimum = np.concatenate([W, b[..., None]], axis=2)
    starts = [np.zeros_like(optimum), optimum + 1e-3 * rng.standard_normal(optimum.shape),
              optimum * rng.uniform(0.0, 2.0, optimum.shape), 10.0 * rng.standard_normal(optimum.shape)]
    for w0 in starts:
        W0, b0 = classifier._train_stacked(ZX, config, w0)
        assert np.array_equal(W0, W) and np.array_equal(b0, b)


def test_a_start_at_the_optimum_takes_one_solve_and_no_line_search(monkeypatch):
    rng = np.random.default_rng(5)
    ZX = stack(rng, 3, 3, 40, 6)
    W, b = classifier._train_stacked(ZX, TrainConfig())
    solves, searches = [], []
    real_solve, real_search = np.linalg.solve, classifier._line_search
    monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(1) or real_solve(*a))
    monkeypatch.setattr(classifier, "_line_search", lambda *a: searches.append(1) or real_search(*a))
    W0, b0 = classifier._train_stacked(ZX, TrainConfig(), np.concatenate([W, b[..., None]], axis=2))
    assert np.array_equal(W0, W) and np.array_equal(b0, b)
    assert len(solves) == 1 and not searches


def test_jobs_with_starts_train_as_without(monkeypatch):
    rng = np.random.default_rng(7)
    X, y = random_problem(rng, 50, 6, 3)
    folds = [np.arange(i, 50, 2) for i in range(2)]
    # a start's columns are found among its active features: every one, or a subset
    full = LinearModelSet(W=rng.standard_normal((3, 6)), b=rng.standard_normal(3),
                          active_features=range(6))
    part = LinearModelSet(W=rng.standard_normal((3, 4)), b=rng.standard_normal(3),
                          active_features=(0, 2, 3, 5))
    plan = [((0, 1, 2, 3, 4, 5), full), ((0, 2, 3, 5), full), ((0, 3, 5), part), ((0, 2, 3, 5), part)]
    cold = [(X, y, np.array(folds), c, None) for c, _ in plan]
    warm = [(X, y, np.array(folds), c, start) for c, start in plan]
    starts, real = [], classifier._train_stacked
    monkeypatch.setattr(classifier, "_train_stacked",
                        lambda ZX, config, w0=None: starts.extend(w0) or real(ZX, config, w0))
    order = [i for i, _ in classifier._train_sets(warm, 3, TrainConfig()) for _ in folds]
    # each set starts from its job's start model on the job's columns, in solve order
    for w0, i in zip(starts, order, strict=True):
        _, _, _, cols, start = warm[i]
        keep = [start.active_features.index(f) for f in cols]
        assert np.array_equal(w0, np.column_stack([start.W[:, keep], start.b]))
    for got, want in zip(train_sets(warm, 3, TrainConfig()), train_sets(cold, 3, TrainConfig())):
        assert np.array_equal(got.W, want.W) and np.array_equal(got.b, want.b)
        assert got.active_features == want.active_features


def fold_rows(rng, y, k, f, n_train):
    """A block of f training sets of n_train rows of y, shape (f, n_train)."""
    folds = []
    for _ in range(f):
        perm = rng.permutation(len(y))
        # one row of every class first, so that no training set misses one
        firsts = [int(perm[y[perm] == c][0]) for c in range(k)]
        rest = [int(i) for i in perm if i not in firsts]
        folds.append(firsts + rest[:n_train - k])
    return np.array(folds)


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("f,k,n,l", [(4, 2, 30, 3), (3, 3, 36, 8), (2, 4, 131, 35), (5, 2, 5, 0),
                                     (2, 3, 200, 12)])
@pytest.mark.parametrize("c", [0.01, 0.1, 10.0])
def test_a_chained_start_gives_the_cold_model_bit_for_bit(tied, f, k, n, l, c):
    # a block started from the block of its rows one column up, as the
    # baseline's CV starts each fold from the same fold one size up
    rng = np.random.default_rng(f * 1000 + n + l)
    X, y = random_problem(rng, n + 10, l + 1, k)
    rows = fold_rows(rng, y, k, f, n)
    if tied:  # every row twice
        rows = np.concatenate([rows, rows[:, ::-1]], axis=1)
    narrow = np.delete(np.arange(l + 1), rng.integers(l + 1))
    config = TrainConfig(c=c)
    jobs = [(X, y, rows, np.arange(l + 1), None), (X, y, rows, narrow, 0)]
    W, b = dict(classifier._train_sets(jobs, k, config))[1]
    (_, (W0, b0)), = classifier._train_sets([(X, y, rows, narrow, None)], k, config)
    assert np.array_equal(W, W0) and np.array_equal(b, b0)


def test_a_start_names_a_job_solved_before_it_and_read_once(monkeypatch):
    rng = np.random.default_rng(11)
    X, y = random_problem(rng, 40, 4, 3)
    rows = fold_rows(rng, y, 3, 3, 30)
    wide, narrow = (X, y, rows, (0, 1, 2, 3), None), (X, y, rows, (0, 2, 3), 0)
    starts, real = [], classifier._train_stacked
    monkeypatch.setattr(classifier, "_train_stacked",
                        lambda ZX, config, w0=None: starts.append(w0) or real(ZX, config, w0))
    got = dict(classifier._train_sets([wide, narrow], 3, TrainConfig()))
    # each set of the narrow block starts from the wide block's set of its rows
    W, b = got[0]
    assert np.array_equal(starts[1], np.concatenate([W[:, :, [0, 2, 3]], b[..., None]], axis=2))
    # the widest jobs train first, so a wider job later in job order may be named too
    late = dict(classifier._train_sets([(X, y, rows, (0, 2, 3), 1), wide], 3, TrainConfig()))[0]
    cold = dict(classifier._train_sets([(X, y, rows, (0, 2, 3), None)], 3, TrainConfig()))[0]
    assert np.array_equal(late[0], cold[0]) and np.array_equal(late[1], cold[1])
    # a job of fewer or equal columns, the job itself, a job its one reader has
    # read; under a cap of one set a solve too, where the job of equal columns
    # is solved before the job that names it
    for cap in (classifier._STACK_BYTES, 1):
        monkeypatch.setattr(classifier, "_STACK_BYTES", cap)
        for jobs in ([(X, y, rows, (0, 2, 3), None), (X, y, rows, (0, 1, 2, 3), 0)],
                     [(X, y, rows, (0, 1, 3), None), (X, y, rows, (0, 2, 3), 0)],
                     [(X, y, rows, (0, 1), 0)], [wide, narrow, (X, y, rows, (0, 3), 0)]):
            with pytest.raises(ConfigError, match="starts from job 0"):
                list(classifier._train_sets(jobs, 3, TrainConfig()))


@pytest.mark.parametrize("step", [1, 2, 3])
def test_a_capped_solve_takes_whole_jobs(monkeypatch, step):
    rng = np.random.default_rng(13)
    X, y = random_problem(rng, 60, 5, 3)
    jobs = [(X, y, fold_rows(rng, y, 3, f, 50), cols, None)
            for f, cols in ((1, range(5)), (1, range(5)), (2, (0, 2)), (2, range(5)),
                            (1, range(5)), (3, range(5)), (1, range(5)))]
    whole = dict(classifier._train_sets(jobs, 3, TrainConfig()))
    sizes, real = [], classifier._train_stacked
    monkeypatch.setattr(classifier, "_train_stacked",
                        lambda ZX, config, w0=None: sizes.append(len(ZX)) or real(ZX, config, w0))
    # the bytes of `step` sets of 50 rows and 5 columns
    monkeypatch.setattr(classifier, "_STACK_BYTES", step * 8 * 3 * 50 * (2 * 6 + 32))
    solves, cut = {}, {}  # solve -> the jobs yielded after it; job -> its (W, b)
    for i, Wb in classifier._train_sets(jobs, 3, TrainConfig()):
        solves.setdefault(len(sizes), []).append(i)
        cut[i] = Wb
    # the jobs on 5 columns first, whole, each solve closed once it holds `step`
    # sets (but the group's last); then the one job on 2 columns
    sets = [[len(jobs[i][2]) for i in solve] for solve in solves.values()]
    assert sorted(sum(solves.values(), [])) == list(range(7)) and solves[len(sizes)] == [2]
    assert [sum(s) for s in sets] == sizes
    assert all(sum(s[:-1]) < step for s in sets) and all(sum(s) >= step for s in sets[:-2])
    for i, (W, b) in whole.items():
        assert np.array_equal(cut[i][0], W) and np.array_equal(cut[i][1], b)


def test_random_stacks_never_hit_the_iteration_cap():
    # 300 random shapes at each c over four orders of magnitude, features
    # scaled by 0.1 to 10; the cap is only a guard against a solve that
    # never settles
    rng = np.random.default_rng(19)
    for _ in range(300):
        k = int(rng.integers(2, 5))
        ZX = stack(rng, int(rng.integers(1, 4)), k, int(rng.integers(k, 60)),
                   int(rng.integers(0, 16)))
        for c in (0.01, 0.1, 1.0, 10.0, 100.0):
            W, b = classifier._train_stacked(ZX, TrainConfig(c=c))
            assert np.isfinite(W).all() and np.isfinite(b).all()


def test_a_solve_that_hits_the_cap_names_its_shape(monkeypatch):
    X, y = random_problem(np.random.default_rng(3), 30, 4, 3)
    monkeypatch.setattr(classifier, "_NEWTON_CAP", 1)
    with pytest.raises(ConvergenceError, match="of 3 problems of 30 rows and 5 columns"):
        train_ova(X, y, 3)


@st.composite
def fold_problems(draw):
    f = draw(st.integers(1, 6))
    k = draw(st.integers(2, 5))
    n_train = draw(st.integers(k, 30))
    n = n_train + draw(st.integers(0, 10))
    l = draw(st.integers(1, 8))
    config = TrainConfig(c=draw(st.floats(0.01, 100.0)))
    return f, k, n, n_train, l, config, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(fold_problems())
@example((5, 3, 45, 36, 8, TrainConfig(), 0))   # the CV shape
def test_fold_trainer_matches_train_ova_per_fold(problem):
    """One stacked solve over F training sets equals a train_ova call per set."""
    f, k, n, n_train, l, config, data_seed = problem
    rng = np.random.default_rng(data_seed)
    X = rng.standard_normal((n, l)) * rng.uniform(0.1, 10.0)
    y = rng.permutation(np.arange(n) % k)
    folds = fold_rows(rng, y, k, f, n_train)
    got = train_sets([(X, y, folds, range(l), None)], k, config)
    assert len(got) == f
    for ms, rows in zip(got, folds):
        want = train_ova(X[rows], y[rows], k, config)
        assert np.array_equal(ms.W, want.W)
        assert np.array_equal(ms.b, want.b)
        assert ms.active_features == want.active_features


def test_stacked_sets_match_train_ova():
    """Sets of one shape from different data train together as each alone."""
    rng = np.random.default_rng(0)
    sets = [(*random_problem(rng, 36, 8, 3), np.arange(36)[None], range(8), None)
            for _ in range(5)]
    with mock.patch.object(np.random, "default_rng", side_effect=AssertionError("drew")):
        got = train_sets(sets, 3, TrainConfig())
    assert len(got) == len(sets)
    for ms, (X, y, *_) in zip(got, sets):
        want = train_ova(X, y, 3)
        assert np.array_equal(ms.W, want.W)
        assert np.array_equal(ms.b, want.b)


def test_labels_must_be_whole_numbers():
    X = np.random.default_rng(1).standard_normal((6, 2))
    fractional = [0.2, 1.9, 0.7, 1.1, 0.4, 1.5]
    with pytest.raises(DegenerateLabelsError, match="whole numbers"):
        train_ova(X, fractional, 2)
    with pytest.raises(DegenerateLabelsError, match="whole numbers"):
        train_ova(X, [0, 1, 0, 1, 0, np.nan], 2)
    with pytest.raises(DegenerateLabelsError, match="whole numbers"):
        train_sets([(X, np.array(fractional), np.arange(6)[None], range(2), None)], 2,
                   TrainConfig())
    # whole-valued floats are the same labels as their ints
    whole = train_ova(X, [0.0, 1.0, 0.0, 1.0, 0.0, 1.0], 2)
    ints = train_ova(X, [0, 1, 0, 1, 0, 1], 2)
    assert np.array_equal(whole.W, ints.W)


def test_fold_trainer_rejects_a_fold_missing_a_class():
    X = np.random.default_rng(2).standard_normal((8, 2))
    y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    good, bad = np.arange(1, 5)[None], np.arange(4)[None]
    with pytest.raises(DegenerateLabelsError):
        train_sets([(X, y, rows, range(2), None) for rows in (good, bad)], 2, TrainConfig())
    # the labels of (y, good) are checked once for both its jobs; (y, bad) still raises
    with pytest.raises(DegenerateLabelsError):
        train_sets([(X, y, good, range(2), None), (X, y, good, (1,), None),
                    (X, y, bad, (1,), None)], 2, TrainConfig())


def test_a_bad_cell_in_a_jobs_matrix_raises():
    rng = np.random.default_rng(4)
    X, y = random_problem(rng, 40, 6, 2)
    X[3, 2] = np.nan
    # the matrix is checked whole, so the job raises though it reads neither row 3 nor column 2
    with pytest.raises(NonFiniteInputError, match="NaN or infinite"):
        train_sets([(X, y, np.arange(10, 30)[None], (0, 1), None)], 2, TrainConfig())


def test_ova_structure_and_accuracy():
    rng = np.random.default_rng(6)
    centers = np.array([[4.0, 0.0], [-4.0, 0.0], [0.0, 4.0]])
    y = np.arange(90) % 3
    X = centers[y] + rng.standard_normal((90, 2))
    ms = train_ova(X, y, 3, lam=0.5)
    assert ms.n_classes == 3
    assert ms.active_features == (0, 1)
    assert ms.lambda_prime == 0.25
    D = decision_matrix(ms, X)
    assert D.shape == (90, 3)
    assert (D.argmax(axis=1) == y).mean() > 0.95


def test_a_solve_that_diverges_is_rejected():
    # c A^T A overflows to inf, and the system with it
    X, z = separable_blobs()
    with pytest.raises(ConfigError, match="weights and biases must be finite"):
        train_ova(X, (z > 0).astype(int), 2, TrainConfig(c=1e308))
    # a vanishing c leaves finite, vanishing weights
    tiny = train_ova(X, (z > 0).astype(int), 2, TrainConfig(c=1e-320))
    assert np.abs(tiny.W).max() < 1e-300 and np.abs(tiny.b).max() < 1e-300
    for W, b in (([[np.nan, 1.0], [1.0, 2.0]], [0.0, 0.0]), ([[1.0, 2.0]] * 2, [0.0, np.inf])):
        with pytest.raises(ConfigError, match="finite"):
            LinearModelSet(W=W, b=b, lam=0.5, active_features=(0, 1))


def test_ova_missing_class_rejected():
    X = np.random.default_rng(0).standard_normal((10, 2))
    y = np.zeros(10, dtype=int)
    y[5:] = 2  # class 1 absent
    with pytest.raises(DegenerateLabelsError):
        train_ova(X, y, 3)


def test_decision_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        decision_value(np.array([1.0, 2.0]), 0.0, np.zeros((3, 3)))
    ms = LinearModelSet(W=[[1.0, 2.0], [1.0, 2.0]], b=[0.0, 0.0], lam=0.5,
                        active_features=(0, 1))
    with pytest.raises(DimensionMismatchError):
        decision_matrix(ms, np.zeros((3, 5)))


def test_model_set_validation():
    W2 = np.array([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ConfigError):
        LinearModelSet(W=W2[:1], b=[0.0], lam=0.5, active_features=(0, 1))
    with pytest.raises(ConfigError):
        LinearModelSet(W=W2, b=[0.0, 0.0], lam=1.5, active_features=(0, 1))
    with pytest.raises(DimensionMismatchError):
        LinearModelSet(W=W2, b=[0.0, 0.0], lam=0.5, active_features=(0, 1, 2))
    with pytest.raises(DimensionMismatchError):
        LinearModelSet(W=W2, b=[0.0, 0.0, 0.0], lam=0.5, active_features=(0, 1))
    with pytest.raises(DimensionMismatchError):
        LinearModelSet(W=W2[0], b=[0.0, 0.0], lam=0.5, active_features=(0, 1))
    # each column once, in ascending order, none before the first
    for active in ((-1, 0), (-1, -1), (1, 1), (1, 0), (0, 3, 2)):
        with pytest.raises(ConfigError):
            LinearModelSet(W=np.ones((2, len(active))), b=[0.0, 0.0], lam=0.5,
                           active_features=active)
    # the set keeps C-contiguous float copies, never a view of its input
    strided = np.arange(6.0).reshape(2, 3)[:, :2]
    ms = LinearModelSet(W=strided, b=np.array([1, 2]), active_features=(0, 1))
    assert ms.W.flags.c_contiguous and ms.b.dtype == float
    assert not np.shares_memory(ms.W, strided)


def test_restrict_slices_weights_and_remaps_features():
    ms = LinearModelSet(
        W=[[1.0, 2.0, 3.0], [-1.0, 0.0, 4.0]],
        b=[0.5, -0.5],
        lam=0.5,
        active_features=(2, 5, 9),
    )
    sub = restrict(ms, [0, 2])
    assert sub.active_features == (2, 9)
    assert sub.W.tolist() == [[1.0, 3.0], [-1.0, 4.0]]
    assert sub.b.tolist() == [0.5, -0.5]
    with pytest.raises(UnknownPositionError):
        restrict(ms, [3])


def test_restrict_scores_like_dropping_contributions():
    rng = np.random.default_rng(8)
    for trial in range(10):
        l = 6
        ms = LinearModelSet(
            W=rng.standard_normal((3, l)),
            b=rng.standard_normal(3),
            lam=0.5,
            active_features=tuple(range(l)),
        )
        X = rng.standard_normal((7, l))
        keep = sorted(rng.choice(l, size=4, replace=False).tolist())
        sub = restrict(ms, keep)
        got = decision_matrix(sub, X[:, keep])
        want = X[:, keep] @ ms.W[:, keep].T + ms.b
        assert np.allclose(got, want, atol=1e-12)


def test_json_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(9)
    ms = LinearModelSet(
        W=rng.standard_normal((3, 4)) * 10.0 ** rng.integers(-8, 8, size=(3, 1)),
        b=rng.standard_normal(3),
        lam=0.3,
        active_features=(1, 4, 6, 30),
    )
    text = model_set_to_json(ms)
    back = model_set_from_json(text)
    assert back.lam == ms.lam
    assert back.active_features == ms.active_features
    assert np.array_equal(back.W, ms.W)
    assert np.array_equal(back.b, ms.b)
    # and via files
    p = tmp_path / "model.json"
    save_model(ms, p)
    disk = load_model(p)
    assert np.array_equal(disk.W, ms.W)
    # serialization is stable
    assert model_set_to_json(back) == text


def test_json_rejects_garbage():
    with pytest.raises(ConfigError):
        model_set_from_json("not json")
    with pytest.raises(ConfigError):
        model_set_from_json('{"lambda": 0.5, "models": []}')
    head = '{"lambda": 0.5, "active_features": [0, 1], "models": '
    two = '[{"w": [1, 2], "b": 0}, {"w": [3, 4], "b": 1}]'
    assert model_set_from_json(head + two + "}").W.tolist() == [[1, 2], [3, 4]]
    for bad in (
        "5",
        "[1, 2]",
        head + "5}",
        head + '{"w": [1, 2], "b": 0}}',
        head + '[{"w": [1, 2]}, {"w": [3, 4], "b": 1}]}',
        head + '[{"b": 0}, {"w": [3, 4], "b": 1}]}',
        head + '[5, {"w": [3, 4], "b": 1}]}',
        head + '[{"w": 5, "b": 0}, {"w": [3, 4], "b": 1}]}',
        head + '[{"w": [1, [2]], "b": 0}, {"w": [3, 4], "b": 1}]}',
        head + '[{"w": [1, 2], "b": [0]}, {"w": [3, 4], "b": 1}]}',
        head + '[{"w": [1, "x"], "b": 0}, {"w": [3, 4], "b": 1}]}',
        head + "[]}",
        two.join(['{"lambda": null, "active_features": [0, 1], "models": ', "}"]),
        two.join(['{"lambda": 0.5, "active_features": 7, "models": ', "}"]),
        two.join(['{"lambda": 0.5, "active_features": [0.7, 1], "models": ', "}"]),
        two.join(['{"lambda": 0.5, "active_features": "01", "models": ', "}"]),
        two.join(['{"lambda": 0.5, "active_features": [-1, -1], "models": ', "}"]),
        two.join(['{"lambda": 0.5, "active_features": [-1, 0], "models": ', "}"]),
        two.join(['{"lambda": 0.5, "active_features": [1, 0], "models": ', "}"]),
        two.join(['{"lambda": 0.5, "active_features": [2, 2], "models": ', "}"]),
        two.join(['{"lambda": 0.5, "active_features": [Infinity, 1], "models": ', "}"]),
        two.join(['{"lambda": 0.5, "active_features": [NaN, 1], "models": ', "}"]),
        two.join(['{"lambda": 0.5, "active_features": [1' + "0" * 400 + ', 1], "models": ', "}"]),
        # float() reads JSON booleans and numeric strings; neither is a number here
        '{"lambda": true, "active_features": [false, true], "models": '
        '[{"w": [true, 0.5], "b": false}, {"w": [3, 4], "b": 1}]}',
        two.join(['{"lambda": true, "active_features": [0, 1], "models": ', "}"]),
        two.join(['{"lambda": "0.5", "active_features": [0, 1], "models": ', "}"]),
        two.join(['{"lambda": 0.5, "active_features": [false, true], "models": ', "}"]),
        two.join(['{"lambda": 0.5, "active_features": ["0", "1"], "models": ', "}"]),
        head + '[{"w": ["1e3", 2], "b": 0}, {"w": [3, 4], "b": 1}]}',
        head + '[{"w": [true, 2], "b": 0}, {"w": [3, 4], "b": 1}]}',
        head + '[{"w": [1, 2], "b": false}, {"w": [3, 4], "b": 1}]}',
        head + '[{"w": [1, 2], "b": "0"}, {"w": [3, 4], "b": 1}]}',
        head + '[{"w": [1' + "0" * 400 + ', 2], "b": 0}, {"w": [3, 4], "b": 1}]}',
        # Python's JSON parser reads these literals as floats
        *(head + f'[{{"w": [{v}, 1], "b": 0}}, {{"w": [3, 4], "b": 1}}]}}'
          for v in ("NaN", "Infinity", "-Infinity")),
        *(head + f'[{{"w": [1, 2], "b": {v}}}, {{"w": [3, 4], "b": 1}}]}}'
          for v in ("NaN", "Infinity", "-Infinity")),
    ):
        with pytest.raises(ConfigError):
            model_set_from_json(bad)
    with pytest.raises(DimensionMismatchError):
        model_set_from_json(head + '[{"w": [1, 2], "b": 0}, {"w": [3], "b": 1}]}')
    with pytest.raises(DimensionMismatchError):
        model_set_from_json(head + '[{"w": [1], "b": 0}, {"w": [3], "b": 1}]}')
