from dataclasses import replace
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
    DegenerateLabelsError,
    DimensionMismatchError,
    NonFiniteInputError,
)
from oracles import (
    UnknownPositionError,
    decision_value,
    hinge_objective,
    restrict,
    train_binary,
)


def separable_blobs(seed=0, n=40, gap=3.0):
    rng = np.random.default_rng(seed)
    X = np.vstack([
        rng.standard_normal((n, 2)) + gap,
        rng.standard_normal((n, 2)) - gap,
    ])
    z = np.array([1.0] * n + [-1.0] * n)
    return X, z


def test_train_config_validation():
    TrainConfig()
    for bad in (dict(c=0.0), dict(eta0=-1.0), dict(epochs=0), dict(batch_size=0),
                dict(c=float("inf")), dict(eta0="0.5"), dict(epochs=2.5), dict(batch_size=4.5),
                dict(epochs=True), dict(seed=-1), dict(seed=1.5), dict(seed=None)):
        with pytest.raises(ConfigError):
            TrainConfig(**bad)


def test_binary_separates_blobs():
    X, z = separable_blobs()
    w, b = train_binary(X, z, TrainConfig(seed=1))
    pred = np.sign(decision_value(w, b, X))
    assert (pred == z).all()


def test_binary_deterministic_and_seed_sensitive():
    X, z = separable_blobs(seed=2)
    a_w, a_b = train_binary(X, z, TrainConfig(seed=7))
    b_w, b_b = train_binary(X, z, TrainConfig(seed=7))
    assert np.array_equal(a_w, b_w) and a_b == b_b
    c_w, _ = train_binary(X, z, TrainConfig(seed=8))
    assert not np.array_equal(a_w, c_w)


def test_binary_objective_beats_zero_model():
    rng = np.random.default_rng(4)
    for trial in range(5):
        X = rng.standard_normal((60, 5))
        w_true = rng.standard_normal(5)
        z = np.where(X @ w_true + 0.3 * rng.standard_normal(60) > 0, 1.0, -1.0)
        if np.unique(z).size < 2:
            continue
        w, b = train_binary(X, z, TrainConfig(seed=trial))
        assert hinge_objective(w, b, X, z) < hinge_objective(np.zeros(5), 0.0, X, z)


def test_binary_longer_training_reaches_lower_objective():
    X, z = separable_blobs(seed=5, gap=1.0)
    short = train_binary(X, z, TrainConfig(epochs=3, seed=0))
    long = train_binary(X, z, TrainConfig(epochs=300, seed=0))
    assert hinge_objective(*long, X, z) <= hinge_objective(*short, X, z) + 1e-6


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
    with pytest.raises(DimensionMismatchError):
        train_ova(X, y[:-1], 2)
    with pytest.raises(DegenerateLabelsError):
        train_ova(X, 2 * y, 2)


@st.composite
def ova_problems(draw):
    k = draw(st.integers(2, 6))
    n = draw(st.integers(k, 40))
    l = draw(st.integers(1, 12))
    config = TrainConfig(
        c=draw(st.floats(0.01, 100.0)),
        epochs=draw(st.integers(1, 7)),
        batch_size=draw(st.integers(1, n + 8)),
        eta0=draw(st.floats(0.01, 5.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    # an order buffer below k * n * epochs draws the epochs in blocks
    buffer = draw(st.integers(1, k * n * config.epochs + 1))
    return n, l, k, config, buffer, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(ova_problems())
@example((10, 3, 2, TrainConfig(batch_size=16, epochs=3), 1000, 0))  # n < batch
@example((16, 3, 3, TrainConfig(batch_size=16, epochs=4), 1000, 1))  # n == batch
@example((37, 5, 4, TrainConfig(batch_size=8, epochs=5), 1000, 2))   # partial last batch
@example((30, 12, 6, TrainConfig(batch_size=7, epochs=2), 1000, 3))  # even epochs
@example((12, 2, 3, TrainConfig(batch_size=5, epochs=7), 72, 4))     # blocks of 2 epochs
def test_stacked_solver_matches_per_class_oracle(problem):
    """train_ova's stacked loop returns exactly the per-class oracle's models."""
    n, l, k, config, buffer, data_seed = problem
    rng = np.random.default_rng(data_seed)
    X = rng.standard_normal((n, l)) * rng.uniform(0.1, 10.0)
    y = rng.permutation(np.arange(n) % k)
    with mock.patch.object(classifier, "_ORDER_BUFFER", buffer):
        ms = train_ova(X, y, k, config)
    for cls in range(k):
        want_w, want_b = train_binary(X, np.where(y == cls, 1.0, -1.0),
                                      replace(config, seed=config.seed + cls))
        assert np.array_equal(ms.W[cls], want_w)
        assert ms.b[cls] == want_b


@st.composite
def fold_problems(draw):
    f = draw(st.integers(1, 6))
    k = draw(st.integers(2, 5))
    n_train = draw(st.integers(k, 30))
    n = n_train + draw(st.integers(0, 10))
    l = draw(st.integers(1, 8))
    config = TrainConfig(
        c=draw(st.floats(0.01, 100.0)),
        epochs=draw(st.integers(1, 7)),
        batch_size=draw(st.integers(1, n_train + 8)),
        eta0=draw(st.floats(0.01, 5.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    buffer = draw(st.integers(1, f * k * n_train * config.epochs + 1))
    return f, k, n, n_train, l, config, buffer, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(fold_problems())
@example((5, 3, 45, 36, 8, TrainConfig(epochs=5), 1 << 16, 0))   # the CV shape
@example((2, 2, 12, 9, 2, TrainConfig(batch_size=4, epochs=5), 40, 1))  # blocks
def test_fold_trainer_matches_train_ova_per_fold(problem):
    """One stacked solve over F training sets equals a train_ova call per set."""
    f, k, n, n_train, l, config, buffer, data_seed = problem
    rng = np.random.default_rng(data_seed)
    X = rng.standard_normal((n, l)) * rng.uniform(0.1, 10.0)
    y = rng.permutation(np.arange(n) % k)
    folds = []
    for _ in range(f):
        perm = rng.permutation(n)
        # one row of every class first, so that no training set misses one
        firsts = [int(perm[y[perm] == c][0]) for c in range(k)]
        rest = [int(i) for i in perm if i not in firsts]
        folds.append(np.array(firsts + rest[:n_train - k]))
    with mock.patch.object(classifier, "_ORDER_BUFFER", buffer):
        got = classifier._train_ova_stacked([(X[rows], y[rows], None, config.seed)
                                             for rows in folds], k, config)
    assert len(got) == f
    for ms, rows in zip(got, folds):
        want = train_ova(X[rows], y[rows], k, config)
        assert np.array_equal(ms.W, want.W)
        assert np.array_equal(ms.b, want.b)
        assert ms.active_features == want.active_features


@st.composite
def seeded_sets(draw):
    f = draw(st.integers(1, 6))
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k, 24))
    l = draw(st.integers(1, 6))
    # a small pool, so that sets often share a seed and with it K streams
    pool = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3))
    seeds = draw(st.lists(st.sampled_from(pool), min_size=f, max_size=f))
    config = TrainConfig(
        c=draw(st.floats(0.01, 100.0)),
        epochs=draw(st.integers(1, 6)),
        batch_size=draw(st.integers(1, n + 4)),
        eta0=draw(st.floats(0.01, 5.0)),
        seed=draw(st.integers(0, 9)),
    )
    # below the orders of every stream and epoch, so they come in blocks
    buffer = draw(st.integers(1, len(set(seeds)) * k * n * config.epochs + 1))
    return k, n, l, seeds, config, buffer, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(seeded_sets())
@example((3, 36, 8, [5, 6, 5, 7, 6], TrainConfig(epochs=5), 1 << 16, 0))  # CV across repeats
def test_stacked_sets_with_their_own_seeds_match_train_ova(problem):
    """Each set of a stacked solve trains as train_ova with its own seed."""
    k, n, l, seeds, config, buffer, data_seed = problem
    rng = np.random.default_rng(data_seed)
    sets = []
    for seed in seeds:
        X = rng.standard_normal((n, l)) * rng.uniform(0.1, 10.0)
        sets.append((X, rng.permutation(np.arange(n) % k), None, seed))
    with mock.patch.object(classifier, "_ORDER_BUFFER", buffer):
        got = classifier._train_ova_stacked(sets, k, config)
    assert len(got) == len(sets)
    for ms, (X, y, _, seed) in zip(got, sets):
        want = train_ova(X, y, k, replace(config, seed=seed))
        assert np.array_equal(ms.W, want.W)
        assert np.array_equal(ms.b, want.b)


@pytest.mark.parametrize("buffer", [1 << 16, 100])  # streams of 120 entries kept, or not
def test_solves_that_share_kept_orders_match_fresh_solves(buffer):
    """Solves with one memo of streams train what fresh solves train."""
    k, config = 3, TrainConfig(epochs=6, batch_size=8)
    rng = np.random.default_rng(8)

    def sets(n, seeds):
        return [(rng.standard_normal((n, 4)), rng.permutation(np.arange(n) % k), None, seed)
                for seed in seeds]

    # stream seeds 0-3, then 1-4, of which the second solve reads three
    # kept ones, then 0-2 again at another row count, which it may not read
    groups = [sets(20, [0, 1]), sets(20, [1, 2, 2]), sets(21, [0])]
    orders = {}
    with mock.patch.object(classifier, "_ORDER_BUFFER", buffer):
        shared = [classifier._train_ova_stacked(group, k, config, orders=orders)
                  for group in groups]
        fresh = [classifier._train_ova_stacked(group, k, config) for group in groups]
    for got, want in zip(sum(shared, []), sum(fresh, [])):
        assert np.array_equal(got.W, want.W)
        assert np.array_equal(got.b, want.b)
    if buffer < 20 * config.epochs:
        assert orders == {}
        return
    assert sorted(orders) == sorted([(seed, 20, 6) for seed in range(5)]
                                    + [(seed, 21, 6) for seed in range(3)])
    for (seed, n, _), stream in orders.items():
        draws = np.random.default_rng(seed)
        assert np.array_equal(stream, [draws.permutation(n) for _ in range(config.epochs)])
        assert not stream.flags.writeable


def test_labels_must_be_whole_numbers():
    X = np.random.default_rng(1).standard_normal((6, 2))
    fractional = [0.2, 1.9, 0.7, 1.1, 0.4, 1.5]
    with pytest.raises(DegenerateLabelsError, match="whole numbers"):
        train_ova(X, fractional, 2)
    with pytest.raises(DegenerateLabelsError, match="whole numbers"):
        train_ova(X, [0, 1, 0, 1, 0, np.nan], 2)
    with pytest.raises(DegenerateLabelsError, match="whole numbers"):
        classifier._train_ova_stacked([(X, np.array(fractional), None, 0)], 2, TrainConfig())
    # whole-valued floats are the same labels as their ints
    whole = train_ova(X, [0.0, 1.0, 0.0, 1.0, 0.0, 1.0], 2)
    ints = train_ova(X, [0, 1, 0, 1, 0, 1], 2)
    assert np.array_equal(whole.W, ints.W)


def test_fold_trainer_rejects_a_fold_missing_a_class():
    X = np.random.default_rng(2).standard_normal((8, 2))
    y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    with pytest.raises(DegenerateLabelsError):
        classifier._train_ova_stacked([(X[rows], y[rows], None, 0)
                                       for rows in (np.arange(1, 5), np.arange(4))],
                                      2, TrainConfig())


def test_ova_structure_and_accuracy():
    rng = np.random.default_rng(6)
    centers = np.array([[4.0, 0.0], [-4.0, 0.0], [0.0, 4.0]])
    y = np.arange(90) % 3
    X = centers[y] + rng.standard_normal((90, 2))
    ms = train_ova(X, y, 3, TrainConfig(seed=2), lam=0.5)
    assert ms.n_classes == 3
    assert ms.active_features == (0, 1)
    assert ms.lambda_prime == 0.25
    D = decision_matrix(ms, X)
    assert D.shape == (90, 3)
    assert (D.argmax(axis=1) == y).mean() > 0.95


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
