import copy
import csv
import json
import math
import os
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crfe import classifier, harness, selection
from crfe.classifier import LinearModelSet, TrainConfig, decision_matrix, train_ova
from crfe.conformal import calibrate, conformal_predict
from crfe.consistency import SubsetFamily
from crfe.data import SyntheticSpec
from crfe.exceptions import ConfigError, EmptyCalibrationError
from crfe.harness import (
    METRIC_COLUMNS,
    ExperimentConfig,
    StoppingParams,
    _cv_accuracies,
    _evaluate,
    config_from_dict,
    consistency_report,
    emit_outputs,
    run_all,
    run_comparison,
    run_stopping_benchmark,
    subsets_by_size,
)
from crfe.metrics import point_metrics, point_predict, set_metrics
from oracles import cv_accuracy, kuncheva_family
from test_digests import BENCH_CFG

TINY = SyntheticSpec(n_samples=120, n_features=8, n_informative=3, n_redundant=2,
                     n_classes=3, class_sep=1.5, flip_y=0.02, seed=7)


def tiny_config(**over):
    base = dict(synthetic=TINY, repeats=2, master_seed=3, stopping=StoppingParams(repeats=2))
    base.update(over)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def tiny_table():
    return run_comparison(tiny_config())


# ------------------------------------------------------------------- config


def test_config_requires_exactly_one_source():
    with pytest.raises(ConfigError):
        ExperimentConfig()
    with pytest.raises(ConfigError):
        ExperimentConfig(dataset_csv="a.csv", label_column="y", synthetic=TINY)
    with pytest.raises(ConfigError):
        ExperimentConfig(dataset_csv="a.csv")  # label missing


def test_config_validates_ranges():
    with pytest.raises(ConfigError):
        tiny_config(epsilon=0.0)
    with pytest.raises(ConfigError):
        tiny_config(epsilon=1.0)
    with pytest.raises(ConfigError):
        tiny_config(lam=1.5)
    with pytest.raises(ConfigError):
        tiny_config(repeats=0)
    with pytest.raises(ConfigError):
        tiny_config(selectors=("svm",))
    with pytest.raises(ConfigError):
        tiny_config(sizes=(3, 5))  # must strictly decrease
    with pytest.raises(ConfigError):
        tiny_config(sizes=(2, 1, 0))


def test_config_from_dict_wire_names():
    cfg = config_from_dict({
        "dataset": {"synthetic": {"n_samples": 120, "n_features": 8,
                                  "n_informative": 3, "n_redundant": 2,
                                  "n_classes": 3, "class_sep": 1.5,
                                  "flip_y": 0.02, "seed": 7}},
        "epsilon": 0.2,
        "lambda": 0.7,
        "train": {},
        "repeats": 4,
        "master_seed": 9,
        "selectors": ["crfe"],
        "sizes": [5, 3, 1],
        "stopping": {"sigma": 4.0, "repeats": 6},
    })
    assert cfg.epsilon == 0.2 and cfg.lam == 0.7
    assert cfg.train == TrainConfig() and cfg.repeats == 4
    assert cfg.selectors == ("crfe",) and cfg.sizes == (5, 3, 1)
    assert cfg.stopping.sigma == 4.0 and cfg.stopping.repeats == 6
    assert config_from_dict({"dataset": {"csv": "a.csv"}}).label_column == "label"
    assert config_from_dict({"dataset": {"csv": "a.csv", "label": "y"}}).label_column == "y"


# every JSON value kind: null, bool, int of any sign and size, float (nan
# and inf too), string, and nested lists and objects
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)
CONFIG_PLACES = (
    [(None, k) for k in ("dataset", "epsilon", "lambda", "train", "repeats",
                         "master_seed", "selectors", "sizes", "stopping")]
    + [("dataset", k) for k in ("csv", "label", "synthetic")]
    + [("train", f.name) for f in fields(TrainConfig)]
    + [("stopping", f.name) for f in fields(StoppingParams)]
)


@settings(max_examples=400, deadline=None)
@given(place=st.sampled_from(CONFIG_PLACES), value=JSON_VALUES)
def test_config_from_dict_returns_config_or_raises_config_error(place, value):
    data = copy.deepcopy(BENCH_CFG)
    section, key = place
    (data if section is None else data.setdefault(section, {}))[key] = value
    try:
        cfg = config_from_dict(data)
    except ConfigError:
        return
    # a config that comes back holds whole counts and seeds, never a
    # truncated float or a bool
    s = cfg.stopping
    for got in (cfg.repeats, cfg.master_seed, s.psi, s.warmup, s.repeats):
        assert type(got) is int


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        config_from_dict({"dataset": {"csv": "x.csv"}, "bogus": 1})
    with pytest.raises(ConfigError):
        config_from_dict({"dataset": {"synthetic": {"n_samples": 10}}})
    with pytest.raises(ConfigError):
        config_from_dict([1, 2])
    with pytest.raises(ConfigError):  # a misspelt key is not dropped
        config_from_dict({"dataset": {"csv": "a.csv", "lable": "y"}})
    with pytest.raises(ConfigError):  # nor is a second source
        config_from_dict({"dataset": {**BENCH_CFG["dataset"], "csv": "x.csv"}})


# --------------------------------------------------------------- comparison


def test_row_arithmetic(tiny_table):
    # 2 methods x 7 sizes x 2 seeds, plus one aggregate per (method, size)
    assert len(tiny_table.rows) == 2 * 7 * 2
    assert len(tiny_table.aggregates()) == 2 * 7
    assert tiny_table.sizes == tuple(range(7, 0, -1))


def test_same_master_seed_identical_tables(tmp_path, tiny_table):
    again = run_comparison(tiny_config())
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    tiny_table.to_csv(p1)
    again.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_aggregates_recompute_exactly(tiny_table):
    for agg in tiny_table.aggregates():
        group = [r for r in tiny_table.rows
                 if r.method == agg["method"] and r.subset_size == agg["subset_size"]]
        assert agg["n"] == len(group) == 2
        for col in METRIC_COLUMNS:
            vals = np.array([r.metric(col) for r in group])
            assert agg[col] == float(vals.mean())
            assert agg[col + "_std"] == float(vals.std())


def test_results_csv_round_trip(tmp_path, tiny_table):
    path = tmp_path / "results.csv"
    assert tiny_table.to_csv(path) == tiny_table.aggregates()  # it returns what it wrote
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    seed_rows = [r for r in rows if r["seed"] != "aggregate"]
    agg_rows = [r for r in rows if r["seed"] == "aggregate"]
    assert len(seed_rows) == len(tiny_table.rows)
    assert len(agg_rows) == len(tiny_table.aggregates())
    by_key = {(r.method, r.subset_size, r.seed): r for r in tiny_table.rows}
    for r in seed_rows:
        orig = by_key[(r["method"], int(r["subset_size"]), int(r["seed"]))]
        for col in METRIC_COLUMNS:
            assert float(r[col]) == orig.metric(col)
        assert r["coverage_std"] == ""  # std cells only on aggregates


def test_custom_sizes_subset(tmp_path):
    table = run_comparison(tiny_config(sizes=(6, 4, 2), selectors=("crfe",)))
    assert {r.subset_size for r in table.rows} == {6, 4, 2}
    assert len(table.rows) == 3 * 2


def test_bad_sizes_for_data():
    with pytest.raises(ConfigError):
        run_comparison(tiny_config(sizes=(9, 2)))  # only 8 features


# -------------------------------------------------------------- consistency


def test_subsets_by_size_walks_trace(tiny_table):
    trace = tiny_table.traces[("crfe", 3)]
    subs = subsets_by_size(trace, 8)
    assert subs[8] == frozenset(range(8))
    for size in range(1, 8):
        assert len(subs[size]) == size
        assert subs[size] < subs[size + 1]
    assert subs[trace.n_selected] == frozenset(trace.selected)


def test_consistency_report_shape(tiny_table):
    rows = consistency_report(tiny_table)
    within = [r for r in rows if r["method"] in ("crfe", "rfe")]
    cross = [r for r in rows if r["method"] == "crfe_vs_rfe"]
    assert len(within) == 2 * 7 and len(cross) == 7
    for r in within:
        assert 0.0 <= r["i_j"] <= 1.0 and 0.0 <= r["i_w"] <= 1.0
        assert -1.0 <= r["kuncheva_mean"] <= 1.0
        fam = SubsetFamily(subsets=tuple(
            subsets_by_size(tiny_table.traces[(r["method"], seed)], 8)[r["subset_size"]]
            for seed in tiny_table.seeds
        ))
        assert r["kuncheva_mean"] == pytest.approx(kuncheva_family(fam, 8), abs=1e-12)
    for r in cross:
        assert -1.0 <= r["jaccard_mean"] <= 1.0


def test_two_repeats_weighted_collapses_to_jaccard(tiny_table):
    # with n=2 subsets the weighted index equals plain Jaccard at every size
    for r in consistency_report(tiny_table):
        if r["method"] in ("crfe", "rfe"):
            assert r["i_w"] == pytest.approx(r["i_j"], abs=1e-12)


# ----------------------------------------------------------------- stopping


def test_stopping_benchmark_shapes():
    summary, freqs, per_run = run_stopping_benchmark(tiny_config())
    assert [s["method"] for s in summary] == ["crfe", "rfe"]
    for s in summary:
        assert s["n"] == 2
        assert 1 <= s["mean_size"] <= 8
        assert s["std_size"] >= 0.0
    assert len(freqs) == 2 * 8
    for f in freqs:
        assert 0 <= f["count"] <= 2
    # every run keeps at least one feature, never all-plus-one
    assert all(1 <= p["size"] <= 8 for p in per_run)


def test_stopping_benchmark_crfe_only():
    summary, freqs, _ = run_stopping_benchmark(tiny_config(selectors=("crfe",)))
    assert [s["method"] for s in summary] == ["crfe"]
    assert len(freqs) == 8


def test_a_repeat_depends_only_on_data_config_and_index():
    # what a worker that runs repeat 1 alone relies on
    cfg = tiny_config()
    table, (_, _, per_run) = harness._run_repeats(cfg, 2, 2)
    d, name = harness.load_dataset(cfg)
    rows, traces, stops = harness._run_block(d, name, table.sizes, cfg, [(1, True, True)])
    seed = cfg.master_seed + 1
    want = [r for r in table.rows if r.seed == seed]
    assert [(r.method, r.subset_size) for r in rows] == [(r.method, r.subset_size) for r in want]
    for got, row in zip(rows, want):
        np.testing.assert_array_equal([got.metric(c) for c in METRIC_COLUMNS],
                                      [row.metric(c) for c in METRIC_COLUMNS])
    assert sorted(traces) == sorted(k for k in table.traces if k[1] == seed)
    for key, trace in traces.items():
        assert trace.selected == table.traces[key].selected
        assert (selection.trace_to_json(trace)["steps"]
                == selection.trace_to_json(table.traces[key])["steps"])
    assert [
        {"method": method, "seed": s, "size": len(cols),
         "inefficiency": sm.inefficiency, "certainty": sm.certainty}
        for method, s, cols, sm in stops
    ] == [p for p in per_run if p["seed"] == seed]


def score_one(ms, X_cal, y_cal, X_test, y_test, epsilon, n_classes):
    """What _evaluate gives one model, from the public per-model calls."""
    cols = list(ms.active_features)
    _, mask = conformal_predict(ms, calibrate(ms, X_cal[:, cols], y_cal), X_test[:, cols], epsilon)
    D = decision_matrix(ms, X_test[:, cols])
    return set_metrics(mask, y_test), point_metrics(point_predict(D), y_test, n_classes)


@pytest.mark.parametrize("seed", range(6))
def test_evaluate_scores_a_path_like_each_model_alone(seed):
    rng = np.random.default_rng(seed)
    k, l = int(rng.integers(2, 6)), int(rng.integers(2, 12))
    n_cal, n_test = int(rng.integers(1, 40)), int(rng.integers(1, 60))
    X_cal = rng.standard_normal((n_cal, l))
    y_cal = rng.integers(0, k, n_cal)
    # test rows that repeat calibration rows score exactly as they do, so
    # their non-conformity ties with the calibration scores
    X_test = np.concatenate([X_cal[rng.integers(0, n_cal, n_test // 2)],
                             rng.standard_normal((n_test - n_test // 2, l))])
    y_test = rng.integers(0, k, n_test)
    models = []
    for size in range(l, 0, -1):
        active = tuple(sorted(rng.choice(l, size, replace=False).tolist()))
        W = rng.standard_normal((k, size)) * rng.choice([0.0, 1e-3, 1.0, 10.0])
        models.append(LinearModelSet(W=W, b=rng.standard_normal(k), active_features=active,
                                     lam=float(rng.choice([0.0, 0.5, rng.uniform(), 1.0]))))
    for epsilon in (0.05, 0.1, 0.5):
        got = _evaluate(models, X_cal, y_cal, X_test, y_test, epsilon, k)
        assert len(got) == len(models)
        for ms, (sets, points) in zip(models, got):
            want_sets, want_points = score_one(ms, X_cal, y_cal, X_test, y_test, epsilon, k)
            assert sets == want_sets
            for name in ("accuracy", "macro_precision", "macro_recall", "macro_f1", "n"):
                assert getattr(points, name) == getattr(want_points, name)
            for name in ("precision", "recall", "f1"):
                assert np.array_equal(getattr(points, name), getattr(want_points, name))
    with pytest.raises(EmptyCalibrationError):
        _evaluate(models, X_cal[:0], y_cal[:0], X_test, y_test, 0.1, k)
    with pytest.raises(EmptyCalibrationError):
        score_one(models[0], X_cal[:0], y_cal[:0], X_test, y_test, 0.1, k)


def cv_of_all_columns(X, y, n_classes, tcfg):
    return _cv_accuracies([(X, y, [train_ova(X, y, n_classes, tcfg)])], n_classes, tcfg)[0][0]


@pytest.mark.parametrize("n", [36, 37, 41, 43, 44])
def test_cv_accuracy_matches_per_fold_oracle(n):
    # n % 5 != 0 gives folds of two training and two held-out sizes, so a
    # path's models train in two blocks each
    rng = np.random.default_rng(n)
    X = rng.standard_normal((n, 4))
    y = rng.permutation(np.arange(n) % 3)
    X[:, 0] += y
    tcfg = TrainConfig()
    assert cv_of_all_columns(X, y, 3, tcfg) == cv_accuracy(X, y, 3, tcfg)

    def data(rows, cols, y):
        X = rng.standard_normal((rows, cols))
        X[:, 0] += y
        return X, y

    sorted_y = np.repeat([0, 1, 2], [3, (n + 2) // 2, n - 1 - (n + 2) // 2])
    paths = [
        (X, y, [(0, 1, 2, 3), (0, 2, 3), (2, 3), (3,)]),  # one column fewer each model
        # other data of as many rows, so the first path's shapes come first:
        # (1, 2, 4, 5) cannot start from (0, 1, 2, 4, 5), nor (0, 3) from (1, 5)
        (*data(n, 6, rng.permutation(np.arange(n) % 3)),
         [(0, 1, 2, 3, 4, 5), (0, 1, 2, 4, 5), (1, 2, 4, 5), (1, 5), (0, 3)]),
        (*data(n + 2, 3, sorted_y), [(0, 1, 2), (0, 2)]),  # class 0 in fold 0 alone: skipped
        (*data(3, 2, np.arange(3)), [(0, 1), (1,)]),  # each fold holds out a class or nothing
    ]
    got = _cv_accuracies([(X, y, [train_ova(X[:, c], y, 3, tcfg, active_features=c) for c in cols])
                          for X, y, cols in paths], 3, tcfg)
    want = [[cv_accuracy(X[:, c], y, 3, tcfg) for c in cols] for X, y, cols in paths]
    assert got == want
    assert want[-1] == [-1.0, -1.0] and min(want[2]) >= 0.0


def test_cv_accuracy_skips_degenerate_folds_like_oracle():
    rng = np.random.default_rng(5)
    tcfg = TrainConfig()
    # sorted labels: class 0 lies inside the first held-out fold, so that
    # fold's training rows miss it and the fold is skipped
    y = np.repeat([0, 1, 2], [3, 20, 14])
    X = rng.standard_normal((y.size, 3)) + y[:, None]
    got = cv_of_all_columns(X, y, 3, tcfg)
    assert got == cv_accuracy(X, y, 3, tcfg)
    assert got >= 0.0
    # every fold holds out a whole class
    y = np.repeat(np.arange(5), 2)
    X = rng.standard_normal((10, 3))
    assert cv_of_all_columns(X, y, 5, tcfg) == cv_accuracy(X, y, 5, tcfg) == -1.0


@pytest.mark.parametrize("n", [3, 4])
def test_cv_accuracy_skips_folds_that_hold_out_nothing(n):
    # 5 contiguous folds of 3 or 4 rows leave a fold or two with no held-out
    # row; such a fold has no accuracy and must not make the mean NaN
    rng = np.random.default_rng(n)
    y = np.arange(n) % 2
    X = rng.standard_normal((n, 2)) + y[:, None]
    tcfg = TrainConfig()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an empty mean warns
        got = cv_of_all_columns(X, y, 2, tcfg)
        want = cv_accuracy(X, y, 2, tcfg)
    assert math.isfinite(got)
    assert got == want


def test_stopping_benchmark_on_ten_rows_warns_nothing():
    # 10 rows leave 3 or 4 training rows, so the baseline's CV has folds
    # that hold out nothing; pytest turns the warning of a NaN mean into an error
    spec = SyntheticSpec(n_samples=10, n_features=5, n_informative=2, n_redundant=0,
                         n_classes=2, class_sep=2.0, flip_y=0.0, seed=1)
    cfg = tiny_config(synthetic=spec, stopping=StoppingParams(repeats=3))
    _, _, per_run = run_stopping_benchmark(cfg)
    assert [p["method"] for p in per_run] == ["crfe", "rfe"] * 3


def test_run_all_trains_each_repeat_model_once(tmp_path, monkeypatch):
    """Both selectors and both benchmarks share each repeat's models."""
    trained = []
    real = selection._train_sets

    def recording(jobs, n_classes, config, lam):
        # a repeat's training labels name the repeat
        trained.extend((y.tobytes(), tuple(cols)) for _, y, _, cols, _ in jobs)
        return real(jobs, n_classes, config, lam)

    monkeypatch.setattr(selection, "_train_sets", recording)
    run_all(config_from_dict(BENCH_CFG), tmp_path)
    assert trained
    assert len(trained) == len(set(trained))
    # the first pass of each repeat, on all 8 features, is shared too
    assert [cols for _, cols in trained if len(cols) == 8] == [tuple(range(8))] * 2


def test_run_all_runs_each_elimination_once_per_repeat(tmp_path, monkeypatch):
    """With sizes ending at 1, the comparison's and the stop's baseline run
    is one elimination per repeat, and its criterion scores each pass once."""
    runs, scored = [], []
    real_elimination, real_criterion = selection._elimination, selection.rfe_criterion

    def elimination(X_train, X_cal, y_cal, method, policy):
        runs.append(method)
        return real_elimination(X_train, X_cal, y_cal, method, policy)

    def criterion(ms):
        scored.append(ms.n_features)
        return real_criterion(ms)

    monkeypatch.setattr(selection, "_elimination", elimination)
    monkeypatch.setattr(selection, "rfe_criterion", criterion)
    run_all(config_from_dict(BENCH_CFG), tmp_path)
    # per repeat: crfe to size 1 and crfe's beta stop, one baseline run for both
    assert sorted(runs) == ["crfe"] * 4 + ["rfe"] * 2
    assert sorted(scored) == sorted(list(range(1, 9)) * 2)


def test_run_all_scores_each_crfe_model_once_per_repeat(tmp_path, monkeypatch):
    """crfe's beta stop and its comparison path share the passes before the
    stop fires, and compute the beta of each shared model once."""
    scored, passes = [], []
    real_elimination, real_beta = selection._elimination, selection.beta_measures

    def elimination(X_train, X_cal, y_cal, method, policy):
        trace = yield from real_elimination(X_train, X_cal, y_cal, method, policy)
        passes.extend([method] * len(trace.models))
        return trace

    def beta(ms, X, y):
        scored.append((y.tobytes(), ms.active_features))  # a repeat's labels name it
        return real_beta(ms, X, y)

    monkeypatch.setattr(selection, "_elimination", elimination)
    monkeypatch.setattr(selection, "beta_measures", beta)
    run_all(config_from_dict({**BENCH_CFG, "stopping": {"repeats": 3}}), tmp_path)
    # 2 comparison paths of 8 passes and 3 stops of 6, 6 and 8: 36 passes, 24 models
    assert passes.count("crfe") == 36
    assert len(scored) == len(set(scored)) == 24


def test_comparison_and_stop_with_custom_sizes_match_each_run_alone():
    # sizes end at 2, so the comparison's baseline run (to 2) and the
    # stop's (to 1) stay apart; both run in one lock-step with crfe's
    cfg = tiny_config(sizes=(6, 4, 2), stopping=StoppingParams(repeats=2))
    table, stopping = harness._run_repeats(cfg, 2, 2)
    alone = harness._run_repeats(cfg, 2, 0)[0]
    assert harness._run_repeats(cfg, 0, 2)[1] == stopping
    assert ([(r.method, r.subset_size, r.seed) for r in table.rows]
            == [(r.method, r.subset_size, r.seed) for r in alone.rows])
    for got, want in zip(table.rows, alone.rows):
        np.testing.assert_array_equal([got.metric(c) for c in METRIC_COLUMNS],
                                      [want.metric(c) for c in METRIC_COLUMNS])
    assert sorted(table.traces) == sorted(alone.traces)
    for key, trace in table.traces.items():
        assert trace.selected == alone.traces[key].selected
        assert (selection.trace_to_json(trace)["steps"]
                == selection.trace_to_json(alone.traces[key])["steps"])
    assert {len(t.selected) for t in table.traces.values()} == {2}


def test_run_all_scores_each_model_once_per_split(tmp_path, monkeypatch):
    # a stopping repeat that shares its split with a comparison repeat
    # scores the path models it stops on in the comparison's one pass
    scored = []  # (model, calibration matrix) per model scored, both kept alive
    calls = []  # the calibration matrix of each call
    real = harness._evaluate

    def recording(models, X_cal, *rest):
        calls.append(X_cal)
        scored.extend((ms, X_cal) for ms in models)
        return real(models, X_cal, *rest)

    monkeypatch.setattr(harness, "_evaluate", recording)
    run_all(config_from_dict({**BENCH_CFG, "stopping": {"repeats": 3}}), tmp_path)
    keys = [(id(ms), id(X_cal)) for ms, X_cal in scored]
    assert len(keys) == len(set(keys))
    assert len(calls) == len({id(X_cal) for X_cal in calls}) == 3  # one pass per split
    # fewer than 2 comparison repeats x 2 methods x 7 sizes plus 3 stopping
    # repeats x 2 methods: the paths share sets, the stops reuse scores
    assert len(keys) < 2 * 2 * 7 + 3 * 2


def _count_solves(monkeypatch) -> list:
    """The number of training sets of every _train_stacked call, as it is made."""
    sets = []
    real = classifier._train_stacked

    def counting(ZX, config, w0=None):
        sets.append(ZX.shape[0])
        return real(ZX, config, w0)

    monkeypatch.setattr(classifier, "_train_stacked", counting)
    return sets


def test_run_all_trains_all_repeats_in_lockstep(tmp_path, monkeypatch):
    # one solve per elimination pass of both repeats, and one per size of
    # the baseline's path for its CV folds of both stopping repeats; the
    # parent of this design made 32 solves of the same training sets
    sets = _count_solves(monkeypatch)
    run_all(config_from_dict(BENCH_CFG), tmp_path)
    assert len(sets) == 16
    assert sum(sets) == 104


def test_run_all_draws_only_the_split_streams(tmp_path, monkeypatch):
    # the data's stream (spec seed 7) and one split per repeat (master seed
    # 3 plus r); training draws nothing
    drawn = []
    real = np.random.default_rng

    def drawing(seed):
        drawn.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", drawing)
    run_all(config_from_dict(BENCH_CFG), tmp_path)
    assert drawn == [7, 3, 4]


def test_a_capped_solve_splits_its_group_without_changing_outputs(tmp_path, monkeypatch):
    cfg = config_from_dict(BENCH_CFG)
    run_all(cfg, tmp_path / "whole")
    sets = _count_solves(monkeypatch)
    monkeypatch.setattr(classifier, "_STACK_BYTES", 1 << 14)  # one set a solve
    run_all(cfg, tmp_path / "split")
    assert len(sets) > 16 and max(sets) < 10 and sum(sets) == 104
    for path in sorted((tmp_path / "whole").iterdir()):
        assert (tmp_path / "split" / path.name).read_bytes() == path.read_bytes()


def test_run_all_loads_once_and_splits_once_per_repeat(tmp_path, monkeypatch):
    """2 comparison and 3 stopping repeats: one load, one split per repeat."""
    loads, split_seeds = [], []
    real_load, real_split = harness.load_dataset, harness.scaled_split

    def counting_load(cfg):
        d, name = real_load(cfg)
        loads.append(name)
        return d, name

    def counting_split(d, seed):
        split_seeds.append(seed)
        return real_split(d, seed)

    monkeypatch.setattr(harness, "load_dataset", counting_load)
    monkeypatch.setattr(harness, "scaled_split", counting_split)
    run_all(config_from_dict({**BENCH_CFG, "stopping": {"repeats": 3}}), tmp_path)
    assert len(loads) == 1
    assert split_seeds == [3, 4, 5]  # master_seed 3 plus repeats 0, 1, 2


# ------------------------------------------------------------------- output


def test_emit_outputs_files_and_determinism(tmp_path, tiny_table):
    rows = consistency_report(tiny_table)
    summary, freqs, _ = run_stopping_benchmark(tiny_config())
    out = tmp_path / "out"
    written = emit_outputs(tiny_table, rows, summary, freqs, out)
    names = sorted(os.path.basename(p) for p in written)
    for req in ("results.csv", "consistency.csv", "stopping.csv", "frequencies.csv"):
        assert req in names
    traces = [n for n in names if n.startswith("trace_")]
    assert len(traces) == 2 * 2  # methods x seeds
    plots = [n for n in names if n.endswith(".svg")]
    assert len(plots) == len(METRIC_COLUMNS) * 2  # metrics x methods
    before = {n: (out / n).read_bytes() for n in names}
    emit_outputs(tiny_table, rows, summary, freqs, out)
    assert {n: (out / n).read_bytes() for n in names} == before


def test_emit_outputs_computes_the_aggregates_once(tmp_path, tiny_table, monkeypatch):
    # results.csv and the plots read one list of aggregates
    summary, freqs, _ = run_stopping_benchmark(tiny_config())
    calls = []
    aggregates = type(tiny_table).aggregates
    monkeypatch.setattr(type(tiny_table), "aggregates",
                        lambda table: calls.append(table) or aggregates(table))
    emit_outputs(tiny_table, consistency_report(tiny_table), summary, freqs, tmp_path)
    assert calls == [tiny_table]


def test_emitted_csvs_parse_back(tmp_path, tiny_table):
    rows = consistency_report(tiny_table)
    summary, freqs, _ = run_stopping_benchmark(tiny_config())
    emit_outputs(tiny_table, rows, summary, freqs, tmp_path)
    with open(tmp_path / "consistency.csv", newline="") as fh:
        back = list(csv.DictReader(fh))
    assert len(back) == len(rows)
    for orig, got in zip(rows, back):
        assert got["method"] == orig["method"]
        if got["i_j"]:
            assert float(got["i_j"]) == orig["i_j"]
    with open(tmp_path / "stopping.csv", newline="") as fh:
        back = list(csv.DictReader(fh))
    assert [r["method"] for r in back] == ["crfe", "rfe"]
    assert all(float(r["mean_size"]) > 0 for r in back)
    with open(tmp_path / "frequencies.csv", newline="") as fh:
        back = list(csv.DictReader(fh))
    assert sorted({r["feature_name"] for r in back}) == sorted(
        tiny_table.feature_names
    )


def test_trace_json_uses_feature_names(tmp_path, tiny_table):
    summary, freqs, _ = run_stopping_benchmark(tiny_config())
    emit_outputs(tiny_table, consistency_report(tiny_table), summary, freqs, tmp_path)
    with open(tmp_path / "trace_crfe_3.json") as fh:
        doc = json.load(fh)
    assert doc["method"] == "crfe"
    assert set(doc["final_subset"]) <= set(tiny_table.feature_names)
