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
from crfe.classifier import TrainConfig
from crfe.consistency import SubsetFamily
from crfe.data import SyntheticSpec
from crfe.exceptions import ConfigError
from crfe.harness import (
    METRIC_COLUMNS,
    ExperimentConfig,
    StoppingParams,
    _cv_accuracies,
    config_from_dict,
    consistency_report,
    emit_outputs,
    run_all,
    run_comparison,
    run_stopping_benchmark,
    subsets_by_size,
)
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


def cv_of_all_columns(X, y, n_classes, tcfg):
    return _cv_accuracies([(X, y, range(X.shape[1]))], n_classes, tcfg)[0]


@pytest.mark.parametrize("n", [36, 37, 41, 43, 44])
def test_cv_accuracy_matches_per_fold_oracle(n):
    # n % 5 != 0 gives folds of two training-set sizes, trained in two solves
    rng = np.random.default_rng(n)
    X = rng.standard_normal((n, 4))
    y = rng.permutation(np.arange(n) % 3)
    X[:, 0] += y
    tcfg = TrainConfig()
    assert cv_of_all_columns(X, y, 3, tcfg) == cv_accuracy(X, y, 3, tcfg)


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
        trained.extend((y.tobytes(), tuple(cols)) for _, y, _, cols in jobs)
        return real(jobs, n_classes, config, lam)

    monkeypatch.setattr(selection, "_train_sets", recording)
    run_all(config_from_dict(BENCH_CFG), tmp_path)
    assert trained
    assert len(trained) == len(set(trained))
    # the first pass of each repeat, on all 8 features, is shared too
    assert [cols for _, cols in trained if len(cols) == 8] == [tuple(range(8))] * 2


def _count_solves(monkeypatch) -> list:
    """The number of training sets of every _train_stacked call, as it is made."""
    sets = []
    real = classifier._train_stacked

    def counting(ZX, config):
        sets.append(ZX.shape[0])
        return real(ZX, config)

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
