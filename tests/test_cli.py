import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from crfe import classifier, cli, harness, selection
from crfe.cli import main
from crfe.data import (
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    save_csv,
    split_with_all_classes,
)

# fewer samples than classes: no dataset can hold every class
TINY_SPEC = {"n_samples": 2, "n_features": 3, "n_informative": 2, "n_redundant": 0,
             "n_classes": 3, "class_sep": 1.0, "flip_y": 0.0, "seed": 0}

SPEC = {"n_samples": 120, "n_features": 8, "n_informative": 3, "n_redundant": 2,
        "n_classes": 3, "class_sep": 1.5, "flip_y": 0.02, "seed": 7}

CFG = {"dataset": {"synthetic": SPEC}, "repeats": 2, "master_seed": 3,
       "stopping": {"repeats": 2}}


@pytest.fixture()
def no_training(monkeypatch):
    """Fail the test if anything is trained."""

    def refuse(*_args, **_kwargs):
        raise AssertionError("trained before the bad value was rejected")

    monkeypatch.setattr(selection, "_train_sets", refuse)
    monkeypatch.setattr(harness, "_train_sets", refuse)  # the CV folds


@pytest.fixture()
def data_csv(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    out = tmp_path / "data.csv"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
    return out


def test_synth_writes_csv_and_sidecar(data_csv):
    assert data_csv.exists()
    meta = json.loads((data_csv.parent / "data.meta.json").read_text())
    assert len(meta["informative_indices"]) == 3
    assert meta["spec"]["n_features"] == 8


def test_synth_bad_spec_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n_samples": 10}')
    assert main(["synth", "--spec", str(bad), "--out", str(tmp_path / "d.csv")]) == 2
    bad.write_text("not json")
    assert main(["synth", "--spec", str(bad), "--out", str(tmp_path / "d.csv")]) == 2
    assert main(["synth", "--spec", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "d.csv")]) == 2
    bad.write_text(json.dumps(TINY_SPEC))
    assert main(["synth", "--spec", str(bad), "--out", str(tmp_path / "d.csv")]) == 2


def test_select_fixed_writes_artifacts(data_csv, tmp_path):
    out = tmp_path / "sel"
    rc = main(["select", "--data", str(data_csv), "--label", "label",
               "--method", "crfe", "--stop", "fixed:3", "--out", str(out)])
    assert rc == 0
    assert sorted(os.listdir(out)) == [
        "model.json", "predictions.csv", "trace.csv", "trace.json",
    ]
    doc = json.loads((out / "trace.json").read_text())
    assert doc["stop_reason"] == "ReachedTargetSize"
    assert len(doc["final_subset"]) == 3
    model = json.loads((out / "model.json").read_text())
    assert len(model["active_features"]) == 3
    header = (out / "predictions.csv").read_text().splitlines()[0]
    assert header == "sample_id,p_class_0,p_class_1,p_class_2,set"


def test_select_beta_stop(data_csv, tmp_path):
    out = tmp_path / "selb"
    rc = main(["select", "--data", str(data_csv), "--label", "label",
               "--method", "crfe", "--stop", "beta",
               "--sigma", "2", "--psi", "3", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "trace.json").read_text())
    assert doc["stop_reason"] in ("BetaCriterionFired", "ExhaustedToOneFeature")


def test_select_usage_errors_exit_2(data_csv, tmp_path):
    args = ["select", "--data", str(data_csv), "--label", "label",
            "--out", str(tmp_path / "x")]
    assert main(args + ["--method", "crfe", "--stop", "bogus"]) == 2
    assert main(args + ["--method", "crfe", "--stop", "fixed:zz"]) == 2
    assert main(args + ["--method", "rfe", "--stop", "beta"]) == 2
    assert main(["select", "--data", str(data_csv), "--label", "wrong",
                 "--method", "crfe", "--stop", "beta", "--out", str(tmp_path / "x")]) == 2


def test_select_missing_data_exits_3(tmp_path):
    assert main(["select", "--data", str(tmp_path / "none.csv"), "--label", "y",
                 "--method", "crfe", "--stop", "beta", "--out", str(tmp_path / "x")]) == 3


def test_select_non_finite_cell_exits_3_before_training(data_csv, tmp_path, capsys):
    # put 'nan' in a test row: training never sees it, and whether
    # prediction would trip on it depends on which features survive
    row = int(split_with_all_classes(load_csv(data_csv, label_column="label"), 0).test_idx[0])
    lines = data_csv.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[2] = "nan"
    lines[row + 1] = ",".join(cells)
    data_csv.write_text("\n".join(lines) + "\n")
    for stop in ("fixed:1", "fixed:2"):
        out = tmp_path / stop.replace(":", "_")
        assert main(["select", "--data", str(data_csv), "--label", "label",
                     "--method", "crfe", "--stop", stop, "--out", str(out)]) == 3
        assert not out.exists()
        assert f"line {row + 2}, column 3" in capsys.readouterr().err


def test_select_on_a_column_whose_spread_overflows_exits_3(tmp_path, capsys, no_training):
    # +-1e155 is finite and so is its mean, but its square is not: the
    # scaler must refuse the column, not divide it by an infinite std to zeros
    data = tmp_path / "data.csv"
    rows = [f"{(-1) ** i * 1e155},{i % 5},{'xy'[i % 2]}" for i in range(40)]
    data.write_text("a,b,label\n" + "\n".join(rows) + "\n")
    out = tmp_path / "o"
    assert main(["select", "--data", str(data), "--label", "label", "--method", "crfe",
                 "--stop", "fixed:1", "--out", str(out)]) == 3
    assert ("crfe: data error: feature 'a': its mean or standard deviation over the training"
            " rows is not finite") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("body, reason", [
    (b"1,2,x\n\xff\xfe,4,y\n", ": not UTF-8 text"),
    (b"1,2,x\n3,4,y\n" + b"9" * 131_073 + b",4,y\n", ", line 4: field larger than field limit"),
], ids=["not-utf8", "field-over-limit"])
def test_unreadable_csv_exits_3_without_traceback(tmp_path, body, reason):
    data = tmp_path / "data.csv"
    data.write_bytes(b"a,b,label\n" + body)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**CFG, "dataset": {"csv": str(data)}}))
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    for args in (["select", "--data", str(data), "--label", "label", "--method", "crfe",
                  "--stop", "beta"], ["bench", "--config", str(cfg)]):
        run = subprocess.run([sys.executable, "-m", "crfe.cli", *args, "--out", str(tmp_path / "o")],
                             capture_output=True, text=True, env=env)
        assert run.returncode == 3, run.stderr
        assert f"crfe: data error: {data}{reason}" in run.stderr
        assert "Traceback" not in run.stderr
    assert not (tmp_path / "o").exists()


def test_repeated_column_name_exits_3(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("a,label,label\n1,0,0\n2,1,1\n")
    out = tmp_path / "o"
    assert main(["select", "--data", str(data), "--label", "label", "--method", "crfe",
                 "--stop", "fixed:1", "--out", str(out)]) == 3
    assert "crfe: data error: line 1: column name 'label' appears twice" in capsys.readouterr().err
    assert not out.exists()


def test_empty_label_cell_exits_3(tmp_path, capsys, no_training):
    data = tmp_path / "data.csv"
    data.write_text("a,label\n1,x\n2,\n3,y\n4,x\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**CFG, "dataset": {"csv": str(data)}}))
    out = tmp_path / "o"
    for args in (["select", "--data", str(data), "--label", "label", "--method", "crfe",
                  "--stop", "beta"], ["bench", "--config", str(cfg)]):
        assert main([*args, "--out", str(out)]) == 3
        assert "crfe: data error: line 3: label column 'label' is empty" in capsys.readouterr().err
    assert not out.exists()


def test_bench_writes_reports(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CFG))
    out = tmp_path / "bench"
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
    got = sorted(f for f in os.listdir(out) if f.endswith(".csv"))
    assert got == ["consistency.csv", "frequencies.csv", "results.csv", "stopping.csv"]
    assert any(f.endswith(".svg") for f in os.listdir(out))


def test_reports_quote_names_that_hold_a_comma(tmp_path):
    d, _ = generate_synthetic(SyntheticSpec(**SPEC))
    names = ("f,1", 'f"2', "f\r3", *d.feature_names[3:])
    data = tmp_path / "my,data.csv"
    save_csv(replace(d, feature_names=names, class_names=("a,b", "c,d", "e")), data)
    sel, bench = tmp_path / "sel", tmp_path / "bench"
    assert main(["select", "--data", str(data), "--label", "label", "--method", "crfe",
                 "--stop", "fixed:3", "--out", str(sel)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**CFG, "dataset": {"csv": str(data)}}))
    assert main(["bench", "--config", str(cfg), "--out", str(bench)]) == 0
    reports = {}
    for path in sorted([*sel.glob("*.csv"), *bench.glob("*.csv")]):
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert rows and all(len(row) == len(header) for row in rows), path.name
        reports[path.name] = [dict(zip(header, row)) for row in rows]
    assert len(reports) == 6
    freq = reports["frequencies.csv"]
    assert [r["feature_name"] for r in freq if r["method"] == "crfe"] == list(names)
    assert {r["dataset"] for r in freq + reports["results.csv"]} == {"my,data"}
    members = {c for r in reports["predictions.csv"] for c in r["set"].split("|")}
    assert {"a,b", "c,d"} <= members


def test_bench_config_errors_exit_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**CFG, "oops": True}))
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert main(["bench", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o")]) == 2
    cfg.write_text(json.dumps({**CFG, "dataset": {"synthetic": TINY_SPEC}}))
    for command in ("bench", "consistency"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_bench_one_feature_or_unreadable_config_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    one = {**SPEC, "n_features": 1, "n_informative": 1, "n_redundant": 0, "n_classes": 2}
    cfg.write_text(json.dumps({**CFG, "dataset": {"synthetic": one}}))
    for command in ("bench", "consistency"):  # no smaller size to compare
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    # bytes that are not UTF-8, and JSON nested deeper than the parser recurses
    for text in (b'{"repeats": "\xff"}', b"[" * 100_000 + b"]" * 100_000):
        cfg.write_bytes(text)
        assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert main(["synth", "--spec", str(cfg), "--out", str(tmp_path / "d.csv")]) == 2
    assert not (tmp_path / "o").exists()


def test_bench_whose_solver_diverges_exits_2(tmp_path, capsys):
    # c this large overflows the Newton systems c A^T A to infinity
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**CFG, "train": {"c": 1e308}}))
    out = tmp_path / "o"
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error: weights and biases must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_consistency_subcommand(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CFG))
    out = tmp_path / "cons"
    assert main(["consistency", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "consistency.csv").read_text().splitlines()
    assert lines[0].startswith("method,subset_size,i_j,i_w")
    assert len(lines) == 1 + 2 * 7 + 7


# values that ended in a traceback, trained before failing, or were
# silently truncated; each must exit 2 before any training
BAD_CONFIG_VALUES = [
    {"repeats": "abc"},
    {"lambda": None},
    {"sizes": 5},
    {"master_seed": -5},
    {"train": {"seed": -1}},
    {"train": {"seed": 1.5}},
    {"train": {"epochs": 2.5}},
    {"train": {"batch_size": 4.5}},
    {"repeats": 2.9},
    {"master_seed": 1.5},
    {"stopping": {"sigma": 0.5}},
]


@pytest.mark.parametrize("command", ["bench", "consistency"])
@pytest.mark.parametrize("bad", BAD_CONFIG_VALUES, ids=json.dumps)
def test_bad_config_value_exits_2_before_training(tmp_path, no_training, command, bad):
    doc = {k: {**CFG.get(k, {}), **v} if isinstance(v, dict) else v for k, v in bad.items()}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**CFG, **doc}))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("key", ["eta0", "seed", "epochs", "batch_size"])
def test_train_entry_with_an_sgd_setting_exits_2_naming_it(tmp_path, capsys, no_training, key):
    # the exact solver has no step size, draws no stream and makes no passes
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**CFG, "train": {key: 1}}))
    out = tmp_path / "out"
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "bad train entry" in err and repr(key) in err
    assert not out.exists()


def test_select_whose_solve_hits_the_iteration_cap_exits_3(data_csv, tmp_path, capsys,
                                                           monkeypatch):
    monkeypatch.setattr(classifier, "_NEWTON_CAP", 1)
    out = tmp_path / "sel"
    assert main(["select", "--data", str(data_csv), "--label", "label", "--method", "crfe",
                 "--stop", "fixed:3", "--out", str(out)]) == 3
    assert "did not converge in 1 iterations" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [
    ["--seed", "-1"],
    ["--epsilon", "1.5"],
    ["--epsilon", "nan"],
    ["--lambda", "-0.5"],
    ["--stop", "beta", "--sigma", "0.5"],
    ["--stop", "fixed:0"],
    ["--method", "rfe", "--stop", "beta"],
], ids=" ".join)
def test_bad_select_argument_exits_2_before_reading_data(data_csv, tmp_path, monkeypatch,
                                                         no_training, bad):
    def refuse(*_args, **_kwargs):
        raise AssertionError("read the CSV before the bad value was rejected")

    monkeypatch.setattr(cli, "load_csv", refuse)
    out = tmp_path / "sel"
    assert main(["select", "--data", str(data_csv), "--label", "label", "--method", "crfe",
                 "--stop", "fixed:3", "--out", str(out), *bad]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["select", "bench", "consistency"])
@pytest.mark.parametrize("below", [(), ("x",), ("x", "y")], ids=["file", "under_file", "deeper"])
def test_unusable_out_exits_3_before_loading_data(data_csv, tmp_path, monkeypatch, no_training,
                                                  capsys, command, below):
    def refuse(*_args, **_kwargs):
        raise AssertionError("loaded the data before the bad --out was rejected")

    monkeypatch.setattr(cli, "load_csv", refuse)
    monkeypatch.setattr(harness, "load_dataset", refuse)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CFG))
    if command == "select":
        argv = ["select", "--data", str(data_csv), "--label", "label", "--method", "crfe",
                "--stop", "fixed:3"]
    else:
        argv = [command, "--config", str(cfg)]
    out = data_csv.joinpath(*below)  # the CSV file, or a path below it
    before = data_csv.read_bytes()
    assert main([*argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("crfe: data error: ") and f"--out {out}" in err
    assert data_csv.read_bytes() == before
