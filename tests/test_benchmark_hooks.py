"""The benchmark finds every crfe name it uses.

perfbench/tracer.py wraps crfe functions by module and name, and binds
the arguments of train_ova by parameter name; perfbench/workloads.py and
perfbench/run.py call crfe.<name> directly. A rename or deletion would
otherwise surface only as a failed benchmark run. The elimination
engine must also look its traced functions up in its module at call
time: a function bound early escapes the wrapper, and its spans read 0.
"""

import importlib
import importlib.util
import inspect
import pkgutil
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import crfe
from crfe import selection
from crfe.exceptions import InvalidPolicyError

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"

EXPORTS = [
    "BetaCriterion", "BetaStopResult", "CalibrationRecord", "CrfeError", "DataSplit",
    "Dataset", "ExperimentConfig", "FixedSize", "LinearModelSet", "PointMetricsReport",
    "ResultsTable", "Scaler", "SelectionStep", "SelectionTrace", "SetMetricsReport",
    "StopReason", "StoppingParams", "SubsetFamily", "SyntheticSpec", "TrainConfig",
    "apply_scaler", "beta_measures", "beta_stop_check", "calibrate", "config_from_dict",
    "config_from_json", "conformal_predict", "consistency_report", "decision_matrix",
    "emit_outputs", "fit_scaler", "generate_synthetic", "impute_knn", "jaccard_multi",
    "kuncheva", "load_csv", "load_model", "model_set_from_json", "model_set_to_json",
    "nonconformity_all_labels", "p_value_matrix", "point_metrics", "point_predict",
    "prediction_mask", "rfe_criterion", "run_all", "run_comparison", "run_crfe",
    "run_rfe", "run_stopping_benchmark", "save_csv", "save_model", "save_synthetic",
    "set_metrics", "split", "split_with_all_classes", "trace_to_csv", "trace_to_json",
    "train_ova", "weighted_consistency", "write_prediction_csv",
]


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for mod_name, fn_name in tracer.TRACED:
        fn = getattr(importlib.import_module(mod_name), fn_name, None)
        assert inspect.isfunction(fn), f"{mod_name}.{fn_name} is gone"
    params = inspect.signature(crfe.train_ova).parameters
    assert {"X", "y", "n_classes", "config", "lam"} <= set(params)
    assert crfe.__all__ == EXPORTS


def test_benchmark_callers_resolve():
    # read as text: importing workloads.py sets environment variables
    for name in ("workloads.py", "run.py"):
        text = (PERFBENCH / name).read_text(encoding="utf-8")
        used = set(re.findall(r"\bcrfe(?:\.\w+)+", text))
        assert used, f"no crfe names found in {name}"
        for dotted in sorted(used):
            try:
                pkgutil.resolve_name(dotted)
            except (ImportError, AttributeError):
                raise AssertionError(f"{name} uses {dotted}, which is gone") from None


def test_engine_calls_traced_functions_through_its_module(monkeypatch):
    calls, jobs = Counter(), []
    for name in ("_train_sets", "beta_measures", "rfe_criterion", "beta_stop_check"):
        def counted(*args, _fn=getattr(selection, name), _name=name, **kwargs):
            calls[_name] += 1
            if _name == "_train_sets":
                jobs.append(len(args[0]))
            return _fn(*args, **kwargs)
        monkeypatch.setattr(selection, name, counted)
    rng = np.random.default_rng(0)
    X, y = rng.standard_normal((40, 5)), np.arange(40) % 3
    args = (X[:20], y[:20], X[20:], y[20:], 3)

    selection.run_crfe(*args, selection.FixedSize(2))
    assert calls == {"_train_sets": 4, "beta_measures": 4, "beta_stop_check": 4}
    calls.clear()
    selection.run_rfe(*args, selection.FixedSize(2))
    assert calls == {"_train_sets": 4, "rfe_criterion": 4}
    assert jobs == [1] * 8  # one new set per pass
    calls.clear()
    with pytest.raises(InvalidPolicyError):
        selection.run_rfe(*args, selection.BetaCriterion())
    assert not calls
