"""Spans around crfe's public functions, installed from outside the package.

``Tracer.install()`` replaces each traced function at every import site
(crfe uses ``from .classifier import train_ova`` and the like, so
``crfe.selection.train_ova``, ``crfe.harness.train_ova`` and
``crfe.cli.train_ova`` are all replaced). A span is the list
``[name, start, end, parent, overhead]``: ``parent`` is the index of the
enclosing span, taken from a span stack, and ``overhead`` is the
wrapper's own bookkeeping time, which is charged to nobody's self time.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import hashlib
import inspect
import math
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function); the span name drops the "crfe." prefix
TRACED = (
    ("crfe.cli", "main"),
    ("crfe.classifier", "train_ova"),
    ("crfe.selection", "run_crfe"),
    ("crfe.selection", "run_rfe"),
    ("crfe.selection", "beta_measures"),
    ("crfe.selection", "rfe_criterion"),
    ("crfe.selection", "beta_stop_check"),
    ("crfe.harness", "run_comparison"),
    ("crfe.harness", "run_stopping_benchmark"),
    ("crfe.harness", "consistency_report"),
    ("crfe.harness", "emit_outputs"),
    ("crfe.conformal", "calibrate"),
    ("crfe.conformal", "conformal_predict"),
    ("crfe.conformal", "write_prediction_csv"),
    ("crfe.metrics", "set_metrics"),
    ("crfe.metrics", "point_metrics"),
    ("crfe.data", "load_csv"),
    ("crfe.data", "impute_knn"),
    ("crfe.data", "split"),
    ("crfe.data", "split_with_all_classes"),
    ("crfe.data", "generate_synthetic"),
    ("crfe.consistency", "kuncheva"),
    ("crfe.consistency", "jaccard_multi"),
    ("crfe.plots", "save_plot"),
)

# per-layer metrics: name -> (unit, how the per-operation values combine)
#   "median": median over all traced operations
#   "first":  mean over the first COUNT_OPS operations, whose inputs are the
#             same on every run with one seed, so the value repeats exactly
PER_LAYER = {
    "classifier.train_ova.calls": ("count", "first"),
    "classifier.train_ova.self_s": ("s", "median"),
    "classifier.binary_problems": ("count", "first"),
    "classifier.sgd_steps": ("count", "first"),
    "classifier.sgd_flops_computed": ("flop", "first"),
    "classifier.us_per_sgd_step": ("us", "median"),
    "harness.train_ova.duplicate_calls": ("count", "first"),
    "harness.train_ova.unique_ratio": ("ratio", "first"),
    "harness.run_comparison.s": ("s", "median"),
    "harness.run_stopping_benchmark.s": ("s", "median"),
    "harness.stopping.direct_train_ova.calls": ("count", "first"),
    "harness.stopping.direct_train_ova.s": ("s", "median"),
    "harness.consistency_report.s": ("s", "median"),
    "harness.emit_outputs.s": ("s", "median"),
    "selection.run_crfe.calls": ("count", "first"),
    "selection.run_rfe.calls": ("count", "first"),
    "selection.elimination_steps": ("count", "first"),
    "selection.run_crfe.self_s": ("s", "median"),
    "selection.run_rfe.self_s": ("s", "median"),
    "selection.beta_measures.self_s": ("s", "median"),
    "selection.rfe_criterion.self_s": ("s", "median"),
    "selection.beta_stop_check.self_s": ("s", "median"),
    "conformal.calibrate.self_s": ("s", "median"),
    "conformal.conformal_predict.self_s": ("s", "median"),
    "conformal.write_prediction_csv.self_s": ("s", "median"),
    "metrics.set_metrics.self_s": ("s", "median"),
    "metrics.point_metrics.self_s": ("s", "median"),
    "data.load_csv.self_s": ("s", "median"),
    "data.load_csv.cells": ("count", "first"),
    "data.impute_knn.self_s": ("s", "median"),
    "data.impute_knn.rows_imputed": ("count", "first"),
    "data.split.retries": ("count", "first"),
    "data.generate_synthetic.calls": ("count", "first"),
    "consistency.kuncheva.self_s": ("s", "median"),
    "consistency.jaccard_multi.self_s": ("s", "median"),
    "plots.save_plot.calls": ("count", "first"),
    "plots.save_plot.self_s": ("s", "median"),
    "cli.main.s": ("s", "median"),
    "cli.main.self_s": ("s", "median"),
    "tracing.op_s_p50": ("s", "median"),
    "tracing.overhead_s": ("s", "median"),
}

COUNT_OPS = 3


def _ova_key(X, y, n_classes, config, lam) -> tuple:
    X = np.ascontiguousarray(X, dtype=float)
    y = np.ascontiguousarray(y, dtype=np.int64)
    digest = hashlib.blake2b(X.tobytes(), digest_size=16)
    digest.update(y.tobytes())
    return (X.shape, digest.digest(), int(n_classes), config, float(lam))


class Tracer:
    """Records spans while ``active``; per-operation metrics from ``end_op``."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._counts: dict = defaultdict(float)
        self._ova_keys: set = set()
        self._op_start = 0
        self._restore: list[tuple] = []

    # -------------------------------------------------------------- install

    def install(self) -> None:
        """Wrap every TRACED function at every ``crfe`` module that holds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "crfe" or name.startswith("crfe."))]
        for mod_name, fn_name in TRACED:
            fn = getattr(sys.modules[mod_name], fn_name)
            span_name = f"{mod_name[len('crfe.'):]}.{fn_name}"
            wrapper = self._wrap(span_name, fn, getattr(self, "_after_" + fn_name, None))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def _wrap(self, name, fn, after):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            t_in = clock()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span[1], span[2] = t0, t1
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(bound.arguments, result)
            span[4] = (t0 - t_in) + (clock() - t1)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------ counted at spans

    def _after_train_ova(self, a, _result) -> None:
        X, config, n_classes = a["X"], a["config"], a["n_classes"]
        n, l = np.shape(X)
        steps_per_epoch = math.ceil(n / min(config.batch_size, n))
        c = self._counts
        c["binary_problems"] += n_classes
        c["sgd_steps"] += config.epochs * steps_per_epoch * n_classes
        # per epoch: the margin products of all n rows (2 n (l+1)), plus the
        # decay and the update of the weight vector at every step
        c["sgd_flops"] += n_classes * config.epochs * (
            2 * n * (l + 1) + 2 * (l + 1) * steps_per_epoch)
        key = _ova_key(X, a["y"], n_classes, config, a["lam"])
        if key in self._ova_keys:
            c["duplicate_calls"] += 1
        self._ova_keys.add(key)

    def _after_run_crfe(self, _a, trace) -> None:
        self._counts["elimination_steps"] += len(trace.steps)

    _after_run_rfe = _after_run_crfe

    def _after_load_csv(self, _a, d) -> None:
        self._counts["load_csv_cells"] += d.n_samples * (d.n_features + 1)

    def _after_impute_knn(self, a, _result) -> None:
        d = a["d"]
        if d.missing_mask is not None:
            self._counts["rows_imputed"] += int(d.missing_mask.any(axis=1).sum())

    # ----------------------------------------------------------- operations

    def begin_op(self) -> None:
        self._op_start = len(self.spans)
        self._counts.clear()
        self._ova_keys.clear()
        self.active = True

    def end_op(self, op_s: float) -> dict:
        """Per-layer values of the operation just finished."""
        self.active = False
        spans = self.spans[self._op_start:]
        base = self._op_start
        calls: dict = defaultdict(int)
        total: dict = defaultdict(float)
        child: dict = defaultdict(float)
        overhead_s = 0.0
        for name, t0, t1, parent, overhead in spans:
            overhead_s += overhead
            calls[name] += 1
            total[name] += t1 - t0
            if parent >= 0:
                child[parent] += (t1 - t0) + overhead
        self_s: dict = defaultdict(float)
        direct_calls, direct_s = 0, 0.0
        for i, (name, t0, t1, parent, _o) in enumerate(spans, start=base):
            self_s[name] += (t1 - t0) - child[i]
            if (name == "classifier.train_ova" and parent >= 0
                    and self.spans[parent][0] == "harness.run_stopping_benchmark"):
                direct_calls += 1
                direct_s += t1 - t0
        c = self._counts
        n_ova = calls["classifier.train_ova"]
        v = {
            "classifier.train_ova.calls": n_ova,
            "classifier.train_ova.self_s": self_s["classifier.train_ova"],
            "classifier.binary_problems": c["binary_problems"],
            "classifier.sgd_steps": c["sgd_steps"],
            "classifier.sgd_flops_computed": c["sgd_flops"],
            "classifier.us_per_sgd_step": (1e6 * self_s["classifier.train_ova"] / c["sgd_steps"]
                                           if c["sgd_steps"] else 0.0),
            "harness.train_ova.duplicate_calls": c["duplicate_calls"],
            "harness.train_ova.unique_ratio": ((n_ova - c["duplicate_calls"]) / n_ova
                                               if n_ova else 1.0),
            "harness.stopping.direct_train_ova.calls": direct_calls,
            "harness.stopping.direct_train_ova.s": direct_s,
            "selection.run_crfe.calls": calls["selection.run_crfe"],
            "selection.run_rfe.calls": calls["selection.run_rfe"],
            "selection.elimination_steps": c["elimination_steps"],
            "data.load_csv.cells": c["load_csv_cells"],
            "data.impute_knn.rows_imputed": c["rows_imputed"],
            "data.split.retries": calls["data.split"] - calls["data.split_with_all_classes"],
            "data.generate_synthetic.calls": calls["data.generate_synthetic"],
            "plots.save_plot.calls": calls["plots.save_plot"],
            "tracing.op_s_p50": op_s,
            "tracing.overhead_s": overhead_s,
        }
        for metric in PER_LAYER:
            if metric in v:
                continue
            layer, _, kind = metric.rpartition(".")
            v[metric] = self_s[layer] if kind == "self_s" else total[layer]
        return v


def summarize(per_op: list[dict]) -> dict:
    """Combine per-operation values into the run's per-layer metrics."""
    out = {}
    for metric, (unit, how) in PER_LAYER.items():
        vals = [op[metric] for op in per_op]
        value = statistics.fmean(vals[:COUNT_OPS]) if how == "first" else statistics.median(vals)
        out[metric] = {"value": value, "unit": unit}
    return out
