"""Experiment orchestration: seeded repeats, both selectors, reports.

The protocol per repeat: derive a seed from the master seed, draw one
train/calibration/test split shared by every selector, standardize with
train-row statistics, run each selector down through the requested subset
sizes, and score conformal set predictions plus hard-label metrics at
every size. Aggregation, consistency indices, the automatic-stop
benchmark and all file outputs (CSV, trace JSON, SVG) hang off the same
table so a whole run is a pure function of its config.

A run loads its dataset once. Repeat r has one split (seed master_seed
+ r) shared by all its eliminations, and they share the model of each
active set, so each (repeat, active set) model is trained once; a run
that the comparison and the stop both want runs once.
_run_block runs every repeat of a run in one lock-step: each pass trains
the sets new to any repeat in one stacked solve per shape, and the
baseline's cross-validated stop trains the folds of every stopping
repeat in one solve per (fold training size, feature count), each path
model's folds of one size as one block, filled and scored together.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .classifier import TrainConfig, _train_sets, decision_matrix
from .conformal import _calibrations, _nonconformity, p_value_matrix, prediction_mask
from .consistency import SubsetFamily, jaccard_multi, kuncheva, weighted_consistency
from .data import (
    Dataset, SyntheticSpec, _write_json, generate_synthetic, impute_knn, load_csv, scaled_split,
    write_csv,
)
from .exceptions import ConfigError, require_int, require_real
from .metrics import PointMetricsReport, SetMetricsReport, _point_reports, _set_reports
from .plots import save_plot
from .selection import BetaCriterion, FixedSize, SelectionTrace, _lockstep, trace_to_json

METRIC_COLUMNS = (
    "coverage",
    "inefficiency",
    "certainty",
    "uncertainty",
    "mistrust",
    "accuracy",
    "macro_precision",
    "macro_recall",
    "macro_f1",
)

RESULTS_COLUMNS = (
    ("dataset", "method", "subset_size", "seed")
    + METRIC_COLUMNS
    + tuple(c + "_std" for c in METRIC_COLUMNS)
)

CONSISTENCY_COLUMNS = (
    "method", "subset_size", "i_j", "i_w",
    "kuncheva_mean", "kuncheva_std", "jaccard_mean", "jaccard_std",
)

STOPPING_COLUMNS = (
    "dataset", "method", "n", "mean_size", "std_size",
    "mean_inefficiency", "std_inefficiency", "mean_certainty", "std_certainty",
)

FREQUENCY_COLUMNS = ("dataset", "method", "feature_index", "feature_name", "count")

SELECTORS = ("crfe", "rfe")

_CV_FOLDS = 5  # folds of the baseline's cross-validated stop


@dataclass(frozen=True)
class StoppingParams(BetaCriterion):
    """Automatic-stop benchmark settings: the beta stop rule and its repeats."""

    repeats: int = 50

    def __post_init__(self):
        super().__post_init__()
        require_int("stopping repeats", self.repeats, 1)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a full experiment run depends on.

    Exactly one dataset source must be set: a CSV path with its label
    column, or a synthetic generator spec.
    """

    dataset_csv: str | None = None
    label_column: str | None = None
    synthetic: SyntheticSpec | None = None
    epsilon: float = 0.1
    lam: float = 0.5
    train: TrainConfig = field(default_factory=TrainConfig)
    repeats: int = 20
    master_seed: int = 0
    selectors: tuple[str, ...] = SELECTORS
    sizes: tuple[int, ...] | None = None
    stopping: StoppingParams = field(default_factory=StoppingParams)

    def __post_init__(self):
        has_csv = self.dataset_csv is not None
        if has_csv == (self.synthetic is not None):
            raise ConfigError("set exactly one of dataset_csv and synthetic")
        if has_csv and not isinstance(self.dataset_csv, (str, os.PathLike)):
            raise ConfigError(f"dataset_csv must be a path, got {self.dataset_csv!r}")
        if has_csv and not (isinstance(self.label_column, str) and self.label_column):
            raise ConfigError("a CSV dataset needs label_column")
        require_real("epsilon", self.epsilon)
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError("epsilon must lie in (0, 1)")
        require_real("lambda", self.lam)
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError("lambda must lie in [0, 1]")
        require_int("repeats", self.repeats, 1)
        require_int("master_seed", self.master_seed, 0)
        if not isinstance(self.selectors, (list, tuple)):
            raise ConfigError(f"selectors must be a list, got {self.selectors!r}")
        object.__setattr__(self, "selectors", tuple(self.selectors))
        if not self.selectors or any(s not in SELECTORS for s in self.selectors):
            raise ConfigError(f"selectors must be non-empty, drawn from {SELECTORS}")
        if len(set(self.selectors)) < len(self.selectors):
            raise ConfigError("selectors must be distinct")
        if self.sizes is not None:
            if not isinstance(self.sizes, (list, tuple)):
                raise ConfigError(f"sizes must be a list of integers, got {self.sizes!r}")
            for size in self.sizes:
                require_int("each size", size, 1)
            sizes = tuple(int(s) for s in self.sizes)
            if any(b >= a for a, b in zip(sizes, sizes[1:])) or not sizes:
                raise ConfigError("sizes must be non-empty and strictly decreasing")
            object.__setattr__(self, "sizes", sizes)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from the JSON wire format (unknown keys rejected)."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    plain = ("epsilon", "lambda", "repeats", "master_seed", "selectors", "sizes")
    unknown = set(data) - {"dataset", "train", "stopping", *plain}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "dataset" not in data:
        raise ConfigError("config needs a dataset entry")
    ds = data["dataset"]
    if not isinstance(ds, dict) or set(ds) not in ({"synthetic"}, {"csv"}, {"csv", "label"}):
        raise ConfigError('the dataset entry must be {"synthetic": {...}} or '
                          f'{{"csv": path, "label": column}} (label optional), got {ds!r}')
    kwargs: dict = {}
    if "synthetic" in ds:
        try:
            kwargs["synthetic"] = SyntheticSpec(**ds["synthetic"])
        except TypeError as e:
            raise ConfigError(f"bad dataset entry: {e}") from None
    else:
        kwargs["dataset_csv"] = ds["csv"]
        kwargs["label_column"] = ds.get("label", "label")
    for key in plain:  # checked by ExperimentConfig
        if key in data:
            kwargs["lam" if key == "lambda" else key] = data[key]
    for key, entry in (("train", TrainConfig), ("stopping", StoppingParams)):
        if key in data:
            try:
                kwargs[key] = entry(**data[key])
            except TypeError as e:
                raise ConfigError(f"bad {key} entry: {e}") from None
    return ExperimentConfig(**kwargs)


def read_json_object(path, what: str) -> dict:
    """Load the JSON object in a file; ConfigError if it is missing or not one."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"no such {what} file: {path}") from None
    except (ValueError, RecursionError) as e:  # malformed, not UTF-8 or nested too deep
        raise ConfigError(f"{what} file is not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{what} file must hold a JSON object")
    return data


def config_from_json(path) -> ExperimentConfig:
    return config_from_dict(read_json_object(path, "config"))


def load_dataset(cfg: ExperimentConfig) -> tuple[Dataset, str]:
    """Materialize the configured dataset (imputing any missing cells)."""
    if cfg.synthetic is not None:
        d, _ = generate_synthetic(cfg.synthetic)
        return d, "synthetic"
    d = load_csv(cfg.dataset_csv, label_column=cfg.label_column)
    d = impute_knn(d)
    name = os.path.splitext(os.path.basename(cfg.dataset_csv))[0]
    return d, name


# --------------------------------------------------------------- comparison


@dataclass(frozen=True)
class ResultRow:
    dataset: str
    method: str
    subset_size: int
    seed: int
    sets: SetMetricsReport
    points: PointMetricsReport

    def metric(self, name: str) -> float:
        if hasattr(self.sets, name):
            return getattr(self.sets, name)
        return getattr(self.points, name)


@dataclass(frozen=True, eq=False)
class ResultsTable:
    """Per-seed rows plus everything needed to aggregate and re-emit."""

    dataset: str
    feature_names: tuple[str, ...]
    sizes: tuple[int, ...]
    methods: tuple[str, ...]
    seeds: tuple[int, ...]
    rows: tuple[ResultRow, ...]
    traces: dict

    def aggregates(self) -> list[dict]:
        """One entry per (method, size): exact mean/std of its seed rows."""
        groups: dict = {}
        for r in self.rows:
            groups.setdefault((r.method, r.subset_size), []).append(
                [r.metric(c) for c in METRIC_COLUMNS])
        out = []
        for method in self.methods:
            for size in self.sizes:
                # (metric, seed), each metric's seed values along one contiguous
                # row, so its mean and std have the bits of the 1-D forms
                vals = np.array(groups.get((method, size), []), dtype=float)
                vals = np.ascontiguousarray(vals.reshape(-1, len(METRIC_COLUMNS)).T)
                entry = {"method": method, "subset_size": size, "n": vals.shape[1]}
                for col, mean, std in zip(METRIC_COLUMNS, vals.mean(axis=1).tolist(),
                                          vals.std(axis=1).tolist()):
                    entry[col] = mean
                    entry[col + "_std"] = std
                out.append(entry)
        return out

    def to_csv(self, path) -> list[dict]:
        """Per-seed rows (std cells empty), then one aggregate row per group (returned)."""
        aggs = self.aggregates()
        no_std = [None] * len(METRIC_COLUMNS)
        rows = [
            [r.dataset, r.method, r.subset_size, r.seed,
             *(r.metric(c) for c in METRIC_COLUMNS), *no_std]
            for r in self.rows
        ]
        rows += [
            [self.dataset, a["method"], a["subset_size"], "aggregate",
             *(a[c] for c in METRIC_COLUMNS), *(a[c + "_std"] for c in METRIC_COLUMNS)]
            for a in aggs
        ]
        write_csv(path, RESULTS_COLUMNS, rows)
        return aggs


def _evaluate(models, X_cal, y_cal, X_test, y_test, epsilon, n_classes):
    """(SetMetricsReport, PointMetricsReport) per model of ``models``, all
    scored on one split: bit for bit what calibrate, conformal_predict,
    set_metrics and point_metrics give per model, whose stacked cores it
    calls.

    Each label vector is checked once per core. The decision matrices of
    all models are stacked, and non-conformity and metrics are computed
    over the stack, each model's along its own rows; p-values stay per
    model. No temporary is larger than (models x rows x classes).
    """
    if not models:
        return []
    cols = [list(ms.active_features) for ms in models]
    records = _calibrations(models, [X_cal[:, c] for c in cols], y_cal)
    D = np.stack([decision_matrix(ms, X_test[:, c]) for ms, c in zip(models, cols)])
    lam = np.array([ms.lam for ms in models])[:, None, None]
    P = np.stack([p_value_matrix(rec, A) for rec, A in zip(records, _nonconformity(D, lam))])
    return list(zip(_set_reports(prediction_mask(P, epsilon), y_test),
                    _point_reports(D.argmax(axis=2), y_test, n_classes)))


# -------------------------------------------------------------- consistency


def subsets_by_size(trace: SelectionTrace, n_features: int) -> dict[int, frozenset]:
    """Active subset after each removal, keyed by its size."""
    active = set(range(n_features))
    out = {n_features: frozenset(active)}
    for step in trace.steps:
        if step.removed_feature is not None:
            active.discard(step.removed_feature)
            out[step.remaining_count] = frozenset(active)
    return out


def consistency_report(table: ResultsTable) -> list[dict]:
    """Per-method stability across seeds, plus cross-method agreement.

    Within a method, the subsets selected at one size across all seeds
    form a family scored with the multi-set Jaccard index, the weighted
    index, and mean/std pairwise chance-corrected agreement. When both
    selectors ran, subsets from the same (seed, size) are also compared
    across methods (mean/std of pairwise Jaccard and of the
    chance-corrected index over seeds).
    """
    l = len(table.feature_names)
    per_method = {
        m: {seed: subsets_by_size(table.traces[(m, seed)], l) for seed in table.seeds}
        for m in table.methods
    }
    rows: list[dict] = []
    for method in table.methods:
        for size in table.sizes:
            fam = SubsetFamily(
                subsets=tuple(per_method[method][seed][size] for seed in table.seeds)
            )
            pair_k = [
                kuncheva(a, b, l)
                for i, a in enumerate(fam.subsets)
                for b in fam.subsets[i + 1:]
                if size < l
            ]
            rows.append({
                "method": method,
                "subset_size": size,
                "i_j": jaccard_multi(fam),
                "i_w": weighted_consistency(fam),
                "kuncheva_mean": float(np.mean(pair_k)) if pair_k else math.nan,
                "kuncheva_std": float(np.std(pair_k)) if pair_k else math.nan,
            })
    if set(table.methods) >= {"crfe", "rfe"}:
        for size in table.sizes:
            pairs = [(per_method["crfe"][seed][size], per_method["rfe"][seed][size])
                     for seed in table.seeds]
            jac = [jaccard_multi(SubsetFamily(subsets=pair)) for pair in pairs]
            kun = [kuncheva(a, b, l) for a, b in pairs if size < l]
            rows.append({
                "method": "crfe_vs_rfe",
                "subset_size": size,
                "jaccard_mean": float(np.mean(jac)),
                "jaccard_std": float(np.std(jac)),
                "kuncheva_mean": float(np.mean(kun)) if kun else math.nan,
                "kuncheva_std": float(np.std(kun)) if kun else math.nan,
            })
    return rows


# ---------------------------------------------------------------- stopping


def _cv_accuracies(paths, n_classes, tcfg) -> list[list[float]]:
    """Per (X, y, models) in ``paths``, the cross-validated accuracy of
    X[:, ms.active_features] per ms in models, each ms a model trained on
    those columns of every row of X.

    Each is the mean held-out argmax accuracy over _CV_FOLDS contiguous
    folds, in fold order. A fold that holds out no row, or whose training
    rows miss a class, is skipped; -1.0 when every fold is skipped. A
    path's folds are cut once, into a block per held-out size (two when
    its row count is not a multiple of _CV_FOLDS), and each (model, block)
    is one job of classifier._train_sets. Its fold models are scored
    together, with decision_matrix's arithmetic per fold. A block starts
    from the path's block of the model before, which must hold its
    columns and train in an earlier solve, and otherwise from ms.
    """
    jobs, held, accs = [], [], []  # held: (path, model, first fold, held-out rows) of each job
    order: dict = {}  # (row count, column count) -> the rank in which _train_sets solves it
    for p, (X, y, models) in enumerate(paths):
        every = np.arange(X.shape[0])
        blocks: dict = {}  # held-out size -> (training rows, held-out rows) of its folds that train
        for hold in np.array_split(every, _CV_FOLDS):
            rows = np.delete(every, hold)
            if hold.size and np.bincount(y[rows], minlength=n_classes).all():
                blocks.setdefault(hold.size, []).append((rows, hold))
        blocks = [tuple(map(np.array, zip(*folds))) for folds in blocks.values()]
        firsts = np.cumsum([0] + [len(rows) for rows, _ in blocks]).tolist()
        for k, ms in enumerate(models):
            cols, up = ms.active_features, models[k - 1].active_features if k else ()
            for (rows, hold), first in zip(blocks, firsts):
                rank = order.setdefault((rows.shape[1], len(cols)), len(order))
                chain = k and set(cols) <= set(up) and order[rows.shape[1], len(up)] < rank
                jobs.append((X, y, rows, cols, len(jobs) - len(blocks) if chain else ms))
                held.append((p, k, first, hold))
        accs.append(np.empty((len(models), firsts[-1])))
    for j, (W, b) in _train_sets(jobs, n_classes, tcfg):
        p, k, first, hold = held[j]
        X, y, _ = paths[p]
        # per fold, X_hold @ W.T + b, as decision_matrix scores it
        D = np.matmul(X[:, jobs[j][3]][hold], W.transpose(0, 2, 1)) + b[:, None]
        hits = np.count_nonzero(D.argmax(axis=2) == y[hold], axis=1)
        accs[p][k, first:first + len(hold)] = hits / hold.shape[1]
    return [a.mean(axis=1).tolist() if a.shape[1] else [-1.0] * len(a) for a in accs]


# ----------------------------------------------------------------- repeats


def _run_block(d: Dataset, name: str, sizes, cfg: ExperimentConfig, repeats):
    """Repeat r of the comparison (if compare) and of the stopping run (if
    stop), per (r, compare, stop) in ``repeats``, in that order.

    A repeat depends only on d, cfg and r. Its plan holds each distinct
    (method, policy) once, so a run that the comparison and the stop both
    want runs once. Every elimination runs in one _lockstep, every CV fold
    in one _cv_accuracies, and each split's distinct models are scored in
    one _evaluate. Returns the comparison's ResultRows, its
    {(method, seed): trace} without models, and per stopping run of each
    selector its (method, seed, final active features, SetMetricsReport).
    """
    m = d.n_classes
    reps, groups = [], []
    for r, compare, stop in repeats:
        seed = cfg.master_seed + r
        _, train, cal, test = scaled_split(d, seed)
        compared = [(method, FixedSize(sizes[-1])) for method in cfg.selectors if compare]
        stopped = [(method, cfg.stopping if method == "crfe" else FixedSize(1))
                   for method in cfg.selectors if stop]
        groups.append((*train, *cal, list(dict.fromkeys(compared + stopped))))
        reps.append((seed, train, cal + test, compared, stopped))
    found = iter(_lockstep(groups, m, cfg.train, cfg.lam))
    runs = [dict(zip(plan, found)) for *_, plan in groups]  # per repeat, (method, policy) -> trace
    # the baseline stops at the size of its path with the best CV accuracy;
    # every final subset was trained by a pass of its run: no refit
    accs = iter(_cv_accuracies([(*train, run[key].models)
                                for (_, train, _, _, stopped), run in zip(reps, runs)
                                for key in stopped if key[0] == "rfe"], m, cfg.train))

    rows, traces, stops = [], {}, []
    for (seed, _, held_out, compared, stopped), run in zip(reps, runs):
        picks = []  # (method, size, model) of every size of each comparison path
        for method, policy in compared:
            trace = run[method, policy]
            traces[method, seed] = replace(trace, models=())  # the reports read only the steps
            models_at = {ms.n_features: ms for ms in trace.models}
            picks += [(method, s, models_at[s]) for s in sizes]
        finals = []  # (method, final model) of each stopping run
        for method, policy in stopped:
            models = run[method, policy].models
            final = models[-1]
            if method == "rfe":  # the path's best CV accuracy, the first (larger size) of ties
                acc = next(accs)
                final = models[acc.index(max(acc))]
            finals.append((method, final))
        # a repeat trains one model per active set, so its set names it
        unique = {ms.active_features: ms for *_, ms in picks + finals}
        scores = dict(zip(unique, _evaluate(list(unique.values()), *held_out, cfg.epsilon, m)))
        rows += [ResultRow(name, method, s, seed, *scores[ms.active_features])
                 for method, s, ms in picks]
        stops += [(method, seed, ms.active_features, scores[ms.active_features][0])
                  for method, ms in finals]
    return rows, traces, stops


def _run_repeats(cfg: ExperimentConfig, n_compare: int, n_stop: int):
    """Comparison repeats r < n_compare and stopping repeats r < n_stop.

    Loads the dataset once and runs every repeat in one _run_block.
    Returns the comparison's ResultsTable and the stopping benchmark's
    (summary, frequencies, per_run), or None in place of the latter when
    n_stop is 0.
    """
    d, name = load_dataset(cfg)
    l = d.n_features
    sizes = cfg.sizes if cfg.sizes is not None else tuple(range(l - 1, 0, -1))
    if n_compare and not sizes:
        raise ConfigError(f"a comparison needs at least 2 features, the data has {l}")
    if n_compare and sizes[0] > l:
        raise ConfigError(f"sizes start at {sizes[0]} but the data has {l} features")
    rows, traces, stops = _run_block(d, name, sizes, cfg, [(r, r < n_compare, r < n_stop)
                                                           for r in range(max(n_compare, n_stop))])
    table = ResultsTable(
        dataset=name,
        feature_names=d.feature_names,
        sizes=sizes,
        methods=cfg.selectors,
        seeds=tuple(cfg.master_seed + r for r in range(n_compare)),
        rows=tuple(rows),
        traces=traces,
    )
    if not n_stop:
        return table, None
    per_run = [{"method": method, "seed": seed, "size": len(cols),
                "inefficiency": sm.inefficiency, "certainty": sm.certainty}
               for method, seed, cols, sm in stops]
    summary = []
    for method in cfg.selectors:
        recs = [p for p in per_run if p["method"] == method]
        entry = {"dataset": name, "method": method, "n": len(recs)}
        for col in ("size", "inefficiency", "certainty"):
            vals = np.array([float(p[col]) for p in recs])
            entry["mean_" + col] = float(vals.mean())
            entry["std_" + col] = float(vals.std())
        summary.append(entry)
    frequencies = [{"dataset": name, "method": method, "feature_index": j,
                    "feature_name": d.feature_names[j],
                    "count": sum(j in cols for mth, _, cols, _ in stops if mth == method)}
                   for method in cfg.selectors for j in range(l)]
    return table, (summary, frequencies, per_run)


def run_comparison(cfg: ExperimentConfig) -> ResultsTable:
    """Both selectors over every requested size, one shared split per seed."""
    return _run_repeats(cfg, cfg.repeats, 0)[0]


def run_stopping_benchmark(cfg: ExperimentConfig):
    """Automatic-stop comparison: beta criterion vs cross-validated baseline.

    Per repeat, one shared split. The conformal selector stops by its own
    criterion; the baseline runs its full elimination path and keeps the
    size with the best 5-fold training accuracy (ties to the larger
    size). Both final subsets are scored on the test split at the
    configured epsilon.

    Returns
    -------
    summary : list of dict, one row per method with mean/std of the
        selected size, inefficiency and certainty.
    frequencies : list of dict, per (method, feature) selection counts.
    per_run : list of dict, raw (method, seed, size, metrics) records.
    """
    return _run_repeats(cfg, 0, cfg.stopping.repeats)[1]


# ------------------------------------------------------------------ output


def emit_outputs(
    table: ResultsTable,
    consistency_rows: list[dict],
    stopping_summary: list[dict],
    frequencies: list[dict],
    out_dir,
) -> list[str]:
    """Write the four CSV reports, per-run trace JSONs and metric plots."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def emit(name, writer):
        path = os.path.join(out_dir, name)
        written.append(path)
        return writer(path)

    aggs = emit("results.csv", table.to_csv)
    emit("consistency.csv", lambda p: write_csv(p, CONSISTENCY_COLUMNS, consistency_rows))
    emit("stopping.csv", lambda p: write_csv(p, STOPPING_COLUMNS, stopping_summary))
    emit("frequencies.csv", lambda p: write_csv(p, FREQUENCY_COLUMNS, frequencies))
    for (method, seed), trace in sorted(table.traces.items()):
        emit(f"trace_{method}_{seed}.json",
             lambda p: _write_json(p, trace_to_json(trace, table.feature_names)))
    xs = np.array(table.sizes, dtype=float)
    for method in table.methods:
        rows = {a["subset_size"]: a for a in aggs if a["method"] == method}
        for col in METRIC_COLUMNS:
            mean = np.array([rows[s][col] for s in table.sizes])
            std = np.array([rows[s][col + "_std"] for s in table.sizes])
            path = os.path.join(out_dir, f"plot_{col}_{method}.svg")
            save_plot(
                path, xs, mean, std,
                title=f"{col} vs subset size ({method})",
                x_label="subset size", y_label=col,
            )
            written.append(path)
    return written


def run_all(cfg: ExperimentConfig, out_dir) -> list[str]:
    """Full pipeline behind the bench subcommand."""
    table, (summary, frequencies, _) = _run_repeats(cfg, cfg.repeats, cfg.stopping.repeats)
    return emit_outputs(table, consistency_report(table), summary, frequencies, out_dir)
