"""The benchmark's workloads: their inputs, their operations and the checks
on each operation's outputs.

Every input derives from the workload seed. crfe receives only the files
written here; an operation is one ``crfe.cli.main`` invocation.

Run as a script, this module is the set-up step whose wall time the
benchmark reports as ``setup_s``: a fresh interpreter imports crfe and
writes one workload's inputs.

    python3 perfbench/workloads.py --workload select --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os

import _env

_env.prepare()  # before numpy: one BLAS thread, crfe from this checkout

import numpy as np  # noqa: E402

import crfe  # noqa: E402

WORKLOADS = ("select", "bench", "ingest")

LABEL = "label"
EPSILON = 0.1  # the CLI default the checks recompute with

# select: the acceptance-shaped data the README's command runs on.
SELECT_SPEC = dict(n_samples=350, n_features=35, n_informative=10, n_redundant=1,
                   n_classes=4, class_sep=1.5, flip_y=0.05)

# bench: smaller than select so a run holds several operations; more
# stopping repeats than comparison repeats, as in the default config, so
# that both shared and unshared split seeds occur.
BENCH_SPEC = dict(n_samples=120, n_features=8, n_informative=4, n_redundant=1,
                  n_classes=3, class_sep=1.5, flip_y=0.05)
BENCH_REPEATS = 2
BENCH_STOP_REPEATS = 3
BENCH_POOL = 64  # configs written at set-up; later ones are written between operations

# ingest: a tall file whose missing cells leave most rows to impute.
INGEST_SPEC = dict(n_samples=2000, n_features=60, n_informative=8, n_redundant=2,
                   n_classes=3, class_sep=1.5, flip_y=0.05)
INGEST_MISSING_COLUMNS = 8
INGEST_MISSING_FRACTION = 0.10
INGEST_KEEP = INGEST_SPEC["n_features"] - 2

SELECT_REPORTS = ("trace.csv", "predictions.csv")
BENCH_REPORTS = ("results.csv", "consistency.csv", "stopping.csv", "frequencies.csv")


SEED_STRIDE = 100_000  # split seeds per workload seed
WARMUP = -1  # the operation index of the untimed warm-up


def split_seed(workload: str, seed: int, k: int) -> int:
    """First split seed of operation k.

    Operations take consecutive seeds; a bench operation uses as many
    split seeds as it has stopping repeats. The warm-up (k = WARMUP) takes
    the last seeds of the workload seed's block, which no operation
    reaches, so no timed operation repeats its inputs. Workload seeds keep
    their split seeds apart.
    """
    width = BENCH_STOP_REPEATS if workload == "bench" else 1
    last = SEED_STRIDE - width
    if k == WARMUP:
        return seed * SEED_STRIDE + last
    if k < 0 or (k + 1) * width > last:
        raise ValueError(f"operation {k} is outside the split seeds of workload seed {seed}")
    return seed * SEED_STRIDE + k * width


# ------------------------------------------------------------------ inputs


def make_inputs(workload: str, seed: int, in_dir: str) -> None:
    """Write the workload's input files for ``seed`` into ``in_dir``."""
    os.makedirs(in_dir, exist_ok=True)
    if workload == "select":
        d, _ = crfe.generate_synthetic(crfe.SyntheticSpec(seed=seed, **SELECT_SPEC))
        crfe.save_csv(d, os.path.join(in_dir, "data.csv"), label_column=LABEL)
    elif workload == "ingest":
        d, _ = crfe.generate_synthetic(crfe.SyntheticSpec(seed=seed, **INGEST_SPEC))
        rng = np.random.default_rng([seed, 1])
        mask = np.zeros(d.X.shape, dtype=bool)
        n_missing = round(INGEST_MISSING_FRACTION * d.n_samples)
        for j in rng.choice(d.n_features, INGEST_MISSING_COLUMNS, replace=False):
            mask[rng.choice(d.n_samples, n_missing, replace=False), j] = True
        holed = crfe.Dataset(X=d.X, y=d.y, feature_names=d.feature_names,
                             class_names=d.class_names, missing_mask=mask)
        crfe.save_csv(holed, os.path.join(in_dir, "data.csv"), label_column=LABEL)
    elif workload == "bench":
        for k in (WARMUP, *range(BENCH_POOL)):
            write_bench_config(seed, k, in_dir)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def _bench_config_path(k: int, in_dir: str) -> str:
    return os.path.join(in_dir, "config_warmup.json" if k == WARMUP else f"config_{k}.json")


def write_bench_config(seed: int, k: int, in_dir: str) -> None:
    """Write the config of bench operation k."""
    cfg = {
        "dataset": {"synthetic": dict(BENCH_SPEC, seed=seed)},
        "repeats": BENCH_REPEATS,
        "master_seed": split_seed("bench", seed, k),
        "stopping": {"repeats": BENCH_STOP_REPEATS},
    }
    with open(_bench_config_path(k, in_dir), "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2)
        fh.write("\n")


def ensure_op_inputs(workload: str, seed: int, k: int, in_dir: str) -> None:
    """Write operation k's inputs if set-up did not (bench beyond BENCH_POOL)."""
    if workload == "bench" and not os.path.isfile(_bench_config_path(k, in_dir)):
        write_bench_config(seed, k, in_dir)


def op_argv(workload: str, seed: int, k: int, in_dir: str, out_dir: str) -> list[str]:
    """Command line of operation k."""
    if workload == "bench":
        return ["bench", "--config", _bench_config_path(k, in_dir), "--out", out_dir]
    stop = "beta" if workload == "select" else f"fixed:{INGEST_KEEP}"
    return ["select", "--data", os.path.join(in_dir, "data.csv"), "--label", LABEL,
            "--method", "crfe", "--stop", stop, "--seed", str(split_seed(workload, seed, k)),
            "--out", out_dir]


def report_digests(workload: str, out_dir: str) -> dict:
    """SHA-256 of each report file an operation wrote."""
    names = BENCH_REPORTS if workload == "bench" else SELECT_REPORTS
    out = {}
    for name in names:
        path = os.path.join(out_dir, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


# ------------------------------------------------------------------ checks


class Checker:
    """Checks one operation's outputs; returns a list of problems (empty = pass).

    The data file is loaded and imputed once per run and reused for every
    operation, so the checks stay cheap next to the operations.
    """

    def __init__(self, workload: str, seed: int, in_dir: str):
        self.workload = workload
        self.seed = seed
        self.in_dir = in_dir
        self._data = None

    def check(self, k: int, out_dir: str) -> list[str]:
        try:
            if self.workload == "bench":
                return self._check_bench(k, out_dir)
            return self._check_select(k, out_dir)
        except (OSError, ValueError, KeyError, IndexError, crfe.CrfeError) as e:
            return [f"{type(e).__name__}: {e}"]

    def _dataset(self):
        if self._data is None:
            d = crfe.load_csv(os.path.join(self.in_dir, "data.csv"), label_column=LABEL)
            self._data = crfe.impute_knn(d) if d.has_missing() else d
        return self._data

    def _check_select(self, k: int, out_dir: str) -> list[str]:
        """Recompute calibration and prediction from model.json on the same split."""
        d = self._dataset()
        sp = crfe.split_with_all_classes(d, split_seed(self.workload, self.seed, k))
        ds = crfe.apply_scaler(crfe.fit_scaler(d, sp.train_idx), d)
        ms = crfe.load_model(os.path.join(out_dir, "model.json"))
        cols = list(ms.active_features)
        rec = crfe.calibrate(ms, ds.X[sp.calib_idx][:, cols], ds.y[sp.calib_idx])
        P, mask = crfe.conformal_predict(ms, rec, ds.X[sp.test_idx][:, cols], EPSILON)

        problems = []
        with open(os.path.join(out_dir, "predictions.csv"), newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        header = ["sample_id"] + [f"p_class_{c}" for c in range(d.n_classes)] + ["set"]
        if not rows or rows[0] != header:
            problems.append("predictions.csv header differs")
        body = rows[1:]
        if len(body) != len(sp.test_idx):
            problems.append(f"predictions.csv has {len(body)} rows, expected {len(sp.test_idx)}")
        for i, row in enumerate(body[:len(sp.test_idx)]):
            # repr is the shortest text that round-trips, so equal text
            # means bit-identical doubles
            want = [str(sp.test_idx[i])] + [repr(float(v)) for v in P[i]]
            want.append("|".join(d.class_names[c] for c in np.flatnonzero(mask[i])))
            if row != want:
                problems.append(f"predictions.csv row {i + 1} differs from the recomputation")
                break

        with open(os.path.join(out_dir, "trace.json"), encoding="utf-8") as fh:
            final = json.load(fh)["final_subset"]
        if final != [d.feature_names[j] for j in cols]:
            problems.append("trace.json final_subset differs from model.json active_features")
        if not os.path.isfile(os.path.join(out_dir, "trace.csv")):
            problems.append("trace.csv missing")
        return problems

    def _check_bench(self, k: int, out_dir: str) -> list[str]:
        """Recompute every aggregate row of results.csv from its seed rows."""
        problems = []
        with open(os.path.join(out_dir, "results.csv"), newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        first_metric = header.index("seed") + 1
        metrics = [c for c in header[first_metric:] if not c.endswith("_std")]
        groups: dict = {}
        aggregates = []
        seeds = set()
        for row in body:
            key = (row[1], int(row[2]))
            if row[3] == "aggregate":
                aggregates.append((key, row))
            else:
                seeds.add(int(row[3]))
                cells = row[first_metric:first_metric + len(metrics)]
                groups.setdefault(key, []).append([float(v) for v in cells])
        master = split_seed("bench", self.seed, k)
        if seeds != set(range(master, master + BENCH_REPEATS)):
            problems.append(f"results.csv seeds {sorted(seeds)} differ from the config")
        if sorted(key for key, _ in aggregates) != sorted(groups):
            problems.append("results.csv aggregate rows do not match its seed groups")
        for key, row in aggregates:
            if key not in groups:
                continue  # reported above
            vals = np.array(groups[key])
            got = [float(v) for v in row[first_metric:]]
            want = list(vals.mean(axis=0)) + list(vals.std(axis=0))
            if len(got) != len(want) or not all(
                abs(g - w) <= 1e-12 * max(1.0, abs(w)) for g, w in zip(got, want)
            ):
                problems.append(f"results.csv aggregate {key} does not recompute")
                break

        for name in BENCH_REPORTS[1:]:
            path = os.path.join(out_dir, name)
            if not os.path.isfile(path) or os.path.getsize(path) == 0:
                problems.append(f"{name} missing or empty")
        files = os.listdir(out_dir)
        n_plots = sum(f.startswith("plot_") and f.endswith(".svg") for f in files)
        n_traces = sum(f.startswith("trace_") and f.endswith(".json") for f in files)
        if n_plots != 2 * len(metrics) or n_traces != 2 * BENCH_REPEATS:
            problems.append(f"{n_plots} plots and {n_traces} trace files written")
        return problems


def main() -> int:
    p = argparse.ArgumentParser(description="write one workload's inputs")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    make_inputs(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
