"""Checks of the benchmark itself, and the record of one traced run.

    python3 perfbench/selfcheck.py [--seed 0] [--write perfbench/results/seed0.json]

0. ``BENCHMARK.json`` lists exactly the metrics, with their units, that
   the runs print.
1. Counts repeat: per workload, two traced runs with one seed report the
   same value for every count metric (those taken from the first
   operations, whose inputs do not depend on run length).
2. Checks bite: a run whose outputs are corrupted after every operation
   (one p-value of predictions.csv moved by one ulp on select, one
   aggregate of results.csv scaled by 1 + 1e-9 on bench) reports every
   operation failed.
3. With ``--write``, one untraced and one traced run per workload, for
   ``run_seconds`` of BENCHMARK.json each, are written to the given file
   together with the tracing overhead (traced vs untraced ``op_s_p50``).

Exits 1 if check 0, 1 or 2 fails.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import subprocess
import sys

import _env

_env.prepare()  # before numpy: one BLAS thread, crfe from this checkout

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
COUNTS = [m for m, (_unit, how) in tracing.PER_LAYER.items() if how == "first"]


def bench_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of run.py in its own process; returns its result object."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=_env.ROOT)
    return json.loads(p.stdout.strip().splitlines()[-1])


def nudge_csv(path: str, row: int, col: int, factor: float | None = None) -> None:
    """Scale one float cell of a CSV file by ``factor``, or move it up one ulp."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    v = float(rows[row][col])
    rows[row][col] = repr(v * factor if factor else float(np.nextafter(v, np.inf)))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def corrupt(workload: str):
    def after_op(_k, out_dir):
        if workload == "bench":
            # the last row is an aggregate, checked to 1e-12 relative
            nudge_csv(os.path.join(out_dir, "results.csv"), -1, 4, factor=1 + 1e-9)
        else:
            nudge_csv(os.path.join(out_dir, "predictions.csv"), 1, 1)
    return after_op


def check_metric_names() -> bool:
    """BENCHMARK.json names exactly the metrics the runs print."""
    with open(os.path.join(_env.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ok = True
    per_layer = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
    for key, printed in (("end_to_end", run.END_TO_END), ("per_layer", per_layer)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        same = listed == printed
        ok &= same
        print(f"BENCHMARK.json {key} matches the printed metrics: {'yes' if same else 'NO'}")
    return ok


def check_counts_repeat(seed: int) -> bool:
    ok = True
    for w in workloads.WORKLOADS:
        a, b = (bench_run(w, seed, 0, 1)["metrics"] for _ in range(2))
        differ = [m for m in COUNTS if a[m]["value"] != b[m]["value"]]
        ok &= not differ
        print(f"counts repeat on {w}: {'yes' if not differ else 'NO, ' + ', '.join(differ)}")
    return ok


def check_corruption_fails(seed: int) -> bool:
    ok = True
    for w in ("select", "bench"):
        rec = run.run_workload(w, seed, 0, False, after_op=corrupt(w))
        bites = rec["attempted"] > 0 and rec["failed"] == rec["attempted"]
        ok &= bites
        print(f"corrupted outputs on {w}: {rec['failed']} of {rec['attempted']} ops failed"
              f" (error_rate {rec['failed'] / rec['attempted']!r})")
    return ok


def record(seed: int, path: str) -> None:
    with open(os.path.join(_env.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    out = {"seed": seed, "run_seconds": seconds, "manifest": run.manifest(), "workloads": {}}
    for w in workloads.WORKLOADS:
        plain = bench_run(w, seed, seconds, 0)
        traced = bench_run(w, seed, seconds, 1)
        m = traced["metrics"]
        untraced_p50 = plain["metrics"]["op_s_p50"]["value"]
        selfs = sorted(((v["value"], k) for k, v in m.items() if k.endswith(".self_s")),
                       reverse=True)
        out["workloads"][w] = {
            "end_to_end": plain,
            "per_layer": traced,
            "tracing_overhead": m["tracing.op_s_p50"]["value"] / untraced_p50 - 1,
            "largest_self_s": [k for _, k in selfs[:3]],
        }
        print(f"{w}: op_s_p50 {untraced_p50:.4f} s untraced,"
              f" {m['tracing.op_s_p50']['value']:.4f} s traced;"
              f" largest self times {', '.join(k for _, k in selfs[:3])}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def main() -> int:
    p = argparse.ArgumentParser(description="check the benchmark itself")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--write", help="also record one traced and one untraced run per workload here")
    args = p.parse_args()
    ok = check_metric_names()
    ok &= check_counts_repeat(args.seed)
    ok &= check_corruption_fails(args.seed)
    if args.write:
        record(args.seed, args.write)
    print("selfcheck " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
