"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload bench --seed 0 --seconds 55 --trace 0

Set-up writes the workload's inputs from the seed, in fresh interpreters
that are timed (``setup_s``). Then operations run back to back (a closed
loop with one client) until ``--seconds`` have passed; each is one
``crfe.cli.main`` call whose outputs are checked before the next starts.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` wraps crfe's
public functions in spans and reports the per-layer metrics instead.

Lines starting with ``#`` are for people; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time

import _env

_env.prepare()  # before numpy: one BLAS thread, crfe from this checkout

import numpy as np  # noqa: E402

import crfe  # noqa: E402
import crfe.cli  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 11
MIN_OPS = tracing.COUNT_OPS
SETUP_TIMEOUT_S = 60
WORK_DIR = os.path.join(_env.ROOT, ".bench_work")

# end-to-end metrics: name -> unit
END_TO_END = {
    "op_s_p50": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}


def manifest() -> dict:
    """The environment a result was measured in."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "crfe": crfe.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in _env.BLAS_THREAD_VARS},
        "platform": platform.platform(),
    }


def time_setup(workload: str, seed: int, in_dir: str) -> float:
    """Wall time of a fresh interpreter that imports crfe and writes the inputs."""
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "workloads.py")
    cmd = [sys.executable, script, "--workload", workload, "--seed", str(seed), "--out", in_dir]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=_env.ROOT) as proc:
        # Popen.wait(timeout) polls in steps of up to 50 ms, too coarse
        # for a set-up of a few hundred ms; a pidfd wakes on exit
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited = select.select([pidfd], [], [], SETUP_TIMEOUT_S)[0]
            t1 = time.perf_counter()
        finally:
            os.close(pidfd)
        if not exited:
            proc.kill()
        if proc.wait() != 0:
            raise RuntimeError(f"set-up failed: {' '.join(cmd)}")
    return t1 - t0


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 after_op=None) -> dict:
    """Set up, run operations for ``seconds``, check them; return the record.

    The first set-up writes the inputs the operations read. The other
    SETUP_SAMPLES - 1 set-ups write the same inputs into a directory that
    is then removed; they run between operations, one every
    ``seconds / SETUP_SAMPLES``, so that ``setup_s`` samples the whole run
    rather than one moment of it. Their time is not in any operation's
    time, but counts towards ``seconds``.

    ``after_op(k, out_dir)``, when given, runs between an operation and its
    check (the self-check uses it to corrupt outputs).
    """
    run_dir = os.path.join(WORK_DIR, f"{workload}-s{seed}-t{int(trace)}-p{os.getpid()}")
    in_dir, out_dir = os.path.join(run_dir, "inputs"), os.path.join(run_dir, "out")
    again_dir = os.path.join(run_dir, "setup-again")
    shutil.rmtree(run_dir, ignore_errors=True)

    def setup_again():
        setup_times.append(time_setup(workload, seed, again_dir))
        shutil.rmtree(again_dir)

    try:
        setup_times = [time_setup(workload, seed, in_dir)]
        checker = workloads.Checker(workload, seed, in_dir)
        tracer = tracing.Tracer() if trace else None
        if tracer is not None:
            tracer.install()
        op_times, per_op, digests, problems = [], [], {}, []
        failed = 0
        # an untimed first operation on split seeds no timed operation
        # uses, so that lazy set-up in the process (imports, allocator
        # growth) is not charged to operation 0
        try:
            crfe.cli.main(workloads.op_argv(workload, seed, workloads.WARMUP, in_dir,
                                            os.path.join(run_dir, "warmup")))
        except Exception:
            pass
        t_start = time.perf_counter()
        k = 0
        try:
            while k < MIN_OPS or time.perf_counter() - t_start < seconds:
                if (len(setup_times) < SETUP_SAMPLES and time.perf_counter() - t_start
                        >= len(setup_times) * seconds / SETUP_SAMPLES):
                    setup_again()
                shutil.rmtree(out_dir, ignore_errors=True)
                workloads.ensure_op_inputs(workload, seed, k, in_dir)
                argv = workloads.op_argv(workload, seed, k, in_dir, out_dir)
                gc.collect()
                if tracer is not None:
                    tracer.begin_op()
                t0 = time.perf_counter()
                try:
                    rc = crfe.cli.main(argv)
                    error = None if rc == 0 else f"exit code {rc}"
                except Exception as e:  # an op that raises is a failed op
                    error = f"raised {type(e).__name__}: {e}"
                dt = time.perf_counter() - t0
                if tracer is not None:
                    per_op.append(tracer.end_op(dt))
                op_times.append(dt)
                if after_op is not None:
                    after_op(k, out_dir)
                errors = [error] if error else checker.check(k, out_dir)
                if errors:
                    failed += 1
                    problems.append({"op": k, "errors": errors})
                digests[str(workloads.split_seed(workload, seed, k))] = \
                    workloads.report_digests(workload, out_dir)
                k += 1
        finally:
            if tracer is not None:
                tracer.uninstall()
        while len(setup_times) < SETUP_SAMPLES:  # runs shorter than the schedule
            setup_again()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = len(op_times)
    record = {
        "manifest": dict(manifest(), workload=workload, seed=seed, trace=trace),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "op_s": op_times,
        "setup_s": setup_times,
        "digests": digests,
    }
    if tracer is not None:
        record["metrics"] = tracing.summarize(per_op)
        record["per_op"] = per_op
        record["spans"] = tracer.spans
    else:
        ok = attempted - failed
        values = {
            "op_s_p50": statistics.median(op_times),
            "ops_per_s": ok / sum(op_times),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_rate": ok / attempted,
        }
        record["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit in END_TO_END.items()}
    return record


def report(record: dict) -> dict:
    """Print the human-readable lines and return the result object."""
    print("# manifest " + json.dumps(record["manifest"], sort_keys=True))
    print("# digests " + json.dumps(record["digests"], sort_keys=True))
    for p in record["problems"]:
        print(f"# FAILED op {p['op']}: {'; '.join(p['errors'])}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"# ops {attempted} attempted, {failed} failed, error_rate {failed / attempted!r}")
    for name, m in record["metrics"].items():
        extra = f" (n={attempted} ops)" if name.endswith("op_s_p50") else ""
        print(f"# {name} {m['value']!r} {m['unit']}{extra}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }


def write_record(record: dict) -> str:
    """Keep the run's full record (spans included) under .bench_work/runs/."""
    m = record["manifest"]
    runs = os.path.join(WORK_DIR, "runs")
    os.makedirs(runs, exist_ok=True)
    path = os.path.join(runs, f"{m['workload']}-s{m['seed']}-t{int(m['trace'])}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, separators=(",", ":"))
    return path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("# record " + write_record(record))
    print(json.dumps(report(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
