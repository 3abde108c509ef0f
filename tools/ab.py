"""CPU per operation of two checkouts' crfe, alternated in one process.

    python3 tools/ab.py --a /path/to/parent --b . --workload bench --ops 150

Each checkout's ``src/crfe`` is imported as a package of its own
(``crfe_a`` and ``crfe_b``), so both module trees live in this process.
The inputs of a perfbench workload (``bench``, ``ingest`` or ``select``)
are written once, by this checkout's ``perfbench/workloads.py``, for
``--seed``. After one untimed warm-up operation per side, operation k
runs on both sides back to back, as one ``cli.main`` call each, timed in
process CPU seconds; even operations run ``a`` first and odd ones ``b``
first. It prints each side's median CPU seconds per operation, the ratio
b / a of the medians, how many operations each side ran faster, and on
how many both sides wrote the same report bytes. Timing within one
process, alternated operation by operation, resolves differences of a
few percent that separate timed runs on a drifting host do not.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402  (pins BLAS threads before numpy is imported)

SIDES = ("a", "b")


def load_cli(checkout, name: str):
    """The ``cli`` module of ``<checkout>/src/crfe``, imported as package ``name``."""
    package = Path(checkout).resolve() / "src" / "crfe"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"ab: no crfe sources under {package}")
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    return importlib.import_module(f"{name}.cli")


def compare(a, b, workload: str, ops: int, seed: int = 0) -> dict:
    """CPU seconds of each side's operations and the count of equal reports."""
    clis = {side: load_cli(path, f"crfe_{side}") for side, path in zip(SIDES, (a, b))}
    cpu = {side: [] for side in SIDES}
    same = 0
    with tempfile.TemporaryDirectory() as tmp:
        in_dir = os.path.join(tmp, "inputs")
        workloads.make_inputs(workload, seed, in_dir)

        def run(side, k) -> dict:
            out = os.path.join(tmp, side)
            shutil.rmtree(out, ignore_errors=True)
            argv = workloads.op_argv(workload, seed, k, in_dir, out)
            gc.collect()
            start = time.process_time()
            rc = clis[side].main(argv)
            if k != workloads.WARMUP:
                cpu[side].append(time.process_time() - start)
            if rc != 0:
                raise SystemExit(f"ab: side {side} exited {rc} on operation {k}")
            return workloads.report_digests(workload, out)

        for side in SIDES:
            run(side, workloads.WARMUP)
        for k in range(ops):
            workloads.ensure_op_inputs(workload, seed, k, in_dir)
            digests = {side: run(side, k) for side in (SIDES if k % 2 == 0 else SIDES[::-1])}
            same += digests["a"] == digests["b"]
    med = {side: statistics.median(cpu[side]) for side in SIDES}
    return {
        "ops": ops,
        "cpu_s": cpu,
        "median_cpu_s": med,
        "ratio": med["b"] / med["a"],
        "faster": {side: sum(x < y for x, y in zip(cpu[side], cpu[other]))
                   for side, other in zip(SIDES, SIDES[::-1])},
        "same_reports": same,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--a", required=True, help="checkout whose src/crfe is side a")
    p.add_argument("--b", required=True, help="checkout whose src/crfe is side b")
    p.add_argument("--workload", default="bench", choices=workloads.WORKLOADS)
    p.add_argument("--ops", type=int, default=150, help="operations per side")
    p.add_argument("--seed", type=int, default=0, help="workload seed")
    args = p.parse_args(argv)
    if args.ops < 1:
        p.error("--ops must be at least 1")
    r = compare(args.a, args.b, args.workload, args.ops, args.seed)
    for side in SIDES:
        print(f"{side}  median cpu {r['median_cpu_s'][side] * 1e3:.3f} ms/op"
              f"  faster in {r['faster'][side]}/{r['ops']}")
    print(f"ratio b/a {r['ratio']:.4f}")
    print(f"same reports {r['same_reports']}/{r['ops']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
