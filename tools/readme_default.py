"""CPU time, peak memory and report fingerprint of the README-default bench.

    python3 tools/readme_default.py
    PYTHONPATH=/path/to/other/src python3 tools/readme_default.py

Runs ``run_all`` with the README's default config (20 comparison
repeats, 50 stopping repeats, master_seed 0) on the synthetic data of
the statistical acceptance tests at seed 3, in a temporary directory.
It prints the CPU seconds of the run, the process's peak resident set
(``ru_maxrss``) and the SHA-256 of the written files' bytes concatenated
in sorted path order: two checkouts that print the same SHA-256 wrote
the same reports. It runs the crfe package that comes first on the
import path, this checkout's src/ when PYTHONPATH names none.
"""

from __future__ import annotations

import hashlib
import resource
import sys
import tempfile
import time
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from crfe.data import SyntheticSpec  # noqa: E402
from crfe.harness import ExperimentConfig, run_all  # noqa: E402

README_DEFAULT = ExperimentConfig(synthetic=SyntheticSpec(
    n_samples=350, n_features=35, n_informative=10, n_redundant=1,
    n_classes=4, class_sep=1.5, flip_y=0.05, seed=3))


def measure(cfg: ExperimentConfig) -> tuple[float, int, str]:
    """(CPU seconds, ru_maxrss in kB, SHA-256 of the reports) of run_all(cfg)."""
    with tempfile.TemporaryDirectory() as out:
        start = time.process_time()
        written = run_all(cfg, out)
        cpu = time.process_time() - start
        digest = hashlib.sha256()
        for path in sorted(written):
            digest.update(Path(path).read_bytes())
    return cpu, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, digest.hexdigest()


def main() -> int:
    cpu, rss, sha = measure(README_DEFAULT)
    print(f"cpu_s      {cpu:.2f}")
    print(f"ru_maxrss  {rss} kB ({rss / 1024:.1f} MiB)")
    print(f"sha256     {sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
