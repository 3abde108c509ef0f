"""CPU time, peak memory and report fingerprint of the README-default bench.

    python3 tools/readme_default.py
    PYTHONPATH=/path/to/other/src python3 tools/readme_default.py

Runs ``run_all`` with the README's default config (20 comparison
repeats, 50 stopping repeats, master_seed 0) on the synthetic data of
the statistical acceptance tests at seed 3, in a temporary directory.
It prints the CPU seconds of the run, the process's peak resident set
(``ru_maxrss``), the SHA-256 of the written files' bytes concatenated
in sorted path order (two checkouts that print the same SHA-256 wrote
the same reports) and the solve layout: the stacked solves of
``classifier._train_stacked`` and the training sets they hold, and the
jobs the classifier's cross-validated stop hands ``_train_sets``, and
how many of those start from another job. It runs the crfe package that
comes first on the import path, this checkout's src/ when PYTHONPATH
names none.
"""

from __future__ import annotations

import hashlib
import resource
import sys
import tempfile
import time
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from crfe import classifier  # noqa: E402
from crfe.data import SyntheticSpec  # noqa: E402
from crfe.harness import ExperimentConfig, run_all  # noqa: E402

README_DEFAULT = ExperimentConfig(synthetic=SyntheticSpec(
    n_samples=350, n_features=35, n_informative=10, n_redundant=1,
    n_classes=4, class_sep=1.5, flip_y=0.05, seed=3))


def measure(cfg: ExperimentConfig) -> tuple[float, int, str, dict]:
    """(CPU seconds, ru_maxrss in kB, SHA-256 of the reports, solve layout)
    of run_all(cfg)."""
    layout = dict.fromkeys(("solves", "sets", "cv_jobs", "cv_chained"), 0)
    train_stacked, train_sets = classifier._train_stacked, classifier._train_sets

    def counting_stacked(ZX, *args):
        layout["solves"] += 1
        layout["sets"] += ZX.shape[0]
        return train_stacked(ZX, *args)

    def counting_sets(jobs, *args):  # the classifier's own calls: its CV stop
        layout["cv_jobs"] += len(jobs)
        layout["cv_chained"] += sum(isinstance(job[-1], int) for job in jobs)
        return train_sets(jobs, *args)

    classifier._train_stacked, classifier._train_sets = counting_stacked, counting_sets
    try:
        with tempfile.TemporaryDirectory() as out:
            start = time.process_time()
            written = run_all(cfg, out)
            cpu = time.process_time() - start
            digest = hashlib.sha256()
            for path in sorted(written):
                digest.update(Path(path).read_bytes())
    finally:
        classifier._train_stacked, classifier._train_sets = train_stacked, train_sets
    return cpu, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, digest.hexdigest(), layout


def main() -> int:
    cpu, rss, sha, layout = measure(README_DEFAULT)
    print(f"cpu_s      {cpu:.2f}")
    print(f"ru_maxrss  {rss} kB ({rss / 1024:.1f} MiB)")
    print(f"sha256     {sha}")
    print(f"solves     {layout['solves']} stacked solves of {layout['sets']} sets")
    print(f"cv_jobs    {layout['cv_chained']} of {layout['cv_jobs']} CV jobs chained")
    return 0


if __name__ == "__main__":
    sys.exit(main())
