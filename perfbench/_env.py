"""Process set-up shared by the benchmark's entry scripts.

``prepare()`` must run before numpy is imported: it pins every BLAS
library to one thread and puts the checkout's ``src`` first on the import
path, so the benchmark measures the crfe sources next to it and never an
installed copy.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
BLAS_THREADS = "1"


def prepare() -> None:
    """Pin BLAS threads and make ``src/crfe`` importable, or exit with 2."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    if not os.path.isfile(os.path.join(SRC, "crfe", "__init__.py")):
        sys.stderr.write(f"perfbench: no crfe sources under {SRC}\n")
        raise SystemExit(2)
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)

