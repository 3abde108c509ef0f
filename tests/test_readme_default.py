"""tools/readme_default.py measures a bench run and fingerprints its reports."""

import importlib.util
from pathlib import Path

from crfe.harness import config_from_dict
from test_digests import BENCH_CFG

PATH = Path(__file__).resolve().parent.parent / "tools" / "readme_default.py"
spec = importlib.util.spec_from_file_location("readme_default", PATH)
readme_default = importlib.util.module_from_spec(spec)
spec.loader.exec_module(readme_default)

# every report of BENCH_CFG, concatenated in sorted path order
BENCH_SHA256 = "c82f6d28b445fa64b3fc19d208a1492a2221af46641c5102a672a442dc7b98e3"


def test_measure_on_two_repeats():
    cpu, rss, sha, layout = readme_default.measure(config_from_dict(BENCH_CFG))
    assert cpu > 0.0 and rss > 0
    assert sha == BENCH_SHA256
    # 16 solves, as test_harness counts them; 2 stopping repeats x 8 path
    # models x one block of 5 folds each, all but each path's first chained
    assert layout == {"solves": 16, "sets": 104, "cv_jobs": 16, "cv_chained": 14}
