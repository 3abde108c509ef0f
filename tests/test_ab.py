"""tools/ab.py alternates two crfe checkouts in one process."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_two_bench_operations_with_this_checkout_on_both_sides():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), "--a", str(ROOT),
                          "--b", str(ROOT), "--workload", "bench", "--ops", "2"],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    faster = [int(re.search(r"faster in (\d+)/2$", line).group(1)) for line in lines[:2]]
    assert [line[:2] for line in lines[:2]] == ["a ", "b "] and sum(faster) <= 2
    assert float(re.fullmatch(r"ratio b/a (\S+)", lines[2]).group(1)) > 0
    assert lines[3] == "same reports 2/2"
