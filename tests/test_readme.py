"""The README's quick-start example runs as written."""

import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs_without_warnings():
    section = README.read_text(encoding="utf-8").split("\n## Quick start\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(code, str(README), "exec"), {})
