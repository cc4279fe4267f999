"""The README's library example runs against the current API and prints what
its comments say."""

import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"## Library example\n\n```python\n(.*?)```", text, re.S)
    assert match, "README has no python block under '## Library example'"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(match.group(1), str(README), "exec"), {})
    ratio, section, mean = out.getvalue().splitlines()
    assert abs(complex(ratio) - (2 + math.sqrt(3)) / 2) <= 1e-12
    assert section == "[[2.0, 0.5, 0.0], [0.5, 2.0, 0.5], [0.0, 0.5, 2.0]]"
    assert abs(complex(mean) - 2.5) <= 0.01
