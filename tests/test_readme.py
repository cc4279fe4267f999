"""The README's library example runs against the current API and prints what
its comments say, and the names it lists as gone are gone."""

import contextlib
import importlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"
MODULES = ("numkernel", "symbols", "almostperiodic", "operators", "szego", "cli")


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


def test_readme_gone_names_are_absent():
    text = " ".join(README.read_text(encoding="utf-8").split())
    match = re.search(r"The wrappers (.*?) are gone\.", text)
    assert match, "README has no 'The wrappers ... are gone.' sentence"
    names = re.findall(r"`([A-Za-z_][\w.]*)`", match.group(1))
    assert "empirical_mean" in names
    modules = [importlib.import_module("szegolab")]
    modules += [importlib.import_module(f"szegolab.{name}") for name in MODULES]
    for name in names:
        owner, _, attr = name.rpartition(".")
        if not owner:
            assert not any(hasattr(m, name) for m in modules), name
            continue
        # a method or property: gone from its class wherever the class is bound;
        # looked up in the class's own MRO, since every class has the dunders
        # of `type` and `object` (hasattr(C, "__call__") always holds)
        classes = [getattr(m, owner) for m in modules if hasattr(m, owner)]
        assert classes, f"no module binds {owner}, named in {name}"
        assert not any(attr in vars(k) for c in classes for k in c.__mro__ if k is not object), name
