"""Hash the CLI artifacts of the benchmark configs of one checkout, or name
what moved between two.

Usage: python tools/artifact_hashes.py [--keep DIR] <repo-root> > hashes.txt
       python tools/artifact_hashes.py --compare <old-root> <new-root>

Generates the configs of `szegobench/workloads.py` from <repo-root>
(`small-configs` seeds 1-5, `det-sweep` seed 1, tiny `det-sweep` seed 2 and
tiny `spectral-sweep` seed 1) and adds the golden configs of
`tests/golden/configs.json`, read from the checkout this tool sits in, so
that ``--compare`` runs the same golden configs through both sides.  It
runs each through `szegolab.cli.main(["run", ...])` of <repo-root>/src in
this process, and prints one line per config:
its name, the exit code, the sha256 of the CSV followed by the JSON, and
stderr.  Run it on two checkouts and diff the outputs: identical lines mean
byte-identical artifacts, exit codes and messages.  Nothing in <repo-root>
is modified; artifacts go to a temporary directory, or are kept under DIR
as <name>.csv and <name>.json with ``--keep``.

``--compare`` runs both checkouts in subprocesses with ``--keep`` and prints,
for each config whose line differs, the exit codes and stderr that differ,
and every CSV column and JSON key (as a path such as ``clusters[0].radius``)
whose values moved, with the largest relative change |new - old| / |old|
among them (``inf`` from an old 0, ``text`` for a change that is not
numeric).  A CSV column pair X_re, X_im and a JSON list of two floats are
one complex value X, so a change is relative to its modulus.  A last line
per column or key gives its largest change over all configs.  It exits 0
when no config differs and 1 otherwise, so a script can gate on it.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIG_SETS = (
    *(("small-configs", seed, False) for seed in range(1, 6)),
    ("det-sweep", 1, False),
    ("det-sweep", 2, True),
    ("spectral-sweep", 1, True),
)
GOLDEN_CONFIGS = Path(__file__).resolve().parent.parent / "tests" / "golden" / "configs.json"


def _configs(workloads):
    """(name, config) of every benchmark config set, then of every golden config."""
    for workload, seed, tiny in CONFIG_SETS:
        for i, case in enumerate(workloads.generate(workload, seed, tiny)):
            yield f"{workload}{'-tiny' if tiny else ''}/{seed}/{i}-{case.name}", case.config
    for name, config in json.loads(GOLDEN_CONFIGS.read_text(encoding="utf-8")).items():
        yield f"golden/{name}", config


def hash_artifacts(root: Path, keep: Path | None) -> None:
    sys.dont_write_bytecode = True  # leave <repo-root> as it was
    sys.path[:0] = [str(root / "src"), str(root / "szegobench")]
    from szegolab import cli
    import workloads

    if Path(cli.__file__).resolve().parent != root / "src" / "szegolab":
        sys.exit(f"imported szegolab from {cli.__file__}, not {root / 'src'}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, case_config in _configs(workloads):
            prefix = Path(tmp) / "run"
            config = Path(tmp) / "config.json"
            config.write_text(json.dumps(dict(case_config, output=str(prefix))), encoding="utf-8")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = cli.main(["run", str(config)])
            digest = hashlib.sha256()
            for ext in (".csv", ".json"):
                path = prefix.with_name(prefix.name + ext)
                if path.exists():
                    digest.update(path.read_bytes())
                    if keep is not None:
                        target = keep / (name + ext)
                        target.parent.mkdir(parents=True, exist_ok=True)
                        path.replace(target)
                    else:
                        path.unlink()
            stderr = err.getvalue().replace(tmp, "<tmp>").strip().replace("\n", " | ")
            print(f"{name} rc={rc} {digest.hexdigest()} {stderr}")


def _change(old: str, new: str) -> float | str:
    """The relative change of a value given as text; 'text' if not numeric."""
    if old == new:
        return 0.0
    try:
        a, b = (complex(*map(float, v.split(","))) for v in (old, new))
    except (ValueError, TypeError):
        return "text"
    if cmath.isnan(a) or cmath.isnan(b):
        return "text"
    if a == b:  # the same number spelled differently
        return 0.0
    return abs(b - a) / abs(a) if a != 0 else cmath.inf


def _csv_values(text: str) -> dict[str, list[str]]:
    """Column name -> its values; a row count change shows as the 'rows' column."""
    lines = text.splitlines()
    header = lines[0].split(",") if lines else []
    columns: dict[str, list[str]] = {name: [] for name in header}
    for line in lines[1:]:
        for name, value in zip(header, line.split(",")):
            columns[name].append(value)
    for name in header:
        if name.endswith("_re") and name[:-3] + "_im" in columns:
            real, imag = columns.pop(name), columns.pop(name[:-3] + "_im")
            columns[name[:-3]] = [f"{x},{y}" for x, y in zip(real, imag)]
    columns["rows"] = [str(len(lines) - 1)]
    return columns


def _json_values(obj, path="") -> dict[str, list[str]]:
    """Key path -> [its value as text], for every leaf of a JSON document."""
    if isinstance(obj, dict):
        items = ((f"{path}.{k}" if path else str(k), v) for k, v in obj.items())
    elif isinstance(obj, list) and len(obj) == 2 and all(type(v) is float for v in obj):
        return {path: ["%r,%r" % tuple(obj)]}
    elif isinstance(obj, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(obj))
    else:
        return {path: [json.dumps(obj)]}
    out: dict[str, list[str]] = {}
    for key, value in items:
        out.update(_json_values(value, key))
    return out


def _moved(old: dict[str, list[str]], new: dict[str, list[str]]) -> dict[str, float | str]:
    """Each field whose values differ, with its largest relative change."""
    moved: dict[str, float | str] = {}
    for field in sorted(old.keys() | new.keys()):
        a, b = old.get(field), new.get(field)
        if a is None or b is None:
            moved[field] = "added" if a is None else "removed"
            continue
        changes = [_change(x, y) for x, y in zip(a, b)]
        if len(a) != len(b) or "text" in changes:
            moved[field] = "text"
        elif max(changes, default=0.0) > 0.0:
            moved[field] = max(changes)
    return moved


def _larger(a: float | str, b: float | str) -> float | str:
    """The larger of two changes; a change that is not numeric outranks any number."""
    if isinstance(a, str) or isinstance(b, str):
        return a if isinstance(a, str) else b
    return max(a, b)


def _read(path: Path) -> str | None:
    return path.read_text(encoding="ascii") if path.exists() else None


def _format(change: float | str) -> str:
    return change if isinstance(change, str) else f"{change:.3g}"


def compare(old_root: Path, new_root: Path) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        lines = {}
        for side, root in (("old", old_root), ("new", new_root)):
            out = subprocess.run(
                [sys.executable, __file__, "--keep", str(Path(tmp) / side), str(root)],
                capture_output=True, text=True, check=True,
            ).stdout.splitlines()
            lines[side] = {line.split(" ", 1)[0]: line for line in out}
        names = sorted(lines["old"].keys() | lines["new"].keys())
        worst: dict[str, float | str] = {}
        differing = 0
        for name in names:
            old_line, new_line = lines["old"].get(name, ""), lines["new"].get(name, "")
            if old_line == new_line:
                continue
            differing += 1
            notes = []
            (_, old_rc, _, *old_err), (_, new_rc, _, *new_err) = (
                (line or "- - -").split(" ", 3) for line in (old_line, new_line)
            )
            if old_rc != new_rc:
                notes.append(f"exit {old_rc} -> {new_rc}")
            if old_err != new_err:
                notes.append("stderr differs")
            for ext, parse in ((".csv", _csv_values), (".json", lambda t: _json_values(json.loads(t)))):
                old_text, new_text = (_read(Path(tmp) / side / (name + ext)) for side in ("old", "new"))
                if old_text == new_text:
                    continue
                if old_text is None or new_text is None:
                    notes.append(f"{ext[1:]} {'added' if old_text is None else 'removed'}")
                    continue
                moved = _moved(parse(old_text), parse(new_text))
                for field, change in moved.items():
                    key = f"{ext[1:]} {field}"
                    worst[key] = _larger(worst.get(key, 0.0), change)
                notes.append(f"{ext[1:]} " + ", ".join(f"{f} {_format(c)}" for f, c in moved.items()))
            print(f"{name}: " + "; ".join(notes))
        for key, change in sorted(worst.items()):
            print(f"largest {key} {_format(change)}")
        print(f"{differing} of {len(names)} configs differ")
    return 1 if differing else 0


def main(argv) -> int:
    usage = "\n".join(__doc__.strip().splitlines()[3:5])
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]).resolve(), Path(argv[2]).resolve())
    keep = None
    if len(argv) == 3 and argv[0] == "--keep":
        keep, argv = Path(argv[1]).resolve(), argv[2:]
    if len(argv) != 1:
        print(usage, file=sys.stderr)
        return 2
    hash_artifacts(Path(argv[0]).resolve(), keep)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
