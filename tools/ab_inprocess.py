"""Time two checkouts of szegolab against each other in one process.

Usage: python tools/ab_inprocess.py <old-root> <new-root> --workload W --seed S --pairs N
       [--tiny]

Generates the configs of `szegobench/workloads.py` from <new-root> and
imports the `szegolab` package of each checkout's src/ in this process,
each under its own copy of the module table, so that the two are swapped in
and out of ``sys.modules`` between passes.  A pass runs every config through
that checkout's `szegolab.cli.main(["run", config])`; both sides read the
same config files and write the same artifact paths.  A pass's time is the sum
of the `main` calls (removing old artifacts and checking new ones is not
timed).  A warm-up pass of each side writes the byte reference: if any
config's exit code or artifacts differ between the two sides, nothing is
timed and the tool exits 1, naming those configs.  Then N pairs of passes
run, the old side first in even pairs and the new side first in odd ones,
and every timed pass is checked against the reference.

Prints both median pass times, the median over the pairs of the ratio
new / old, and the pairs the new side won, then the same figures for each
config's `main` call, then the percentiles a run-time claim is judged on:
each side's `main` times pooled over all its timed passes, their median and
the workload's tail percentile (read from the ``TAIL`` table of
`szegobench/run.py`), with the ratio new / old of each.  The last line is
one JSON object with all of them, the configs' figures as a ``per_config``
map keyed by config name (a tail percentile of `szegobench/run.py` sits in
one config's block of run times, so a claim on it rests on that config's
figures) and the pooled percentiles as a ``pooled`` map.  BLAS runs on one
thread, as in `szegobench/run.py`.  Nothing in either checkout is
modified; configs and artifacts go to a temporary directory.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import argparse
import contextlib
import importlib
import io
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path


class Side:
    """One checkout's `szegolab` modules and the times of its passes."""

    def __init__(self, label: str, root: Path):
        self.label = label
        self.modules = _import_package(root)
        self.main = self.modules["szegolab.cli"].main
        self.passes: list[list[float]] = []  # per timed pass, seconds per config

    def run_pass(self, runs) -> tuple[list[float], list]:
        """Every (config, csv path, json path) of ``runs`` through this side's
        `main`: ([seconds spent in each `main` call], [(exit code, csv bytes,
        json bytes)])."""
        _drop_package()
        sys.modules.update(self.modules)
        for _, csv_path, json_path in runs:
            csv_path.unlink(missing_ok=True)
            json_path.unlink(missing_ok=True)
        spent = []
        codes = []
        with contextlib.redirect_stderr(io.StringIO()):
            for config, _, _ in runs:
                t0 = time.perf_counter()
                codes.append(self.main(["run", config]))
                spent.append(time.perf_counter() - t0)
        return spent, [
            (rc, *(p.read_bytes() if p.exists() else None for p in (csv_path, json_path)))
            for rc, (_, csv_path, json_path) in zip(codes, runs)
        ]


def _drop_package() -> None:
    for name in [m for m in sys.modules if m == "szegolab" or m.startswith("szegolab.")]:
        del sys.modules[name]


def _import_package(root: Path) -> dict:
    """Every `szegolab` module of ``root``/src, imported fresh."""
    src = root / "src"
    _drop_package()
    sys.path.insert(0, str(src))
    try:
        cli = importlib.import_module("szegolab.cli")
    finally:
        sys.path.remove(str(src))
    if Path(cli.__file__).resolve().parent != (src / "szegolab").resolve():
        sys.exit(f"imported szegolab from {cli.__file__}, not {src}")
    return {m: mod for m, mod in sys.modules.items() if m == "szegolab" or m.startswith("szegolab.")}


def _differing(names, old, new) -> list[str]:
    return [name for name, a, b in zip(names, old, new) if a != b]


def _figures(old_times: list[float], new_times: list[float]) -> dict:
    """Both medians in ms, the median over the pairs of new / old and the
    pairs the new side won."""
    ratios = [b / a for a, b in zip(old_times, new_times)]
    return {
        "old_ms": 1e3 * statistics.median(old_times),
        "new_ms": 1e3 * statistics.median(new_times),
        "median_ratio": statistics.median(ratios),
        "new_faster": sum(r < 1.0 for r in ratios),
    }


def _pooled(old_runs: list[float], new_runs: list[float], percentile: int, tail_of) -> dict:
    """The median and the tail percentile (by the harness's ``tail_of``) of
    each side's pooled run times in ms, with the ratio new / old of each."""
    out = {"runs": len(old_runs), "percentile": percentile}
    for key, stat in (("p50", statistics.median), ("tail", lambda x: tail_of(x, percentile)[0])):
        old, new = stat(old_runs), stat(new_runs)
        out.update({f"old_{key}_ms": 1e3 * old, f"new_{key}_ms": 1e3 * new, f"{key}_ratio": new / old})
    return out


def compare(old_root: Path, new_root: Path, workload: str, seed: int, pairs: int, tiny: bool) -> int:
    sys.dont_write_bytecode = True  # leave both checkouts as they were
    sys.path.insert(0, str(new_root / "szegobench"))
    import run as harness
    import workloads

    cases = workloads.generate(workload, seed, tiny)
    names = [case.name for case in cases]
    with tempfile.TemporaryDirectory() as tmp:
        runs = []  # both sides read the same configs and write the same paths
        for case in cases:
            prefix = Path(tmp) / case.name
            config = Path(tmp) / f"{case.name}.config.json"
            config.write_text(json.dumps(dict(case.config, output=str(prefix))), encoding="utf-8")
            runs.append((str(config), prefix.with_name(prefix.name + ".csv"),
                         prefix.with_name(prefix.name + ".json")))
        old, new = Side("old", old_root), Side("new", new_root)
        references = {side.label: side.run_pass(runs)[1] for side in (old, new)}
        moved = _differing(names, references["old"], references["new"])
        if moved:
            print(f"artifacts differ between the checkouts, not timed: {', '.join(moved)}")
            return 1
        for i in range(pairs):
            for side in (old, new) if i % 2 == 0 else (new, old):
                spent, artifacts = side.run_pass(runs)
                moved = _differing(names, references[side.label], artifacts)
                if moved:
                    print(f"{side.label} artifacts differ from its first pass: {', '.join(moved)}")
                    return 1
                side.passes.append(spent)
    result = {
        "workload": workload,
        "seed": seed,
        "tiny": tiny,
        "configs": len(cases),
        "pairs": pairs,
        **_figures([sum(p) for p in old.passes], [sum(p) for p in new.passes]),
        "per_config": {
            name: _figures([p[i] for p in old.passes], [p[i] for p in new.passes])
            for i, name in enumerate(names)
        },
        "pooled": _pooled([x for p in old.passes for x in p], [x for p in new.passes for x in p],
                          harness.TAIL[workload][0], harness.tail_of),
    }
    print(f"{workload} seed {seed}{' (tiny)' if tiny else ''}: {len(cases)} configs, "
          f"{pairs} pairs, old first in even pairs")
    print(f"  old median pass   {result['old_ms']:10.3f} ms")
    print(f"  new median pass   {result['new_ms']:10.3f} ms")
    print(f"  median new / old  {result['median_ratio']:10.4f}")
    print(f"  new faster in     {result['new_faster']}/{pairs} pairs")
    width = max(map(len, names))
    print(f"  {'config':<{width}}  {'old ms':>10}  {'new ms':>10}  {'new / old':>9}  new faster")
    for name, fig in result["per_config"].items():
        print(f"  {name:<{width}}  {fig['old_ms']:10.4f}  {fig['new_ms']:10.4f}  "
              f"{fig['median_ratio']:9.4f}  {fig['new_faster']}/{pairs}")
    pooled = result["pooled"]
    label = f"pooled runs, {pooled['runs']} a side"
    width = max(width, len(label))
    print(f"  {label:<{width}}  {'old ms':>10}  {'new ms':>10}  {'new / old':>9}")
    for key, label in (("p50", "p50"), ("tail", f"p{pooled['percentile']}")):
        print(f"  {label:>{width}}  {pooled[f'old_{key}_ms']:10.4f}  {pooled[f'new_{key}_ms']:10.4f}  "
              f"{pooled[f'{key}_ratio']:9.4f}")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_root", type=Path)
    parser.add_argument("new_root", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--tiny", action="store_true", help="shrink every size, as the harness self-test does")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return compare(args.old_root.resolve(), args.new_root.resolve(), args.workload, args.seed,
                   args.pairs, args.tiny)


if __name__ == "__main__":
    sys.exit(main())
