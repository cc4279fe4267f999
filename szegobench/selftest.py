"""Harness self-test: a tiny-scale run of every workload, untraced and traced.

    python3 szegobench/selftest.py

Asserts for each workload that every metric `BENCHMARK.json` names is printed
with its unit, that no run fails (fail_ratio 0), and that in the traced run
the layer self times plus the unattributed time equal the traced wall time.
Also asserts that the benchmark exits non-zero, printing no result, when the
program's sources are missing.  Exits 0 when everything holds.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYERS = ("numkernel", "symbols", "almostperiodic", "operators", "szego", "cli")


def bench(workload, trace, cwd=ROOT, run=HERE / "run.py"):
    cmd = [sys.executable, str(run), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def check_run(workload, trace) -> list[str]:
    proc = bench(workload, trace)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"fail_ratio {result['failed']}/{result['attempted']}: {proc.stderr[-800:]}")
    if not any(line.split()[:3] == ["fail_ratio", "0", "1"] for line in lines):
        problems.append("fail_ratio 0 with unit 1 not printed")
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if sorted(metrics) != sorted(m["name"] for m in wanted):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            problems.append(f"{m['name']}: {got}")
        elif not any(line.split()[:1] == [m["name"]] and m["unit"] in line.split()[2:3]
                     for line in lines):
            problems.append(f"{m['name']} not printed with its unit {m['unit']}")
    if trace and not problems:
        values = {k: v["value"] for k, v in metrics.items()}
        layers = sum(values[f"{layer}.self_s"] for layer in LAYERS)
        total = layers + values["trace.unattributed_s"]
        if abs(total - values["trace.wall_s"]) > 1e-6 * values["trace.wall_s"]:
            problems.append(f"self times {layers} + unattributed "
                            f"{values['trace.unattributed_s']} != wall {values['trace.wall_s']}")
        if values["trace.unattributed_s"] < 0:
            problems.append("root spans cover more than the traced wall time")
        if min(values["cli.calls"], values["numkernel.calls"]) < 1:
            problems.append("cli or numkernel was never traced")
        if not any(line.startswith("premise:") for line in lines):
            problems.append("no premise line printed")
    return problems


def check_without_sources() -> list[str]:
    """Only BENCHMARK.json and the benchmark's files: must fail, no result."""
    bare = ROOT / ".szegobench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(SPEC["workloads"][0]["name"], 0, cwd=bare, run=bare / HERE.name / "run.py")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"ran without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    failures = 0
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            problems = check_run(workload, trace)
            failures += bool(problems)
            print(f"{workload} trace={trace}: {'ok' if not problems else 'FAIL'}")
            for problem in problems:
                print(f"  {problem}")
    problems = check_without_sources()
    failures += bool(problems)
    print(f"without sources: {'ok' if not problems else 'FAIL'}")
    for problem in problems:
        print(f"  {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
