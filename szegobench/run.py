"""szegolab benchmark: seeded `szegolab run` workloads, timed end to end and
per layer.

Run from the repository root:

    python3 szegobench/run.py --workload det-sweep --seed 1 --seconds 40 --trace 0

The harness generates the workload's JSON configs from the seed
(`workloads.py`), runs each through the real CLI entry point
`szegolab.cli.main(["run", config])` in this process, and checks every
artifact against independent oracles (`oracles.py`); artifacts must also be
byte-identical from pass to pass.  The first pass warms caches up, is checked
by the oracles and is the byte reference; it is not timed into the metrics.
Then passes repeat until ``--seconds`` have passed and the tail percentile
has at least ten samples beyond it.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
The host's speed drifts, so the pass and run times are reported relative
to a fixed reference kernel timed between the runs (`reference.py`):
pass_rel (median pass), run_p50_rel and run_tail_rel (per-run latency), all
in multiples of the reference time.  The same figures in seconds and
milliseconds (wall_s, run_p50_ms, run_tail_ms) are printed beside them.
Also setup_s, the median time of fresh processes importing `szegolab.cli`
and generating and validating the configs, scaled the same way: multiplied
by the reference's nominal time over its median time measured between the
probes, so it stays in seconds (setup_wall_s, unscaled, is printed too);
and peak_rss_mb.  The failure ratio
is ``failed / attempted`` in the result line.  ``--trace 1`` alternates
untraced and traced passes (`tracer.py`) and reports the per-layer metrics
plus the tracing overhead; its spans are written to
``.szegobench/trace-<workload>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment and each metric with its unit and sample count.
``--tiny`` shrinks every size (used by `selftest.py`).
"""

import time

_START = time.perf_counter()  # a setup probe's clock starts before any import

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".szegobench"

# Tail percentile per workload and the samples it needs for >= 10 beyond it.
# Config sizes are fixed, so latencies form one block per config; each
# percentile (and the median) sits in the middle of a block, not on the edge
# between two, where it would jump with the noise of two neighbouring
# configs.  With 7 configs, p50 and p80 fall in the middle of the 4th and
# 6th fastest of the 7 blocks: det-sweep's strong-expcos and
# ratio-2pluscos-contiguous; for spectral-sweep (p75 at the low edge of its
# block, so that 6 passes suffice) folner-shift and stability-mathieu, not
# eigen-toeplitz-general, whose eigvals time moves with the seed.  On a
# shared host the top few percent of small-configs measure scheduler and
# disk jitter, so its tail is p90, inside the block of its slowest kind.
TAIL = {"det-sweep": (80, 50), "spectral-sweep": (75, 40), "small-configs": (90, 100)}
MIN_PASSES = 3
REFERENCE_EVERY_S = 0.05  # runs between two reference timings, at least
MIN_TRACED_PASSES = 2
SETUP_PROBES = 5  # fresh processes before the passes, and as many after
MEASURE_CAP_S = 120.0  # keeps a run inside its time limit on a slow machine

END_TO_END_UNITS = {
    "pass_rel": "ref", "run_p50_rel": "ref", "run_tail_rel": "ref", "setup_s": "s", "peak_rss_mb": "MB",
}
WALL_UNITS = {"wall_s": "s", "run_p50_ms": "ms", "run_tail_ms": "ms", "reference_ms": "ms",
              "setup_wall_s": "s"}


def pin_blas_threads() -> int:
    """Run BLAS/OpenMP on one thread (set before numpy loads).

    On a shared host of few cores a second BLAS thread waits on a core that
    a neighbour holds, so multi-threaded kernel times measure the scheduler:
    on 2 vCPUs a 512x512 LU was no faster with two threads than with one,
    and less steady.  One thread is also within nproc."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return nproc


def import_cli():
    """szegolab.cli from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "szegolab" / "cli.py").is_file():
        sys.exit(f"szegobench: no szegolab sources under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    from szegolab import cli

    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"szegobench: imported szegolab from {cli.__file__}, not {src}")
    return cli


def blas_info() -> dict:
    """BLAS library name and live thread count of the loaded OpenBLAS."""
    import ctypes

    import numpy as np

    info = {"blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"),
            "blas_threads": None}
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["blas_threads"] = fn()
                    return info
    return info


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    return {"nproc": nproc, "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, **blas_info()}


# ---------------------------------------------------------------------------
# configs and passes


class Item:
    """A generated case bound to its config file and artifact paths."""

    def __init__(self, case, directory: Path):
        self.case = case
        self.config_path = str(directory / f"{case.name}.config.json")
        prefix = directory / case.name
        self.csv_path = f"{prefix}.csv"
        self.json_path = f"{prefix}.json"
        config = dict(case.config, output=str(prefix))
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        self.reference = None  # (csv bytes, json bytes) of the first pass


def make_items(workloads, workload, seed, tiny, directory: Path) -> list:
    directory.mkdir(parents=True, exist_ok=True)
    return [Item(case, directory) for case in workloads.generate(workload, seed, tiny)]


def _read(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


class Tally:
    """Attempted and failed runs, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, name, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{name}: {'; '.join(problems)[:300]}")


def run_pass(cli, oracles, items, tally, tracer=None, reference=None):
    """One pass over the configs; returns (wall, latencies, rows, skipped,
    bytes written, run start times).  The first pass checks the artifacts
    against the oracles and becomes the byte-identity reference for later
    passes.  With a `reference`, it is timed before the first run and after
    every REFERENCE_EVERY_S of runs; wall excludes its time."""
    latencies = []
    starts = []
    artifacts = []
    referenced = 0.0
    if reference is not None:
        reference()
    since = 0.0
    start = time.perf_counter()
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.run_id = f"{index}:{item.case.name}"
        # every run writes fresh artifacts: a run that writes nothing cannot
        # pass on a stale file, and ext4 does not flush a truncated rewrite
        for path in (item.csv_path, item.json_path):
            Path(path).unlink(missing_ok=True)
        t0 = time.perf_counter()
        starts.append(t0)
        try:
            rc, error = cli.main(["run", item.config_path]), None
        except Exception as exc:  # a crash is a failed run, not a harness crash
            rc, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        artifacts.append((rc, error, _read(item.csv_path), _read(item.json_path)))
        since += latencies[-1]
        if reference is not None and (since >= REFERENCE_EVERY_S or index == len(items) - 1):
            referenced += reference()
            since = 0.0
    wall = time.perf_counter() - start - referenced

    rows = skipped = written = 0
    for item, (rc, error, csv_bytes, json_bytes) in zip(items, artifacts):
        problems = [error] if error else []
        if rc != 0:
            problems.append(f"exit code {rc}")
        if csv_bytes is None or json_bytes is None:
            problems.append("missing artifacts")
        elif item.reference is None:
            item.reference = (csv_bytes, json_bytes)
            try:
                problems += oracles.check(item.case, csv_bytes.decode("ascii"),
                                          json.loads(json_bytes))
            except Exception as exc:  # malformed artifacts fail the run
                problems.append(f"oracle could not read artifacts: {type(exc).__name__}: {exc}")
        elif (csv_bytes, json_bytes) != item.reference:
            problems.append("artifacts differ from the first pass")
        tally.record(item.case.name, problems)
        if not problems:
            written += len(csv_bytes) + len(json_bytes)
            if item.case.config["experiment"] != "cf-expand":
                rows += csv_bytes.count(b"\n") - 1
                skipped += len(json.loads(json_bytes).get("skipped", []))
    return wall, latencies, rows, skipped, written, starts


# ---------------------------------------------------------------------------
# setup probes


def setup_probe(workload, seed, tiny, directory: Path) -> None:
    """Child mode: import szegolab.cli, generate and validate the configs,
    print the elapsed time since this process started running Python."""
    cli = import_cli()
    import workloads

    items = make_items(workloads, workload, seed, tiny, directory)
    for item in items:
        with open(item.config_path, encoding="utf-8") as fh:
            cli.validate_config(json.load(fh))
    print(json.dumps({"setup_s": time.perf_counter() - _START}))


def measure_setup(args, directory: Path, reference) -> tuple[list[float], list[float]]:
    """Times of SETUP_PROBES fresh processes, and of the reference kernel
    timed before each."""
    times, references = [], []
    for i in range(SETUP_PROBES):
        references.append(reference())
        probe_dir = directory / f"probe-{i}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe", str(probe_dir)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=False)
        shutil.rmtree(probe_dir, ignore_errors=True)
        if proc.returncode != 0:
            sys.exit(f"szegobench: setup probe failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times, references


# ---------------------------------------------------------------------------
# measured runs


def tail_of(latencies, percentile):
    import numpy as np

    value = float(np.percentile(latencies, percentile))
    beyond = sum(1 for x in latencies if x > value)
    return value, beyond


def measure(args, cli, oracles, items, tally, reference):
    """Untraced passes with reference timings; returns the end-to-end
    metrics, the same figures in wall time, and their samples."""
    percentile, min_samples = TAIL[args.workload]
    if args.tiny:
        min_samples = 1
    walls, latencies, passes = [], [], []
    start = time.perf_counter()
    while True:
        wall, lat, *_, starts = run_pass(cli, oracles, items, tally, reference=reference)
        walls.append(wall)
        latencies += lat
        passes.append(list(zip(starts, lat)))
        elapsed = time.perf_counter() - start
        if elapsed >= MEASURE_CAP_S or (
            elapsed >= args.seconds and len(walls) >= MIN_PASSES and len(latencies) >= min_samples
        ):
            break
    # every reference timing of the run is known now, so each run's window
    # holds the timings after it too
    rel_walls, rel = [], []
    for runs in passes:
        rel_pass = [x / reference.around(t0, t0 + x) for t0, x in runs]
        rel_walls.append(sum(rel_pass))
        rel += rel_pass
    tail, beyond = tail_of(latencies, percentile)
    rel_tail, rel_beyond = tail_of(rel, percentile)
    metrics = {
        "pass_rel": statistics.median(rel_walls),
        "run_p50_rel": statistics.median(rel),
        "run_tail_rel": rel_tail,
    }
    wall_metrics = {
        "wall_s": statistics.median(walls),
        "run_p50_ms": 1e3 * statistics.median(latencies),
        "run_tail_ms": 1e3 * tail,
        "reference_ms": 1e3 * statistics.median(reference.times),
    }
    samples = {
        "pass_rel": f"median of {len(walls)} passes",
        "run_p50_rel": f"{len(rel)} runs",
        "run_tail_rel": f"p{percentile} of {len(rel)} runs, {rel_beyond} beyond",
        "wall_s": f"median of {len(walls)} passes",
        "run_p50_ms": f"{len(latencies)} runs",
        "run_tail_ms": f"p{percentile} of {len(latencies)} runs, {beyond} beyond",
        "reference_ms": f"median of {len(reference.times)} reference timings",
    }
    return metrics, wall_metrics, samples


def measure_traced(args, cli, oracles, items, tally):
    """Alternating untraced and traced passes; returns per-layer metrics."""
    from tracer import Tracer

    tracer = Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(cli, oracles, items, tally)[0])
        tracer.install()
        first = len(tracer.spans)
        tracer.counts.clear()
        try:
            wall, _, rows, skipped, written, _ = run_pass(cli, oracles, items, tally, tracer)
        finally:
            tracer.uninstall()
        traced.append(tracer.pass_metrics(first, wall, rows, skipped, written))
        elapsed = time.perf_counter() - start
        if elapsed >= MEASURE_CAP_S or (elapsed >= args.seconds and len(traced) >= MIN_TRACED_PASSES):
            break
    # one whole pass (the median by wall time), so its self times plus the
    # unattributed time add up to its wall time
    metrics = dict(sorted(traced, key=lambda p: p["trace.wall_s"])[(len(traced) - 1) // 2])
    metrics["trace.overhead_ratio"] = statistics.median(p["trace.wall_s"] for p in traced) / (
        statistics.median(untraced)
    )
    WORK.mkdir(exist_ok=True)
    tracer.write(WORK / f"trace-{args.workload}.jsonl")
    return metrics, len(traced), len(untraced)


def premise(workload, metrics) -> str:
    """Each workload's premise, as read from the traced pass."""
    from tracer import LAYERS

    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS) or 1.0
    if workload == "det-sweep":
        text, share = "numkernel.lu self time dominates", metrics["numkernel.lu.self_s"] / total
        holds = share > 0.5
    elif workload == "spectral-sweep":
        text = "numkernel.eig + numkernel.svd self time dominates"
        share = (metrics["numkernel.eig.self_s"] + metrics["numkernel.svd.self_s"]) / total
        holds = share > 0.5
    else:
        text, share = "numkernel self time is a minority", metrics["numkernel.self_s"] / total
        holds = share < 0.5
    return f"{text}: share {share:.2f} of layer self time ({'holds' if holds else 'does not hold'})"


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(TAIL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every size (self-test)")
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = pin_blas_threads()
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.tiny, Path(args.setup_probe))
        return 0
    cli = import_cli()
    import oracles
    import tracer
    import workloads
    from reference import NOMINAL_S, Reference

    directory = WORK / f"run-{args.workload}-{os.getpid()}"
    tally = Tally()
    reference = None if args.trace else Reference()
    try:
        if reference is not None:
            setup_times, setup_refs = measure_setup(args, directory, reference)
        items = make_items(workloads, args.workload, args.seed, args.tiny, directory)
        run_pass(cli, oracles, items, tally)  # warm-up, oracle check, byte reference
        if args.trace:
            metrics, traced, untraced = measure_traced(args, cli, oracles, items, tally)
            units = tracer.UNITS
            samples = {key: f"median pass of {traced} traced" for key in metrics}
            samples["trace.overhead_ratio"] = f"{traced} traced / {untraced} untraced passes"
        else:
            metrics, wall_metrics, samples = measure(args, cli, oracles, items, tally, reference)
            # probes on both sides of the passes: the host's speed drifts
            more_times, more_refs = measure_setup(args, directory, reference)
            setup_times += more_times
            setup_refs += more_refs
            wall_metrics["setup_wall_s"] = statistics.median(setup_times)
            metrics["setup_s"] = wall_metrics["setup_wall_s"] * NOMINAL_S / statistics.median(setup_refs)
            samples["setup_s"] = (f"median of {len(setup_times)} fresh processes, at the "
                                  f"reference's nominal {1e3 * NOMINAL_S:g} ms")
            samples["setup_wall_s"] = f"median of {len(setup_times)} fresh processes"
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            samples["peak_rss_mb"] = "ru_maxrss of this process"
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    print(f"env: {json.dumps(environment(nproc))}")
    print(f"workload: {args.workload}, seed {args.seed}, {len(items)} configs per pass")
    for key, value in metrics.items():
        print(f"  {key:34s} {value:14.6g} {units[key]:6s} {samples[key]}")
    if not args.trace:
        print("wall time (drifts with the host; not in the result line):")
        for key, value in wall_metrics.items():
            print(f"  {key:34s} {value:14.6g} {WALL_UNITS[key]:6s} {samples[key]}")
    print(f"  {'fail_ratio':34s} {tally.failed / tally.attempted:14.6g} {'1':6s} "
          f"{tally.failed} of {tally.attempted} runs failed")
    if args.trace:
        print(f"premise: {premise(args.workload, metrics)}")
    for reason in tally.reasons:
        print(f"failure: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
