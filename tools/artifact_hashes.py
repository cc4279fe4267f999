"""Hash the CLI artifacts of the benchmark configs of one checkout.

Usage: python tools/artifact_hashes.py <repo-root> > hashes.txt

Generates the configs of `szegobench/workloads.py` from <repo-root>
(`small-configs` seeds 1-5, `det-sweep` seed 1, tiny `det-sweep` seed 2 and
tiny `spectral-sweep` seed 1), runs each through `szegolab.cli.main(["run",
...])` of <repo-root>/src in this process, and prints one line per config:
its name, the exit code, the sha256 of the CSV followed by the JSON, and
stderr.  Run it on two checkouts and diff the outputs: identical lines mean
byte-identical artifacts, exit codes and messages.  Nothing in <repo-root>
is modified; artifacts go to a temporary directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

CONFIG_SETS = (
    *(("small-configs", seed, False) for seed in range(1, 6)),
    ("det-sweep", 1, False),
    ("det-sweep", 2, True),
    ("spectral-sweep", 1, True),
)


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    sys.dont_write_bytecode = True  # leave <repo-root> as it was
    sys.path[:0] = [str(root / "src"), str(root / "szegobench")]
    from szegolab import cli
    import workloads

    if Path(cli.__file__).resolve().parent != root / "src" / "szegolab":
        sys.exit(f"imported szegolab from {cli.__file__}, not {root / 'src'}")
    with tempfile.TemporaryDirectory() as tmp:
        for workload, seed, tiny in CONFIG_SETS:
            for i, case in enumerate(workloads.generate(workload, seed, tiny)):
                name = f"{workload}{'-tiny' if tiny else ''}/{seed}/{i}-{case.name}"
                prefix = Path(tmp) / f"run{i}"
                config = Path(tmp) / "config.json"
                config.write_text(json.dumps(dict(case.config, output=str(prefix))), encoding="utf-8")
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    rc = cli.main(["run", str(config)])
                digest = hashlib.sha256()
                for ext in (".csv", ".json"):
                    path = prefix.with_name(prefix.name + ext)
                    if path.exists():
                        digest.update(path.read_bytes())
                        path.unlink()
                stderr = err.getvalue().replace(tmp, "<tmp>").strip().replace("\n", " | ")
                print(f"{name} rc={rc} {digest.hexdigest()} {stderr}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
