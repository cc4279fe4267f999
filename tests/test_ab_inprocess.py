"""tools/ab_inprocess.py: in-process A/B timing of two checkouts."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_inprocess.py"


def run_tool(old_root, new_root):
    return subprocess.run(
        [sys.executable, str(TOOL), str(old_root), str(new_root),
         "--workload", "det-sweep", "--seed", "1", "--pairs", "2", "--tiny"],
        capture_output=True, text=True, timeout=300, check=False,
    )


def test_repository_against_itself():
    proc = run_tool(ROOT, ROOT)
    assert proc.returncode == 0, proc.stderr
    assert "median new / old" in proc.stdout
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["workload"], result["configs"], result["pairs"]) == ("det-sweep", 7, 2)
    assert result["old_ms"] > 0 and result["new_ms"] > 0 and result["median_ratio"] > 0
    assert 0 <= result["new_faster"] <= 2
    per_config = result["per_config"]
    assert len(per_config) == 7
    assert "ratio-2pluscos-contiguous" in per_config and "strong-expcos" in per_config
    for name, fig in per_config.items():
        assert sorted(fig) == ["median_ratio", "new_faster", "new_ms", "old_ms"]
        assert fig["old_ms"] > 0 and fig["new_ms"] > 0 and fig["median_ratio"] > 0
        assert 0 <= fig["new_faster"] <= 2
        assert f"  {name} " in proc.stdout
    # the configs' medians add up to about the median pass
    assert sum(fig["old_ms"] for fig in per_config.values()) > 0.5 * result["old_ms"]
    # every run of every timed pass, pooled: det-sweep's tail is p80
    pooled = result["pooled"]
    assert sorted(pooled) == sorted([
        "runs", "percentile", "old_p50_ms", "new_p50_ms", "p50_ratio",
        "old_tail_ms", "new_tail_ms", "tail_ratio",
    ])
    assert (pooled["runs"], pooled["percentile"]) == (14, 80)
    for side in ("old", "new"):
        assert 0 < pooled[f"{side}_p50_ms"] <= pooled[f"{side}_tail_ms"]
    assert pooled["p50_ratio"] > 0 and pooled["tail_ratio"] > 0
    assert "pooled runs, 14 a side" in proc.stdout
    assert " p50 " in proc.stdout and " p80 " in proc.stdout


def test_refuses_to_time_checkouts_whose_artifacts_differ(tmp_path):
    # a copy whose CSV header differs writes different bytes for every config
    shutil.copytree(ROOT / "src" / "szegolab", tmp_path / "src" / "szegolab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "szegolab" / "cli.py"
    source = cli.read_text(encoding="utf-8")
    cli.write_text(source.replace('CSV_HEADER = "n,', 'CSV_HEADER = "size,', 1), encoding="utf-8")
    proc = run_tool(tmp_path, ROOT)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.startswith(
        "artifacts differ between the checkouts, not timed: ratio-2pluscos-contiguous, "
    )
    assert "median" not in proc.stdout
