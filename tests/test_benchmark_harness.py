"""The benchmark harness ends a run with a result line a reader can parse."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_verify_trees_run_ends_with_a_result():
    # a pass that crashes outside its operations, or an output check that
    # raises, ends perfbench/run.py without this line
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_trees",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert {"wall_s", "setup_s", "peak_rss_mib",
            "verified_ratio"} <= set(result["metrics"])
