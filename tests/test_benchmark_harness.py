"""The benchmark harness ends a run with a result line a reader can parse."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["verify_trees", "simulate_write"])
def test_run_ends_with_a_result(workload):
    # a pass that crashes outside its operations, or an output check that
    # raises, ends perfbench/run.py without this line; simulate_write's
    # checks read the box and polygon trees' JSON and SVG (check_tree)
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert {"wall_s", "setup_s", "peak_rss_mib",
            "verified_ratio"} <= set(result["metrics"])


@pytest.mark.parametrize("workload", ["verify_trees", "verify_lineage",
                                      "verify_pht", "simulate_write"])
def test_traced_run_carries_every_metric(workload):
    # a traced run whose tracer no longer finds a function that a metric
    # names still exits 0, but prints a `missing` line and leaves the metric
    # out of its result line; the tracer also reads what some functions
    # return: tree.nodes after simulate (simulate_write) and
    # pattern.hyperplanes after simulate_pht (verify_pht), and a failed read
    # fails the pass's operations
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.strip().splitlines()
    assert not [line for line in lines if line.startswith("missing ")]
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} <= set(result["metrics"])
