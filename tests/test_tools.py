"""Scripts under tools/."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

from stitsim.experiments import EXPERIMENTS

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_calibrate_smoke(capsys):
    calibrate = load("calibrate")
    assert calibrate.seed_range("3-5") == [3, 4, 5]
    assert calibrate.seed_range("7") == [7]
    # an empty range would print 0/0 everywhere, which reads like a pass
    with pytest.raises(SystemExit) as refused:
        calibrate.main(["--seeds", "5-3", "--n-scale", "0.02"])
    assert refused.value.code == 2
    assert "empty seed range '5-3'" in capsys.readouterr().err
    assert calibrate.main(["--seeds", "1", "--n-scale", "0.02"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == list(EXPERIMENTS) + ["all"]
    for line in lines:
        name, count, failing = line.split(None, 2)
        assert count in ("0/1", "1/1")
        assert failing == ("-" if count == "1/1" else "1")


def test_output_digests_simulates_every_config(tmp_path):
    # a 3-D window has no SVG, so its simulate runs without --svg
    output_digests = load("output_digests")
    output_digests.write_outputs(1, 0.02, tmp_path)
    for cfg in sorted((TOOLS.parent / "configs").glob("*.json")):
        log = (tmp_path / f"{cfg.stem}.log").read_text()
        assert log.endswith("exit 0\n"), (cfg.name, log)
        assert (tmp_path / f"{cfg.stem}.json").is_file()
    assert not (tmp_path / "stit_box3d_rejection.svg").exists()
    assert (tmp_path / "pht_isotropic_box.svg").is_file()


def canned_run(wall_s, rss, commit, correct=True):
    """The last lines of one `perfbench/run.py --trace 0` output."""
    facts = {"git_commit": commit, "nproc": 2, "workload": "simulate_write"}
    result = {"correct": correct, "attempted": 3, "failed": 0,
              "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                          "peak_rss_mib": {"value": rss, "unit": "MiB"}}}
    return "\n".join(["facts " + json.dumps(facts),
                      "pass 0 traced=0 wall_s=0.5 cpu_s=0.5",
                      json.dumps(result)]) + "\n"


def test_bench_pairs_assembles_medians_quartiles_and_wins():
    bench_pairs = load("bench_pairs")
    base = [0.40, 0.44, 0.42, 0.46]
    change = [0.38, 0.39, 0.43, 0.40]
    runs = []
    for k, (b, c) in enumerate(zip(base, change)):
        runs.append({"workload": "simulate_write", "pair": k, "side": "base",
                     "stdout": canned_run(b, 76.0, "aaa")})
        runs.append({"workload": "simulate_write", "pair": k,
                     "side": "change",
                     "stdout": canned_run(c, 76.0 - k, "bbb", correct=k != 3)})
    doc = bench_pairs.assemble(runs[::-1], {"wall_s": "lower",
                                            "peak_rss_mib": "lower"},
                               {"pairs": 4})
    assert doc["pairs"] == 4
    assert doc["facts"]["base"]["git_commit"] == "aaa"
    assert doc["facts"]["change"]["git_commit"] == "bbb"
    w = doc["workloads"]["simulate_write"]
    assert w["base"]["correct"] and not w["change"]["correct"]
    wall = w["base"]["metrics"]["wall_s"]
    assert wall["runs"] == base  # in pair order, whatever the run order
    assert wall["median"] == pytest.approx(0.43)
    assert (wall["q1"], wall["q3"]) == pytest.approx((0.415, 0.445))
    assert wall["iqr"] == pytest.approx(0.03)
    # pair 2 is a loss; the first pair's rss is a tie, which counts for
    # neither side
    assert w["change_wins"] == {"wall_s": 3, "peak_rss_mib": 3}
    assert json.loads(json.dumps(doc)) == doc
    one = bench_pairs.spread([1.5])
    assert (one["median"], one["iqr"]) == (1.5, 0.0)


def bench_roots(tmp_path):
    """Two empty checkouts for bench_pairs.main, the change holding the
    repository's BENCHMARK.json."""
    roots = tmp_path / "base", tmp_path / "change"
    for root in roots:
        root.mkdir()
    (roots[1] / "BENCHMARK.json").write_text(
        (TOOLS.parent / "BENCHMARK.json").read_text())
    return roots


def test_bench_pairs_prints_one_summary_line_per_workload_and_metric(
        tmp_path, monkeypatch, capsys):
    bench_pairs = load("bench_pairs")
    base, change = bench_roots(tmp_path)
    walls = {"base": [0.40, 0.44, 0.42, 0.46],
             "change": [0.38, 0.39, 0.43, 0.40]}
    calls = []

    def fake_run_once(root, workload, seed, seconds):
        side = root.name
        k = sum(c == side for c in calls)
        calls.append(side)
        rss = 76.0 - (k if side == "change" else 0)
        return canned_run(walls[side][k], rss, side)

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    out = tmp_path / "bench.json"
    assert bench_pairs.main([str(base), str(change), "--workload",
                             "simulate_write", "--pairs", "4", "--seconds",
                             "1", "--out", str(out)]) == 0
    assert calls == ["base", "change", "change", "base"] * 2
    doc = json.loads(out.read_text())
    assert doc["workloads"]["simulate_write"]["base"]["metrics"]["wall_s"][
        "runs"] == walls["base"]
    assert capsys.readouterr().out.splitlines() == [
        "simulate_write wall_s: 0.43 -> 0.395 (-8.1%), change won 3/4 pairs, "
        "base IQR 0.03",
        "simulate_write peak_rss_mib: 76 -> 74.5 (-2.0%), change won 3/4 "
        "pairs, base IQR 0"]


def test_bench_pairs_names_the_failing_run(tmp_path, monkeypatch):
    bench_pairs = load("bench_pairs")
    base, change = bench_roots(tmp_path)
    stderr = "".join(f"line {i}\n" for i in range(30)) + "ValueError: boom\n"

    def fake_run_once(root, workload, seed, seconds):
        if root.name == "change":
            raise subprocess.CalledProcessError(2, ["run.py"], "", stderr)
        return canned_run(0.4, 76.0, "aaa")

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([str(base), str(change), "--workload", "verify_pht",
                          "--pairs", "2", "--seconds", "1", "--out",
                          str(tmp_path / "bench.json")])
    message = str(exc.value.code)
    first, *tail = message.splitlines()
    assert "workload verify_pht" in first and "side change" in first
    assert "pair 0" in first and "exit 2" in first
    assert tail[-1] == "ValueError: boom" and "line 29" in tail
    assert len(tail) == 20 and "line 0" not in tail
    assert not (tmp_path / "bench.json").exists()
