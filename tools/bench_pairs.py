"""Alternate benchmark runs between two checkouts and write a BENCH file.

Usage (from any directory):

    python3 tools/bench_pairs.py BASE CHANGE --workload simulate_write \
        --pairs 10 --seconds 8 --out BENCH_26.json

BASE and CHANGE are repository roots.  Pair k runs
`perfbench/run.py --trace 0` once in each checkout, with the same workload,
seed and --seconds, BASE first when k is even and CHANGE first when k is
odd; --workload may be given more than once, and each pair then runs every
workload in turn.  The output file holds, per workload and side, the
median, quartiles and runs of every end-to-end metric, the pairs the
change won by the direction BENCHMARK.json gives each metric (ties count
for neither side), and each side's first `facts` line.  At the end one
line per workload and end-to-end metric is printed: base median -> change
median, the change in percent, the pairs the change won and the base's
interquartile range, which is what a claimed gain is judged by.  A run that
fails stops the script with an error naming its workload, side and pair,
followed by the tail of the run's stderr.  Nothing in either checkout is
edited.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("base", "change")


def parse_run(stdout: str) -> tuple[dict, dict]:
    """(facts, result) of one `perfbench/run.py` output: the JSON of its
    `facts` line and of its last line."""
    lines = stdout.strip().splitlines()
    facts = next(json.loads(line[len("facts "):]) for line in lines
                 if line.startswith("facts "))
    return facts, json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    """Median, quartiles (inclusive method) and the values themselves."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "runs": values}


def assemble(runs: list[dict], better: dict[str, str], meta: dict) -> dict:
    """The BENCH document of `runs`, each {"workload", "pair", "side",
    "stdout"}; better maps a metric to "lower" or "higher"."""
    out = dict(meta, facts={}, workloads={})
    for run in runs:
        facts, result = parse_run(run["stdout"])
        out["facts"].setdefault(run["side"], facts)
        w = out["workloads"].setdefault(run["workload"], {
            side: {"correct": True, "failed": 0, "metrics": {}}
            for side in SIDES})
        side = w[run["side"]]
        side["correct"] &= result["correct"]
        side["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            side["metrics"].setdefault(name, {})[run["pair"]] = m["value"]
    for w in out["workloads"].values():
        w["change_wins"] = {}
        for name, base in w["base"]["metrics"].items():
            change = w["change"]["metrics"].get(name, {})
            sign = -1 if better.get(name) == "lower" else 1
            w["change_wins"][name] = sum(
                sign * (change[k] - base[k]) > 0 for k in base if k in change)
        for side in SIDES:
            w[side]["metrics"] = {
                name: spread([v for _, v in sorted(by_pair.items())])
                for name, by_pair in w[side]["metrics"].items()}
    return out


def summary(doc: dict, metrics: list[str]) -> list[str]:
    """One line per workload of doc and metric of `metrics` it holds: base
    median -> change median, percent change, pairs won, base IQR."""
    lines = []
    for workload, w in doc["workloads"].items():
        for name in metrics:
            if name not in w["base"]["metrics"]:
                continue
            base, change = (w[side]["metrics"][name] for side in SIDES)
            pct = (100.0 * (change["median"] - base["median"]) / base["median"]
                   if base["median"] else float("nan"))
            lines.append(
                f"{workload} {name}: {base['median']:.4g} -> "
                f"{change['median']:.4g} ({pct:+.1f}%), change won "
                f"{w['change_wins'][name]}/{len(base['runs'])} pairs, "
                f"base IQR {base['iqr']:.4g}")
    return lines


def run_once(root: Path, workload: str, seed: int, seconds: float) -> str:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True)
    return proc.stdout


def failure(err: subprocess.CalledProcessError, workload: str, side: str,
            root: Path, pair: int) -> str:
    """The message for a run that exited non-zero, ending with the last 20
    lines of its stderr."""
    lines = (err.stderr or "").rstrip().splitlines()[-20:]
    return "\n".join([f"perfbench/run.py failed: workload {workload}, side "
                      f"{side} ({root}), pair {pair}, exit {err.returncode}; "
                      f"the end of its stderr:"] + lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    roots = {"base": args.base.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs = []
    for k in range(args.pairs):
        for workload in args.workload:
            for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                try:
                    stdout = run_once(roots[side], workload, args.seed,
                                      args.seconds)
                except subprocess.CalledProcessError as err:
                    raise SystemExit(failure(err, workload, side,
                                             roots[side], k)) from err
                runs.append({"workload": workload, "pair": k, "side": side,
                             "stdout": stdout})
                value = parse_run(stdout)[1]["metrics"]["wall_s"]["value"]
                print(f"pair {k} {workload} {side} wall_s={value:.4f}",
                      file=sys.stderr)
    meta = {"pairs": args.pairs, "seconds": args.seconds, "seed": args.seed,
            "checkouts": {side: str(root) for side, root in roots.items()}}
    doc = assemble(runs, better, meta)
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print("\n".join(summary(doc, list(better))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
