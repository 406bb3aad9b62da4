"""stitsim benchmark: time to a verified result, per workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify_trees --seed 1 --seconds 30 --trace 0

Each pass runs one workload's operations (`stitsim.cli.main` calls) in a
fresh Python process; passes repeat with the same seed until `--seconds`
is used up (at least three passes with `--trace 0`).  The parent checks
every output, compares output hashes across passes (same code and seed
must give the same bytes) and prints machine facts, one line per pass and,
as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json:
`wall_s` sums each operation's fastest repetition, the others are medians
over passes.  With `--trace 1` untraced and traced passes alternate, and
the metrics are the per-layer ones, medians over traced passes, plus the
tracing overhead.  `attempted` counts each operation of the workload once,
however many passes repeated it.  Scratch files live in `.perfbench_tmp/`
under the repository root and are removed before exit.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HARD_LIMIT_S = 150.0  # stop starting passes after this; the run must end by 180 s
# A FAIL verdict is a failed operation, but not an incorrect output: the
# suite's gates have a non-zero false-failure rate at any seed and scale.
VERDICT_FAIL = "verdict FAIL"

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# machine facts

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout when it is a git repository, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_model": _cpu_model(),
        "loadavg_start": list(os.getloadavg()),
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# output checks

def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _svg_paths(path: str) -> int:
    root = ET.parse(path).getroot()
    if not root.tag.endswith("svg"):
        raise ValueError("root element is not <svg>")
    return sum(1 for el in root.iter() if el.tag.endswith("path"))


def check_verify(op: dict) -> str | None:
    """None when the report is a PASS for the requested experiment.

    A FAIL verdict must come with exit code 1 and a PASS with exit code 0.
    """
    report_path, csv_path = op["outputs"]
    with open(report_path) as f:
        report = json.load(f)
    if report.get("experiment") != op["name"]:
        return f"report names {report.get('experiment')!r}"
    if report.get("pass") not in (True, False) or report["pass"] != (op["rc"] == 0):
        return f"exit code {op['rc']} with \"pass\": {report.get('pass')!r}"
    if not os.path.getsize(csv_path):
        return "empty CSV"
    return None if report["pass"] else VERDICT_FAIL


def check_tree(out_path: str, svg_path: str) -> str | None:
    with open(out_path) as f:
        d = json.load(f)
    nodes, jumps = d["nodes"], d["jump_times"]
    if d.get("kind") != "cell_tree":
        return "not a cell_tree"
    if len(nodes) != 1 + 2 * len(jumps):
        return f"{len(nodes)} nodes for {len(jumps)} jumps"
    if any(b < a for a, b in zip(jumps, jumps[1:])):
        return "jump_times decrease"
    for i, node in enumerate(nodes):
        if node["id"] != i:
            return f"node {i} has id {node['id']}"
        parent = node["parent"]
        if parent is None:
            if i != 0 or node["birth"] != 0:
                return f"node {i} is a second root"
        elif node["birth"] != nodes[parent]["death"]:
            return f"node {i} born at {node['birth']}, parent died at {nodes[parent]['death']}"
    if sum(n["death"] is not None for n in nodes) != len(jumps):
        return "split count differs from jump count"
    if _svg_paths(svg_path) != len(jumps) + 2:
        return "SVG path count differs from leaf count + window"
    return None


def check_pattern(out_path: str, svg_path: str) -> str | None:
    with open(out_path) as f:
        d = json.load(f)
    if d.get("kind") != "pht_pattern":
        return "not a pht_pattern"
    hyps = d["hyperplanes"]
    for h in hyps:
        if abs(math.hypot(*h["u"]) - 1.0) > 1e-9 or not math.isfinite(h["d"]):
            return f"bad hyperplane {h}"
    if not 1 <= _svg_paths(svg_path) <= len(hyps) + 1:
        return "SVG path count exceeds hyperplanes + window"
    return None


def check_op(op: dict) -> str | None:
    """None when the operation's outputs pass every check, else the problem."""
    try:
        if op["kind"] == "verify" and op["rc"] in (0, 1):
            return check_verify(op)
        if op["rc"] != 0:
            return op["error"] or f"exit code {op['rc']}"
        if op["model"] == "stit":
            return check_tree(*op["outputs"])
        return check_pattern(*op["outputs"])
    except (OSError, ValueError, KeyError, TypeError, ET.ParseError) as e:
        return f"unreadable output: {type(e).__name__}: {e}"


# ---------------------------------------------------------------------------
# passes

def run_pass(args, tmp: Path, k: int, traced: bool, timeout: float,
             checked: dict) -> dict:
    """Run one pass in a fresh process, then hash and check its outputs.

    `checked` caches check results by output hashes, so identical bytes
    are checked once.  The pass's scratch directory is removed afterwards.
    """
    workdir = tmp / f"pass{k}"
    workdir.mkdir()
    req = {"workload": args.workload, "seed": args.seed, "src": str(SRC),
           "workdir": str(workdir), "trace": traced,
           "result": str(workdir / "result.json")}
    req_path = workdir / "request.json"
    req_path.write_text(json.dumps(req))
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(req_path)],
                              capture_output=True, text=True, timeout=timeout)
        crashed = proc.returncode != 0
        log = proc.stderr
    except subprocess.TimeoutExpired:
        crashed, log = True, f"pass timed out after {timeout:.0f} s"
    elapsed = time.monotonic() - t_spawn
    try:
        if crashed or not Path(req["result"]).is_file():
            return {"traced": traced, "crashed": True, "log": log[-2000:],
                    "elapsed": elapsed}
        res = json.loads(Path(req["result"]).read_text())
        res.update(traced=traced, crashed=False, elapsed=elapsed,
                   setup_s=res["t_first"] - t_spawn)
        for op in res["ops"]:
            op["hashes"] = [_sha256(p) if os.path.isfile(p) else None
                            for p in op["outputs"]]
            key = (op["name"], tuple(op["hashes"]))
            if key not in checked:
                checked[key] = check_op(op)
            op["problem"] = checked[key]
        return res
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def account(passes: list[dict], names: list[str]) -> tuple[int, int, int, list[str]]:
    """Attempted, failed and incorrect operations of the run, with reasons.

    A run attempts each operation of the workload once.  Its passes repeat
    the operation with the same seed only to time it, and every repetition
    must give the same bytes, so the counts depend on the code and the seed
    alone, never on how many passes fit in --seconds.  An operation fails
    when any repetition crashed, exited non-zero, gave a FAIL verdict,
    failed an output check, or wrote bytes that differ from the first pass.
    A failure other than a FAIL verdict also counts as incorrect.
    """
    problems = {name: [] for name in names}
    reference = {}
    for k, p in enumerate(passes):
        if p["crashed"]:
            for name in names:
                problems[name].append(
                    (k, f"process failed: {p['log'].strip()[-300:]}"))
            continue
        for op in p["ops"]:
            why = op["problem"]
            ref = reference.setdefault(op["name"], op["hashes"])
            if op["hashes"] != ref:
                why = "output bytes differ from the first pass"
            if why is not None:
                problems[op["name"]].append((k, why))
    failed = sum(bool(v) for v in problems.values())
    incorrect = sum(any(why != VERDICT_FAIL for _, why in v)
                    for v in problems.values())
    reasons = [f"{name} pass {k}: {why}" for name, v in problems.items()
               for k, why in v]
    return len(names), failed, incorrect, reasons


def _median(values):
    return statistics.median(values) if values else None


def op_seconds(passes: list[dict]) -> dict[str, list[float]]:
    """Each operation's timings over the given passes, in workload order."""
    secs = {}
    for p in passes:
        for op in p["ops"]:
            secs.setdefault(op["name"], []).append(op["seconds"])
    return secs


def wall_estimate(passes: list[dict]) -> float | None:
    """Time to a verified result: each operation's fastest repetition, summed.

    Every repetition of an operation does the same deterministic work, so
    the spread between repetitions is time taken by other tenants of a
    shared host, which only ever adds.  On a 2-vCPU host the vCPU ran at
    half speed for stretches of a fraction of a second to seconds, with
    the process's CPU seconds rising in step and no steal time reported.
    A median moves with the share of the run spent in those stretches; an
    operation's fastest repetition moves only when every repetition of it
    was slowed, which is rarer the shorter the operation.
    """
    secs = op_seconds(passes)
    return sum(min(v) for v in secs.values()) if secs else None


def run_passes(args, t_start: float, tmp: Path) -> list[dict]:
    """Passes until --seconds is used up, after a minimum number of them.

    The minimum is three passes untraced, or one untraced and one traced
    pass with --trace 1, where the two kinds alternate.  No pass starts
    that would end past HARD_LIMIT_S by the previous pass's duration.
    """
    # Byte-compile the sources once so no pass pays for it.
    subprocess.run([sys.executable, "-c",
                    "import sys; sys.path[:0] = sys.argv[1:]; "
                    "import stitsim.cli, tracer, workloads",
                    str(SRC), str(HERE)], check=True, timeout=60, capture_output=True)
    deadline = time.monotonic() + args.seconds
    last = {}  # elapsed seconds of the latest pass of each kind
    checked = {}
    passes = []
    while True:
        n_traced = sum(p["traced"] for p in passes)
        traced = bool(args.trace) and n_traced < len(passes) - n_traced
        have_min = len(passes) >= (2 if args.trace else 3)
        now = time.monotonic()
        est = last.get(traced, 0.0)
        left = t_start + HARD_LIMIT_S - now
        if (have_min and now + est > deadline) or (passes and est > left):
            return passes
        p = run_pass(args, tmp, len(passes), traced, max(left, 1.0) + 20.0, checked)
        passes.append(p)
        last[traced] = p["elapsed"]
        if p["crashed"]:
            return passes


def print_passes(passes: list[dict], reasons: list[str]) -> None:
    plain = [p for p in passes if not p["crashed"] and not p["traced"]]
    for k, p in enumerate(passes):
        if p["crashed"]:
            print(f"pass {k} crashed after {p['elapsed']:.2f} s")
            continue
        print(f"pass {k} traced={int(p['traced'])} wall_s={p['wall_s']:.4f} "
              f"cpu_s={p['cpu_s']:.4f} setup_s={p['setup_s']:.4f} "
              f"peak_rss_mib={p['peak_rss_mib']:.1f}")
    if plain:
        walls = sorted(p["wall_s"] for p in plain)
        print(f"wall_s estimate={wall_estimate(plain):.4f} fastest_pass={walls[0]:.4f} "
              f"median_pass={_median(walls):.4f} slowest_pass={walls[-1]:.4f} "
              f"passes={len(walls)}")
    for name, secs in op_seconds(plain).items():
        print(f"op {name} fastest_s={min(secs):.4f} median_s={_median(secs):.4f} "
              f"passes={len(secs)}")
    for r in reasons:
        print("failed " + r)


def layer_values(ok: list[dict]) -> dict[str, float | None]:
    """Per-layer medians over traced passes, plus the tracing overhead."""
    traced = [p for p in ok if p["traced"]]
    per_pass = [tracer.layer_metrics(p["trace"]) for p in traced]
    values = {}
    for name in per_pass[0] if per_pass else ():
        vals = [m[name] for m in per_pass]
        values[name] = None if None in vals else statistics.median(vals)
    traced_wall = wall_estimate(traced)
    plain_wall = wall_estimate([p for p in ok if not p["traced"]])
    values["trace.traced_wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = plain_wall
    if traced_wall is not None and plain_wall is not None:
        values["trace.overhead_s"] = traced_wall - plain_wall
    if traced:
        for parent, name, n, tot, slf in sorted(traced[0]["trace"]["edges"],
                                                key=lambda e: -e[4])[:12]:
            print(f"span {name} <- {parent} calls={n} total_s={tot:.4f} self_s={slf:.4f}")
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.monotonic()

    if not (SRC / "stitsim" / "cli.py").is_file():
        print(f"stitsim sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    facts = machine_facts()
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        passes = run_passes(args, t_start, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:  # another run still uses it
            pass

    names = [op["name"] for op in workloads.operations(args.workload, args.seed, str(tmp))]
    attempted, failed, incorrect, reasons = account(passes, names)
    ok = [p for p in passes if not p["crashed"]]
    facts.update(loadavg_end=list(os.getloadavg()),
                 threads_default=ok[0]["threads_default"] if ok else None,
                 workload=args.workload, seed=args.seed,
                 cli_seed=workloads.cli_seed(args.seed),
                 n_scale=workloads.VERIFY.get(args.workload, {}).get("n_scale"))
    print("facts " + json.dumps(facts, sort_keys=True))
    print_passes(passes, reasons)
    if not ok:
        print("no pass completed", file=sys.stderr)
        return 1

    if args.trace:
        wanted, values = spec["per_layer"], layer_values(ok)
    else:
        plain = [p for p in ok if not p["traced"]]
        wanted = spec["end_to_end"]
        values = {key: _median([p[key] for p in plain])
                  for key in ("setup_s", "peak_rss_mib")}
        values["wall_s"] = wall_estimate(plain)
        values["verified_ratio"] = (attempted - failed) / attempted
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if values.get(m["name"]) is not None}
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print("missing " + json.dumps(missing))
    print(json.dumps({"correct": incorrect == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
