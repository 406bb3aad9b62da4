"""Command-line front end: simulate, bound evaluation, verification suite.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import geometry as geo
from . import stit
from .config import (RunConfig, _float, dumps_canonical, run_config_from_json,
                     sanitize)
from .encapsulation import BoundParams, lower_bound
from .errors import ConfigError, StitSimError
from .experiments import EXPERIMENTS, Report
from .pht import pattern_to_json, simulate_pht
from .render import render_pattern, render_tessellation
from .rng import stream


def _load_config(path: str) -> RunConfig:
    try:
        with open(path) as f:
            raw = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return run_config_from_json(raw)


# Far above the acceptance runs (n-scale 1); a larger factor asks for more
# replicates than memory holds.
_MAX_N_SCALE = 100.0


def _check_seed(seed: int) -> None:
    """Seeds key the 64-bit Philox streams, so they must fit in 64 bits."""
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"--seed must be in [0, 2**64), got {seed}")


def cmd_simulate(args) -> int:
    _check_seed(args.seed)
    cfg = _load_config(args.config)
    rng = stream(args.seed, 0)
    if cfg.model == "stit":
        tree = stit.simulate(cfg.measure, cfg.window, cfg.time, rng, cfg.method)
        payload = stit.tree_to_json(tree)
        payload["seed"] = args.seed
        svg = (render_tessellation(stit.slice_at(tree, cfg.time))
               if args.svg else None)
    else:
        pattern = simulate_pht(cfg.measure, cfg.rho, cfg.window, rng)
        payload = pattern_to_json(pattern)
        payload["seed"] = args.seed
        svg = render_pattern(pattern) if args.svg else None
    with open(args.out, "w") as f:
        f.write(dumps_canonical(sanitize(payload)))
        f.write("\n")
    if args.svg:
        with open(args.svg, "w") as f:
            f.write(svg)
    return 0


def _parse_grid(spec: str) -> list[float]:
    """Comma list '0.5,1,2' or range 'start:stop:step' (stop inclusive)."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError("grid range must be start:stop:step")
        start, stop, step = (_float(x, "--t-grid") for x in parts)
        if step <= 0 or stop < start:
            raise ConfigError("grid range needs step > 0 and stop >= start")
        if (stop - start) / step > stit.EVENT_CAP:
            raise ConfigError(
                f"grid range has more than {stit.EVENT_CAP} points")
        if stop + step == stop:
            raise ConfigError("grid step is below the resolution of stop")
        out = []
        k = 0
        while True:
            v = start + k * step
            if v > stop + 1e-12:
                break
            out.append(v)
            k += 1
        return out
    return [_float(x, "--t-grid") for x in spec.split(",") if x]


def cmd_bound(args) -> int:
    lambda_inner = _float(args.lambda_inner, "--lambda-inner")
    masses = tuple(_float(x, "--masses") for x in args.masses.split(","))
    if lambda_inner <= 0 or any(m <= 0 for m in masses):
        raise ConfigError("lambda-inner and all masses must be positive")
    params = BoundParams(lambda_inner, masses)
    grid = _parse_grid(args.t_grid)
    if any(t < 0 for t in grid):
        raise ConfigError("--t-grid times must be non-negative")
    print("t,lower_bound")
    for t in grid:
        print(f"{t:.17g},{lower_bound(t, params):.17g}")
    return 0


def _report_csv(report: Report) -> str:
    keys: list[str] = []
    for row in report.rows:
        for k in row:
            if k not in keys:
                keys.append(k)
    lines = [",".join(keys)]
    for row in sanitize(report.rows):
        lines.append(",".join(_csv_cell(row.get(k, "")) for k in keys))
    return "\n".join(lines) + "\n"


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _write_report(report: Report, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{report.experiment}.json"), "w") as f:
        f.write(dumps_canonical(report.to_json()))
        f.write("\n")
    with open(os.path.join(out_dir, f"{report.experiment}.csv"), "w") as f:
        f.write(_report_csv(report))


def run_determinism(seed=1, n_scale=1.0) -> Report:
    """Byte-identical outputs across repeated runs."""
    from .measure import axis_measure

    measure = axis_measure([1.0, 1.0])
    window = geo.Box((-1.0, -1.0), (1.0, 1.0))

    def tree_bytes():
        tree = stit.simulate(measure, window, 1.0, stream(seed, 0))
        return dumps_canonical(sanitize(stit.tree_to_json(tree)))

    sim_same = tree_bytes() == tree_bytes()
    rep1 = EXPERIMENTS["capacity"](seed=seed, n_scale=0.02 * n_scale)
    rep2 = EXPERIMENTS["capacity"](seed=seed, n_scale=0.02 * n_scale)
    b1, b2 = (dumps_canonical(r.to_json()) for r in (rep1, rep2))
    verify_same = b1 == b2
    ok = sim_same and verify_same
    rows = [{"simulate_repeat_identical": sim_same,
             "verify_repeat_identical": verify_same,
             "verdict": "PASS" if ok else "FAIL"}]
    return Report("determinism", seed, {"n_scale": n_scale}, rows, ok)


ALL_EXPERIMENTS = dict(EXPERIMENTS)
ALL_EXPERIMENTS["determinism"] = run_determinism


def cmd_verify(args) -> int:
    if args.experiment == "all":
        names = list(ALL_EXPERIMENTS)
    elif args.experiment in ALL_EXPERIMENTS:
        names = [args.experiment]
    else:
        raise ConfigError(
            f"unknown experiment {args.experiment!r}; known: "
            + ", ".join(sorted(ALL_EXPERIMENTS) + ["all"]))
    if not 0 < args.n_scale <= _MAX_N_SCALE:  # also false for NaN
        raise ConfigError(f"--n-scale must be in (0, {_MAX_N_SCALE:g}]")
    _check_seed(args.seed)
    all_ok = True
    for name in names:
        report = ALL_EXPERIMENTS[name](seed=args.seed, n_scale=args.n_scale)
        _write_report(report, args.out_dir)
        status = "PASS" if report.passed else "FAIL"
        note = " (reduced power)" if args.n_scale < 1.0 else ""
        print(f"{status} {name} seed={args.seed} n_scale={args.n_scale}{note}")
        all_ok &= report.passed
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="stitsim",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="simulate one trajectory or pattern")
    ps.add_argument("--config", required=True, help="JSON run configuration")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--out", required=True, help="output JSON path")
    ps.add_argument("--svg", help="optional SVG rendering path (2-D only)")
    ps.set_defaults(fn=cmd_simulate)

    pb = sub.add_parser("bound", help="print the encapsulation bound as CSV")
    pb.add_argument("--lambda-inner", type=float, required=True,
                    help="hitting mass of the inner window")
    pb.add_argument("--masses", required=True,
                    help="comma-separated band masses")
    pb.add_argument("--t-grid", required=True,
                    help="'a,b,c' or 'start:stop:step'")
    pb.set_defaults(fn=cmd_bound)

    pv = sub.add_parser("verify", help="run verification experiments")
    pv.add_argument("experiment", help="experiment name or 'all'")
    pv.add_argument("--seed", type=int, default=1)
    pv.add_argument("--n-scale", type=float, default=1.0,
                    help="multiply sample sizes (smoke runs use < 1)")
    pv.add_argument("--out-dir", default="reports")
    # Not a flag: perfbench/child.py reads this default after every pass.
    pv.set_defaults(fn=cmd_verify, threads=1)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except StitSimError as e:
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
