"""Command-line front end: simulate, bound evaluation, verification suite.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import stit
from .config import (RunConfig, _float, config_hash, dumps_canonical,
                     run_config_from_json)
from .encapsulation import BoundParams, lower_bound
from .errors import ConfigError, StitSimError
from .experiments import EXPERIMENTS
from .pht import pattern_to_json, simulate_pht
from .render import render_pattern, render_tessellation
from .rng import stream


def _load_config(path: str) -> tuple[dict, RunConfig]:
    """The config file's JSON and the run config it validates to."""
    try:
        with open(path) as f:
            raw = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return raw, run_config_from_json(raw)


# Far above the acceptance runs (n-scale 1); a larger factor asks for more
# replicates than memory holds.
_MAX_N_SCALE = 100.0


def _check_seed(seed: int) -> None:
    """Seeds key the 64-bit Philox streams, so they must fit in 64 bits."""
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"--seed must be in [0, 2**64), got {seed}")


def cmd_simulate(args) -> int:
    _check_seed(args.seed)
    raw, cfg = _load_config(args.config)
    if args.svg and cfg.window.dim != 2:
        raise ConfigError("--svg: SVG rendering is 2-D only, "
                          f"the window is {cfg.window.dim}-D")
    for path in filter(None, (args.out, args.svg)):
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigError(f"cannot write {path}: not a file in an "
                              "existing directory")
    if args.svg and os.path.realpath(args.svg) == os.path.realpath(args.out):
        raise ConfigError(f"--svg and --out name the same file {args.out}; "
                          "the SVG would overwrite the JSON")
    try:
        payload, svg = _simulate(cfg, args.seed, bool(args.svg))
    except StitSimError as e:
        # a validated config holds only finite numbers, so it has a hash
        raise type(e)(f"in simulate of config {config_hash(raw)} at seed "
                      f"{args.seed}: {e}") from e
    with open(args.out, "w") as f:
        f.write(dumps_canonical(payload))
        f.write("\n")
    if args.svg:
        with open(args.svg, "w") as f:
            f.write(svg)
    return 0


def _simulate(cfg: RunConfig, seed: int, svg: bool):
    """simulate's JSON payload and, where svg, its SVG text."""
    rng = stream(seed, 0)
    if cfg.model == "stit":
        tree = stit.simulate(cfg.measure, cfg.window, cfg.time, rng, cfg.method)
        payload = stit.tree_to_json(tree)
        text = (render_tessellation(stit.slice_at(tree, cfg.time))
                if svg else None)
    else:
        pattern = simulate_pht(cfg.measure, cfg.rho, cfg.window, rng)
        payload = pattern_to_json(pattern)
        text = render_pattern(pattern) if svg else None
    payload["seed"] = seed
    return payload, text


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
        print(f"{t},{lower_bound(t, params)}")
    return 0


def cmd_verify(args) -> int:
    if args.experiment == "all":
        names = list(EXPERIMENTS)
    elif args.experiment in EXPERIMENTS:
        names = [args.experiment]
    else:
        raise ConfigError(
            f"unknown experiment {args.experiment!r}; known: "
            + ", ".join(sorted(EXPERIMENTS) + ["all"]))
    if not 0 < args.n_scale <= _MAX_N_SCALE:  # also false for NaN
        raise ConfigError(f"--n-scale must be in (0, {_MAX_N_SCALE:g}]")
    _check_seed(args.seed)
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create --out-dir {args.out_dir}: {e}") from e
    all_ok = True
    for name in names:
        try:
            report = EXPERIMENTS[name](seed=args.seed, n_scale=args.n_scale)
        except StitSimError as e:
            raise type(e)(f"in experiment {name} at seed {args.seed}: "
                          f"{e}") from e
        report.write(args.out_dir)
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
