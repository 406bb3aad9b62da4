"""Workload definitions and seeded input generation for the stitsim benchmark.

A workload is a list of operations, each one `stitsim.cli.main(argv)` call
with the argv a user would type.  Verify workloads run registry
experiments (`experiments.EXPERIMENTS`) at a fixed `--n-scale`; the
simulate workload writes a few large single trajectories whose configs are
generated here from the workload seed.  No operation passes `--threads`,
so the program's own default is what gets measured.
"""

from __future__ import annotations

import json
import math
import os
import random

# Experiment names per verify workload, with the --n-scale that makes one
# pass (a fresh process running every experiment once) take a few seconds
# on a 2-vCPU machine.  Several passes then fit in one benchmark run, which
# is what makes the reported medians steady.  The scale is the same on
# every commit, so wall_s compares like with like.  It is below n-scale 1,
# the sample sizes the paper's claims are checked at, only because those
# (about 70 s for the fourteen experiments) are too long to repeat several
# times in one benchmark run.
# `determinism` is left out everywhere: it is a byte comparison that starts
# 4 threads, not a workload.
VERIFY = {
    "verify_trees": {
        "experiments": ["first_split", "capacity", "methods", "consistency",
                        "iteration", "self_similarity", "no_jump"],
        "n_scale": 0.1,
    },
    "verify_lineage": {
        "experiments": ["encapsulation_equality", "encapsulation_bound",
                        "inclusion", "cond_independence", "mixing_stit"],
        "n_scale": 0.15,
    },
    "verify_pht": {
        "experiments": ["mixing_pht", "pht_capacity"],
        "n_scale": 0.04,
    },
}

SIMULATE = "simulate_write"
WORKLOADS = list(VERIFY) + [SIMULATE]

# Trajectory sizes for simulate_write: about 50k tree nodes for the axis
# STIT, 10k for the isotropic STIT on a polygon and 28k hyperplanes for
# the PHT.  The seed moves shapes and orientations but keeps the expected
# amount of work fixed, so different seeds cost about the same.
AXIS_STIT_TIME = 80.0
ISO_STIT_TIME = 45.0
PHT_RHO = 7000.0


def cli_seed(seed: int) -> int:
    """The `--seed` passed to stitsim, derived from the workload seed."""
    return random.Random(seed).randrange(1, 2 ** 31 - 1)


def _axis_measure(gamma: float, w: float) -> dict:
    return {"gamma": gamma, "directional": {"kind": "discrete", "axes": [
        {"u": [1.0, 0.0], "w": w}, {"u": [0.0, 1.0], "w": 1.0 - w}]}}


def simulate_configs(seed: int) -> dict[str, dict]:
    """Three run configs for simulate_write, a pure function of the seed."""
    rnd = random.Random(seed)
    # Axis STIT on a box of area 16 and jittered aspect and weights.
    a = 4.0 * rnd.uniform(0.8, 1.25)
    axis_stit = {
        "model": "stit", "measure": _axis_measure(1.0, rnd.uniform(0.45, 0.55)),
        "window": {"kind": "box", "lo": [-a / 2, -8.0 / a], "hi": [a / 2, 8.0 / a]},
        "time": AXIS_STIT_TIME, "method": "direct",
    }
    # Isotropic STIT on a convex polygon with 5 to 8 jittered vertices on
    # a circle and a random rotation, scaled to area 16.
    k = rnd.randint(5, 8)
    phase = rnd.uniform(0.0, 2.0 * math.pi)
    angles = sorted(phase + 2.0 * math.pi * (i + rnd.uniform(-0.2, 0.2)) / k
                    for i in range(k))
    area = 0.5 * sum(math.sin(b - a) for a, b in zip(angles, angles[1:] + [angles[0]]))
    r = math.sqrt(16.0 / area)
    iso_stit = {
        "model": "stit", "measure": {"gamma": 1.0,
                                     "directional": {"kind": "isotropic2d"}},
        "window": {"kind": "polygon", "vertices": [
            [r * math.cos(t), r * math.sin(t)] for t in angles]},
        "time": ISO_STIT_TIME, "method": "direct",
    }
    # Axis PHT on a box of perimeter 16: the hitting mass stays 4.
    b = rnd.uniform(3.2, 4.8)
    pht = {
        "model": "pht", "measure": _axis_measure(1.0, 0.5),
        "window": {"kind": "box", "lo": [-b / 2, -(8.0 - b) / 2],
                   "hi": [b / 2, (8.0 - b) / 2]},
        "rho": PHT_RHO,
    }
    return {"axis_stit": axis_stit, "iso_stit": iso_stit, "pht": pht}


def operations(workload: str, seed: int, workdir: str) -> list[dict]:
    """The workload's operations as argv lists plus their output files.

    Every path lies under `workdir`.  Simulate operations carry the config
    they read; `write_inputs` puts it in place.
    """
    s = str(cli_seed(seed))
    ops = []
    if workload in VERIFY:
        spec = VERIFY[workload]
        out_dir = os.path.join(workdir, "reports")
        for name in spec["experiments"]:
            ops.append({
                "name": name, "kind": "verify",
                "argv": ["verify", name, "--seed", s,
                         "--n-scale", str(spec["n_scale"]), "--out-dir", out_dir],
                "outputs": [os.path.join(out_dir, f"{name}.json"),
                            os.path.join(out_dir, f"{name}.csv")],
            })
        return ops
    if workload != SIMULATE:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    for name, cfg in simulate_configs(seed).items():
        path = os.path.join(workdir, f"{name}.config.json")
        out = os.path.join(workdir, f"{name}.json")
        svg = os.path.join(workdir, f"{name}.svg")
        ops.append({
            "name": name, "kind": "simulate", "model": cfg["model"],
            "config": (path, cfg),
            "argv": ["simulate", "--config", path, "--seed", s,
                     "--out", out, "--svg", svg],
            "outputs": [out, svg],
        })
    return ops


def write_inputs(ops: list[dict]) -> None:
    for op in ops:
        if "config" in op:
            path, cfg = op["config"]
            with open(path, "w") as f:
                json.dump(cfg, f)
