"""Count how often each verification experiment passes over a range of seeds.

Usage (from the repository root):

    python3 tools/calibrate.py --seeds 1-50 --n-scale 1

Runs every experiment of `experiments.EXPERIMENTS` in-process, with the
sources of the checkout this script lives in, at each seed of the range and
the given n-scale, and writes no report file.  Prints one line per
experiment, `name  passes/seeds  failing seeds`, then the number of seeds at
which every experiment passed.  An experiment that raises a stitsim error
counts as failing at that seed.  At n-scale 1 the pass counts estimate each
gate's false-failure rate under the null.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from stitsim.errors import StitSimError  # noqa: E402
from stitsim.experiments import EXPERIMENTS  # noqa: E402


def seed_range(spec: str) -> list[int]:
    """'a-b' (both included) or a single seed 'a'; an empty range, b < a,
    is refused, since it would print a clean-looking table of 0/0."""
    first, _, last = spec.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {spec!r}")
    return seeds


def calibrate(seeds: list[int], n_scale: float) -> dict[str, list[int]]:
    """The seeds at which each experiment failed or raised."""
    failed = {name: [] for name in EXPERIMENTS}
    for seed in seeds:
        for name, run in EXPERIMENTS.items():
            try:
                passed = run(seed=seed, n_scale=n_scale).passed
            except StitSimError:
                passed = False
            if not passed:
                failed[name].append(seed)
    return failed


def table(failed: dict[str, list[int]], seeds: list[int]) -> list[str]:
    width = max(map(len, failed))
    lines = [f"{name:<{width}}  {len(seeds) - len(bad)}/{len(seeds)}  "
             + (" ".join(map(str, bad)) or "-")
             for name, bad in failed.items()]
    bad_seeds = set().union(*failed.values())
    lines.append(f"{'all':<{width}}  {len(seeds) - len(bad_seeds)}/{len(seeds)}"
                 f"  " + (" ".join(map(str, sorted(bad_seeds))) or "-"))
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_range, required=True,
                   help="'first-last' or one seed")
    p.add_argument("--n-scale", type=float, required=True)
    args = p.parse_args(argv)
    for line in table(calibrate(args.seeds, args.n_scale), args.seeds):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
