"""Print the sha256 of every file stitsim writes for one seed.

Usage (from the repository root):

    python3 tools/output_digests.py --seed 2 --n-scale 0.1

Runs, with the sources of the checkout this script lives in, `verify all`
at the given seed and n-scale, `simulate` on each `configs/*.json` at the
same seed (with `--svg` where the window is 2-D), and one `bound` grid, all
into a temporary directory.  The
printed lines are `sha256  name`, sorted by name; `verify.log`,
`bound.csv` and one `.log` per config hold each command's standard output
and exit code.  Two checkouts write the same bytes exactly when their
printed lines `diff` clean.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from stitsim.cli import main  # noqa: E402
from stitsim.config import window_from_json  # noqa: E402

BOUND = ["bound", "--lambda-inner", "4", "--masses", "1,1,1,1",
         "--t-grid", "0:5:0.25"]


def _run(argv: list[str], log: Path) -> None:
    """Run one CLI command and write its stdout and exit code to `log`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    log.write_text(f"{out.getvalue()}exit {code}\n")


def write_outputs(seed: int, n_scale: float, out: Path) -> None:
    _run(["verify", "all", "--seed", str(seed), "--n-scale", str(n_scale),
          "--out-dir", str(out / "verify")], out / "verify.log")
    for cfg in sorted((ROOT / "configs").glob("*.json")):
        argv = ["simulate", "--config", str(cfg), "--seed", str(seed),
                "--out", str(out / f"{cfg.stem}.json")]
        if window_from_json(json.loads(cfg.read_text())["window"]).dim == 2:
            argv += ["--svg", str(out / f"{cfg.stem}.svg")]
        _run(argv, out / f"{cfg.stem}.log")
    _run(BOUND, out / "bound.csv")


def digests(out: Path) -> list[tuple[str, str]]:
    return sorted((p.relative_to(out).as_posix(),
                   hashlib.sha256(p.read_bytes()).hexdigest())
                  for p in out.rglob("*") if p.is_file())


def main_digests(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n-scale", type=float, required=True)
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        write_outputs(args.seed, args.n_scale, out)
        for name, sha in digests(out):
            print(f"{sha}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main_digests())
