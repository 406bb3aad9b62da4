"""Scripts under tools/."""

import importlib.util
from pathlib import Path

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
