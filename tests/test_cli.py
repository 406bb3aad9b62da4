"""Command-line interface behavior and exit codes."""

import json
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from stitsim.cli import main, _parse_grid
from stitsim.errors import ConfigError

STIT_CONFIG = {
    "model": "stit",
    "measure": {"gamma": 2.0, "directional": {"kind": "discrete", "axes": [
        {"u": [1, 0], "w": 0.5}, {"u": [0, 1], "w": 0.5}]}},
    "window": {"kind": "box", "lo": [-1, -1], "hi": [1, 1]},
    "time": 1.0,
    "method": "direct",
}

PHT_CONFIG = {
    "model": "pht",
    "measure": STIT_CONFIG["measure"],
    "window": STIT_CONFIG["window"],
    "rho": 1.0,
}


def write_config(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def test_simulate_determinism(tmp_path):
    cfg = write_config(tmp_path, STIT_CONFIG)
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["simulate", "--config", cfg, "--seed", "7", "--out", out1]) == 0
    assert main(["simulate", "--config", cfg, "--seed", "7", "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    payload = json.loads(open(out1).read())
    assert payload["kind"] == "cell_tree"
    assert payload["seed"] == 7


def test_simulate_svg(tmp_path):
    cfg = write_config(tmp_path, STIT_CONFIG)
    out = str(tmp_path / "t.json")
    svg = str(tmp_path / "t.svg")
    assert main(["simulate", "--config", cfg, "--seed", "3", "--out", out,
                 "--svg", svg]) == 0
    root = ET.fromstring(open(svg).read())
    assert root.tag.endswith("svg")


def test_simulate_pht(tmp_path):
    cfg = write_config(tmp_path, PHT_CONFIG)
    out = str(tmp_path / "p.json")
    svg = str(tmp_path / "p.svg")
    assert main(["simulate", "--config", cfg, "--seed", "5", "--out", out,
                 "--svg", svg]) == 0
    payload = json.loads(open(out).read())
    assert payload["kind"] == "pht_pattern"
    ET.fromstring(open(svg).read())


def test_simulate_config_errors(tmp_path):
    bad = write_config(tmp_path, {**STIT_CONFIG, "unknown_key": 1})
    assert main(["simulate", "--config", bad, "--seed", "1",
                 "--out", str(tmp_path / "x.json")]) == 2
    mismatch = dict(PHT_CONFIG)
    mismatch["measure"] = {"gamma": 1.0, "directional": {"kind": "isotropic2d"}}
    mismatch["window"] = {"kind": "box", "lo": [-1, -1, -1], "hi": [1, 1, 1]}
    bad2 = write_config(tmp_path, mismatch, "m.json")
    assert main(["simulate", "--config", bad2, "--seed", "1",
                 "--out", str(tmp_path / "y.json")]) == 2
    assert main(["simulate", "--config", str(tmp_path / "missing.json"),
                 "--seed", "1", "--out", str(tmp_path / "z.json")]) == 2


def test_bound_csv(capsys):
    assert main(["bound", "--lambda-inner", "4", "--masses", "1,1,1,1",
                 "--t-grid", "0:2:0.5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,lower_bound"
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert vals == sorted(vals)
    assert vals[0] == 0.0

    assert main(["bound", "--lambda-inner", "4", "--masses", "1,1,1,1",
                 "--t-grid", "1000000"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert abs(float(out[-1].split(",")[1]) - 1 / 70) <= 1e-9


def test_bound_rejects_bad_mass(capsys):
    assert main(["bound", "--lambda-inner", "4", "--masses", "1,-1",
                 "--t-grid", "1"]) == 2


def test_parse_grid():
    assert _parse_grid("1,2,3") == [1.0, 2.0, 3.0]
    assert _parse_grid("0:1:0.25") == [0.0, 0.25, 0.5, 0.75, 1.0]
    with pytest.raises(ConfigError):
        _parse_grid("0:1:0:9")


def test_verify_smoke(tmp_path, capsys):
    out_dir = str(tmp_path / "reports")
    assert main(["verify", "capacity", "--seed", "2", "--n-scale", "0.03",
                 "--out-dir", out_dir]) == 0
    printed = capsys.readouterr().out
    assert "PASS capacity" in printed
    report = json.loads(open(f"{out_dir}/capacity.json").read())
    assert report["pass"] is True
    csv_text = open(f"{out_dir}/capacity.csv").read()
    assert csv_text.splitlines()[0].startswith("p_hat,")


def test_verify_unknown_experiment():
    assert main(["verify", "nosuch"]) == 2


BOUND = ["bound", "--lambda-inner", "4", "--masses", "1,1"]


@pytest.mark.parametrize("argv", [
    ["verify", "capacity", "--n-scale", "nan"],
    ["verify", "capacity", "--n-scale", "inf"],
    ["verify", "capacity", "--n-scale", "1e300"],
    ["verify", "capacity", "--seed", "-1"],
    ["verify", "capacity", "--seed", str(2 ** 64)],
    ["simulate", "--seed", "-1"],
    ["bound", "--lambda-inner", "nan", "--masses", "1", "--t-grid", "1"],
    ["bound", "--lambda-inner", "inf", "--masses", "1", "--t-grid", "1"],
    ["bound", "--lambda-inner", "4", "--masses", "1,nan", "--t-grid", "1"],
    BOUND + ["--t-grid", "0,nan,inf"],
    BOUND + ["--t-grid", "0:nan:1"],
    BOUND + ["--t-grid", "0:1:nan"],
    BOUND + ["--t-grid", "0:1:1e-300"],
    BOUND + ["--t-grid", "0:1:abc"],
    BOUND + ["--t-grid", "1e300:1e300:1"],
    BOUND + ["--t-grid=-1,0"],
], ids=["n_scale_nan", "n_scale_inf", "n_scale_huge", "verify_seed_negative",
        "verify_seed_65_bits", "simulate_seed_negative", "lambda_nan",
        "lambda_inf", "mass_nan", "grid_list_non_finite", "grid_stop_nan",
        "grid_step_nan", "grid_step_tiny", "grid_step_text",
        "grid_step_below_resolution", "grid_negative_time"])
def test_flags_reject_bad_numbers(tmp_path, capsys, monkeypatch, argv):
    from stitsim import cli

    def no_work(*_args, **_kwargs):
        raise AssertionError("work started before the flags were checked")

    monkeypatch.setitem(cli.ALL_EXPERIMENTS, "capacity", no_work)
    monkeypatch.setattr(cli, "stream", no_work)
    monkeypatch.setattr(cli, "lower_bound", no_work)
    if argv[0] == "simulate":
        argv = argv + ["--config", write_config(tmp_path, STIT_CONFIG),
                       "--out", str(tmp_path / "x.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_verify_has_no_threads_flag():
    # benchmark harnesses read the default; it must stay 1 and not be a flag
    from stitsim.cli import build_parser
    assert build_parser().parse_args(["verify", "all"]).threads == 1
    with pytest.raises(SystemExit) as e:
        build_parser().parse_args(["verify", "capacity", "--threads", "2"])
    assert e.value.code == 2


def test_simulate_runtime_error_exit_code(tmp_path, monkeypatch):
    from stitsim import stit
    monkeypatch.setattr(stit, "EVENT_CAP", 5)
    cfg = write_config(tmp_path, {**STIT_CONFIG, "time": 5.0})
    assert main(["simulate", "--config", cfg, "--seed", "1",
                 "--out", str(tmp_path / "x.json")]) == 3


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("cfg", [
    {**PHT_CONFIG, "measure": {**PHT_CONFIG["measure"], "gamma": NAN}},
    {**PHT_CONFIG, "rho": INF},
    {**STIT_CONFIG, "measure": {**STIT_CONFIG["measure"], "gamma": NAN}},
    {**STIT_CONFIG, "window": {"kind": "box", "lo": [-1, NAN], "hi": [1, 1]}},
    {**STIT_CONFIG, "time": INF},
], ids=["pht_gamma_nan", "pht_rho_inf", "stit_gamma_nan", "stit_window_nan",
        "stit_time_inf"])
def test_simulate_rejects_non_finite_numbers(tmp_path, capsys, cfg):
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path, "--seed", "1",
                 "--out", str(tmp_path / "x.json")]) == 2
    assert "must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("rho", [1e12, 1e30])
def test_simulate_oversized_pht_exit_code(tmp_path, capsys, rho):
    path = write_config(tmp_path, {**PHT_CONFIG, "rho": rho})
    assert main(["simulate", "--config", path, "--seed", "1",
                 "--out", str(tmp_path / "x.json")]) == 3
    err = capsys.readouterr().err
    assert "ExplosionGuard" in err and f"rho={rho:g}" in err
    assert f"hitting mass 4 expects {4 * rho:g} hyperplanes" in err


def test_verify_determinism_bytes(tmp_path):
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    for out in (out1, out2):
        assert main(["verify", "first_split", "--seed", "2", "--n-scale",
                     "0.03", "--out-dir", out]) == 0
    assert open(f"{out1}/first_split.json", "rb").read() == \
        open(f"{out2}/first_split.json", "rb").read()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "stitsim.cli", "bound", "--lambda-inner", "1",
         "--masses", "1", "--t-grid", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("t,lower_bound")
