"""Command-line interface behavior and exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from stitsim.cli import main, _parse_grid
from stitsim.config import window_from_json
from stitsim.errors import ConfigError
from stitsim.experiments import Report

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


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# sha256 of the JSON and the SVG `simulate --svg` writes at seed 3; a 3-D
# window has no SVG, so its entry pins the JSON of `simulate` alone.
# pht_isotropic_box is the polygon regime on a box window, whose line drawer
# reads the box's corners counterclockwise; stit_box3d_rejection is the box
# regime's window rain.
SIMULATE_GOLDEN = {
    "stit_axis": (
        "f1c9ed1756140a80c9b34cd2fd3184e4648a94e79a87c1e73c130bf9d04a9ecc",
        "7132a818def7ea5053463d5e257dac3ced1f67dbb2b2cadb7944719ce707b29f"),
    "stit_isotropic": (
        "a47af818fb679332f0e23f32029c5aa4ccadf2074b3c782750ae43d14f1fa5e9",
        "1034d8dc1b08361035c0b67e99139a7f10736f20edccb361e4cda961ed9326ef"),
    "pht_isotropic": (
        "b1ca17d736651c78bfca828d68f74a1d5cccd92ea919c54d7ce9c165afba9543",
        "c996c16decb9ba7e4e9e3d67c88e2da5d800afbf478d5a977bf3b7b5fac64911"),
    "pht_isotropic_box": (
        "7676ef67923f9d4a74e3b69e57c7bf774597b2c8b92c2f122ad5685ada86faea",
        "76e212a8ebcbb598e6ca78d6947da8608a896d227e1bd7e1463643f15cbafd39"),
    "stit_box3d_rejection": (
        "2e3401e78fbe6d3ddb7b822051081ff8590d5059b4b07937c6b105f3384f733c",
        None),
}


@pytest.mark.parametrize("name", sorted(SIMULATE_GOLDEN))
def test_simulate_output_golden(tmp_path, name):
    out, svg = tmp_path / "out.json", tmp_path / "out.svg"
    svg_golden = SIMULATE_GOLDEN[name][1]
    argv = ["simulate", "--config", str(CONFIGS / f"{name}.json"),
            "--seed", "3", "--out", str(out)]
    assert main(argv + (["--svg", str(svg)] if svg_golden else [])) == 0
    assert (hashlib.sha256(out.read_bytes()).hexdigest(),
            svg_golden and hashlib.sha256(svg.read_bytes()).hexdigest()
            ) == SIMULATE_GOLDEN[name]


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


@pytest.mark.parametrize("cfg", [
    5, None, {**STIT_CONFIG, "measure": 5},
    {**STIT_CONFIG, "measure": ["gamma", "directional"]},
], ids=["top_level_number", "top_level_null", "measure_number",
        "measure_list"])
def test_simulate_refuses_a_config_that_is_not_an_object(tmp_path, capsys,
                                                         cfg):
    # exit 1 means a failed verification, so a malformed file must exit 2
    assert main(["simulate", "--config", write_config(tmp_path, cfg),
                 "--seed", "1", "--out", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "must be a JSON object" in err


@pytest.mark.parametrize("vertices, repeated", [
    ([[0, 0], [2, 0], [0, 2], [0, 0]], "repeats vertex (0.0, 0.0)"),
    ([[0, 0], [2, 0], [2, 0], [0, 2]], "repeats vertex (2.0, 0.0)"),
], ids=["closed_ring", "repeated_vertex"])
def test_simulate_refuses_a_polygon_with_a_zero_length_edge(
        tmp_path, capsys, vertices, repeated):
    # a zero-length edge has no normal, which the facets and the SVG need,
    # so the window is a config error (exit 2), not a crash
    cfg = {"model": "pht", "rho": 1.0,
           "measure": {"gamma": 1.0, "directional": {"kind": "isotropic2d"}},
           "window": {"kind": "polygon", "vertices": vertices}}
    assert main(["simulate", "--config", write_config(tmp_path, cfg),
                 "--seed", "1", "--out", str(tmp_path / "x.json"),
                 "--svg", str(tmp_path / "x.svg")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and repeated in err


def test_bound_csv(capsys):
    assert main(["bound", "--lambda-inner", "4", "--masses", "1,1,1,1",
                 "--t-grid", "0:2:0.5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,lower_bound"
    assert lines[1] == "0.0,0.0"  # shortest round-trip float text
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


def test_verify_fails_when_a_gate_fails(tmp_path, capsys, monkeypatch):
    # a defect that passes through a real gate: first_split's target halved
    from stitsim import experiments as ex

    target = ex.empty_probability
    monkeypatch.setattr(ex, "empty_probability",
                        lambda *args: 0.5 * target(*args))
    one = tmp_path / "one"
    assert main(["verify", "first_split", "--seed", "2", "--n-scale", "0.03",
                 "--out-dir", str(one)]) == 1
    assert "FAIL first_split" in capsys.readouterr().out
    assert json.loads((one / "first_split.json").read_text())["pass"] is False

    # `verify all` fails when any one experiment does; the others pass here
    for name in ex.EXPERIMENTS:
        if name != "first_split":
            monkeypatch.setitem(ex.EXPERIMENTS, name,
                                lambda seed, n_scale, name=name:
                                Report(name, seed, {"n_scale": n_scale}))
    every = tmp_path / "all"
    assert main(["verify", "all", "--seed", "2", "--n-scale", "0.03",
                 "--out-dir", str(every)]) == 1
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in printed] == [
        "FAIL" if name == "first_split" else "PASS" for name in ex.EXPERIMENTS]
    assert len(list(every.glob("*.json"))) == len(ex.EXPERIMENTS)


def test_verify_unknown_experiment():
    assert main(["verify", "nosuch"]) == 2


BOUND = ["bound", "--lambda-inner", "4", "--masses", "1,1"]


def no_work(*_args, **_kwargs):
    raise AssertionError("work started before the flags were checked")


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

    monkeypatch.setitem(cli.EXPERIMENTS, "capacity", no_work)
    monkeypatch.setattr(cli, "stream", no_work)
    monkeypatch.setattr(cli, "lower_bound", no_work)
    if argv[0] == "simulate":
        argv = argv + ["--config", write_config(tmp_path, STIT_CONFIG),
                       "--out", str(tmp_path / "x.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error:")


STIT_3D_CONFIG = {
    **STIT_CONFIG,
    "measure": {"gamma": 3.0, "directional": {"kind": "discrete", "axes": [
        {"u": [1, 0, 0], "w": 0.5}, {"u": [0, 1, 0], "w": 0.25},
        {"u": [0, 0, 1], "w": 0.25}]}},
    "window": {"kind": "box", "lo": [-1, -1, -1], "hi": [1, 1, 1]},
}


@pytest.mark.parametrize("cfg, out, svg", [
    (STIT_3D_CONFIG, "x.json", "x.svg"),
    ({**PHT_CONFIG, "window": STIT_3D_CONFIG["window"],
      "measure": STIT_3D_CONFIG["measure"]}, "x.json", "x.svg"),
    (STIT_CONFIG, "missing/x.json", None),
    (PHT_CONFIG, "x.json", "missing/x.svg"),
    (STIT_CONFIG, ".", None),
    (STIT_CONFIG, "x.json", "x.json"),
], ids=["svg_of_3d_stit", "svg_of_3d_pht", "out_dir_missing", "svg_dir_missing",
        "out_is_a_directory", "svg_is_out"])
def test_simulate_refuses_unwritable_outputs_before_any_draw(
        tmp_path, capsys, monkeypatch, cfg, out, svg):
    from stitsim import cli

    monkeypatch.setattr(cli, "stream", no_work)
    argv = ["simulate", "--config", write_config(tmp_path, cfg), "--seed", "1",
            "--out", str(tmp_path / out)]
    if svg:
        argv += ["--svg", str(tmp_path / svg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_verify_creates_out_dir_before_any_experiment(tmp_path, capsys,
                                                       monkeypatch):
    from stitsim import cli

    monkeypatch.setitem(cli.EXPERIMENTS, "capacity", no_work)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["verify", "capacity", "--out-dir",
                 str(blocker / "reports")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1

    out_dir = tmp_path / "a" / "b"

    def report_into_existing_dir(seed, n_scale):
        assert out_dir.is_dir()
        return Report("capacity", seed, {"n_scale": n_scale})

    monkeypatch.setitem(cli.EXPERIMENTS, "capacity", report_into_existing_dir)
    assert main(["verify", "capacity", "--out-dir", str(out_dir)]) == 0
    assert json.loads((out_dir / "capacity.json").read_text())["pass"] is True


def test_verify_runtime_error_names_experiment_and_seed(tmp_path, capsys,
                                                        monkeypatch):
    from stitsim import cli
    from stitsim.errors import ExplosionGuard

    cause = ExplosionGuard("more than 10 events in one advance")

    def explode(seed, n_scale):
        raise cause

    monkeypatch.setitem(cli.EXPERIMENTS, "capacity", explode)
    argv = ["verify", "capacity", "--seed", "7", "--out-dir", str(tmp_path)]
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        "runtime error: ExplosionGuard: in experiment capacity at seed 7: "
        "more than 10 events in one advance\n")
    with pytest.raises(ExplosionGuard) as e:
        cli.cmd_verify(cli.build_parser().parse_args(argv))
    assert e.value.__cause__ is cause


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


def test_simulate_runtime_error_names_config_hash_and_seed(tmp_path, capsys,
                                                           monkeypatch):
    from stitsim import cli, stit
    from stitsim.config import config_hash
    from stitsim.errors import DegenerateCut

    cause = DegenerateCut("could not draw a non-degenerate split")

    def explode(*_args, **_kwargs):
        raise cause

    monkeypatch.setattr(stit, "simulate", explode)
    path = write_config(tmp_path, STIT_CONFIG)
    argv = ["simulate", "--config", path, "--seed", "9",
            "--out", str(tmp_path / "x.json")]
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        f"runtime error: DegenerateCut: in simulate of config "
        f"{config_hash(STIT_CONFIG)} at seed 9: "
        "could not draw a non-degenerate split\n")
    assert not (tmp_path / "x.json").exists()
    with pytest.raises(DegenerateCut) as e:
        cli.cmd_simulate(cli.build_parser().parse_args(argv))
    assert e.value.__cause__ is cause


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


@pytest.mark.parametrize("window", [
    {"kind": "box", "lo": [-1, -600], "hi": [1, 1]},
    {"kind": "polygon", "vertices": [[0, 0], [500.5, 0], [0, 1]]},
], ids=["box", "polygon"])
def test_simulate_rejects_window_out_of_range(tmp_path, capsys, window):
    # geometry tolerances are absolute and assume window sides below 1e3
    path = write_config(tmp_path, {**STIT_CONFIG, "window": window})
    assert main(["simulate", "--config", path, "--seed", "1",
                 "--out", str(tmp_path / "x.json")]) == 2
    assert "is outside [-500, 500]" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()
    edge = window_from_json({"kind": "box", "lo": [-500, -500], "hi": [500, 500]})
    assert edge.hi == (500.0, 500.0)


def test_simulate_rejects_star_polygon_window(tmp_path, capsys):
    # a pentagram turns the same way at every vertex but is not convex
    star = [[math.cos(math.radians(90 + 144 * k)),
             math.sin(math.radians(90 + 144 * k))] for k in range(5)]
    path = write_config(tmp_path, {**STIT_CONFIG, "measure": {
        "gamma": 2.0, "directional": {"kind": "isotropic2d"}},
        "window": {"kind": "polygon", "vertices": star}})
    assert main(["simulate", "--config", path, "--seed", "3",
                 "--out", str(tmp_path / "x.json")]) == 2
    assert "wind more than once" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("rho", [1e12, 1e30])
def test_simulate_oversized_pht_exit_code(tmp_path, capsys, rho):
    path = write_config(tmp_path, {**PHT_CONFIG, "rho": rho})
    assert main(["simulate", "--config", path, "--seed", "1",
                 "--out", str(tmp_path / "x.json")]) == 3
    err = capsys.readouterr().err
    assert "ExplosionGuard" in err and f"rho={rho:g}" in err
    assert f"hitting mass 4 expects {4 * rho:g} hyperplanes" in err


def test_simulate_huge_stit_time_exit_code(tmp_path, capsys):
    # mass 4 times 1e12 is far over the event cap: refused before any draw
    path = write_config(tmp_path, {**STIT_CONFIG, "time": 1e12})
    assert main(["simulate", "--config", path, "--seed", "1",
                 "--out", str(tmp_path / "x.json")]) == 3
    err = capsys.readouterr().err
    assert "ExplosionGuard" in err and "dt=1e+12" in err
    assert "hitting mass 4 expects at least 4e+12 events" in err
    assert not (tmp_path / "x.json").exists()


def test_verify_determinism_bytes(tmp_path):
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    for out in (out1, out2):
        assert main(["verify", "first_split", "--seed", "2", "--n-scale",
                     "0.03", "--out-dir", out]) == 0
    assert open(f"{out1}/first_split.json", "rb").read() == \
        open(f"{out2}/first_split.json", "rb").read()


def test_console_entry_point():
    # the subprocess does not inherit pytest's pythonpath, so put src first
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "stitsim.cli", "bound", "--lambda-inner", "1",
         "--masses", "1", "--t-grid", "1"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert proc.stdout.startswith("t,lower_bound")
