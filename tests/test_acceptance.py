"""Acceptance suite: every criterion at full scale with its stated tolerance.

Each test prints one PASS/FAIL line; run with `pytest -s tests/test_acceptance.py`
or `stitsim verify all` for report files.
"""

import json

from stitsim import experiments as ex
from stitsim.cli import main
from stitsim.stats import binomial_sigma

SEED = 1


def announce(num, name, passed, detail=""):
    line = f"ACCEPTANCE {num:2d} {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


def test_01_exponential_first_split():
    rep = ex.run_first_split(seed=SEED)
    row = rep.rows[0]
    announce(1, "exponential first split", rep.passed,
             f"p_hat={row['p_hat']:.5f} target={row['target']:.5f} n={rep.config['n']}")


def test_02_method_equivalence():
    rep = ex.run_methods(seed=SEED)
    ps = {r["statistic"]: r["p_value"] for r in rep.rows}
    announce(2, "rejection vs direct", rep.passed,
             " ".join(f"p[{k}]={v:.3f}" for k, v in ps.items()))


def test_03_window_consistency():
    rep = ex.run_consistency(seed=SEED)
    ps = {r["statistic"]: r["p_value"] for r in rep.rows}
    announce(3, "window consistency", rep.passed,
             " ".join(f"p[{k}]={v:.3f}" for k, v in ps.items()))


def test_04_iteration_law():
    rep = ex.run_iteration(seed=SEED)
    ps = {r["statistic"]: r["p_value"] for r in rep.rows}
    announce(4, "iteration law", rep.passed,
             " ".join(f"p[{k}]={v:.3f}" for k, v in ps.items()))


def test_05_self_similarity_with_power_check():
    rep = ex.run_self_similarity(seed=SEED)
    ps = {r["statistic"]: r["p_value"] for r in rep.rows}
    announce(5, "self-similarity + power", rep.passed,
             " ".join(f"p[{k}]={v:.3g}" for k, v in ps.items()))


def test_06_encapsulation_equality():
    rep = ex.run_encapsulation_equality(seed=SEED)
    ok = rep.passed
    last = rep.rows[-1]
    # the largest grid point doubles as the analytic-limit check
    n = rep.config["n"]
    limit_ok = abs(last["p_hat"] - 1 / 70) <= 4 * binomial_sigma(1 / 70, n)
    announce(6, "encapsulation equality", ok and limit_ok,
             f"largest t: p_hat={last['p_hat']:.5f} vs 1/70={1 / 70:.5f}")


def test_07_encapsulation_bound_isotropic():
    rep = ex.run_encapsulation_bound(seed=SEED)
    worst = min(r["p_hat"] - r["bound"] for r in rep.rows)
    announce(7, "encapsulation bound (isotropic)", rep.passed,
             f"min(p_hat - bound)={worst:.5f}")


def test_08_coupled_inclusion():
    rep = ex.run_inclusion(seed=SEED)
    row = rep.rows[0]
    announce(8, "coupled inclusion", rep.passed,
             f"sufficient={row['sufficient_events']} violations={row['violations']}")


def test_09_conditional_independence():
    rep = ex.run_cond_independence(seed=SEED)
    row = rep.rows[0]
    announce(9, "conditional independence", rep.passed,
             f"gap={row['gap']:.5f} 4sigma={row['tolerance']:.5f} "
             f"n_cond={row['n_conditioned']}")


def test_10_mixing_decay_and_pht_witness():
    rep_stit = ex.run_mixing_stit(seed=SEED)
    last = rep_stit.rows[-1]
    rep_pht = ex.run_mixing_pht(seed=SEED)
    ok = rep_stit.passed and rep_pht.passed
    announce(10, "mixing decay + PHT witness", ok,
             f"stit gap(32)={last['gap']:.5f} 2sigma={2 * last['sigma']:.5f}; "
             f"pht p_hat={rep_pht.rows[0]['p_hat']:.5f} "
             f"target={rep_pht.rows[0]['p_target']:.5f}")


def test_11_pht_capacity():
    rep = ex.run_pht_capacity(seed=SEED)
    row = rep.rows[0]
    announce(11, "pht capacity", rep.passed,
             f"p_hat={row['p_hat']:.6f} target={row['target']:.6f}")


def test_12_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": "stit",
        "measure": {"gamma": 2.0, "directional": {"kind": "discrete", "axes": [
            {"u": [1, 0], "w": 0.5}, {"u": [0, 1], "w": 0.5}]}},
        "window": {"kind": "box", "lo": [-1, -1], "hi": [1, 1]},
        "time": 1.0, "method": "direct"}))
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / f"{name}.json")
        assert main(["simulate", "--config", str(cfg), "--seed", "11",
                     "--out", out]) == 0
        outs.append(open(out, "rb").read())
    sim_ok = outs[0] == outs[1]

    reports = []
    for name in ("r1", "r2"):
        out_dir = str(tmp_path / name)
        assert main(["verify", "capacity", "--seed", "2", "--n-scale", "0.05",
                     "--out-dir", out_dir]) == 0
        reports.append(open(f"{out_dir}/capacity.json", "rb").read())
    verify_ok = reports[0] == reports[1]

    lib = ex.run_determinism(seed=SEED)
    announce(12, "determinism", sim_ok and verify_ok and lib.passed,
             f"simulate={sim_ok} verify={verify_ok}")
