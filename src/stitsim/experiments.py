"""Named Monte-Carlo experiments checking the distributional identities.

Each experiment is deterministic given (config, seed), compares empirical
frequencies or two-sample statistics against closed-form targets, and
returns a Report with one row per grid point plus a machine-readable
verdict.  Binomial comparisons use 4-sigma tolerances; two-sample tests
pass at p > 0.005, lenient enough that a suite of this size keeps a small
family-wise false-failure rate under the null.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from . import rain, stit
from .config import config_hash, measure_to_json, sanitize
from .encapsulation import (Band, EncapsulationProblem, build_window,
                            lower_bound)
from .errors import AmbiguousZeroCell, DegenerateCut, TooFewConditioned
from .measure import DrivingMeasure, axis_measure, isotropic_measure, measure_hitting
from .pht import simulate_pht, tail_event_hits_ball
from .rng import run_replicates
from .stats import (binomial_sigma, estimate_from_hits, gap_estimate,
                    ks_two_sample)

KS_ALPHA = 0.005
SIGMAS = 4.0


@dataclass
class Report:
    experiment: str
    seed: int
    config: dict
    rows: list[dict] = field(default_factory=list)
    passed: bool = True
    notes: str = ""

    def to_json(self) -> dict:
        return sanitize({
            "experiment": self.experiment,
            "config_hash": config_hash(self.config),
            "seed": self.seed,
            "pass": bool(self.passed),
            "config": self.config,
            "rows": self.rows,
            "notes": self.notes,
        })


def _scaled(n: int, n_scale: float, floor: int = 100) -> int:
    return max(floor, int(round(n * n_scale)))


def _with_resample(body):
    """Re-run a replicate on measure-zero geometric degeneracies."""
    def run(i, rng):
        for _ in range(20):
            try:
                return body(i, rng)
            except (AmbiguousZeroCell, DegenerateCut):
                continue
        raise AmbiguousZeroCell("persistently degenerate trajectory")
    return run


def _stat_sample(measure, window, t, n, seed, method="direct",
                 base=0, slice_time=None, transform=None):
    """Replicated (cell_count, boundary) statistics of one simulation recipe."""
    s_at = slice_time if slice_time is not None else t

    @_with_resample
    def one(_i, rng):
        T = stit.slice_at(stit.simulate(measure, window, t, rng, method), s_at)
        if transform is not None:
            T = transform(T)
        st = stit.summary_stats(T, measure)
        return st.cell_count, st.boundary

    arr = np.asarray(run_replicates(one, n, seed, base), dtype=float)
    return arr[:, 0], arr[:, 1]


def _ks_rows(pairs, n1, n2):
    rows = []
    ok = True
    for name, xs, ys in pairs:
        r = ks_two_sample(xs, ys)
        verdict = r.p_value > KS_ALPHA
        ok &= verdict
        rows.append({"statistic": name, "ks_d": r.statistic,
                     "p_value": r.p_value, "n1": n1, "n2": n2,
                     "threshold": KS_ALPHA,
                     "verdict": "PASS" if verdict else "FAIL"})
    return rows, ok


# ---------------------------------------------------------------------------
# survival / capacity

def experiment_first_split(measure, window, t, n, seed) -> Report:
    """Survival of the whole window: P(no jump by t) = exp(-t mass(window))."""
    target = math.exp(-t * measure_hitting(measure, window))

    @_with_resample
    def one(_i, rng):
        tree = stit.simulate(measure, window, t, rng)
        return len(tree.jump_times) == 0

    hits_ = sum(run_replicates(one, n, seed))
    return _binomial_report("first_split", seed, {
        "measure": measure_to_json(measure),
        "window": geo.polytope_to_json(window), "t": t, "n": n,
    }, hits_, n, target)


def experiment_capacity(measure, t, inner, window, n, seed) -> Report:
    """Restriction to an inner window is trivial with prob exp(-t mass(inner))."""
    target = math.exp(-t * measure_hitting(measure, inner))

    @_with_resample
    def one(_i, rng):
        T = stit.slice_at(stit.simulate(measure, window, t, rng), t)
        return len(stit.restrict(T, inner).cells) == 1

    hits_ = sum(run_replicates(one, n, seed))
    return _binomial_report("capacity", seed, {
        "measure": measure_to_json(measure), "t": t, "n": n,
        "inner": geo.polytope_to_json(inner),
        "window": geo.polytope_to_json(window),
    }, hits_, n, target)


def _binomial_report(name, seed, config, hits_, n, target) -> Report:
    est = estimate_from_hits(hits_, n, seed)
    sigma = binomial_sigma(target, n)
    ok = abs(est.p_hat - target) <= SIGMAS * sigma
    row = {"p_hat": est.p_hat, "ci_lo": est.ci_lo, "ci_hi": est.ci_hi,
           "target": target, "sigma": sigma, "tolerance": SIGMAS * sigma,
           "verdict": "PASS" if ok else "FAIL"}
    return Report(name, seed, config, [row], ok)


# ---------------------------------------------------------------------------
# law-equality experiments (two-sample KS)

def experiment_methods(measure, window, t, n, seed) -> Report:
    """Rejection and direct constructions produce the same law."""
    c1, b1 = _stat_sample(measure, window, t, n, seed, "direct", base=0)
    c2, b2 = _stat_sample(measure, window, t, n, seed, "rejection", base=n)
    rows, ok = _ks_rows([("cell_count", c1, c2), ("boundary", b1, b2)], n, n)
    return Report("methods", seed, {
        "measure": measure_to_json(measure),
        "window": geo.polytope_to_json(window), "t": t, "n": n,
    }, rows, ok)


def experiment_consistency(measure, window, inner, t, n, seed) -> Report:
    """Restriction commutes with simulation in distribution."""
    @_with_resample
    def one_restricted(_i, rng):
        T = stit.slice_at(stit.simulate(measure, window, t, rng), t)
        st = stit.summary_stats(stit.restrict(T, inner), measure)
        return st.cell_count, st.boundary

    arr = np.asarray(run_replicates(one_restricted, n, seed), dtype=float)
    c2, b2 = _stat_sample(measure, inner, t, n, seed, base=n)
    rows, ok = _ks_rows([("cell_count", arr[:, 0], c2),
                         ("boundary", arr[:, 1], b2)], n, n)
    return Report("consistency", seed, {
        "measure": measure_to_json(measure), "t": t, "n": n,
        "window": geo.polytope_to_json(window),
        "inner": geo.polytope_to_json(inner),
    }, rows, ok)


def experiment_iteration(measure, window, t, s, n, seed) -> Report:
    """Running to t+s agrees in law with nesting fresh copies at s into the
    state at t."""
    c1, b1 = _stat_sample(measure, window, t + s, n, seed, base=0)

    @_with_resample
    def one_nested(_i, rng):
        T = stit.slice_at(stit.simulate(measure, window, t, rng), t)
        nests = []
        for _ in range(len(T.cells)):
            R = stit.slice_at(stit.simulate(measure, window, s, rng), s)
            nests.append(R)
        st = stit.summary_stats(stit.iterate(T, nests), measure)
        return st.cell_count, st.boundary

    arr = np.asarray(run_replicates(one_nested, n, seed, base_index=n),
                     dtype=float)
    rows, ok = _ks_rows([("cell_count", c1, arr[:, 0]),
                         ("boundary", b1, arr[:, 1])], n, n)
    return Report("iteration", seed, {
        "measure": measure_to_json(measure), "t": t, "s": s, "n": n,
        "window": geo.polytope_to_json(window),
    }, rows, ok)


def experiment_self_similarity(measure, window, t, n, seed,
                               power_factor=3.0) -> Report:
    """The state at t agrees in law with the state at 2t in the half window
    scaled back up; a deliberately mismatched factor must be rejected."""
    half = geo.scale(window, 0.5)

    def scaled_sample(factor, base):
        return _stat_sample(measure, half, factor * t, n, seed, base=base,
                            transform=lambda T: stit.scale_tessellation(T, 2.0))

    c1, b1 = _stat_sample(measure, window, t, n, seed, base=0)
    c2, b2 = scaled_sample(2.0, n)
    rows, ok = _ks_rows([("cell_count", c1, c2), ("boundary", b1, b2)], n, n)

    c3, b3 = scaled_sample(power_factor, 2 * n)
    power_rows, _ = _ks_rows([("cell_count_power", c1, c3),
                              ("boundary_power", b1, b3)], n, n)
    power_ok = min(r["p_value"] for r in power_rows) < KS_ALPHA
    for r in power_rows:
        r["verdict"] = "PASS" if power_ok else "FAIL"
    return Report("self_similarity", seed, {
        "measure": measure_to_json(measure), "t": t, "n": n,
        "window": geo.polytope_to_json(window), "power_factor": power_factor,
    }, rows + power_rows, ok and power_ok,
        notes="power rows PASS means the mismatched law was detected")


# ---------------------------------------------------------------------------
# encapsulation

def equality_problem(alpha: float, beta: float, g) -> EncapsulationProblem:
    """Concentric boxes under the axis measure with the full separating sets
    as bands, where the probability bound is an equality."""
    if not 0 < alpha < beta:
        raise ValueError("need 0 < alpha < beta")
    g = [float(x) for x in g]
    ell = len(g)
    measure = axis_measure(g)
    inner = geo.Box((-alpha,) * ell, (alpha,) * ell)
    outer = geo.Box((-beta,) * ell, (beta,) * ell)
    bands = []
    for c in range(ell):
        u = tuple(1.0 if i == c else 0.0 for i in range(ell))
        mu = tuple(-x for x in u)
        mass = g[c] * (beta - alpha)
        bands.append(Band(u, alpha, beta, 0.0, mass))
        bands.append(Band(mu, alpha, beta, 0.0, mass))
    return EncapsulationProblem(inner, outer, measure, tuple(bands))


def experiment_encapsulation(problem: EncapsulationProblem, t_grid, n, seed,
                             mode="bound") -> Report:
    """Empirical P(encapsulation by t) against the closed-form lower bound.

    mode='equality' asserts two-sided agreement (axis measure, full bands);
    mode='bound' asserts empirical >= bound - 4 sigma.
    """
    t_grid = sorted(t_grid)
    horizon = max(t_grid)
    scan = rain.zero_cell_scan(problem.measure, problem.outer, problem.inner,
                               horizon, n, seed)
    a_s = rain.encapsulation_times(scan)
    params = problem.params()
    rows = []
    ok = True
    for t in t_grid:
        hits_ = int((a_s <= t).sum())
        est = estimate_from_hits(hits_, n, seed)
        bound = lower_bound(t, params)
        sigma = binomial_sigma(bound if bound > 0 else est.p_hat, n)
        if mode == "equality":
            verdict = abs(est.p_hat - bound) <= SIGMAS * sigma
        else:
            verdict = est.p_hat >= bound - SIGMAS * sigma
        ok &= verdict
        rows.append({"t": t, "p_hat": est.p_hat, "ci_lo": est.ci_lo,
                     "ci_hi": est.ci_hi, "bound": bound, "sigma": sigma,
                     "mode": mode, "verdict": "PASS" if verdict else "FAIL"})
    return Report("encapsulation_" + mode, seed, {
        "measure": measure_to_json(problem.measure), "n": n, "mode": mode,
        "inner": geo.polytope_to_json(problem.inner),
        "outer": geo.polytope_to_json(problem.outer),
        "band_masses": [b.mass for b in problem.bands],
        "lambda_inner": params.lambda_inner, "t_grid": list(t_grid),
    }, rows, ok)


def experiment_inclusion(problem: EncapsulationProblem, t, n, seed) -> Report:
    """Pathwise check that the sufficient event implies encapsulation.

    Both sides are driven by the same hyperplane rain: the band and inner
    first-hit clocks and the origin-cell trajectory are read off one coupled
    realization per replicate; the inclusion must never be violated.
    """
    scan = rain.zero_cell_scan(problem.measure, problem.outer, problem.inner,
                               t, n, seed, bands=problem.bands)
    m = scan["sigma_bands"].max(axis=1)
    sufficient = m <= np.minimum(scan["sigma_inner"], t)
    a_s = rain.encapsulation_times(scan)
    violations = int((sufficient & ~(a_s <= t)).sum())
    occurred = int(sufficient.sum())
    ok = violations == 0
    rows = [{"t": t, "n": n, "sufficient_events": occurred,
             "violations": violations,
             "bound": lower_bound(t, problem.params()),
             "verdict": "PASS" if ok else "FAIL"}]
    return Report("inclusion", seed, {
        "measure": measure_to_json(problem.measure), "t": t, "n": n,
        "inner": geo.polytope_to_json(problem.inner),
        "outer": geo.polytope_to_json(problem.outer),
        "band_masses": [b.mass for b in problem.bands],
    }, rows, ok)


def experiment_cond_independence(measure, inner, enclosure, sim_window, probe,
                                 t, t2, n, seed, min_conditioned=200) -> Report:
    """Conditioned on early encapsulation, an inside avoidance event and an
    outside avoidance event decorrelate.

    D = {inner window uncut at t}, E = {probe uncut at t}; conditioning is
    the integrated event {encapsulation time < t2}.
    """
    if not t2 < t:
        raise ValueError("need t2 < t")
    scan = rain.pair_scan(measure, sim_window, inner, probe, t, n, seed,
                          enclosure=enclosure)
    a_s = np.where(scan["tau_enc"] < scan["cut_a"], scan["tau_enc"], np.inf)
    cond = a_s < t2
    n_cond = int(cond.sum())
    if n_cond < min_conditioned:
        raise TooFewConditioned(
            f"only {n_cond} conditioned replicates (< {min_conditioned}); "
            "increase n or t2")
    d = (scan["cut_a"] > t)[cond]
    e = (scan["cut_b"] > t)[cond]
    gap, sigma = gap_estimate(d, e)
    ok = abs(gap) <= SIGMAS * sigma
    rows = [{"t": t, "t2": t2, "n": n, "n_conditioned": n_cond,
             "rate_conditioned": n_cond / n,
             "p_inside": float(d.mean()), "p_outside": float(e.mean()),
             "p_joint": float((d & e).mean()),
             "gap": gap, "sigma": sigma, "tolerance": SIGMAS * sigma,
             "verdict": "PASS" if ok else "FAIL"}]
    return Report("cond_independence", seed, {
        "measure": measure_to_json(measure), "t": t, "t2": t2, "n": n,
        "inner": geo.polytope_to_json(inner),
        "enclosure": geo.polytope_to_json(enclosure),
        "sim_window": geo.polytope_to_json(sim_window),
        "probe": [list(p) for p in probe.pts],
    }, rows, ok)


# ---------------------------------------------------------------------------
# mixing

def _segment(y: float, half: float = 1.0) -> geo.Face:
    return geo.Face(((-half, y), (half, y)))


def experiment_mixing_stit(measure, t, h_grid, n, seed, margin=2.0) -> Report:
    """Avoidance events of two segments decorrelate as their distance grows.

    Asserts the gap at the largest separation is within 2 sigma of zero and
    that the gap profile is non-increasing within noise.
    """
    h_grid = sorted(h_grid)
    rows = []
    gaps = []
    sigmas = []
    for j, h in enumerate(h_grid):
        window = geo.Box((-1.0 - margin, -margin), (1.0 + margin, h + margin))
        body_d = _segment(0.0)
        body_e = _segment(float(h))
        scan = rain.pair_scan(measure, window, body_d, body_e, t, n, seed + j)
        d = np.isinf(scan["cut_a"]).astype(float)
        e = np.isinf(scan["cut_b"]).astype(float)
        gap, sigma = gap_estimate(d, e)
        gaps.append(gap)
        sigmas.append(sigma)
        rows.append({"h": h, "gap": gap, "sigma": sigma,
                     "p_d": float(d.mean()), "p_e": float(e.mean()),
                     "p_joint": float((d * e).mean()), "n": n})
    ok = abs(gaps[-1]) <= 2.0 * sigmas[-1]
    rows[-1]["verdict"] = "PASS" if ok else "FAIL"
    mono = True
    for j in range(len(gaps) - 1):
        comb = math.hypot(sigmas[j], sigmas[j + 1])
        step_ok = gaps[j + 1] <= gaps[j] + 2.0 * comb
        mono &= step_ok
        rows[j]["verdict"] = "PASS" if step_ok else "FAIL"
    return Report("mixing_stit", seed, {
        "measure": measure_to_json(measure), "t": t, "n": n,
        "h_grid": list(h_grid), "margin": margin,
    }, rows, ok and mono,
        notes="last row: gap within 2 sigma of zero; others: non-increasing")


def experiment_mixing_pht(measure, rho, h_grid, n, seed, margin=2.2) -> Report:
    """Poisson hyperplane witness of long-range dependence.

    With axis directions, the hyperplanes hitting a segment also hit every
    vertical translate of it, so the gap stays at p(1-p) for all h instead
    of decaying; p itself must match 1 - exp(-rho mass(segment)).
    """
    h_grid = sorted(h_grid)
    body_d = _segment(0.0)
    p_target = 1.0 - math.exp(-rho * measure_hitting(measure, body_d))
    gap_target = p_target * (1.0 - p_target)
    rows = []
    ok = True
    for j, h in enumerate(h_grid):
        window = geo.Box((-1.0 - margin, -margin), (1.0 + margin, h + margin))
        body_e = _segment(float(h))

        def one(_i, rng):
            pat = simulate_pht(measure, rho, window, rng)
            return (tail_event_hits_ball(pat, body_d),
                    tail_event_hits_ball(pat, body_e))

        arr = np.asarray(run_replicates(one, n, seed + j), dtype=float)
        gap, sigma = gap_estimate(arr[:, 0], arr[:, 1])
        p_hat = float(arr[:, 0].mean())
        p_sigma = binomial_sigma(p_target, n)
        good = (gap >= gap_target - SIGMAS * max(sigma, 1e-12)
                and abs(p_hat - p_target) <= SIGMAS * p_sigma)
        ok &= good
        rows.append({"h": h, "gap": gap, "sigma": sigma,
                     "gap_target": gap_target, "p_hat": p_hat,
                     "p_target": p_target, "n": n,
                     "verdict": "PASS" if good else "FAIL"})
    return Report("mixing_pht", seed, {
        "measure": measure_to_json(measure), "rho": rho, "n": n,
        "h_grid": list(h_grid), "margin": margin,
    }, rows, ok)


# ---------------------------------------------------------------------------
# Poisson hyperplane capacity

def experiment_pht_capacity(measure, rho, window, body, n, seed) -> Report:
    """Avoidance frequency of a test body matches exp(-rho mass(body))."""
    target = math.exp(-rho * measure_hitting(measure, body))

    def one(_i, rng):
        pat = simulate_pht(measure, rho, window, rng)
        return not tail_event_hits_ball(pat, body)

    hits_ = sum(run_replicates(one, n, seed))
    rep = _binomial_report("pht_capacity", seed, {
        "measure": measure_to_json(measure), "rho": rho, "n": n,
        "window": geo.polytope_to_json(window),
        "body": geo.polytope_to_json(body),
    }, hits_, n, target)
    return rep


# ---------------------------------------------------------------------------
# jump scarcity

def experiment_no_jump(measure, inner, t, t2_grid, n, seed) -> Report:
    """P(no jump in [t - t2, t)) is non-increasing in t2 within noise.

    Also reports the plug-in comparison exp(-t2 E[zeta_t]) per grid point;
    zeta is random, so the comparison is informational only.
    """
    t2_grid = sorted(t2_grid)

    @_with_resample
    def one(_i, rng):
        tree = stit.simulate(measure, inner, t, rng)
        jumps = np.asarray(tree.jump_times)
        flags = [not ((jumps >= t - t2) & (jumps < t)).any() for t2 in t2_grid]
        zeta = stit.summary_stats(stit.slice_at(tree, t), measure).zeta
        return flags, zeta

    out = run_replicates(one, n, seed)
    flags = np.asarray([r[0] for r in out], dtype=float)
    zeta_mean = float(np.mean([r[1] for r in out]))
    freqs = flags.mean(axis=0)
    rows = []
    ok = True
    for j, t2 in enumerate(t2_grid):
        sigma = binomial_sigma(freqs[j], n)
        row = {"t2": t2, "freq": float(freqs[j]), "sigma": sigma,
               "plugin_bound": math.exp(-t2 * zeta_mean), "zeta_mean": zeta_mean}
        if j > 0:
            comb = math.hypot(sigma, binomial_sigma(freqs[j - 1], n))
            good = freqs[j] <= freqs[j - 1] + 2.0 * comb
            ok &= good
            row["verdict"] = "PASS" if good else "FAIL"
        rows.append(row)
    return Report("no_jump", seed, {
        "measure": measure_to_json(measure), "t": t, "n": n,
        "inner": geo.polytope_to_json(inner), "t2_grid": list(t2_grid),
    }, rows, ok)


# ---------------------------------------------------------------------------
# registry of acceptance-scale experiment configurations

def _m11() -> DrivingMeasure:
    return axis_measure([1.0, 1.0])


def run_first_split(seed=1, n_scale=1.0):
    return experiment_first_split(_m11(), geo.Box((-1, -1), (1, 1)), 0.25,
                                  _scaled(10_000, n_scale), seed)


def run_capacity(seed=1, n_scale=1.0):
    return experiment_capacity(_m11(), 0.25, geo.Box((-1, -1), (1, 1)),
                               geo.Box((-2, -2), (2, 2)),
                               _scaled(10_000, n_scale), seed)


def run_methods(seed=1, n_scale=1.0):
    return experiment_methods(_m11(), geo.Box((-1, -1), (1, 1)), 1.0,
                              _scaled(5_000, n_scale), seed)


def run_consistency(seed=1, n_scale=1.0):
    return experiment_consistency(_m11(), geo.Box((-2, -2), (2, 2)),
                                  geo.Box((-1, -1), (1, 1)), 1.0,
                                  _scaled(5_000, n_scale), seed)


def run_iteration(seed=1, n_scale=1.0):
    return experiment_iteration(_m11(), geo.Box((-2, -2), (2, 2)), 0.5, 0.5,
                                _scaled(3_000, n_scale), seed)


def run_self_similarity(seed=1, n_scale=1.0):
    return experiment_self_similarity(_m11(), geo.Box((-2, -2), (2, 2)), 0.5,
                                      _scaled(5_000, n_scale), seed)


def run_encapsulation_equality(seed=1, n_scale=1.0):
    prob = equality_problem(1.0, 2.0, [1.0, 1.0])
    return experiment_encapsulation(prob, (0.5, 1.0, 1.5, 2.5, 6.0),
                                    _scaled(20_000, n_scale), seed,
                                    mode="equality")


def run_encapsulation_bound(seed=1, n_scale=1.0):
    prob = build_window(geo.Box((-1, -1), (1, 1)).to_polygon(),
                        isotropic_measure(1.0))
    return experiment_encapsulation(prob, (0.5, 1.0, 2.0, 3.0),
                                    _scaled(10_000, n_scale), seed,
                                    mode="bound")


def run_inclusion(seed=1, n_scale=1.0):
    prob = build_window(geo.Box((-1, -1), (1, 1)), _m11())
    return experiment_inclusion(prob, 2.0, _scaled(10_000, n_scale), seed)


def run_cond_independence(seed=1, n_scale=1.0):
    return experiment_cond_independence(
        _m11(), geo.Box((-1, -1), (1, 1)), geo.Box((-2, -2), (2, 2)),
        geo.Box((-3.2, -3.2), (3.2, 3.2)), geo.Face(((2.5, 0.0), (3.0, 0.0))),
        1.2, 1.0, _scaled(1_000_000, n_scale), seed)


def run_mixing_stit(seed=1, n_scale=1.0):
    return experiment_mixing_stit(_m11(), 1.5, (2, 4, 8, 16, 32),
                                  _scaled(20_000, n_scale), seed)


def run_mixing_pht(seed=1, n_scale=1.0):
    return experiment_mixing_pht(_m11(), 1.0, (2, 8, 32),
                                 _scaled(20_000, n_scale), seed)


def run_pht_capacity(seed=1, n_scale=1.0):
    return experiment_pht_capacity(_m11(), 1.0, geo.Box((-2, -2), (2, 2)),
                                   geo.Box((-1, -1), (1, 1)),
                                   _scaled(100_000, n_scale), seed)


def run_no_jump(seed=1, n_scale=1.0):
    return experiment_no_jump(_m11(), geo.Box((-1, -1), (1, 1)), 1.0,
                              (0.01, 0.03, 0.1, 0.3),
                              _scaled(10_000, n_scale), seed)


EXPERIMENTS = {
    "first_split": run_first_split,
    "capacity": run_capacity,
    "methods": run_methods,
    "consistency": run_consistency,
    "iteration": run_iteration,
    "self_similarity": run_self_similarity,
    "encapsulation_equality": run_encapsulation_equality,
    "encapsulation_bound": run_encapsulation_bound,
    "inclusion": run_inclusion,
    "cond_independence": run_cond_independence,
    "mixing_stit": run_mixing_stit,
    "mixing_pht": run_mixing_pht,
    "pht_capacity": run_pht_capacity,
    "no_jump": run_no_jump,
}
