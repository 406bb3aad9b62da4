"""Named Monte-Carlo experiments, their registry and their report files.

Each experiment is deterministic given (config, seed), compares empirical
frequencies or two-sample statistics against closed-form targets, and
returns a Report with one row per grid point plus a machine-readable
verdict.  Gates: binomial frequencies and the conditioned gap lie within 4
sigma of their target (encapsulation in bound mode: above it less 4 sigma;
mixing_pht: the gap above p(1-p) less 4 sigma); two-sample KS tests pass at
p > 0.005, and self_similarity's power rows must fall below it; inclusion
has no violation; mixing_stit's last gap lies within 2 sigma of zero;
mixing_stit's gaps and no_jump's frequencies never step up by more than 2
combined sigma (the hypot of the two sigmas); determinism's repeats give
identical bytes.  The 4-sigma and p > 0.005 gates keep the family-wise
false-failure rate of a suite of this size small under the null.

Every gate writes its verdict through _gate, as a PASS or FAIL "verdict" on
its row; Report.passed is the AND of these, and a row without a verdict is
informational.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from . import rain, stit
from .config import config_hash, dumps_canonical, measure_to_json, sanitize
from .encapsulation import (Band, EncapsulationProblem, build_window,
                            lower_bound)
from .errors import DegenerateCut, TooFewConditioned
from .measure import (DrivingMeasure, axis_measure, isotropic_measure,
                      regime)
from .pht import draw_patterns, empty_probability, pattern_hits
from .rng import run_replicates, stream
from .stats import (binomial_sigma, estimate_from_hits, gap_estimate,
                    ks_two_sample)

KS_ALPHA = 0.005
SIGMAS = 4.0
POWER_FACTOR = 3.0  # mismatched time factor that self_similarity must reject
MIN_CONDITIONED = 200  # fewest conditioned replicates cond_independence accepts
MIN_N = 100  # fewest replicates any experiment runs, whatever the n-scale
_BATCH = 1 << 7  # trees grown as one batch: memory does not grow with n
_PHT_CHUNK = 1 << 8  # PHT patterns drawn as one chunk: rows stay under 1 MiB


@dataclass
class Report:
    experiment: str
    seed: int
    config: dict
    rows: list[dict] = field(default_factory=list)
    notes: str = ""

    @property
    def passed(self) -> bool:
        """Whether every row that carries a verdict passed."""
        return all(row["verdict"] == "PASS" for row in self.rows
                   if "verdict" in row)

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

    def write(self, out_dir: str) -> None:
        """Write `<experiment>.json` and `<experiment>.csv` into out_dir."""
        payload = self.to_json()
        rows = payload["rows"]
        keys = list(dict.fromkeys(k for row in rows for k in row))
        lines = [",".join(keys)]
        lines += [",".join(str(row.get(k, "")) for k in keys) for row in rows]
        path = os.path.join(out_dir, self.experiment)
        with open(path + ".json", "w") as f:
            f.write(dumps_canonical(payload) + "\n")
        with open(path + ".csv", "w") as f:
            f.write("\n".join(lines) + "\n")


def _config(**kw) -> dict:
    """Report config with measures and polytopes in their JSON forms."""
    return {k: measure_to_json(v) if isinstance(v, DrivingMeasure)
            else geo.polytope_to_json(v) if isinstance(v, geo.Polytope) else v
            for k, v in kw.items()}


def _gate(row: dict, ok) -> dict:
    """Stamp row's verdict, PASS when ok, after its other keys; return row."""
    row["verdict"] = "PASS" if ok else "FAIL"
    return row


def _scaled(n: int, n_scale: float) -> int:
    return max(MIN_N, int(round(n * n_scale)))


def _with_resample(body):
    """Re-run a replicate on measure-zero geometric degeneracies."""
    attempts = 20

    def run(i, rng):
        for _ in range(attempts):
            try:
                return body(i, rng)
            except DegenerateCut as e:
                last = e
        raise DegenerateCut(
            f"persistently degenerate trajectory: replicate {i} failed all "
            f"{attempts} attempts") from last
    return run


def _grow(measure, window, nb, t, rng, method="direct") -> stit.Forest:
    """nb fresh trees on the window grown to t, as one batch on the cells
    of the window's regime."""
    return stit.grow(measure, window,
                     regime(measure, window).cells.tile(window, nb),
                     np.arange(nb), 0.0, t, rng, method)


def _tree_sample(measure, window, t, n, seed, stat, method="direct", base=0):
    """stat(forest, nb, rng) rows over n trees grown to t.  The trees
    grow in chunks of _BATCH, chunk c as one batch on stream(seed, base + c);
    stat returns one row per tree of the chunk and may draw further from
    its rng."""

    @_with_resample
    def chunk(c, rng):
        nb = min(_BATCH, n - c * _BATCH)
        return stat(_grow(measure, window, nb, t, rng, method), nb, rng)

    return np.concatenate(run_replicates(chunk, -(-n // _BATCH), seed, base))


def _pht_sample(measure, rho, window, bodies, n, seed, base=0):
    """(n, len(bodies)) bools: whether each of n Poisson hyperplane patterns
    on the window meets each body.  The patterns are drawn in chunks of
    _PHT_CHUNK, chunk c on stream(seed, base + c), so an arm of n patterns
    uses the ceil(n / _PHT_CHUNK) keys from base on."""

    def chunk(c, rng):
        nb = min(_PHT_CHUNK, n - c * _PHT_CHUNK)
        return pattern_hits(*draw_patterns(measure, rho, window, rng, nb),
                            bodies)

    return np.concatenate(run_replicates(chunk, -(-n // _PHT_CHUNK), seed, base))


def _stat_sample(measure, window, t, n, seed, method="direct", base=0,
                 transform=None):
    """(n, 2) rows (cell_count, boundary) of the state at t over n trees, after
    transform(tessellation, rng) -> tessellation if given."""

    def stat(f, nb, rng):
        T = f.leaves(window, nb)
        return stit.summary_stats(T if transform is None else transform(T, rng))

    return _tree_sample(measure, window, t, n, seed, stat, method, base)


def _work(scan) -> dict:
    return {k: scan[k] for k in ("marks_drawn", "rows_retired")}


def _monotone_steps(values, sigmas) -> list[bool]:
    """Per step j -> j+1: values[j+1] <= values[j] + 2 combined sigma."""
    return [bool(b <= a + 2.0 * math.hypot(sa, sb))
            for a, b, sa, sb in zip(values, values[1:], sigmas, sigmas[1:])]


def _ks_rows(a, b, n, suffix=""):
    """One KS row per column of two (n, 2) _stat_sample arms, gated at
    p > KS_ALPHA."""
    rows = []
    for c, name in enumerate(("cell_count", "boundary")):
        r = ks_two_sample(a[:, c], b[:, c])
        rows.append(_gate({"statistic": name + suffix, "ks_d": r.statistic,
                           "p_value": r.p_value, "n1": n, "n2": n,
                           "threshold": KS_ALPHA}, r.p_value > KS_ALPHA))
    return rows


# ---------------------------------------------------------------------------
# survival / capacity

def experiment_first_split(measure, window, t, n, seed) -> Report:
    """Survival of the whole window: P(no jump by t) = exp(-t mass(window))."""
    hits_ = int(_tree_sample(measure, window, t, n, seed,
                             lambda f, nb, _rng: f.alive[:nb]).sum())
    return _binomial_report(
        "first_split", seed,
        _config(measure=measure, window=window, t=t, n=n), hits_, n,
        empty_probability(measure, t, window))


def experiment_capacity(measure, t, inner, window, n, seed) -> Report:
    """Restriction to an inner window is trivial with prob exp(-t mass(inner))."""
    def trivial(f, nb, _rng):
        return stit.summary_stats(
            stit.restrict(f.leaves(window, nb), inner))[:, 0] == 1

    hits_ = int(_tree_sample(measure, window, t, n, seed, trivial).sum())
    return _binomial_report(
        "capacity", seed,
        _config(measure=measure, t=t, n=n, inner=inner, window=window),
        hits_, n, empty_probability(measure, t, inner))


def _binomial_report(name, seed, config, hits_, n, target) -> Report:
    est = estimate_from_hits(hits_, n)
    sigma = binomial_sigma(target, n)
    row = {"p_hat": est.p_hat, "ci_lo": est.ci_lo, "ci_hi": est.ci_hi,
           "target": target, "sigma": sigma, "tolerance": SIGMAS * sigma}
    return Report(name, seed, config,
                  [_gate(row, abs(est.p_hat - target) <= SIGMAS * sigma)])


# ---------------------------------------------------------------------------
# law-equality experiments (two-sample KS)

def experiment_methods(measure, window, t, n, seed) -> Report:
    """Rejection and direct constructions produce the same law."""
    rows = _ks_rows(
        _stat_sample(measure, window, t, n, seed, "direct", base=0),
        _stat_sample(measure, window, t, n, seed, "rejection", base=n), n)
    return Report("methods", seed,
                  _config(measure=measure, window=window, t=t, n=n), rows)


def experiment_consistency(measure, window, inner, t, n, seed) -> Report:
    """Restriction commutes with simulation in distribution."""
    rows = _ks_rows(
        _stat_sample(measure, window, t, n, seed,
                     transform=lambda T, _rng: stit.restrict(T, inner)),
        _stat_sample(measure, inner, t, n, seed, base=n), n)
    return Report("consistency", seed, _config(
        measure=measure, t=t, n=n, window=window, inner=inner), rows)


def experiment_iteration(measure, window, t, s, n, seed) -> Report:
    """Running to t+s agrees in law with nesting fresh copies at s into the
    state at t."""
    def nested(T, rng):
        # one fresh full-window nest grown to s per cell of T
        nb = len(T.cells)
        return stit.iterate(
            T, _grow(measure, window, nb, s, rng).leaves(window, nb))

    rows = _ks_rows(
        _stat_sample(measure, window, t + s, n, seed, base=0),
        _stat_sample(measure, window, t, n, seed, base=n, transform=nested), n)
    return Report("iteration", seed,
                  _config(measure=measure, t=t, s=s, n=n, window=window), rows)


def experiment_self_similarity(measure, window, t, n, seed) -> Report:
    """The state at t agrees in law with the state at 2t in the half window
    scaled back up; a deliberately mismatched factor must be rejected."""
    half = geo.scale(window, 0.5)

    def scaled_sample(factor, base):
        # the half window's cells scaled by 2 tile the window
        return _stat_sample(
            measure, half, factor * t, n, seed, base=base,
            transform=lambda T, _rng: stit.Tessellation(
                window, T.rep, T.cells.scale(2.0), T.n))

    ref = _stat_sample(measure, window, t, n, seed, base=0)
    rows = _ks_rows(ref, scaled_sample(2.0, n), n)
    power = _ks_rows(ref, scaled_sample(POWER_FACTOR, 2 * n), n, "_power")
    detected = min(r["p_value"] for r in power) < KS_ALPHA
    return Report("self_similarity", seed, _config(
        measure=measure, t=t, n=n, window=window, power_factor=POWER_FACTOR),
        rows + [_gate(r, detected) for r in power],
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
    a_s = rain.zero_cell_scan(problem.measure, problem.outer, problem.inner,
                              horizon, n, seed)["tau_enc"]
    params = problem.params()
    rows = []
    for t in t_grid:
        hits_ = int((a_s <= t).sum())
        est = estimate_from_hits(hits_, n)
        bound = lower_bound(t, params)
        sigma = binomial_sigma(bound if bound > 0 else est.p_hat, n)
        if mode == "equality":
            verdict = abs(est.p_hat - bound) <= SIGMAS * sigma
        else:
            verdict = est.p_hat >= bound - SIGMAS * sigma
        rows.append(_gate({"t": t, "p_hat": est.p_hat, "ci_lo": est.ci_lo,
                           "ci_hi": est.ci_hi, "bound": bound, "sigma": sigma,
                           "mode": mode}, verdict))
    return Report("encapsulation_" + mode, seed, _config(
        measure=problem.measure, n=n, mode=mode, inner=problem.inner,
        outer=problem.outer, band_masses=[b.mass for b in problem.bands],
        lambda_inner=params.lambda_inner, t_grid=t_grid), rows)


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
    violations = int((sufficient & ~(scan["tau_enc"] <= t)).sum())
    rows = [_gate({"t": t, "n": n, "sufficient_events": int(sufficient.sum()),
                   "violations": violations,
                   "bound": lower_bound(t, problem.params())}, violations == 0)]
    return Report("inclusion", seed, _config(
        measure=problem.measure, t=t, n=n, inner=problem.inner,
        outer=problem.outer, band_masses=[b.mass for b in problem.bands]),
        rows)


def experiment_cond_independence(measure, inner, enclosure, sim_window, probe,
                                 t, t2, n, seed) -> Report:
    """Conditioned on early encapsulation, an inside avoidance event and an
    outside avoidance event decorrelate.

    D = {inner window uncut at t}, E = {probe uncut at t}; conditioning is
    the integrated event {encapsulation time < t2}.
    """
    if not t2 < t:
        raise ValueError("need t2 < t")
    scan = rain.pair_scan(measure, sim_window, inner, probe, t, n, seed,
                          enclosure=enclosure)
    cond = scan["tau_enc"] < t2
    n_cond = int(cond.sum())
    if n_cond < MIN_CONDITIONED:
        raise TooFewConditioned(
            f"only {n_cond} conditioned replicates (< {MIN_CONDITIONED}); "
            "increase n or t2")
    d = (scan["cut_a"] > t)[cond]
    e = (scan["cut_b"] > t)[cond]
    gap, sigma = gap_estimate(d, e)
    rows = [_gate({"t": t, "t2": t2, "n": n, "n_conditioned": n_cond,
                   "rate_conditioned": n_cond / n,
                   "p_inside": float(d.mean()), "p_outside": float(e.mean()),
                   "p_joint": float((d & e).mean()),
                   "gap": gap, "sigma": sigma, "tolerance": SIGMAS * sigma,
                   **_work(scan)}, abs(gap) <= SIGMAS * sigma)]
    return Report("cond_independence", seed, _config(
        measure=measure, t=t, t2=t2, n=n, inner=inner, enclosure=enclosure,
        sim_window=sim_window, probe=[list(p) for p in probe.pts]), rows)


# ---------------------------------------------------------------------------
# mixing

def _segment(y: float) -> geo.Face:
    return geo.Face(((-1.0, y), (1.0, y)))


def experiment_mixing_stit(measure, t, h_grid, n, seed) -> Report:
    """Avoidance events of two segments decorrelate as their distance grows.

    Asserts the gap at the largest separation is within 2 sigma of zero and
    that the gap profile is non-increasing within noise.
    """
    h_grid = sorted(h_grid)
    margin = 2.0  # window margin around the segments
    rows = []
    gaps = []
    sigmas = []
    for j, h in enumerate(h_grid):
        window = geo.Box((-1.0 - margin, -margin), (1.0 + margin, h + margin))
        scan = rain.pair_scan(measure, window, _segment(0.0), _segment(float(h)),
                              t, n, seed, base=j * -(-n // rain._BATCH))
        d = np.isinf(scan["cut_a"]).astype(float)
        e = np.isinf(scan["cut_b"]).astype(float)
        gap, sigma = gap_estimate(d, e)
        gaps.append(gap)
        sigmas.append(sigma)
        rows.append({"h": h, "gap": gap, "sigma": sigma,
                     "p_d": float(d.mean()), "p_e": float(e.mean()),
                     "p_joint": float((d * e).mean()), "n": n,
                     **_work(scan)})
    _gate(rows[-1], abs(gaps[-1]) <= 2.0 * sigmas[-1])
    for row, step_ok in zip(rows, _monotone_steps(gaps, sigmas)):
        _gate(row, step_ok)
    return Report("mixing_stit", seed, _config(
        measure=measure, t=t, n=n, h_grid=h_grid, margin=margin), rows,
        notes="last row: gap within 2 sigma of zero; others: non-increasing")


def experiment_mixing_pht(measure, rho, h_grid, n, seed) -> Report:
    """Poisson hyperplane witness of long-range dependence.

    With axis directions, the hyperplanes hitting a segment also hit every
    vertical translate of it, so the gap stays at p(1-p) for all h instead
    of decaying; p itself must match 1 - exp(-rho mass(segment)).
    """
    h_grid = sorted(h_grid)
    margin = 2.2  # window margin around the segments
    body_d = _segment(0.0)
    p_target = 1.0 - empty_probability(measure, rho, body_d)
    gap_target = p_target * (1.0 - p_target)
    rows = []
    for j, h in enumerate(h_grid):
        window = geo.Box((-1.0 - margin, -margin), (1.0 + margin, h + margin))
        arr = _pht_sample(measure, rho, window, (body_d, _segment(float(h))),
                          n, seed, base=j * -(-n // _PHT_CHUNK)).astype(float)
        gap, sigma = gap_estimate(arr[:, 0], arr[:, 1])
        p_hat = float(arr[:, 0].mean())
        p_sigma = binomial_sigma(p_target, n)
        good = (gap >= gap_target - SIGMAS * max(sigma, 1e-12)
                and abs(p_hat - p_target) <= SIGMAS * p_sigma)
        rows.append(_gate({"h": h, "gap": gap, "sigma": sigma,
                           "gap_target": gap_target, "p_hat": p_hat,
                           "p_target": p_target, "n": n}, good))
    return Report("mixing_pht", seed, _config(
        measure=measure, rho=rho, n=n, h_grid=h_grid, margin=margin), rows)


# ---------------------------------------------------------------------------
# Poisson hyperplane capacity

def experiment_pht_capacity(measure, rho, window, body, n, seed) -> Report:
    """Avoidance frequency of a test body matches exp(-rho mass(body))."""
    hits_ = int((~_pht_sample(measure, rho, window, (body,), n, seed)).sum())
    return _binomial_report(
        "pht_capacity", seed,
        _config(measure=measure, rho=rho, n=n, window=window, body=body),
        hits_, n, empty_probability(measure, rho, body))


# ---------------------------------------------------------------------------
# jump scarcity

def experiment_no_jump(measure, inner, t, t2_grid, n, seed) -> Report:
    """P(no jump in [t - t2, t)) is non-increasing in t2 within noise.

    Also reports the plug-in comparison exp(-t2 E[zeta_t]) per grid point;
    zeta is random, so the comparison is informational only.
    """
    t2_grid = sorted(t2_grid)
    masses = regime(measure, inner).masses

    def stat(f, nb, _rng):
        jumps = [(f.death >= t - t2) & (f.death < t) for t2 in t2_grid]
        live = f.alive
        return np.column_stack(
            [np.bincount(f.rep[j], minlength=nb) == 0 for j in jumps]
            + [np.bincount(f.rep[live], masses(f.cells.take(live)), nb)])

    out = _tree_sample(measure, inner, t, n, seed, stat)
    flags = out[:, :-1]
    zeta_mean = float(out[:, -1].mean())
    freqs = flags.mean(axis=0)
    sigmas = [binomial_sigma(f, n) for f in freqs]
    rows = [{"t2": t2, "freq": float(f), "sigma": sigma,
             "plugin_bound": math.exp(-t2 * zeta_mean), "zeta_mean": zeta_mean}
            for t2, f, sigma in zip(t2_grid, freqs, sigmas)]
    for row, good in zip(rows[1:], _monotone_steps(freqs, sigmas)):
        _gate(row, good)
    return Report("no_jump", seed, _config(
        measure=measure, t=t, n=n, inner=inner, t2_grid=t2_grid), rows)


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


def run_determinism(seed=1, n_scale=1.0) -> Report:
    """Byte-identical outputs across repeated simulate and verify runs."""
    def repeats_identical(payload):
        return dumps_canonical(payload()) == dumps_canonical(payload())

    sim_same = repeats_identical(lambda: stit.tree_to_json(stit.simulate(
        _m11(), geo.Box((-1.0, -1.0), (1.0, 1.0)), 1.0, stream(seed, 0))))
    verify_same = repeats_identical(lambda: EXPERIMENTS["capacity"](
        seed=seed, n_scale=0.02 * n_scale).to_json())
    rows = [_gate({"simulate_repeat_identical": sim_same,
                   "verify_repeat_identical": verify_same},
                  sim_same and verify_same)]
    return Report("determinism", seed, _config(n_scale=n_scale), rows)


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
    "determinism": run_determinism,
}
