"""Lineage-rain kernels against each other and against whole-tree oracles."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from stitsim import geometry as geo
from stitsim import rain, stit
from stitsim.encapsulation import build_window
from stitsim.experiments import equality_problem
from stitsim.measure import (axis_measure, box_regime, isotropic_measure,
                             measure_hitting, measure_separating,
                             polygon_regime)
from stitsim.rng import stream
from stitsim.stats import binomial_sigma, ks_two_sample

from oracles import as_polytopes, encapsulation_time

LAM = axis_measure([1.0, 1.0])
W = geo.Box((-2.0, -2.0), (2.0, 2.0))
WP = geo.Box((-1.0, -1.0), (1.0, 1.0))


def test_zero_scan_fast_vs_generic():
    horizon = 4.0
    fast = rain.zero_cell_scan(LAM, W, WP, horizon, 30_000, 20)
    gen = rain._generic_zero(LAM, W, WP, horizon, 3_000, 21, ())
    a_fast = fast["tau_enc"]
    a_gen = gen["tau_enc"]
    p_fast = np.isfinite(a_fast).mean()
    p_gen = np.isfinite(a_gen).mean()
    assert abs(p_fast - p_gen) <= 5 * binomial_sigma(p_fast, 3_000)
    assert ks_two_sample(fast["sigma_inner"][np.isfinite(fast["sigma_inner"])],
                         gen["sigma_inner"][np.isfinite(gen["sigma_inner"])]
                         ).p_value > 0.001


def tree_forest(window, t, n, rng):
    """n whole trees of LAM on the box window, grown to t as one batch by
    stit.grow on box cells."""
    return stit.grow(LAM, window, geo.BoxCells.tile(window, n), np.arange(n),
                     0.0, t, rng)


def tree_encapsulation(f, n, outer, inner):
    """encapsulation_time of each of the n trees of the box forest f: the
    earliest birth of a cell that holds `inner` and lies strictly inside
    `outer`.  Such a cell holds the origin, so it is on the origin-cell
    lineage, whose cells are nested."""
    tol = geo.GEOM_TOL
    born = np.concatenate([np.zeros(n),
                           f.death[np.repeat(np.flatnonzero(~f.alive), 2)]])
    lo, hi = f.cells.lo, f.cells.hi
    enc = ((lo <= inner.lo_arr + tol) & (hi >= inner.hi_arr - tol)
           & (lo > outer.lo_arr + tol) & (hi < outer.hi_arr - tol)
           ).all(axis=1)
    tau = np.full(n, np.inf)
    np.minimum.at(tau, f.rep[enc], born[enc])
    return tau


def test_zero_scan_against_tree_encapsulation():
    horizon = 2.5
    scan = rain.zero_cell_scan(LAM, W, WP, horizon, 60_000, 22)
    a_scan = scan["tau_enc"]
    # the array reading is encapsulation_time: a one-tree batch grows the
    # tree that simulate grows from the same stream (about half of these
    # trees encapsulate the small inner box)
    small = geo.Box((-0.2, -0.2), (0.2, 0.2))
    for i in range(40):
        f = tree_forest(W, horizon, 1, stream(23, i))
        tree = stit.simulate(LAM, W, horizon, stream(23, i))
        for inner in (WP, small):
            assert tree_encapsulation(f, 1, W, inner)[0] == \
                encapsulation_time(tree, inner)
    a_tree = tree_encapsulation(tree_forest(W, horizon, 4_000, stream(23, 0)),
                                4_000, W, WP)
    p1, p2 = np.isfinite(a_scan).mean(), np.isfinite(a_tree).mean()
    assert abs(p1 - p2) <= 5 * binomial_sigma(max(p2, 1e-3), 4_000)


def test_sigma_inner_is_exponential():
    # first rain hit on the inner window ~ Exp(mass(inner)): mass 4 for the
    # axis measure (box kernel) and Cauchy's gamma * perimeter / pi = 8 / pi
    # for the isotropic one (polygon kernel)
    for measure, inner, seed in ((LAM, WP, 24),
                                 (isotropic_measure(1.0), WP.to_polygon(), 25)):
        scan = rain.zero_cell_scan(measure, W, inner, 2.0, 20_000, seed)
        s = scan["sigma_inner"]
        p_survive = (s > 1.0).mean()
        target = math.exp(-measure_hitting(measure, inner))
        assert abs(p_survive - target) <= 4 * binomial_sigma(target, 20_000)


def two_body_avoidance(measure, A, B, hull, t):
    """P(A and B uncut at t) when they start in one cell: with a, b the
    bodies' hitting masses, M that of hull = conv(A u B) and s the
    separating mass, e^{-tM} + s (e^{-tM} - e^{-t(a+b)}) / (a + b - M)."""
    a, b = measure_hitting(measure, A), measure_hitting(measure, B)
    M, s = measure_hitting(measure, hull), measure_separating(measure, A, B)
    e = math.exp(-t * M)
    if math.isclose(a + b, M):
        return e + s * t * e
    return e + s * (e - math.exp(-t * (a + b))) / (a + b - M)


@pytest.mark.parametrize("measure,window", [
    (LAM, geo.Box((-2.0, -2.0), (2.0, 3.0))),
    (LAM, geo.Box((-3.0, -3.0), (3.0, 4.0)).to_polygon()),
    (isotropic_measure(1.0), geo.Box((-2.0, -2.0), (2.0, 3.0)))],
    ids=["box", "polygon", "isotropic"])
def test_two_body_avoidance_law(measure, window):
    """Joint avoidance of two bodies matches the exact two-body law, in the
    box kernel and the polygon kernel alike, on windows of either shape."""
    A = geo.Box((-1.0, -0.2), (1.0, 0.2))
    B = geo.Box((-1.0, 0.8), (1.0, 1.2))
    hull = geo.Box((-1.0, -0.2), (1.0, 1.2))
    t, n = 0.5, 20_000
    scan = rain.pair_scan(measure, window, A, B, t, n, 87)
    p = (np.isinf(scan["cut_a"]) & np.isinf(scan["cut_b"])).mean()
    target = two_body_avoidance(measure, A, B, hull, t)
    assert abs(p - target) <= 4 * binomial_sigma(target, n)


def test_pair_scan_fast_vs_generic():
    V = geo.Box((-2.0, -2.0), (2.0, 6.0))
    A = geo.Face(((-1.0, 0.0), (1.0, 0.0)))
    B = geo.Face(((-1.0, 4.0), (1.0, 4.0)))
    fast = rain.pair_scan(LAM, V, A, B, 1.5, 30_000, 25)
    gen = rain._generic_pair(LAM, V, A, B, 1.5, 3_000, 26, None)
    for key in ("cut_a", "cut_b"):
        f, g = fast[key], gen[key]
        assert ks_two_sample(f[np.isfinite(f)], g[np.isfinite(g)]).p_value > 0.001
    jf = (np.isinf(fast["cut_a"]) & np.isinf(fast["cut_b"])).mean()
    jg = (np.isinf(gen["cut_a"]) & np.isinf(gen["cut_b"])).mean()
    assert abs(jf - jg) <= 5 * binomial_sigma(max(jf, 1e-3), 3_000)


def test_three_body_lineage_fast_vs_generic():
    """Splits of a three-body group: both kernels agree on every joint
    avoidance event, and each marginal is exponential in the body's mass."""
    V = geo.Box((-2.0, -2.0), (2.0, 6.0))
    bodies = tuple(geo.Face(((-1.0, y), (1.0, y))) for y in (0.0, 2.0, 4.0))
    fast = rain._scan(box_regime(LAM, V), V, bodies, 1.0, 20_000, 33,
                      None, ())[0]
    gen = rain._scan(polygon_regime(LAM, V), V, bodies, 1.0, 2_000, 34,
                     None, ())[0]
    for cols in ([0], [1], [2], [0, 1], [1, 2], [0, 2], [0, 1, 2]):
        pf = np.isinf(fast[:, cols]).all(axis=1).mean()
        pg = np.isinf(gen[:, cols]).all(axis=1).mean()
        assert abs(pf - pg) <= 5 * binomial_sigma(pf, 2_000), cols
    target = math.exp(-2.0)
    for i in range(3):
        p = np.isinf(fast[:, i]).mean()
        assert abs(p - target) <= 4 * binomial_sigma(target, 20_000)


def test_polygon_kernel_replays_box_kernel():
    """On a box window given as a polygon, an axis measure draws the same
    lines from a stream as the box kernel draws marks, so the polygon
    kernel's clipped cells must reproduce every clock of the box kernel's
    clamped intervals: the zero scan's with its bands, a three-body group's
    cuts through its splits, and a pair scan's with an enclosure, retired
    rows included."""
    prob = equality_problem(0.5, 1.0, [1.0, 1.0])
    box = rain.zero_cell_scan(prob.measure, prob.outer, prob.inner, 3.0,
                              5_000, 88, bands=prob.bands)
    poly = rain._generic_zero(prob.measure, prob.outer.to_polygon(),
                              prob.inner, 3.0, 5_000, 88, prob.bands)
    for key in ("tau_enc", "sigma_inner", "sigma_bands", "marks_drawn"):
        assert np.array_equal(box[key], poly[key]), key
    V = geo.Box((-2.0, -2.0), (2.0, 6.0))
    bodies = tuple(geo.Face(((-1.0, y), (1.0, y))) for y in (0.0, 2.0, 4.0))
    P = V.to_polygon()
    cut = rain._scan(box_regime(LAM, V), V, bodies, 1.0, 5_000, 89,
                     None, ())[0]
    assert np.array_equal(cut, rain._scan(polygon_regime(LAM, P), P,
                                          bodies, 1.0, 5_000, 89, None, ())[0])
    box = rain.pair_scan(LAM, ENC_V, ENC_INNER, ENC_PROBE, 2.0, 5_000, 90,
                         enclosure=ENC)
    poly = rain._generic_pair(LAM, ENC_V.to_polygon(), ENC_INNER, ENC_PROBE,
                              2.0, 5_000, 90, ENC)
    assert box["rows_retired"] > 0
    for key in ("cut_a", "cut_b", "tau_enc", "marks_drawn", "rows_retired"):
        assert np.array_equal(box[key], poly[key], equal_nan=True), key


def segment_uncut(f, n, face):
    """Whether a live cell of each of the n trees of the box forest f holds
    `face`, as geometry.contains decides it."""
    tol, v = geo.GEOM_TOL, face.vertices()
    live = f.alive
    holds = ((f.cells.lo[live] <= v.min(axis=0) + tol)
             & (f.cells.hi[live] >= v.max(axis=0) - tol)).all(axis=1)
    out = np.zeros(n, dtype=bool)
    out[f.rep[live][holds]] = True
    return out


def test_pair_scan_against_tree_oracle():
    """Avoidance indicators from the pair kernel match whole-tree simulation."""
    V = geo.Box((-2.0, -2.0), (2.0, 4.0))
    A = geo.Face(((-1.0, 0.0), (1.0, 0.0)))
    B = geo.Face(((-1.0, 2.0), (1.0, 2.0)))
    t = 1.0
    scan = rain.pair_scan(LAM, V, A, B, t, 40_000, 27)
    kd = np.isinf(scan["cut_a"]).mean()
    ke = np.isinf(scan["cut_b"]).mean()
    kj = (np.isinf(scan["cut_a"]) & np.isinf(scan["cut_b"])).mean()

    # the array reading is geometry.contains on the tree's slice at t
    for i in range(40):
        f = tree_forest(V, t, 1, stream(28, i))
        T = stit.slice_at(stit.simulate(LAM, V, t, stream(28, i)), t)
        for face in (A, B):
            assert segment_uncut(f, 1, face)[0] == any(
                geo.contains(c, face) for c in as_polytopes(T)[0].cells)
    f = tree_forest(V, t, 3_000, stream(28, 0))
    arr = np.column_stack([segment_uncut(f, 3_000, A),
                           segment_uncut(f, 3_000, B)]).astype(float)
    td, te, tj = arr[:, 0].mean(), arr[:, 1].mean(), (arr[:, 0] * arr[:, 1]).mean()
    assert abs(kd - td) <= 5 * binomial_sigma(kd, 3_000)
    assert abs(ke - te) <= 5 * binomial_sigma(ke, 3_000)
    assert abs(kj - tj) <= 5 * binomial_sigma(max(kj, 1e-3), 3_000)
    # marginal law: avoidance of a convex body is exponential in its mass
    assert abs(kd - math.exp(-2.0 * t)) <= 4 * binomial_sigma(math.exp(-2.0 * t), 40_000)


def test_pair_scan_enclosure_matches_zero_scan():
    # with a probe far outside the enclosure, tau_enc of the pair scan has the
    # same law as the single-lineage scan
    V = geo.Box((-3.2, -3.2), (3.2, 3.2))
    probe = geo.Face(((2.5, 0.0), (3.0, 0.0)))
    pair = rain.pair_scan(LAM, V, WP, probe, 2.0, 30_000, 29, enclosure=W)
    a_pair = pair["tau_enc"]
    solo = rain.zero_cell_scan(LAM, W, WP, 2.0, 30_000, 30)
    a_solo = solo["tau_enc"]
    p1, p2 = np.isfinite(a_pair).mean(), np.isfinite(a_solo).mean()
    assert abs(p1 - p2) <= 5 * binomial_sigma(max(p2, 1e-3), 30_000)
    assert ks_two_sample(a_pair[np.isfinite(a_pair)],
                         a_solo[np.isfinite(a_solo)]).p_value > 0.001


ENC_V = geo.Box((-3.2, -3.2), (3.2, 3.2))
ENC_INNER = geo.Box((-0.3, -0.3), (0.3, 0.3))
ENC = geo.Box((-1.2, -1.2), (1.2, 1.2))
ENC_PROBE = geo.Face(((1.6, 0.0), (3.0, 0.0)))


def _ks_finite(x, y):
    return ks_two_sample(x[np.isfinite(x)], y[np.isfinite(y)]).p_value


def test_chunk_size_does_not_change_the_law(monkeypatch):
    """Marks drawn one at a time and in default chunks give the same law on
    every returned clock: tau_enc, sigma_inner, the band clocks, cut_a, and
    cut_b on the rows that are not retired."""
    prob = equality_problem(0.5, 1.0, [1.0, 1.0])

    def scans(seed):
        zero = rain.zero_cell_scan(prob.measure, prob.outer, prob.inner, 3.0,
                                   20_000, seed, bands=prob.bands)
        return zero, rain.pair_scan(LAM, ENC_V, ENC_INNER, ENC_PROBE, 2.0,
                                    20_000, seed + 1, enclosure=ENC)

    zero, pair = scans(80)
    with monkeypatch.context() as m:
        m.setattr(rain, "_CHUNK", 1)
        zero1, pair1 = scans(82)
    for key in ("tau_enc", "sigma_inner"):
        assert _ks_finite(zero[key], zero1[key]) > 0.001, key
    for a in range(len(prob.bands)):
        assert _ks_finite(zero["sigma_bands"][:, a],
                          zero1["sigma_bands"][:, a]) > 0.001, a
    for key in ("tau_enc", "cut_a", "cut_b"):
        assert _ks_finite(pair[key], pair1[key]) > 0.001, key
    for p, p1 in ((np.isfinite(zero["tau_enc"]), np.isfinite(zero1["tau_enc"])),
                  (np.isnan(pair["cut_b"]), np.isnan(pair1["cut_b"]))):
        assert abs(p.mean() - p1.mean()) <= 5 * binomial_sigma(p.mean(), 20_000)


def _retired_rows(scan):
    """Check a pair scan's retirement invariants; returns tau, cut_a, cut_b
    and the conditioned rows (tau finite)."""
    tau, cut_a, cut_b = scan["tau_enc"], scan["cut_a"], scan["cut_b"]
    retired = np.isnan(cut_b)
    cond = np.isfinite(tau)
    assert scan["rows_retired"] == int(retired.sum()) > 0
    assert not (retired & cond).any()
    assert not np.isnan(cut_a).any() and not np.isnan(tau).any()
    # a kept unconditioned row ended on its own: body b was cut no later than
    # body a, or neither body was cut and no split came
    kept = ~retired & ~cond
    assert (cut_b[kept] <= cut_a[kept]).all()
    return tau, cut_a, cut_b, cond


@pytest.mark.parametrize("probe", [ENC_PROBE, geo.Face(((0.5, 0.0), (0.9, 0.0)))],
                         ids=["outside", "inside"])
def test_retired_rows_and_conditioned_law(probe):
    """A pair scan with an enclosure stops following a row once tau_enc is
    decided to be inf, and cut_b then reads NaN, in the box and the polygon
    kernel alike.  The probe lies outside the enclosure or inside it, where
    tau_enc can be set while the bodies still share a cell.  The kernels
    agree in law, and both match whole trees, which never retire: on
    P(tau_enc finite) and on P(probe uncut at the horizon | tau_enc
    finite)."""
    horizon = 2.0
    fast = rain.pair_scan(LAM, ENC_V, ENC_INNER, probe, horizon, 40_000, 84,
                          enclosure=ENC)
    gen = rain._generic_pair(LAM, ENC_V, ENC_INNER, probe, horizon, 3_000, 85,
                             ENC)
    tau, cut_a, cut_b, cond = _retired_rows(fast)
    _, g_cut_a, g_cut_b, gcond = _retired_rows(gen)
    assert abs(cond.mean() - gcond.mean()) <= 5 * binomial_sigma(cond.mean(), 3_000)
    assert _ks_finite(cut_b[cond], g_cut_b[gcond]) > 0.001
    assert _ks_finite(cut_a, g_cut_a) > 0.001
    pf, pg = np.isinf(cut_b[cond]).mean(), np.isinf(g_cut_b[gcond]).mean()
    assert abs(pf - pg) <= 5 * binomial_sigma(pf, int(gcond.sum()))

    n = 3_000
    f = tree_forest(ENC_V, horizon, n, stream(91, 0))
    tcond = np.isfinite(tree_encapsulation(f, n, ENC, ENC_INNER))
    tuncut = segment_uncut(f, n, probe)[tcond].mean()
    for c, b in ((cond, cut_b), (gcond, g_cut_b)):
        assert abs(c.mean() - tcond.mean()) <= 5 * binomial_sigma(tcond.mean(), n)
        assert abs(np.isinf(b[c]).mean() - tuncut) <= 5 * binomial_sigma(
            tuncut, int(tcond.sum()))


def test_zero_scan_memory_does_not_grow_with_horizon():
    # marks are drawn in chunks for the rows still followed, so a longer
    # horizon does not hold a longer block of marks
    prob = equality_problem(1.0, 2.0, [1.0, 1.0])

    def peak(horizon):
        tracemalloc.start()
        try:
            rain.zero_cell_scan(prob.measure, prob.outer, prob.inner, horizon,
                                rain._BATCH, 86)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1.2)  # first-call allocations
    assert peak(6.0) < 1.5 * peak(1.2)


def _golden_cases():
    """Small scans whose outputs are pinned by sha256 in test_scan_bytes_golden.

    Zero scans pin the encapsulation time, sigma_inner and the band clocks
    that precede sigma_inner; pair scans pin cut_a, cut_b and tau_enc.
    Cases named *_batched run with rain batches of 1024 rows, so each scan
    spans three batches.
    """
    iso = isotropic_measure(1.0)
    small = geo.Box((-0.3, -0.3), (0.3, 0.3))
    iprob = build_window(small.to_polygon(), iso)
    aprob = build_window(small, LAM)
    V = geo.Box((-3.2, -3.2), (3.2, 3.2))
    enc = geo.Box((-1.2, -1.2), (1.2, 1.2))
    probe = geo.Face(((1.6, 0.0), (3.0, 0.0)))

    def zero(prob, horizon, n, seed, bands=True):
        return rain.zero_cell_scan(prob.measure, prob.outer, prob.inner, horizon,
                                   n, seed, bands=prob.bands if bands else ())

    return {
        "zero_axis_2d": lambda: zero(equality_problem(0.3, 1.0, [1.0, 1.0]),
                                     4.0, 3_000, 61),
        "zero_weighted_3d": lambda: zero(equality_problem(0.3, 1.0, [1.0, 0.5, 2.0]),
                                         4.0, 3_000, 62),
        "zero_isotropic_bands": lambda: zero(iprob, 4.0, 60, 63),
        "zero_isotropic": lambda: zero(iprob, 4.0, 60, 64, bands=False),
        "generic_zero_box": lambda: rain._generic_zero(
            LAM, aprob.outer, small, 4.0, 100, 65, aprob.bands),
        "pair_fast": lambda: rain.pair_scan(LAM, V, small, probe, 3.0, 3_000, 66,
                                            enclosure=enc),
        "generic_pair_box": lambda: rain._generic_pair(LAM, V, small, probe, 3.0,
                                                       100, 67, enc),
        "pair_generic": lambda: rain.pair_scan(LAM, V.to_polygon(), small, probe,
                                               3.0, 100, 68, enclosure=enc),
        "pair_isotropic": lambda: rain.pair_scan(iso, V, small, probe, 3.0, 60, 69,
                                                 enclosure=enc),
        "zero_axis_2d_batched": lambda: zero(equality_problem(0.3, 1.0, [1.0, 1.0]),
                                             4.0, 3_000, 70),
        "pair_fast_batched": lambda: rain.pair_scan(LAM, V, small, probe, 3.0,
                                                    3_000, 71, enclosure=enc),
    }


def _scan_digest(scan) -> str:
    if "sigma_inner" in scan:
        sig = scan["sigma_inner"]
        sb = scan["sigma_bands"]
        arrays = (scan["tau_enc"], sig, np.where(sb < sig[:, None], sb, np.inf))
    else:
        arrays = (scan["cut_a"], scan["cut_b"], scan["tau_enc"])
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


# _scan_digest of each case.  They pin rain._lineage: marks drawn on
# demand in chunks of rain._CHUNK for the rows still followed, batch b of a
# scan on stream(seed, base + b), and the pair scans with an enclosure
# reading retired rows' cut_b as NaN.  The box values (zero_axis_2d,
# zero_weighted_3d, pair_fast and their *_batched cases) pin box cells and
# the box drawer, the polygon values (zero_isotropic*, generic_*_box,
# pair_generic, pair_isotropic) polygon cells and the line drawer.
SCAN_GOLDEN = {
    "zero_axis_2d": "e17ad619b7e79ca9469085e704fe9a4c16d9c502c7d82ff530f6b88cfd4d124e",
    "zero_weighted_3d": "93d5aad9e8ff3230f46c32888b7667c37ec798954cc809fedd291681fb285190",
    "zero_isotropic_bands": "1822c6beefb6aa7932391d65766462b8a05b5c5018174926bec0b460cf29c2db",
    "zero_isotropic": "7320fc6718253b4a1fa8fcef4c0ccb7f8f0b5e1c9513be42d88612ae50456584",
    "generic_zero_box": "dc5a631ac6631f18c451166aab3db97844c33411a4d03a9d4d9680e7bfa12a04",
    "pair_fast": "51fb6d75e8d610040f5adcbedfade8894fef1d7c743482a5186076b1cfb3c228",
    "generic_pair_box": "3c70a9f71ae5b6485c8260f3a470504f8e2fce597eeff63c610b3bb95bb5b8cc",
    "pair_generic": "d21db9c787c32d1b32f135349c2a57b3304f6bc6eaa140732d8a2ba98fecff8e",
    "pair_isotropic": "4f8be67916bed1bdb7352a73455490d7df0df649fc56c66f3389a9e8454c2d7e",
    "zero_axis_2d_batched": "740ef4ebb05dc9cbaf38282aa4ea71b29342309d23cd23df7e639713c4879db8",
    "pair_fast_batched": "e1874c43f1b963415879a93b59af96fb0f7e7c981dfbb364f533a1caa66bc179",
}


def test_scan_bytes_golden(monkeypatch):
    cases = _golden_cases()
    assert set(cases) == set(SCAN_GOLDEN)
    got = {}
    for name, fn in cases.items():
        with monkeypatch.context() as m:
            if name.endswith("_batched"):
                m.setattr(rain, "_BATCH", 1024)
            scan = fn()
        if "sigma_bands" in scan:  # band clocks are set only before the cut
            sb = scan["sigma_bands"]
            assert (np.isinf(sb) | (sb < scan["sigma_inner"][:, None])).all(), name
        got[name] = _scan_digest(scan)
    assert got == SCAN_GOLDEN
