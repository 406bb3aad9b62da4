"""Cell-division process tests: tree structure, law checks, tessellation ops."""

import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from stitsim import geometry as geo
from stitsim import stit
from stitsim.config import dumps_canonical, sanitize
from stitsim.errors import (AmbiguousZeroCell, DegenerateCut, ExplosionGuard,
                            InsufficientNests, MethodMismatch, OutOfRange,
                            RegimeMismatch, WindowMismatch)
from stitsim.measure import (Discrete, DrivingMeasure, axis_measure,
                             draw_lines, isotropic_measure, measure_hitting,
                             regime)
from stitsim.render import render_tessellation
from stitsim.rng import run_replicates, stream
from stitsim.stats import binomial_sigma, ks_two_sample

import oracles
from oracles import Tessellation, as_polytopes, tiling_defect

LAM = axis_measure([1.0, 1.0])
W1 = geo.Box((-1.0, -1.0), (1.0, 1.0))
W2 = geo.Box((-2.0, -2.0), (2.0, 2.0))


def cells_at(tree, s) -> Tessellation:
    """The tree's slice at s as polytopes."""
    return as_polytopes(stit.slice_at(tree, s))[0]


def trivial(window, n) -> stit.Tessellation:
    """n copies of the one-cell tessellation of a box window."""
    return stit.Tessellation(window, np.arange(n), geo.BoxCells.tile(window, n),
                             n)


def batch(measure, window, t, n, rng) -> stit.Tessellation:
    """n fresh trees on the window at t, as one batch."""
    cells = regime(measure, window).cells.tile(window, n)
    return stit.grow(measure, window, cells, np.arange(n), 0.0, t,
                     rng).leaves(window, n)


def test_no_jump_tree_is_trivial():
    tree = stit.simulate(LAM, W1, 1e-9, stream(0, 0))
    assert tree.parent.tolist() == [-1]
    assert oracles.jump_times(tree) == []
    assert cells_at(tree, 1e-9).cells == (W1,)


@pytest.mark.parametrize("t, method, message", [
    (0.0, "direct", "horizon must be positive"),
    (-1.0, "rejection", "horizon must be positive"),
    (1.0, "exact", "unknown method 'exact'"),
], ids=["t_zero", "t_negative", "unknown_method"])
def test_simulate_rejects_bad_arguments(t, method, message):
    with pytest.raises(ValueError, match=message):
        stit.simulate(LAM, W1, t, stream(0, 0), method)


def test_first_split_survival_probability():
    # P(no jump by t) = exp(-t mass(W)) = e^{-1} at t = 0.25
    n = 2000
    alive = sum(
        not oracles.jump_times(stit.simulate(LAM, W1, 0.25, stream(1, i)))
        for i in range(n))
    target = math.exp(-1.0)
    assert abs(alive / n - target) <= 4 * binomial_sigma(target, n)


def test_tree_structural_invariants():
    tree = stit.simulate(LAM, W2, 1.2, stream(2, 0))
    birth, death = tree.birth, tree.forest.death
    u, d = tree.forest.cuts()
    assert birth[0] == 0.0 and tree.parent[0] == -1
    assert tree.cell(0) == W2
    splits = 0
    for i, a in enumerate(tree.children.tolist()):
        if a < 0:
            assert death[i] == math.inf
            continue
        splits += 1
        assert birth[i] < death[i] < math.inf
        assert birth[a] == death[i] == birth[a + 1]
        assert tree.parent[a] == i == tree.parent[a + 1]
        # children partition the parent across the recorded hyperplane
        assert tree.cell(a).area() + tree.cell(a + 1).area() == pytest.approx(
            tree.cell(i).area(), rel=1e-9)
        assert geo.hits(geo.Hyperplane(tuple(u[i]), d[i]), tree.cell(i))
    jumps = oracles.jump_times(tree)
    assert splits == len(jumps)
    assert jumps == sorted(jumps)
    # at most one cell dies per jump time
    assert len(set(jumps)) == len(jumps)
    # tiling at several slices
    for s in (0.2, 0.7, 1.2):
        assert tiling_defect(cells_at(tree, s)) <= 1e-6


def test_slice_monotone_and_bounds():
    tree = stit.simulate(LAM, W2, 1.0, stream(3, 0))
    counts = [len(stit.slice_at(tree, s).cells) for s in np.linspace(0.05, 1.0, 12)]
    assert counts == sorted(counts)
    jumps = oracles.jump_times(tree)
    if jumps:
        assert cells_at(tree, jumps[0] * 0.5).cells == (W2,)
    with pytest.raises(OutOfRange):
        stit.slice_at(tree, 1.5)
    with pytest.raises(OutOfRange):
        stit.slice_at(tree, 0.0)


def test_method_equivalence_quick():
    def stats_of(method, seed):
        def one(_i, rng):
            T = stit.slice_at(stit.simulate(LAM, W1, 1.0, rng, method), 1.0)
            return stit.summary_stats(T)[0]
        return np.asarray(run_replicates(one, 700, seed), dtype=float)

    a = stats_of("direct", 4)
    b = stats_of("rejection", 5)
    assert ks_two_sample(a[:, 0], b[:, 0]).p_value > 0.001
    assert ks_two_sample(a[:, 1], b[:, 1]).p_value > 0.001


def test_advance_matches_longer_run_in_distribution():
    def adv(_i, rng):
        tree = stit.advance(stit.simulate(LAM, W1, 0.5, rng), 0.5, rng)
        return len(stit.slice_at(tree, 1.0).cells)

    def direct(_i, rng):
        return len(stit.slice_at(stit.simulate(LAM, W1, 1.0, rng), 1.0).cells)

    a = np.asarray(run_replicates(adv, 800, 6), dtype=float)
    b = np.asarray(run_replicates(direct, 800, 7), dtype=float)
    assert ks_two_sample(a, b).p_value > 0.001


def test_advance_preserves_tiling():
    tree = stit.simulate(LAM, W2, 0.5, stream(8, 0))
    stit.advance(tree, 0.7, stream(8, 1))
    assert tree.current_time == pytest.approx(1.2)
    assert tiling_defect(cells_at(tree, 1.2)) <= 1e-6


def test_zero_cell():
    assert oracles.zero_cell(Tessellation(W1, (W1,))) == W1
    # one cut at x = 0.3 > 0: the origin-side cell is x <= 0.3
    left = geo.Box((-1, -1), (0.3, 1))
    right = geo.Box((0.3, -1), (1, 1))
    assert oracles.zero_cell(Tessellation(W1, (right, left))) == left
    with pytest.raises(AmbiguousZeroCell):
        oracles.zero_cell(Tessellation(
            W1, (geo.Box((-1, -1), (0, 1)), geo.Box((0, -1), (1, 1)))))


def test_zero_cell_shrinks_along_trajectory():
    tree = stit.simulate(LAM, W2, 1.5, stream(9, 0))
    previous = None
    for s in np.linspace(0.1, 1.5, 10):
        cell = oracles.zero_cell(cells_at(tree, s))
        if previous is not None:
            assert geo.contains(previous, cell)
        previous = cell


def test_halfspace_representation():
    tree = stit.simulate(LAM, W2, 1.0, stream(10, 0), method="rejection")
    assert stit.halfspace_representation(tree, 0) == []
    assert len(tree.forest.rejected[0]) > 10
    for i in range(len(tree.parent)):
        hs = stit.halfspace_representation(tree, i)
        cur = W2
        for half in hs:
            n, c = half.normal_form()
            cur = geo.clip_tolerant(cur, n, c)
            assert cur is not None
        assert cur.area() == pytest.approx(tree.cell(i).area(), rel=1e-9)
    direct_tree = stit.simulate(LAM, W2, 0.5, stream(10, 1))
    with pytest.raises(MethodMismatch):
        stit.halfspace_representation(direct_tree, 0)


def test_polygon_halfspace_representation():
    # a polygon rejection tree keeps its misses as (normal, offset) pairs;
    # with the ancestors' cuts they carve every cell out of the window
    tree = stit.simulate(isotropic_measure(1.0), PENTAGON, 1.5, stream(10, 2),
                         method="rejection")
    assert len(tree.forest.rejected[0]) > 10
    for i in range(len(tree.parent)):
        cur = PENTAGON
        for half in stit.halfspace_representation(tree, i):
            cur = geo.clip_tolerant(cur, *half.normal_form())
        assert cur.area() == pytest.approx(tree.cell(i).area(), rel=1e-9)


def test_number_cells():
    assert oracles.number_cells(Tessellation(W1, (W1,))) == [0]
    left = geo.Box((-1, -1), (0.3, 1))
    right = geo.Box((0.3, -1), (1, 1))
    assert oracles.number_cells(Tessellation(W1, (right, left))) == [1, 0]
    # permutation invariance of the induced spatial order
    tree = stit.simulate(LAM, W2, 1.0, stream(11, 0))
    T = cells_at(tree, 1.0)
    order = oracles.number_cells(T)
    perm = list(reversed(range(len(T.cells))))
    T2 = Tessellation(W2, tuple(T.cells[i] for i in perm))
    order2 = oracles.number_cells(T2)
    assert [T.cells[i] for i in order] == [T2.cells[i] for i in order2]


def brute_force_nest_count(T, R):
    """Interval arithmetic count of nest cells with interior overlap with
    their frame, nest j going into cell j of T."""
    count, nests = 0, as_polytopes(R)
    for j, frame in enumerate(as_polytopes(T)[0].cells):
        for cell in nests[j].cells:
            w = min(frame.hi[0], cell.hi[0]) - max(frame.lo[0], cell.lo[0])
            h = min(frame.hi[1], cell.hi[1]) - max(frame.lo[1], cell.lo[1])
            if w > 1e-9 and h > 1e-9 and w * h >= 1e-12:
                count += 1
    return count


def test_iterate():
    rng = stream(12, 0)
    R = stit.slice_at(stit.simulate(LAM, W2, 0.8, rng), 0.8)
    # nesting into the trivial tessellation returns the nest
    got = stit.iterate(trivial(W2, 1), R)
    assert sorted(c.area() for c in as_polytopes(got)[0].cells) == \
        pytest.approx(sorted(c.area() for c in as_polytopes(R)[0].cells))
    # trivial nests leave the base unchanged
    T = stit.slice_at(stit.simulate(LAM, W2, 0.6, rng), 0.6)
    m = len(T.cells)
    assert len(stit.iterate(T, trivial(W2, m)).cells) == m
    # nested cell count against interval-arithmetic oracle
    nests = batch(LAM, W2, 0.5, m, rng)
    result = stit.iterate(T, nests)
    assert len(result.cells) == brute_force_nest_count(T, nests)
    assert tiling_defect(as_polytopes(result)[0]) <= 1e-6
    for k in (m - 1, m + 1):
        with pytest.raises(InsufficientNests):
            stit.iterate(T, trivial(W2, k))
    with pytest.raises(WindowMismatch):
        stit.iterate(T, trivial(W1, m))


def test_restrict():
    rng = stream(13, 0)
    T = stit.slice_at(stit.simulate(LAM, W2, 1.0, rng), 1.0)
    same = stit.restrict(T, W2)
    assert len(same.cells) == len(T.cells)
    inner = stit.restrict(T, geo.Box((-1, -1), (1, 1)))
    assert tiling_defect(as_polytopes(inner)[0]) <= 1e-6
    # a sub-window inside one cell restricts to the trivial tessellation
    c = oracles.zero_cell(as_polytopes(T)[0]).centroid()
    eps = 1e-3
    tiny = geo.Box((c[0] - eps, c[1] - eps), (c[0] + eps, c[1] + eps))
    assert len(stit.restrict(T, tiny).cells) == 1
    with pytest.raises(WindowMismatch):
        stit.restrict(T, geo.Box((-3, -3), (3, 3)))
    # box cells hold no polygon sub-window
    with pytest.raises(RegimeMismatch):
        stit.restrict(T, geo.Box((-1, -1), (1, 1)).to_polygon())


def test_restrict_consistency_in_distribution():
    inner = geo.Box((-1, -1), (1, 1))

    def restricted(_i, rng):
        T = stit.slice_at(stit.simulate(LAM, W2, 1.0, rng), 1.0)
        return stit.summary_stats(stit.restrict(T, inner))[0, 1]

    def direct(_i, rng):
        T = stit.slice_at(stit.simulate(LAM, inner, 1.0, rng), 1.0)
        return stit.summary_stats(T)[0, 1]

    a = np.asarray(run_replicates(restricted, 700, 14))
    b = np.asarray(run_replicates(direct, 700, 15))
    assert ks_two_sample(a, b).p_value > 0.001


def test_summary_stats():
    s = stit.summary_stats(trivial(W1, 1))
    assert s.tolist() == [[1.0, 0.0]]
    # one full vertical cut: internal boundary length 2; the second
    # tessellation of the batch has no cell
    cut = stit.Tessellation(W1, np.array([0, 0]), geo.BoxCells(
        np.array([[-1.0, -1.0], [0.25, -1.0]]),
        np.array([[0.25, 1.0], [1.0, 1.0]])), 2)
    assert stit.summary_stats(cut)[:, 0].tolist() == [2, 0]
    assert stit.summary_stats(cut)[0, 1] == pytest.approx(2.0)
    s2 = oracles.summary_stats(as_polytopes(cut)[0])
    assert s2.cell_count == 2 and s2.zero_cell_area == pytest.approx(2.5)
    assert s2.boundary == pytest.approx(2.0)


def test_zeta_subadditive_on_every_split():
    tree = stit.simulate(LAM, W2, 1.5, stream(16, 0))
    kids = tree.children
    assert (kids >= 0).sum() > 10
    for i in np.flatnonzero(kids >= 0).tolist():
        a, b = tree.cell(kids[i]), tree.cell(kids[i] + 1)
        assert measure_hitting(LAM, a) + measure_hitting(LAM, b) >= \
            measure_hitting(LAM, tree.cell(i)) - 1e-9


def test_isotropic_polygon_tree():
    iso = isotropic_measure(1.0)
    window = W1.to_polygon()
    tree = stit.simulate(iso, window, 1.0, stream(17, 0))
    assert tiling_defect(cells_at(tree, 1.0)) <= 1e-6
    u, d = tree.forest.cuts()
    dead = np.flatnonzero(~tree.forest.alive).tolist()
    assert dead
    for i in dead:
        assert geo.hits(geo.Hyperplane(tuple(u[i]), d[i]), tree.cell(i))


def test_determinism_bit_identical():
    a = stit.tree_to_json(stit.simulate(LAM, W2, 1.0, stream(18, 0)))
    b = stit.tree_to_json(stit.simulate(LAM, W2, 1.0, stream(18, 0)))
    assert dumps_canonical(a) == dumps_canonical(b)
    c = stit.tree_to_json(stit.simulate(LAM, W2, 1.0, stream(18, 1)))
    assert dumps_canonical(a) != dumps_canonical(c)


def test_explosion_guard(monkeypatch):
    monkeypatch.setattr(stit, "EVENT_CAP", 10)
    with pytest.raises(ExplosionGuard):
        stit.simulate(LAM, W2, 50.0, stream(19, 0))


def test_explosion_guard_in_loop(monkeypatch):
    # dt * mass(W1) = 10 * 4 is under the cap, so only the event count trips
    monkeypatch.setattr(stit, "EVENT_CAP", 50)
    with pytest.raises(ExplosionGuard, match="more than 50 events"):
        stit.simulate(LAM, W1, 10.0, stream(19, 1))


@pytest.mark.parametrize("measure, window", [
    (LAM, W1), (isotropic_measure(1.0), W1.to_polygon())], ids=["box", "polygon"])
def test_kernel_errors_name_time_and_live_cells(monkeypatch, measure, window):
    monkeypatch.setattr(stit, "EVENT_CAP", 50)
    with pytest.raises(ExplosionGuard) as e:
        stit.simulate(measure, window, 10.0, stream(19, 1))
    state = re.search(r"more than 50 events in one advance, at t=(\S+) with "
                      r"(\d+) live cells", str(e.value))
    assert state and 0 < float(state[1]) < 10 and int(state[2]) > 1
    monkeypatch.setattr(stit, "EVENT_CAP", 10 ** 7)
    monkeypatch.setattr(stit, "_SPLIT_RETRY_CAP", 0)
    with pytest.raises(DegenerateCut, match=r"at t=0 with 1 live cells"):
        stit.simulate(measure, window, 10.0, stream(19, 1))


@pytest.mark.parametrize("measure, window", [
    (LAM, W1), (isotropic_measure(1.0), W1.to_polygon())], ids=["box", "polygon"])
def test_degenerate_splits_redraw_only_their_rows(monkeypatch, measure, window):
    # rows 1 and 3 come back degenerate from the first split: their marks
    # are redrawn from their cells' own law, the other rows keep their
    # first marks, and every child is its cell cut by its final mark
    law = regime(measure, window)
    real, first = law.cells.split, []

    def split(cells, u, d):
        kids, ok = real(cells, u, d)
        if not first:
            first.append((u.copy(), d.copy()))
            ok = ok & ~np.isin(np.arange(len(ok)), [1, 3])
        return kids, ok

    monkeypatch.setattr(law.cells, "split", split)
    cells = law.cells.tile(window, 5)
    u, d = cells.unmarked(5), np.zeros(5)
    kids = stit._split(stream(19, 3), law, cells, u, d, True, (0.0, 5))
    want, ok = real(cells, u, d)
    assert ok.all()
    assert all(np.array_equal(getattr(kids, a), getattr(want, a))
               for a in vars(want))
    keep = [0, 2, 4]
    assert np.array_equal(u[keep], first[0][0][keep])
    assert np.array_equal(d[keep], first[0][1][keep])
    assert not np.isin(d[[1, 3]], first[0][1]).any()


class _NoDraws:
    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} used before the work estimate")


@pytest.mark.parametrize("method", ["direct", "rejection"])
def test_huge_time_stops_before_any_draw(method):
    with pytest.raises(ExplosionGuard) as e:
        stit.simulate(LAM, W1, 1e12, _NoDraws(), method)
    assert "dt=1e+12" in str(e.value) and "hitting mass 4 " in str(e.value)
    assert f"cap of {stit.EVENT_CAP}" in str(e.value)
    tree = stit.simulate(LAM, W1, 1e-9, stream(19, 2), method)
    with pytest.raises(ExplosionGuard):
        stit.advance(tree, 1e12, _NoDraws())


PENTAGON = geo.Polygon2D(((-1.6, -0.9), (1.4, -1.2), (1.8, 0.7), (0.2, 1.9),
                          (-1.3, 1.1)))
OBLIQUE = DrivingMeasure(1.5, Discrete((((1.0, 0.5), 0.6), ((-0.3, 1.0), 0.4))))
GOLDEN_TREES = {
    # name: (measure, window, t, method, sha256 of canonical tree_to_json)
    "axis_2d_direct": (
        LAM, W2, 2.0, "direct",
        "b46e7c826141a970fb3b42a6e28f6cad6a62a0ac3098db2d279ff36a21fa1296"),
    "axis_2d_rejection": (
        LAM, W2, 2.0, "rejection",
        "9f25070518b626a488b6dd4f1d129e3faf884f4da24e7391355cdc68f4c515eb"),
    "weighted_axis_3d": (
        axis_measure([2.0, 1.0, 0.5]),
        geo.Box((-1.0, -1.5, -1.0), (1.5, 1.0, 1.0)), 1.5, "direct",
        "385fb6c7f8f18322643cfe91753c5f13afaaa7a09f72a923a86e3ac039ba9d5c"),
    "isotropic_polygon_direct": (
        isotropic_measure(1.0), PENTAGON, 2.0, "direct",
        "46d8694e4f1b4b8cd20db29049929678707e677a6a2bc5ef8665073bce52986c"),
    "isotropic_polygon_rejection": (
        isotropic_measure(1.0), PENTAGON, 2.0, "rejection",
        "2255d1d0969c405ab7120f20c429150b5dbcd0acb31839aecbb7857b5c88fe3b"),
    "oblique_polygon": (
        OBLIQUE, PENTAGON, 2.0, "direct",
        "2917e9ae2df36c7f14760f25af6799a3a377aed4e6014aa0ebf46be7634d0b2c"),
}


MASS_FORESTS = {
    # name: (measure, window, t) of a forest whose every node is checked
    "axis_2d": (LAM, W2, 2.0),
    "weighted_axis_3d": GOLDEN_TREES["weighted_axis_3d"][:3],
    "isotropic_polygon": (isotropic_measure(1.0), PENTAGON, 2.0),
    "oblique_polygon": (OBLIQUE, PENTAGON, 2.0),
}


@pytest.mark.parametrize("name", sorted(MASS_FORESTS))
def test_regime_masses_match_measure_hitting(name):
    # the tree kernel's lifetimes read the regime's per-cell masses; they
    # are measure_hitting of each cell, also on polygon rows padded past
    # their vertex count
    measure, window, t = MASS_FORESTS[name]
    cells = stit.simulate(measure, window, t, stream(42, 0)).forest.cells
    got = regime(measure, window).masses(cells)
    want = [measure_hitting(measure, P)
            for P in cells.polytopes(np.arange(len(cells)))]
    assert len(cells) > 20
    if isinstance(cells, geo.PolygonCells):
        assert len(np.unique(cells.count)) > 1
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def golden_tree_payload(measure, window, t, method, seed):
    tree = stit.simulate(measure, window, t / 2, stream(seed, 0), method)
    stit.advance(tree, t / 2, stream(seed, 1))
    return stit.tree_to_json(tree)


@pytest.mark.parametrize("seed,name", enumerate(GOLDEN_TREES, start=20))
def test_tree_bytes_golden(seed, name):
    # Digests of trees grown by simulate(t/2) then advance(t/2); any change
    # to the draws, the cut order, the child order or the rejected counts
    # shows here.  The payload is already plain JSON, which is why simulate
    # writes it without a sanitize copy.
    measure, window, t, method, digest = GOLDEN_TREES[name]
    payload = golden_tree_payload(measure, window, t, method, seed)
    assert sanitize(payload) == payload
    text = dumps_canonical(payload)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


WRITER_TREES = {
    # name: (measure, window, t, method); every golden regime, and trees
    # with no split ("parent":null and "hyperplane":null at the root)
    **{name: spec[:4] for name, spec in GOLDEN_TREES.items()},
    "root_only_box": (LAM, W2, 1e-6, "direct"),
    "root_only_polygon": (isotropic_measure(1.0), PENTAGON, 1e-6, "rejection"),
}


@pytest.mark.parametrize("name", sorted(WRITER_TREES))
def test_tree_writers_match_oracles(name):
    # tree_to_json and render_tessellation write from the forest's columns
    # the bytes the oracles write one dict and one point at a time
    measure, window, t, method = WRITER_TREES[name]
    tree = stit.simulate(measure, window, t / 2, stream(50, 0), method)
    stit.advance(tree, t / 2, stream(50, 1))
    text = dumps_canonical(stit.tree_to_json(tree))
    assert text == oracles.dumps_canonical(oracles.tree_to_json(tree))
    if name.startswith("root_only"):
        assert len(tree.parent) == 1
        assert '"hyperplane":null,"id":0,"parent":null' in text
    if window.dim == 2:
        for s in (t / 3, t):
            T = stit.slice_at(tree, s)
            assert render_tessellation(T) == oracles.render_tessellation(T)


STRUCTURE_TREES = {
    # name: (measure, window, t, method)
    "box_direct": (LAM, W2, 2.0, "direct"),
    "box_rejection": (LAM, W2, 2.0, "rejection"),
    "box_3d": (axis_measure([2.0, 1.0, 0.5]),
               geo.Box((-1.0, -1.5, -1.0), (1.5, 1.0, 1.0)), 1.5, "direct"),
    "polygon_direct": (isotropic_measure(1.0), PENTAGON, 2.0, "direct"),
    "polygon_rejection": (isotropic_measure(1.0), PENTAGON, 1.0, "rejection"),
}


@pytest.mark.parametrize("name", sorted(STRUCTURE_TREES))
def test_tree_json_structure(name):
    # the checks a reader of simulate's JSON makes (perfbench's check_tree),
    # on the text simulate writes: a parent id out of range would stop that
    # reader with an IndexError
    measure, window, t, method = STRUCTURE_TREES[name]
    tree = stit.simulate(measure, window, t / 2, stream(40, 0), method)
    stit.advance(tree, t / 2, stream(40, 1))
    d = json.loads(dumps_canonical(stit.tree_to_json(tree)))
    nodes, jumps = d["nodes"], d["jump_times"]
    assert len(jumps) > 3
    assert [n["id"] for n in nodes] == list(range(len(nodes)))
    assert nodes[0]["parent"] is None and nodes[0]["birth"] == 0.0
    for n in nodes[1:]:
        assert 0 <= n["parent"] < n["id"]
        assert n["birth"] == nodes[n["parent"]]["death"]
    assert jumps == sorted(jumps)
    assert len(nodes) == 1 + 2 * len(jumps)
    assert sum(n["death"] is not None for n in nodes) == len(jumps)
    assert len(stit.slice_at(tree, t).cells) == len(jumps) + 1
    if method == "rejection":
        assert sum(n["rejected"] for n in nodes) > 0


def test_box_rejection_keeps_only_misses():
    # every recorded draw of a box rejection tree is a window cut that
    # misses its cell: the construction really rejects
    tree = stit.simulate(LAM, W2, 2.0, stream(41, 0), "rejection")
    at, normals, offsets = tree.forest.misses()
    draws = [(tree.cell(i), u, d) for i, u, d in zip(
        at.tolist(), normals.tolist(), offsets.tolist())]
    assert len(draws) > 20
    for box, u, d in draws:
        c = geo.coordinate_axis(u)
        assert u[c] == 1.0 and W2.lo[c] <= d <= W2.hi[c]
        assert not box.lo[c] < d < box.hi[c]


def _box_stats(f, n, window):
    """(cell_count, boundary, zero-cell area, jump count) of the n trees of
    a forest of box cells at its horizon."""
    rep, lo, hi = f.rep[f.alive], f.cells.lo[f.alive], f.cells.hi[f.alive]
    side = hi - lo
    zero = ((lo < -geo.GEOM_TOL) & (hi > geo.GEOM_TOL)).all(axis=1)
    return np.column_stack([
        np.bincount(rep, minlength=n),
        (np.bincount(rep, 2.0 * side.sum(axis=1), n) - window.surface()) / 2,
        np.bincount(rep[zero], side[zero].prod(axis=1), n),
        np.bincount(f.rep[~f.alive], minlength=n)])


def _polygon_stats(f, n, window):
    """The statistics of _box_stats for the n trees of a forest of polygon
    cells; the zero cell is the cell whose every edge lies more than
    GEOM_TOL from the origin, on its left."""
    rep, V = f.rep[f.alive], f.cells.V[f.alive]
    W = np.roll(V, -1, axis=1)
    e = W - V
    length = np.hypot(e[..., 0], e[..., 1])  # 0 on padding
    area = (V[..., 0] * W[..., 1] - W[..., 0] * V[..., 1]).sum(axis=1) / 2
    left = V[..., 0] * e[..., 1] - V[..., 1] * e[..., 0]
    zero = ((length == 0) | (left > geo.GEOM_TOL * length)).all(axis=1)
    return np.column_stack([
        np.bincount(rep, minlength=n),
        (np.bincount(rep, length.sum(axis=1), n) - window.surface()) / 2,
        np.bincount(rep[zero], area[zero], n),
        np.bincount(f.rep[~f.alive], minlength=n)])


def _grow(measure, window, t, method, n, rng):
    """The statistics of n fresh trees on the window grown to t as one
    batch by stit.grow, on the cells of the window's regime: box cells for
    an axis measure on a box, else polygon cells."""
    cells = regime(measure, window).cells
    f = stit.grow(measure, window, cells.tile(window, n), np.arange(n), 0.0,
                  t, rng, method)
    stats = _box_stats if cells is geo.BoxCells else _polygon_stats
    return stats(f, n, window)


# (window, t) of every tree experiment's arms: first_split, capacity,
# methods / consistency / no_jump / self_similarity's half window,
# consistency / iteration's full run, iteration's base and nests /
# self_similarity, and self_similarity's power arm
LAW_CASES = [(W1, 0.25), (W2, 0.25), (W1, 1.0), (W2, 1.0), (W2, 0.5), (W1, 1.5)]


@pytest.mark.parametrize("method", ["direct", "rejection"])
@pytest.mark.parametrize("case", range(len(LAW_CASES)))
def test_box_kernel_agrees_with_event_loop_in_law(case, method):
    # The reference is stit.grow on the window as a polygon: box cells
    # against polygon cells through the one generation loop, on separate
    # streams, so the box cells' split, mass and mark are checked against
    # the polygon cells' clipping and line drawer.
    # 12 cases of 3 distinct statistics (the jump count is the cell count
    # less one): each KS test gates at 0.005 / 36, so the family fails
    # falsely at most 0.5% of the time; n = 600 rejects a kernel whose
    # rates are 10% high
    window, t = LAW_CASES[case]
    seed = 50 + 2 * case + (method == "rejection")
    a = _grow(LAM, window.to_polygon(), t, method, 600, stream(seed, 0))
    b = _grow(LAM, window, t, method, 600, stream(seed, 1))
    for x in (a, b):
        assert np.array_equal(x[:, 3], x[:, 0] - 1)
    for k in range(3):
        assert ks_two_sample(a[:, k], b[:, k]).p_value > 0.005 / 36


MOMENT_CASES = {
    # name: (measure, window, t, method)
    "box_direct": (LAM, W2, 1.0, "direct"),
    "box_rejection": (LAM, W2, 1.0, "rejection"),
    "isotropic_direct": (isotropic_measure(1.0), PENTAGON, 2.0, "direct"),
    "isotropic_rejection": (isotropic_measure(1.0), PENTAGON, 2.0, "rejection"),
    "oblique_direct": (OBLIQUE, PENTAGON, 2.0, "direct"),
    "oblique_rejection": (OBLIQUE, PENTAGON, 2.0, "rejection"),
}


@pytest.mark.parametrize("seed,name", enumerate(MOMENT_CASES, start=70))
def test_first_moments_are_exact(seed, name):
    # The STIT at t has the line density of the Poisson line process of
    # t * Lambda, so E[internal boundary] = gamma t area(W) for every planar
    # measure.  Under the isotropic measure a cell divides at rate
    # gamma per(cell) / pi and the perimeters sum to per(W) + 2 boundary,
    # so E[jumps] = gamma t per(W) / pi + gamma^2 t^2 area(W) / pi.  Each z
    # is gated at 4 (8 tests, family false-failure rate under 1e-3); rates
    # x1.1 move the boundary mean by 10%, over 9 sigma at n = 2000.
    measure, window, t, method = MOMENT_CASES[name]
    n = 2000
    x = _grow(measure, window, t, method, n, stream(seed, 0))
    targets = {1: measure.gamma * t * window.area()}
    if name.startswith("isotropic"):
        targets[3] = (measure.gamma * t * window.surface() / math.pi
                      + (measure.gamma * t) ** 2 * window.area() / math.pi)
    for k, target in targets.items():
        z = (x[:, k].mean() - target) / (x[:, k].std(ddof=1) / math.sqrt(n))
        assert abs(z) <= 4, (k, x[:, k].mean(), target, z)


def test_lines_on_a_broadcast_window_skip_the_pairwise_array():
    # Window rain draws every line from one window broadcast to all rows.
    # The isotropic measure weighs the window's edges once, far below an
    # (m, K, K, 2) array of vertex differences (64 MiB here); a discrete
    # measure projects it once, not through an (m, K, 3) array of every
    # row's projections (12 MiB here).  The draws are those of the same
    # window materialised row by row.
    s3 = math.sqrt(3.0) / 2.0
    oblique3 = DrivingMeasure(1.0, Discrete((((1.0, 0.0), 0.5),
                                             ((0.5, s3), 0.25),
                                             ((-0.5, s3), 0.25))))
    wv = np.array([(math.cos(a), math.sin(a)) for a in np.arange(8) * math.pi / 4])
    m = 65_536
    for measure, bound in ((isotropic_measure(1.0), m * 8 * 8 * 2 * 8 / 2),
                           (oblique3, m * 8 * 3 * 8 / 2)):
        tracemalloc.start()
        try:
            draw_lines(stream(90, 0), measure, np.broadcast_to(wv, (m, 8, 2)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound
        small = np.broadcast_to(wv, (500, 8, 2))
        a = draw_lines(stream(91, 0), measure, small)
        b = draw_lines(stream(91, 0), measure, small.copy())
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
