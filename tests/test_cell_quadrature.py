"""The measure layer's cell quadrature: two-sided graded grids, breakpoint
splits, concatenated cell rules and cell masses."""

import math

import numpy as np
import pytest
from scipy import special

from jacobi_watson.errors import DegenerateInputError, DomainError
from jacobi_watson.measure import WeightedMeasure
from jacobi_watson.quadrature import gauss_legendre, graded_breakpoints, graded_grid, piece_edges

MEASURES = {
    "jacobi": WeightedMeasure.jacobi(-0.9, 0.3),
    "jacobi-half": WeightedMeasure.jacobi(0.5, 0.5),
    "power": WeightedMeasure.power(-0.6),
    "power-left": WeightedMeasure.power(1.5, (-1.0, 0.0)),
    "product": WeightedMeasure.product(((0.0, -0.4), (1.0, 0.7)), (0.0, 1.0)),
    "product-interior": WeightedMeasure.product(((0.0, -0.5), (0.5, 1.2), (1.0, 0.3)), (0.0, 1.0)),
    "lebesgue": WeightedMeasure.lebesgue(-1.0, 2.0),
}


GRIDS = [(-1.0, 1.0, 1e-12, 4), (0.0, 1.0, 1e-10, 256), (0.25, 0.75, 1e-6, 128), (-1.0, 0.3, 1e-15, 7)]


@pytest.mark.parametrize("l, r, min_scale, n_uniform", GRIDS)
def test_graded_grid_is_the_union_of_both_gradings(l, r, min_scale, n_uniform):
    g = graded_grid(l, r, min_scale=min_scale, n_uniform=n_uniform)
    assert np.all(np.diff(g) > 0.0)
    kw = {"min_scale": min_scale, "n_uniform": n_uniform}
    left = graded_breakpoints(l, r, lean_left=True, **kw)
    right = graded_breakpoints(l, r, lean_left=False, **kw)
    assert set(g.tolist()) == set(left.tolist()) | set(right.tolist())


@pytest.mark.parametrize("l, r", [(l, r) for l, r, _, _ in GRIDS[:3]] + [(-1.0, 0.3), (-1.0, 1.0 - 1e-5)])
def test_graded_grid_spans_exactly_its_interval(l, r):
    g = graded_grid(l, r, min_scale=1e-10)
    assert (g[0], g[-1]) == (l, r)
    assert np.all(np.diff(g) > 1e-12 * (r - l))


def test_piece_edges_keep_only_breakpoints_strictly_inside():
    assert piece_edges(-1.0, 1.0, (0.5, -2.0, 1.0, -0.25, -1.0)) == [-1.0, -0.25, 0.5, 1.0]
    assert piece_edges(0.0, 1.0, ()) == [0.0, 1.0]
    assert piece_edges(0.0, 1.0, np.array([0.75, 0.25])) == [0.0, 0.25, 0.75, 1.0]


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(
            name,
            # cell_rule forms |t - c| from rounded nodes t next to an anchor c != 0:
            # the tiny-cell masses next to x = 1 lose up to 2e-8 relative
            marks=pytest.mark.xfail(strict=True, reason="cancellation in |t - c|")
            if name == "jacobi" else (),
        )
        for name in sorted(MEASURES)
    ],
)
def test_cell_masses_sum_to_the_interval_mass(name):
    m = MEASURES[name]
    a, b = m.support
    for lo, hi in ((a, b), (a + 0.1 * (b - a), b - 0.3 * (b - a))):
        edges = graded_grid(lo, hi, min_scale=1e-10, n_uniform=32)
        masses = m.cell_masses(edges)
        assert masses.shape == (edges.size - 1,) and np.all(masses > 0.0)
        want = m.interval_mass_exact(lo, hi)
        assert math.fsum(masses) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_cell_rules_are_cell_rule_rows(name):
    m = MEASURES[name]
    edges = graded_grid(*m.support, min_scale=1e-8, n_uniform=8)
    if name == "product-interior":
        edges = np.unique(np.concatenate([edges, [0.5]]))
    t, w = m.cell_rules(edges, 6)
    assert t.shape == w.shape == (6 * (edges.size - 1),)
    for row, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        tc, wc = m.cell_rule(lo, hi, 6)
        assert np.array_equal(t.reshape(-1, 6)[row], tc)
        assert np.array_equal(w.reshape(-1, 6)[row], wc)


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_cell_masses_are_interval_mass_exact_bitwise(name):
    m = MEASURES[name]
    a, b = m.support
    w = b - a
    # graded grids reach cells below the tiny-cell cut; the interior grid puts
    # both edges of the product measures' CDF lookups inside table cells
    edges = np.unique(np.concatenate([
        graded_grid(a, b, min_scale=1e-12, n_uniform=32),
        graded_grid(a + 0.1 * w, b - 0.3 * w, min_scale=1e-9, n_uniform=17),
        [a + 0.375 * w, a + 0.625 * w, 0.5],
    ]))
    edges = edges[(edges >= a) & (edges <= b)]
    # a zero-width cell, and a reversed one, both of mass 0.0
    k = edges.size // 3
    edges = np.concatenate([edges[:k], [edges[k]], edges[k:], [edges[-2]]])
    want = np.array([m.interval_mass_exact(l, r) for l, r in zip(edges[:-1], edges[1:])])
    got = m.cell_masses(edges)
    # bytes, so that a -0.0 for 0.0 counts as a difference
    assert got.tobytes() == want.tobytes()
    assert got[k] == 0.0 and got[-1] == 0.0
    assert m.cell_masses(edges.tolist()).tobytes() == want.tobytes()
    assert np.any(np.diff(edges) < 1e-6 * w)
    if m.family == "jacobi":
        # cells on both sides of the complementary-tail branch vl + vr > 1,
        # and one on its edge vl + vr == 1
        assert np.any(edges[:-1] + edges[1:] > 0.0) and np.any(edges[:-1] + edges[1:] < 0.0)
        assert m.cell_masses([-0.375, 0.375])[0] == m.interval_mass_exact(-0.375, 0.375)


def test_all_anchored_split_builds_no_legendre_rule():
    # both halves of [-1, 1] split at 0 end on a singular Jacobi anchor, so the
    # batched rules take Gauss-Jacobi rows only and never ask for Legendre's
    m = WeightedMeasure.jacobi(0.5, 0.5)
    before = gauss_legendre.cache_info()
    x, w = m.quadrature_rule(4097, (0.0,))
    after = gauss_legendre.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    rows = [m.cell_rule(-1.0, 0.0, 2048), m.cell_rule(0.0, 1.0, 2048)]
    assert np.array_equal(x, np.concatenate([t for t, _ in rows]))
    assert np.array_equal(w, np.concatenate([wc for _, wc in rows]))


@pytest.mark.parametrize(
    "edges, error, match",
    [
        (list(np.linspace(0.0, 0.25, 9)) + [0.2, 0.3], DegenerateInputError, r"\[0\.25, 0\.2\]"),
        (list(np.linspace(0.0, 0.25, 9)) + [0.25, 0.3], DegenerateInputError, r"\[0\.25, 0\.25\]"),
        (list(np.linspace(0.0, 0.5, 9)) + [0.5, 0.7], DegenerateInputError, r"\[0\.5, 0\.5\]"),
        (list(np.linspace(0.0, 0.25, 9)) + [0.75, 0.75], DomainError, r"anchor 0\.5 .*\[0\.25, 0\.75\]"),
        (np.linspace(0.0, 1.0, 8), DomainError, "anchor 0.5"),
    ],
)
def test_cell_rules_raise_what_the_cell_rule_loop_raises(edges, error, match):
    m = MEASURES["product-interior"]
    with pytest.raises(error, match=match):
        m.cell_rules(edges, 8)
    with pytest.raises(error, match=match):
        for lo, hi in zip(edges[:-1], edges[1:]):
            m.cell_rule(lo, hi, 8)


@pytest.mark.parametrize("n", [1, 4, 9])
def test_cell_rules_with_an_anchor_at_each_end_are_gauss_exact(n):
    # int_0^1 x^k x^e0 (1-x)^e1 dx = B(k + e0 + 1, e1 + 1): with both anchors at
    # cell ends the rule is Gauss-Jacobi, exact up to degree 2n - 1
    e0, e1 = -0.4, 0.7
    m = MEASURES["product"]
    t, w = m.cell_rules([0.0, 1.0], n)
    for k in range(2 * n):
        want = special.beta(k + e0 + 1.0, e1 + 1.0)
        assert float(np.dot(w, t**k)) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("ab", [(0.0, 0.0), (0.5, -0.5), (-0.9, 0.3), (1.5, 0.2)])
@pytest.mark.parametrize("breaks", [(0.0,), (-0.3, 0.0, 0.4), (0.0, -1.0, 1.0, 3.0)])
def test_quadrature_rule_splits_at_breakpoints(ab, breaks):
    alpha, beta = ab
    m = WeightedMeasure.jacobi(alpha, beta)
    n = 96
    x, w = m.quadrature_rule(n, breaks)
    edges = piece_edges(-1.0, 1.0, breaks)
    per_piece = x.size // (len(edges) - 1)
    assert per_piece == max(24, n // (len(edges) - 1))
    for row, lo, hi in zip(x.reshape(-1, per_piece), edges[:-1], edges[1:]):
        assert np.all((row > lo) & (row < hi))
    # int sign dJ = J[0, 1] - J[-1, 0], with J[-1, 0] = scale * I_(1/2)(beta + 1, alpha + 1)
    scale = 2.0 ** (alpha + beta + 1.0) * special.beta(beta + 1.0, alpha + 1.0)
    want = scale * (1.0 - 2.0 * special.betainc(beta + 1.0, alpha + 1.0, 0.5))
    assert float(np.dot(w, np.sign(x))) == pytest.approx(want, rel=1e-13, abs=1e-14 * scale)


@pytest.mark.parametrize("breaks", [(), (-1.0, 1.0), (1.5, -7.0)])
def test_quadrature_rule_without_inside_breakpoints_is_the_plain_rule(breaks):
    m = WeightedMeasure.jacobi(0.5, -0.5)
    x, w = m.quadrature_rule(64, breaks)
    x0, w0 = m.quadrature_rule(64)
    assert np.array_equal(x, x0) and np.array_equal(w, w0)
