"""Each batched cell reduction in `harmonic`, `estimates` and the s-rule
against the per-cell formula it stands for."""

import numpy as np
import pytest

from jacobi_watson import DegenerateInputError, WeightedMeasure, harmonic
from jacobi_watson.estimates import _l_profile, _s_rule, j_operator_apply
from jacobi_watson.kernels import AbelParameter
from jacobi_watson.polynomials import JacobiParams
from jacobi_watson.quadrature import (
    _gauss_jacobi_raw,
    gauss_legendre,
    graded_breakpoints,
    interval_rule,
    sqrt_left_rule,
)

MEASURES = {
    "jacobi": WeightedMeasure.jacobi(-0.9, 0.3),
    "product": WeightedMeasure.product(((0.0, -0.5), (1.0, 0.7)), (0.0, 1.0)),
}


def _bump(x):
    return np.exp(-4.0 * (np.asarray(x) - 0.2) ** 2) + 0.1


def _step(x):
    return np.where(np.asarray(x) < 0.35, 2.0, 0.5) + np.asarray(x) ** 2


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_cell_sums_are_the_per_cell_dots(name):
    m = MEASURES[name]
    grid = harmonic._window_grid(m, 256)
    t, w = m.cell_rules(grid, harmonic._HL_NODES)
    v = np.abs(_bump(t))
    got = harmonic._cell_sums(w, v, harmonic._HL_NODES)
    n = harmonic._HL_NODES
    want = np.array([np.dot(w[k : k + n], v[k : k + n]) for k in range(0, t.size, n)])
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


def _one_sided_brute_force(m, f, a, side):
    """max over the windows (x, a) or (a, y) of the lateral grid, each summed
    cell by cell from `cell_rule` and `interval_mass_exact`."""
    sa, sb = m.support
    if side == "left":
        grid = graded_breakpoints(sa, a, lean_left=False, min_scale=1e-12, n_uniform=200)
    else:
        grid = graded_breakpoints(a, sb, lean_left=True, min_scale=1e-12, n_uniform=200)
    masses, integrals = [], []
    for l, r in zip(grid[:-1], grid[1:]):
        t, w = m.cell_rule(l, r, harmonic._LATERAL_NODES)
        masses.append(m.interval_mass_exact(l, r))
        integrals.append(float(np.dot(w, np.abs(f(t)))))
    masses, integrals = np.array(masses), np.array(integrals)
    if side == "left":
        windows = [(integrals[i:].sum(), masses[i:].sum()) for i in range(masses.size)]
    else:
        windows = [(integrals[: j + 1].sum(), masses[: j + 1].sum()) for j in range(masses.size)]
    return max(num / den for num, den in windows if den > 0.0)


@pytest.mark.parametrize("name", sorted(MEASURES) + ["lebesgue"])
@pytest.mark.parametrize("f", [_bump, _step], ids=["bump", "step"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_lateral_maximal_is_the_one_sided_window_max(name, f, side):
    m = MEASURES.get(name, WeightedMeasure.lebesgue(0.0, 1.0))
    a = 0.35 if m.support == (0.0, 1.0) else -0.3
    want = _one_sided_brute_force(m, f, a, side)
    assert harmonic.lateral_maximal(m, f, a, side) == pytest.approx(want, rel=1e-13, abs=0.0)


class _Massless(WeightedMeasure):
    """Lebesgue measure whose cells all report zero mass."""

    def cell_masses(self, edges):
        return np.zeros(len(edges) - 1)


@pytest.mark.parametrize("side", ["left", "right"])
def test_lateral_maximal_refuses_a_grid_without_mass(side):
    with pytest.raises(DegenerateInputError, match="zero mass"):
        harmonic.lateral_maximal(_Massless("lebesgue", (), (0.0, 1.0)), _bump, 0.5, side)


def _step_kernel(k):
    """A kernel whose only jump on a partition is at step k, so that a
    Stieltjes sum over the partition returns that step's weight."""
    return lambda r, x, ys: (np.arange(np.size(ys)) > k).astype(float)


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_variation_weights_are_cdf_differences(name):
    m = MEASURES[name]
    a, b = m.support
    depth = 6
    n = 2**depth
    for x, right in ((a, True), (b, False)):
        ys = np.linspace(x, b, n + 1) if right else np.linspace(a, x, n + 1)
        cx = m.cdf(x)
        want = np.array([abs(m.cdf(y) - cx) for y in ys[1:]])
        got = np.array(
            [harmonic._weighted_variation(_step_kernel(k), m, 0.5, x, depth) for k in range(n)]
        )
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * m.total_mass)


def _two_piece_alpha_side(p, ab, f, x, exact_factor, n_y=48, n_s=16, level=2):
    """The alpha-side integral as two `interval_rule` pieces, the [x, 1] one
    absorbing (1-y)^alpha, with the factor written into the integrand. With
    exact_factor, 1 - y on [x, 1] is taken from the reference nodes as
    half (1 - xi), where 1 - y of a node next to 1 would lose digits."""
    s, w = _s_rule(ab, n_s, level)
    total = 0.0
    if x > 0.0:
        yl, wl = interval_rule(0.0, x, n_y)
        total += float(np.dot(wl, _l_profile(p, ab, x, yl, s, w) * (1.0 - yl) ** p.alpha * f(yl)))
    yr, wr = interval_rule(x, 1.0, n_y, e_left=0.0, e_right=p.alpha)
    if exact_factor:
        xi, _ = _gauss_jacobi_raw(n_y, p.alpha, 0.0) if p.alpha else gauss_legendre(n_y)
        one_minus_y = 0.5 * (1.0 - x) * (1.0 - xi)
    else:
        one_minus_y = 1.0 - yr
    total += float(np.dot(wr, _l_profile(p, ab, x, yr, s, w) * one_minus_y**p.alpha * f(yr)))
    return total


@pytest.mark.parametrize("e", [-0.9, 0.0, 1.7])
@pytest.mark.parametrize("x", [0.0, 0.3, 0.95])
def test_alpha_side_integral_is_the_two_piece_formula(e, x):
    ab = AbelParameter(0.9)
    f = lambda y: 1.0 + 0.5 * y + y**2  # noqa: E731
    for side, p, x_side in (("alpha", JacobiParams(e, 0.2), x), ("beta", JacobiParams(0.2, e), -x)):
        # the beta side is the alpha side of the mirrored exponents and f(-y)
        g = f if side == "alpha" else (lambda y: f(-y))
        got = j_operator_apply(p, ab, f, x_side, side)
        want = _two_piece_alpha_side(JacobiParams(e, 0.2), ab, g, x, exact_factor=True)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)
        if e >= 0.0:
            # the factor as 1 - y loses digits only where its power is negative
            want = _two_piece_alpha_side(JacobiParams(e, 0.2), ab, g, x, exact_factor=False)
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def _per_cell_sqrt_rule(k, upper, layer, n_per_cell, level):
    """sqrt_left_rule's cells mapped one at a time."""
    u_max = np.sqrt(upper - k)
    u_layer = min(np.sqrt(max(layer, 1e-300)), u_max / 4.0)
    edges = [0.0]
    u = max(u_layer * 0.5, u_max * 1e-8)
    while u < u_max:
        edges.append(u)
        u *= 2.0
    edges.append(u_max)
    edges = np.asarray(sorted(set(edges)))
    for _ in range(level - 1):
        edges = np.sort(np.concatenate([edges, 0.5 * (edges[1:] + edges[:-1])]))
    xi, wi = gauss_legendre(n_per_cell)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        mid = 0.5 * (b + a)
        u_nodes = mid + half * xi
        nodes.append(k + u_nodes**2)
        weights.append(2.0 * half * wi)
    return np.concatenate(nodes), np.concatenate(weights)


@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("k,layer", [(1.0 + 1e-3, 1e-3), (1.2, 0.05), (1.0 + 2.0**-24, 2.0**-24)])
def test_sqrt_left_rule_is_the_per_cell_loop_bitwise(level, k, layer):
    s, w = sqrt_left_rule(k, 2.0, layer=layer, n_per_cell=16, level=level)
    s0, w0 = _per_cell_sqrt_rule(k, 2.0, layer, 16, level)
    assert np.array_equal(s, s0) and np.array_equal(w, w0)
