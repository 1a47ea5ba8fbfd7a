"""Expansions sized by the input: the first-rung rule, its residual projection,
and the kernel route, whose cells follow 1 - r."""

import mpmath
import numpy as np
import pytest

from jacobi_watson import (
    AbelParameter,
    ConvergenceError,
    JacobiParams,
    WeightedMeasure,
    abel_mean,
    default_r_grid,
    jacobi_eval,
    jacobi_maximal,
)
from jacobi_watson import abel as abel_module
from jacobi_watson import test_function_family as function_family
from jacobi_watson.abel import (
    _as_expansion,
    _default_terms,
    _jump_coefficients,
    _project,
    _project_residual,
    _rule_size,
    _trim,
)
from jacobi_watson.polynomials import _jacobi_blocks, binomial_real, jacobi_eval_table
from jacobi_watson.quadrature import _ASY_MIN_NODES, piece_edges

R_TOP = 1.0 - 2.0**-12
XS = np.linspace(-1.0, 1.0, 25)  # the CLI's default x grid
CORNERS = [(0.9, -0.9), (-0.9, 0.3)]
PAIRS = [(0.5, 0.5), (-0.5, -0.5), (0.5, -0.5), (-0.5, 0.5), *CORNERS]


def family(p):
    return {tf.tag: tf for tf in function_family(p)}


def _pieces(f) -> int:
    return len(piece_edges(-1.0, 1.0, f.breakpoints)) - 1


def _full_rule(f, p, r):
    """The r-sized rule and the degree bound, with f's remainder on the rule."""
    n = _default_terms(r, 1e-8)
    x, w = WeightedMeasure.jacobi(p.alpha, p.beta).quadrature_rule(_rule_size(n), f.breakpoints)
    fx = f(x) - sum(d * np.heaviside(x - t, 0.5) for t, d in f.jumps)
    return x, w, fx, n


@pytest.mark.parametrize("a,b", CORNERS)
@pytest.mark.parametrize("tag", ["pk:3", "const"])
def test_maximal_at_exponent_corners_matches_oracle(a, b, tag):
    # r^3 grows with r, so the max over the grid is r_top^3 |P_3(x)|; every
    # Abel mean of the constant is 1. Classical sums on the full rule left
    # 3.9e-9 (pk:3) and 8.2e-12 (const) here at (0.9, -0.9).
    p = JacobiParams(a, b)
    mx = jacobi_maximal(family(p)[tag], p, XS, r_grid=default_r_grid(12))
    if tag == "const":
        want = np.ones(XS.size)
    else:
        with mpmath.workdps(40):
            top = mpmath.mpf(R_TOP) ** 3
            want = np.array([float(abs(top * mpmath.jacobi(3, a, b, x))) for x in XS])
    assert np.max(np.abs(mx - want)) <= 1e-13 * np.max(want)


@pytest.mark.parametrize("a,b", [(0.5, 0.5), (-0.5, -0.5), (0.0, 0.0), *CORNERS, (-0.99, 0.5)])
@pytest.mark.parametrize("tag", ["bump", "const", "pk:3", "sign"])
def test_smooth_inputs_build_no_rule_above_the_rung(a, b, tag, monkeypatch):
    # the r-sized rule has 32768 nodes at r = 1 - 2^-12; these inputs plateau
    # on the rung's 514 nodes per piece and never ask for it
    sizes = []
    inner = WeightedMeasure.quadrature_rule

    def recording(self, n, breakpoints=()):
        sizes.append(n)
        return inner(self, n, breakpoints)

    monkeypatch.setattr(WeightedMeasure, "quadrature_rule", recording)
    p = JacobiParams(a, b)
    f = family(p)[tag]
    _as_expansion(f, p, R_TOP, 1e-8)
    assert sizes and max(sizes) <= _ASY_MIN_NODES * _pieces(f)


@pytest.mark.parametrize("a,b", [(0.5, 0.5), (-0.5, -0.5), (0.0, 0.0), *CORNERS])
def test_sign_remainder_reads_few_rows(a, b, monkeypatch):
    # every recurrence row the expansion reads, on the rung or on the full
    # rule: the constant remainder stops at the first checkpoint (129 rows),
    # where a fall back to the full rule would read up to 16385 more
    rows = []
    inner = abel_module._jacobi_rows

    def counting(*args):
        for row in inner(*args):
            rows.append(1)
            yield row

    monkeypatch.setattr(abel_module, "_jacobi_rows", counting)
    p = JacobiParams(a, b)
    e = _as_expansion(family(p)["sign"], p, R_TOP, 1e-8)
    assert 0 < len(rows) <= 257
    assert e.degree >= 16380


def test_clipped_keeps_the_full_rule_classical_expansion():
    # clipped's kink never plateaus on the rung, so the full rule projects it
    # with the classical sums, bit for bit
    p = JacobiParams(0.5, 0.5)
    f = family(p)["clipped"]
    x, w, fx, n = _full_rule(f, p, R_TOP)
    want = _project(p, x, w, fx, n).coeffs
    assert _as_expansion(f, p, R_TOP, 1e-8).coeffs.tobytes() == want.tobytes()


@pytest.mark.parametrize("a,b", PAIRS)
@pytest.mark.parametrize("tag", ["bump", "pk:3", "sign"])
def test_rung_agrees_with_the_full_rule(a, b, tag):
    # the full rule projects by residual too: at the corners its classical
    # sums carry the rule's own noise (up to 1e-9 of max |c|)
    p = JacobiParams(a, b)
    f = family(p)[tag]
    x, w, fx, n = _full_rule(f, p, R_TOP)
    ref = _project_residual(p, x, w, fx, n).coeffs
    if f.jumps:
        c = _jump_coefficients(p, f.jumps, n)
        c[: ref.size] += ref
        ref = _trim(c)
    got = _as_expansion(f, p, R_TOP, 1e-8).coeffs
    size = max(got.size, ref.size)
    diff = np.abs(np.pad(got, (0, size - got.size)) - np.pad(ref, (0, size - ref.size)))
    assert np.max(diff) <= 1e-13 * np.max(np.abs(ref))


def test_residual_projection_reports_no_plateau():
    # a kink at 0 decays like n^-2: no checkpoint up to 256 plateaus
    p = JacobiParams(0.5, 0.5)
    x, w = WeightedMeasure.jacobi(0.5, 0.5).quadrature_rule(_ASY_MIN_NODES)
    assert _project_residual(p, x, w, np.abs(x), 256) is None


@pytest.mark.parametrize("a,b", [(0.5, 0.5), (-0.5, -0.5)])
def test_component_on_the_rung_nodes_is_not_dropped(a, b):
    # the rung's nodes are the roots of P_514, so P_514 vanishes on all of
    # them and the rung plateaus at degree 3; its midpoints see the P_514
    # term, and the full rule resolves it
    p = JacobiParams(a, b)
    top = binomial_real(_ASY_MIN_NODES + a, _ASY_MIN_NODES)

    def f(x):
        return jacobi_eval(p, 3, x) + 1e-3 * jacobi_eval(p, _ASY_MIN_NODES, x) / top

    e = _as_expansion(f, p, 0.99, 1e-8)  # full rule: 3796 nodes
    assert e.degree >= _ASY_MIN_NODES
    assert abs(e.coeffs[_ASY_MIN_NODES] - 1e-3 / top) <= 1e-12


@pytest.mark.parametrize("r", [0.99, 0.994])
def test_kernel_route_follows_one_minus_r(r):
    # the kernel peaks with width about 1 - r; a fixed 1024-node rule missed
    # sign's series mean by 1.3e-5 at r = 0.99 and 2.5e-3 at 0.994
    p = JacobiParams(0.5, 0.5)
    f = family(p)["sign"]
    xs = XS[::5]
    ab = AbelParameter(r)
    gap = np.abs(abel_mean(f, p, ab, xs, route="kernel") - abel_mean(f, p, ab, xs))
    assert np.max(gap) <= 1e-6


@pytest.mark.parametrize("r", [0.995, 1.0 - 1e-9, 1.0 - 1e-12])
def test_kernel_route_rule_stops_at_the_series_cliff(r, monkeypatch):
    # from r = 0.995 the series kernel's budget raises; the rule built before
    # it stays within the kernel cells' logarithmic bound of 12 nodes times
    # 4 + 2 log2(5 w / (k - 1)) cells per piece of width w <= 2, where
    # 20 / (1 - r) nodes would ask for up to 2^45
    sizes = []
    inner = WeightedMeasure.cell_rules

    def recording(self, edges, n):
        out = inner(self, edges, n)
        sizes.append(out[0].size)
        return out

    monkeypatch.setattr(WeightedMeasure, "cell_rules", recording)
    p = JacobiParams(0.5, 0.5)
    with pytest.raises(ConvergenceError):
        abel_mean(family(p)["sign"], p, AbelParameter(r), XS[::5], route="kernel")
    pieces = len(piece_edges(-1.0, 1.0, [*XS[::5], 0.0])) - 1
    bound = 12 * pieces * (4 + 2 * np.log2(10.0 / AbelParameter(r).k_minus_1))
    assert len(sizes) == 1 and sizes[0] <= bound


@pytest.mark.parametrize("a,b", [(0.5, 0.5), (1.5, 0.5), (-0.9, 0.3)])
@pytest.mark.parametrize("t", [0.0, 0.3, -1.0, 1.0])
@pytest.mark.parametrize("n", [0, 1, 2, 4000])
def test_single_point_table_is_the_array_rows(a, b, t, n):
    # a spare point keeps the reference on the array recurrence
    p = JacobiParams(a, b)
    want = np.concatenate([blk[:, :1].copy() for _, blk in _jacobi_blocks(p, n, np.array([t, 0.5]))])
    got = jacobi_eval_table(p, n, t)
    assert got.shape == (n + 1, 1)
    assert got.tobytes() == want.tobytes()
    got[0, 0] = 7.0  # a fresh array the caller owns
    assert jacobi_eval_table(p, n, t)[0, 0] == 1.0
