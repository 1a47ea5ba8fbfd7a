"""Polynomial recurrence, normalization, norms, and the Gauss rules."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import special

from jacobi_watson import (
    DomainError,
    JacobiParams,
    binomial_real,
    gauss_jacobi_rule,
    jacobi_eval,
    jacobi_eval_table,
    jacobi_function_eval,
    jacobi_norm,
    jacobi_norm_sequence,
    jacobi_weighted_sum,
)
from jacobi_watson.polynomials import (
    _FULL_BLOCK_POINTS,
    _jacobi_blocks,
    _jacobi_rows,
    _growth_constant,
    _norm_ratio,
)
from jacobi_watson.quadrature import interval_rule
from jacobi_watson.errors import SingularEvaluationError

BOXES = [(-0.5, -0.5), (0.0, 0.0), (0.5, 0.3), (1.7, 0.4)]


@pytest.mark.parametrize("a,b", BOXES)
def test_recurrence_matches_reference_evaluator(a, b):
    """scipy's eval_jacobi is a fully independent implementation."""
    p = JacobiParams(a, b)
    x = np.linspace(-1.0, 1.0, 41)
    for n in range(0, 25):
        mine = jacobi_eval(p, n, x)
        ref = special.eval_jacobi(n, a, b, x)
        np.testing.assert_allclose(mine, ref, rtol=1e-11, atol=1e-13)


@pytest.mark.parametrize("a,b", BOXES + [(0.9, -0.9)])
def test_buffered_recurrence_is_bitwise_the_allocating_one(a, b):
    """The in-place block rows equal the plain divide-free form's, step for step."""
    p = JacobiParams(a, b)
    x = np.cos(np.linspace(0.0, math.pi, 257))
    prev, cur = np.ones_like(x), 0.5 * (a - b) + 0.5 * (a + b + 2.0) * x
    want = [prev, cur]
    for n in range(2, 301):
        c0 = 2.0 * n * (n + a + b) * (2.0 * n + a + b - 2.0)
        c1 = (2.0 * n + a + b - 1.0) * (a * a - b * b)
        c2 = (2.0 * n + a + b - 1.0) * (2.0 * n + a + b) * (2.0 * n + a + b - 2.0)
        c3 = 2.0 * (n + a - 1.0) * (n + b - 1.0) * (2.0 * n + a + b)
        prev, cur = cur, (x * (c2 / c0) + c1 / c0) * cur - (c3 / c0) * prev
        want.append(cur)
    assert jacobi_eval_table(p, 300, x).tobytes() == np.array(want).tobytes()
    assert jacobi_eval(p, 300, x).tobytes() == want[-1].tobytes()


@pytest.mark.parametrize("a,b", BOXES)
def test_value_at_one_is_binomial(a, b):
    p = JacobiParams(a, b)
    for n in range(0, 31):
        want = binomial_real(n + a, n)
        assert jacobi_eval(p, n, 1.0) == pytest.approx(want, rel=1e-12)


def test_parameter_swap_reflection():
    pa = JacobiParams(0.7, -0.2)
    pb = JacobiParams(-0.2, 0.7)
    x = np.linspace(-1.0, 1.0, 21)
    for n in range(0, 12):
        lhs = jacobi_eval(pa, n, -x)
        rhs = (-1.0) ** n * jacobi_eval(pb, n, x)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-13)


def test_eval_table_consistent_with_single_eval():
    p = JacobiParams(0.3, 1.1)
    x = np.linspace(-0.99, 0.99, 17)
    table = jacobi_eval_table(p, 10, x)
    assert table.shape == (11, 17)
    for n in (0, 3, 10):
        np.testing.assert_allclose(table[n], jacobi_eval(p, n, x), rtol=1e-13)


class TestNorms:
    @pytest.mark.parametrize("a,b", BOXES)
    def test_closed_form_vs_quadrature(self, a, b):
        p = JacobiParams(a, b)
        rule = gauss_jacobi_rule(p, 64)
        for n in (0, 1, 5, 12):
            vals = jacobi_eval(p, n, rule.nodes)
            quad = rule.integrate(vals * vals)
            assert math.sqrt(quad) == pytest.approx(
                math.sqrt(jacobi_norm(p, n)), rel=1e-11
            )

    def test_sequence_matches_scalar(self):
        p = JacobiParams(-0.4, 0.9)
        seq = jacobi_norm_sequence(p, 8)
        for n in range(9):
            assert seq[n] == pytest.approx(jacobi_norm(p, n), rel=1e-14)

    def test_orthogonality(self):
        p = JacobiParams(0.5, 0.3)
        rule = gauss_jacobi_rule(p, 48)
        table = jacobi_eval_table(p, 12, rule.nodes)
        gram = (table * rule.weights) @ table.T
        h = jacobi_norm_sequence(p, 12)
        off = gram - np.diag(np.diag(gram))
        scale = np.sqrt(np.outer(h, h))
        assert np.max(np.abs(off) / scale) < 1e-12


def test_weighted_sum_equals_direct_sum():
    p = JacobiParams(0.2, -0.3)
    c = np.array([0.5, -1.0, 0.0, 2.0, 0.25])
    x = np.linspace(-1.0, 1.0, 15)
    direct = sum(c[n] * jacobi_eval(p, n, x) for n in range(c.size))
    np.testing.assert_allclose(jacobi_weighted_sum(p, c, x), direct, rtol=1e-13)


def test_weighted_sum_accepts_matrix_of_coefficient_rows():
    p = JacobiParams(0.0, 0.0)
    c = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    x = np.array([0.3, -0.7])
    out = jacobi_weighted_sum(p, c, x)
    np.testing.assert_allclose(out[0], np.ones(2))
    np.testing.assert_allclose(out[1], jacobi_eval(p, 2, x), rtol=1e-13)


@pytest.mark.parametrize("size", [1, 25, 2048, 32770])
def test_blocks_are_the_table_rows(size):
    # 32770 points take 3 rows per block under the 1 MiB cap, the others 64
    p = JacobiParams(0.5, -0.3)
    x = np.cos(np.linspace(0.0, math.pi, size))
    for n_max in (0, 1, 62, 63, 64, 65, 200):
        table = jacobi_eval_table(p, n_max, x)
        seen = 0
        for s, block in _jacobi_blocks(p, n_max, x):
            assert s == seen and block.nbytes <= 2**20
            assert block.tobytes() == table[s : s + block.shape[0]].tobytes()
            seen += block.shape[0]
        assert seen == n_max + 1


@pytest.mark.parametrize("a,b", [(0.5, -0.3), (-0.9, 0.3), (1.7, 1.2)])
def test_row_wise_steps_are_the_broadcast_steps(a, b):
    # below _FULL_BLOCK_POINTS points one broadcast per block forms the
    # (A_n x + B_n) rows; from there on each row forms its own: the same bits
    p = JacobiParams(a, b)
    few = np.array([0.3, -0.7, 1.0 - 6e-5, -1.0])
    many = np.concatenate([few, np.cos(np.linspace(0.0, math.pi, _FULL_BLOCK_POINTS))])
    got = jacobi_eval_table(p, 5000, many)[:, : few.size]
    assert got.tobytes() == jacobi_eval_table(p, 5000, few).tobytes()


@pytest.mark.parametrize("a,b", BOXES + [(0.9, -0.9), (-0.5, 0.5)])
def test_norm_sequence_is_the_scalar_ratio_loop(a, b):
    p = JacobiParams(a, b)
    want = [jacobi_norm(p, 0), jacobi_norm(p, 1)]
    for n in range(1, 20000):
        want.append(want[-1] * _norm_ratio(p, n))
    assert jacobi_norm_sequence(p, 20000).tobytes() == np.array(want).tobytes()
    assert jacobi_norm_sequence(p, 1).tobytes() == np.array(want[:2]).tobytes()
    assert jacobi_norm_sequence(p, 0).tobytes() == np.array(want[:1]).tobytes()


def test_blocked_weighted_sum_is_the_sequential_sum():
    # an Abel-mean shape: 12 radii up to 1 - 2^-12 damping 16385 slowly
    # decaying coefficients; summation order alone may move the sums. The
    # reference adds the terms one degree at a time with Neumaier's
    # compensation: a plain running sum is itself off by 1.0e-14 of the
    # envelope here, the blocked sum by 1.4e-15
    p = JacobiParams(0.5, 0.5)
    n = np.arange(16385)
    rs = 1.0 - 2.0 ** -np.arange(1.0, 13.0)
    c = np.random.default_rng(5).standard_normal(n.size) / (n + 1.0) ** 0.75
    w = rs[:, None] ** n * c
    x = np.cos(np.linspace(0.0, math.pi, 257))
    acc, comp, env = (np.zeros((rs.size, x.size)) for _ in range(3))
    for k, row in enumerate(_jacobi_rows(p, n.size - 1, x)):
        term = w[:, k, None] * row
        total = acc + term
        comp += np.where(np.abs(acc) >= np.abs(term), (acc - total) + term, (term - total) + acc)
        acc = total
        env += np.abs(term)
    assert np.max(np.abs(jacobi_weighted_sum(p, w, x) - (acc + comp)) / env) <= 1e-14


def test_weighted_sum_memory_is_capped_on_large_rules():
    # a 64-row block on a 32770-node rule would take 16.8 MB; the cap keeps
    # the buffer, the recurrence rows and one product under 2 MiB
    p = JacobiParams(0.5, 0.5)
    x = np.cos(np.linspace(0.0, math.pi, 32770))
    c = 1.0 / np.arange(1.0, 130.0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = jacobi_weighted_sum(p, c, x)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes < 2 * 2**20



# one point runs the recurrence on Python floats; several points run the array
# steps, and column j of a table is the table on the one point x_j alone
FLOAT_PATH_PARAMS = [(0.9, -0.9), (-0.9, 0.3), (1.5, 1.5), (1.5, 0.5)]
FLOAT_PATH_POINTS = [0.0, 0.3, -0.3, 1.0 - 1e-9, -(1.0 - 1e-9)]


@pytest.mark.parametrize("a,b", FLOAT_PATH_PARAMS)
def test_single_point_rows_are_the_array_rows(a, b):
    p, n_max = JacobiParams(a, b), 56646
    table = jacobi_eval_table(p, n_max, np.array(FLOAT_PATH_POINTS))
    for j, t in enumerate(FLOAT_PATH_POINTS):
        single = jacobi_eval_table(p, n_max, t)
        assert single.shape == (n_max + 1, 1)
        assert single[:, 0].tobytes() == table[:, j].tobytes(), t
    # literally two points against one, at short lengths and at n_max 0 and 1
    for n in (0, 1, 2, 64, 1000):
        pair = jacobi_eval_table(p, n, np.array([0.3, -0.7]))
        assert jacobi_eval_table(p, n, 0.3)[:, 0].tobytes() == pair[:, 0].tobytes()


def test_single_point_rows_keep_the_shape_of_x():
    p = JacobiParams(0.5, -0.3)
    want = jacobi_eval_table(p, 40, np.array([0.3, 0.1]))[:, 0]
    rows = list(_jacobi_rows(p, 40, np.array([[0.3]])))
    assert len(rows) == 41 and all(row.shape == (1, 1) for row in rows)
    assert np.array([row[0, 0] for row in rows]).tobytes() == want.tobytes()
    assert [row.shape for row in _jacobi_rows(p, 0, np.array([0.3]))] == [(1,)]
    assert jacobi_eval(p, 40, 0.3) == want[40]
    assert jacobi_eval(p, 40, np.array([0.3])).tobytes() == want[40:].tobytes()


class TestJacobiFunctions:
    def test_half_weight_product(self):
        p = JacobiParams(0.5, 1.2)
        x = np.linspace(-0.9, 0.9, 9)
        got = jacobi_function_eval(p, 4, x)
        want = (
            jacobi_eval(p, 4, x)
            * (1.0 - x) ** 0.25
            * (1.0 + x) ** 0.6
        )
        np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_lebesgue_orthogonality(self):
        # same norms as the polynomials, but in the flat measure; the
        # endpoint-aware rule resolves the (1 -+ x)^(1/2) factors of F^2
        p = JacobiParams(0.5, 0.5)
        t, w = interval_rule(-1.0, 1.0, 80, e_left=0.5, e_right=0.5)
        f2 = jacobi_function_eval(p, 2, t)
        f5 = jacobi_function_eval(p, 5, t)
        assert abs(np.dot(w, f2 * f5)) < 1e-13
        assert np.dot(w, f5 * f5) == pytest.approx(jacobi_norm(p, 5), rel=1e-10)

    def test_singular_endpoint_refused(self):
        p = JacobiParams(-0.5, 0.0)
        with pytest.raises(SingularEvaluationError):
            jacobi_function_eval(p, 3, 1.0)


def test_growth_probe_finite_and_stable():
    p = JacobiParams(0.5, 0.3)
    c32 = _growth_constant(p, 32, 400)
    c64 = _growth_constant(p, 64, 400)
    assert math.isfinite(c64)
    assert c64 <= c32 * 1.0 + 1e-12 or c64 == pytest.approx(c32, rel=0.05)


def test_params_validation():
    with pytest.raises(DomainError):
        JacobiParams(-1.0, 0.0)
    with pytest.raises(DomainError):
        JacobiParams(0.0, -1.5)


def test_gauss_rule_moment_exactness():
    from scipy.integrate import quad

    p = JacobiParams(0.7, -0.4)
    rule = gauss_jacobi_rule(p, 10)
    # exact through degree 19; the oracle is QUADPACK's algebraic-weight
    # integrator, nothing shared with the Golub-Welsch construction
    for k in (0, 3, 11, 19):
        got = rule.integrate(rule.nodes**k)
        want, err = quad(
            lambda x: x**k, -1.0, 1.0, weight="alg", wvar=(p.beta, p.alpha)
        )
        assert got == pytest.approx(want, rel=1e-11, abs=1e-13)
