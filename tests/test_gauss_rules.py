"""Gauss-Jacobi rules: closed forms, moments, the scipy path below the size
threshold, and the three cached views of one generator."""

import json

import numpy as np
import pytest
from scipy import special

from jacobi_watson.cli import main
from jacobi_watson.polynomials import JacobiParams, _roots_jacobi_cached, gauss_jacobi_rule
from jacobi_watson.quadrature import (
    _ASY_EXPONENTS,
    _ASY_MIN_NODES,
    _gauss_jacobi_nodes,
    _gauss_jacobi_raw,
    gauss_legendre,
)

CHEBYSHEV = [(-0.5, -0.5), (0.5, 0.5), (0.5, -0.5), (-0.5, 0.5)]


def _cos_pi(num, den):
    """cos(num pi / den) for integer arrays, taken as a sine of the angle's
    distance from pi/2 so it keeps its relative accuracy near x = +-1."""
    return np.sin((den - 2 * num) * np.pi / (2 * den))


def _sin_pi(num, den):
    return np.sin(np.minimum(num, den - num) * np.pi / den)


def _chebyshev_rule(n, a, b):
    """Closed-form Gauss rule for a, b in {-1/2, 1/2}, ascending."""
    k = np.arange(1, n + 1)
    if a == b == -0.5:
        x, w = _cos_pi(2 * k - 1, 2 * n), np.full(n, np.pi / n)
    elif a == b == 0.5:
        x, w = _cos_pi(k, n + 1), np.pi / (n + 1) * _sin_pi(k, n + 1) ** 2
    elif (a, b) == (0.5, -0.5):
        # zeros of the fourth-kind polynomial sin((n+1/2) t) / sin(t/2)
        x = _cos_pi(2 * k, 2 * n + 1)
        w = 4.0 * np.pi / (2 * n + 1) * _sin_pi(k, 2 * n + 1) ** 2
    else:
        # third kind, cos((n+1/2) t) / cos(t/2)
        x = _cos_pi(2 * k - 1, 2 * n + 1)
        w = 4.0 * np.pi / (2 * n + 1) * _cos_pi(2 * k - 1, 2 * (2 * n + 1)) ** 2
    order = np.argsort(x)
    return x[order], w[order]


def _beta_moment(a, b, k, sign):
    """Integral of (1 + sign x)^k (1-x)^a (1+x)^b over [-1, 1]."""
    if sign > 0:
        return 2.0 ** (a + b + 1 + k) * special.beta(a + 1, b + 1 + k)
    return 2.0 ** (a + b + 1 + k) * special.beta(a + 1 + k, b + 1)


@pytest.mark.parametrize("n", [1024, 4096, 32768])
@pytest.mark.parametrize("a,b", CHEBYSHEV)
def test_chebyshev_closed_forms(n, a, b):
    x, w = _gauss_jacobi_raw(n, a, b)
    xc, wc = _chebyshev_rule(n, a, b)
    assert np.max(np.abs(x - xc)) <= 1e-15
    rel = np.abs(w - wc) / wc
    interior = 1.0 - np.abs(xc) >= 1e-6
    assert np.max(rel[interior]) <= 1e-13
    assert np.max(rel) <= 1e-8


@pytest.mark.parametrize("a,b", [(0.9, -0.99), (0.0, 0.5), (-0.99, 0.5)])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("sign", [1, -1])
def test_moments_match_beta_closed_form(a, b, k, sign):
    x, w = _gauss_jacobi_raw(4096, a, b)
    want = _beta_moment(a, b, k, sign)
    assert abs(np.dot(w, (1.0 + sign * x) ** k) - want) <= 1e-14 * want


@pytest.mark.parametrize("a", [-0.99, -0.5, 0.0, 1.0, _ASY_EXPONENTS[1]])
@pytest.mark.parametrize("b", [-0.99, 0.3, _ASY_EXPONENTS[1]])
def test_threshold_rules_across_exponent_range(a, b):
    # at the smallest asymptotic size and the corners of the exponent range:
    # nodes ascending and within 1e-14 of scipy's, moments exact
    n = _ASY_MIN_NODES
    x, w = _gauss_jacobi_nodes(n, a, b)
    assert x.size == n and np.all(np.diff(x) > 0) and np.all(w > 0)
    xs, _ = special.roots_jacobi(n, a, b)
    assert np.max(np.abs(x - xs)) <= 1e-14
    for k in range(4):
        for sign in (1, -1):
            want = _beta_moment(a, b, k, sign)
            assert abs(np.dot(w, (1.0 + sign * x) ** k) - want) <= 1e-14 * want


@pytest.mark.parametrize("n", [1, 2, 7, 64, 512, _ASY_MIN_NODES - 1])
@pytest.mark.parametrize("a,b", [(0.0, 0.0), (0.5, 0.5), (0.9, -0.99), (-0.3, 1.7)])
def test_below_threshold_is_scipy_bitwise(n, a, b):
    x, w = _gauss_jacobi_nodes(n, a, b)
    xs, ws = special.roots_jacobi(n, a, b)
    assert np.array_equal(x, xs) and np.array_equal(w, ws)


def test_legendre_below_threshold_is_scipy_bitwise():
    for n in (3, 16, 512, _ASY_MIN_NODES - 1):
        x, w = gauss_legendre(n)
        xs, ws = special.roots_legendre(n)
        assert np.array_equal(x, xs) and np.array_equal(w, ws)


def test_exponent_outside_range_is_scipy_bitwise():
    n, a, b = _ASY_MIN_NODES, _ASY_EXPONENTS[1] + 0.5, 0.0
    x, w = _gauss_jacobi_nodes(n, a, b)
    xs, ws = special.roots_jacobi(n, a, b)
    assert np.array_equal(x, xs) and np.array_equal(w, ws)


@pytest.mark.parametrize(
    "n,a,b", [(100, 0.3, 0.2), (2048, 0.5, 0.5), (2048, 0.0, 0.0), (1100, 0.9, -0.99)]
)
def test_three_cached_views_agree(n, a, b):
    rule = gauss_jacobi_rule(JacobiParams(a, b), n)
    raw = _gauss_jacobi_raw(n, a, b)
    cached = _roots_jacobi_cached(n, a, b)
    for nodes, weights in (raw, cached):
        assert np.array_equal(rule.nodes, nodes)
        assert np.array_equal(rule.weights, weights)
    if a == b == 0.0:
        x, w = gauss_legendre(n)
        assert np.array_equal(rule.nodes, x) and np.array_equal(rule.weights, w)


def test_pk3_single_term_check_holds_near_r1(tmp_path, capsys):
    # with scipy's Golub-Welsch rules these hard checks read 1.2e-10, 3.4e-10
    # and 4.0e-9 against their 1e-10 bound
    out = tmp_path / "rep.json"
    code = main(
        ["abel", "--suite", "mean", "--f", "pk:3", "--alpha", "0.5", "--beta", "0.5",
         "--r", "0.96875,0.984375,0.9921875", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    hard = [r for r in doc["records"] if r["hard"]]
    assert len(hard) == 3 and all(r["passed"] for r in hard)
