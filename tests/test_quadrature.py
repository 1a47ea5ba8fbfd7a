"""Quadrature rules: endpoint-exponent absorption, graded cells, closed forms."""

import math

import numpy as np
import pytest
from scipy import integrate, special

from jacobi_watson.measure import WeightedMeasure
from jacobi_watson.quadrature import (
    gauss_legendre,
    graded_breakpoints,
    interval_rule,
    sqrt_left_rule,
)


def test_gauss_legendre_degree_exactness():
    t, w = gauss_legendre(6)
    for k in range(0, 12):
        want = 0.0 if k % 2 else 2.0 / (k + 1.0)
        assert np.dot(w, t**k) == pytest.approx(want, abs=1e-14)


def test_interval_rule_plain_shift():
    t, w = interval_rule(2.0, 5.0, 8)
    assert np.dot(w, t**3) == pytest.approx((5.0**4 - 2.0**4) / 4.0, rel=1e-14)


def test_interval_rule_absorbs_both_endpoints():
    # integral of x^(-1/2) (1-x)^(0.3) x^2 over (0,1) is B(2.5, 1.3)
    t, w = interval_rule(0.0, 1.0, 24, e_left=-0.5, e_right=0.3)
    got = np.dot(w, t ** (-0.5) * (1.0 - t) ** 0.3 * t**2)
    assert got == pytest.approx(special.beta(2.5, 1.3), rel=1e-13)


def test_interval_rule_full_integrand_convention():
    # caller passes the singular factors; weights only remove them at nodes
    t, w = interval_rule(1.0, 3.0, 16, e_left=-0.5)
    def f(s):
        return (s - 1.0) ** -0.5 * np.cos(s)
    want, _ = integrate.quad(f, 1.0, 3.0, points=[1.0], limit=200)
    assert np.dot(w, f(t)) == pytest.approx(want, rel=1e-12)


def test_interval_rule_refuses_nonintegrable():
    with pytest.raises(Exception):
        interval_rule(0.0, 1.0, 8, e_left=-1.0)


def test_graded_breakpoints_shape():
    pts = graded_breakpoints(0.0, 1.0, lean_left=True, min_scale=1e-10)
    assert pts[0] == 0.0 and pts[-1] == 1.0
    assert all(b > a for a, b in zip(pts, pts[1:]))
    # grading accumulates points at the lean end
    assert pts[1] - pts[0] < (pts[-1] - pts[-2]) / 100.0


def test_composite_rule_matches_adaptive():
    # the measure x^(-1/2) dx folds its density into the cell weights, the
    # first cell's by Gauss-Jacobi, so the rule integrates e^x alone
    pts = graded_breakpoints(0.0, 1.0, lean_left=True, min_scale=1e-12)
    t, w = WeightedMeasure.product(((0.0, -0.5),), (0.0, 1.0)).cell_rules(pts, 12)
    want, _ = integrate.quad(lambda x: x ** -0.5 * np.exp(x), 0.0, 1.0, points=[0.0], limit=200)
    assert np.dot(w, np.exp(t)) == pytest.approx(want, rel=1e-10)


class TestSqrtLeftRule:
    def test_absorbs_square_root_exactly(self):
        # g smooth: the rule integrates g(s) (s-k)^(-1/2) with g applied alone
        k, upper = 1.1, 2.0
        s, w = sqrt_left_rule(k, upper, layer=0.05)
        def g(s):
            return np.sin(s) + 2.0
        want, _ = integrate.quad(
            lambda t: g(t) / math.sqrt(t - k), k, upper, points=[k], limit=200
        )
        assert np.dot(w, g(s)) == pytest.approx(want, rel=1e-12)

    def test_polynomial_closed_form(self):
        # int_k^u (s-k)^(-1/2) ds = 2 sqrt(u-k)
        k, upper = 1.01, 2.0
        s, w = sqrt_left_rule(k, upper, layer=1e-4)
        assert w.sum() == pytest.approx(2.0 * math.sqrt(upper - k), rel=1e-13)

    def test_thin_layer_resolves_near_singular_factor(self):
        # g blows up like (s-1)^(-1) right at s=k: the layer grading matters.
        # Substituting t = k + lam u^2 with lam = k-1 gives the closed form
        # 2 arctan(sqrt((2-k)/lam)) / sqrt(lam).
        k = 1.0 + 1e-6
        lam = k - 1.0
        s, w = sqrt_left_rule(k, 2.0, layer=lam, level=2)
        got = np.dot(w, 1.0 / (s - 1.0))
        want = 2.0 / math.sqrt(lam) * math.atan(math.sqrt((2.0 - k) / lam))
        assert got == pytest.approx(want, rel=1e-10)
