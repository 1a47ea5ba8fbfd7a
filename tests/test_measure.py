"""Measure families: masses, CDFs, cell rules, splitting, doubling."""

import math

import numpy as np
import pytest
from scipy import integrate, special

from jacobi_watson import (
    DegenerateInputError,
    DomainError,
    WeightedMeasure,
    doubling_bracket,
    doubling_ratio,
    dyadic_doubling_ratio_closed_form,
    equal_measure_split,
    interval_mass,
)

BOXES = [(-0.5, -0.5), (0.0, 0.0), (0.5, 0.3), (1.7, 0.4)]


def quad_mass(m, l, r):
    val, _ = integrate.quad(m.density, l, r, limit=400)
    return val


class TestMasses:
    @pytest.mark.parametrize("a,b", BOXES)
    def test_jacobi_total_mass_closed_form(self, a, b):
        m = WeightedMeasure.jacobi(a, b)
        want = 2.0 ** (a + b + 1.0) * special.beta(a + 1.0, b + 1.0)
        assert m.total_mass == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("a,b", BOXES)
    def test_interval_mass_vs_adaptive(self, a, b):
        m = WeightedMeasure.jacobi(a, b)
        for l, r in [(-0.9, -0.2), (-0.2, 0.7), (0.3, 0.99)]:
            assert m.interval_mass_exact(l, r) == pytest.approx(
                quad_mass(m, l, r), rel=1e-10
            )

    def test_tiny_endpoint_interval_no_cancellation(self):
        # the closed-form CDF difference cancels here; the fallback must not
        m = WeightedMeasure.jacobi(-0.5, 0.3)
        l, r = 1.0 - 1e-9, 1.0 - 1e-10
        got = m.interval_mass_exact(l, r)
        want, _ = integrate.quad(m.density, l, r, limit=200)
        assert got > 0.0
        assert got == pytest.approx(want, rel=1e-6)

    def test_power_mass(self):
        m = WeightedMeasure.power(0.5)
        assert m.interval_mass_exact(0.0, 0.7) == pytest.approx(
            0.7**1.5 / 1.5, rel=1e-13
        )

    def test_product_mass(self):
        m = WeightedMeasure.product(((0.3, 1.0),), (0.0, 1.0))
        want = quad_mass(m, 0.1, 0.9)
        assert m.interval_mass_exact(0.1, 0.9) == pytest.approx(want, rel=1e-9)


class TestCdf:
    def test_monotone_and_ends(self):
        m = WeightedMeasure.jacobi(-0.3, 0.7)
        xs = np.linspace(-1.0, 1.0, 31)
        vals = [m.cdf(x) for x in xs]
        assert vals[0] == pytest.approx(0.0, abs=1e-15)
        assert vals[-1] == pytest.approx(m.total_mass, rel=1e-12)
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_power_cdf_closed_form(self):
        m = WeightedMeasure.power(2.0)
        assert m.cdf(0.5) == pytest.approx(0.5**3 / 3.0, rel=1e-14)


class TestCellRule:
    def test_folds_density_into_weights(self):
        m = WeightedMeasure.jacobi(-0.5, -0.5)
        t, w = m.cell_rule(0.2, 1.0, 24)
        # integral of x^3 against the measure on the cell, singular endpoint
        want, _ = integrate.quad(lambda x: x**3 * m.density(x), 0.2, 1.0,
                                 points=[1.0], limit=200)
        assert np.dot(w, t**3) == pytest.approx(want, rel=1e-9)

    def test_weights_sum_to_cell_mass(self):
        m = WeightedMeasure.jacobi(0.5, 0.3)
        t, w = m.cell_rule(-0.4, 0.9, 32)
        assert w.sum() == pytest.approx(m.interval_mass_exact(-0.4, 0.9), rel=1e-12)

    def test_interior_anchor_refused(self):
        # a kink strictly inside the cell cannot be folded into the rule
        m = WeightedMeasure.product(((0.5, 1.0),), (0.0, 1.0))
        with pytest.raises(DomainError):
            m.cell_rule(0.2, 0.8, 16)

    def test_quadrature_rule_total(self):
        m = WeightedMeasure.jacobi(0.3, -0.2)
        t, w = m.quadrature_rule(128)
        assert w.sum() == pytest.approx(m.total_mass, rel=1e-11)
        assert np.all(np.diff(t) > 0)


class TestValidation:
    def test_exponent_at_most_minus_one_refused(self):
        with pytest.raises(DomainError):
            WeightedMeasure.jacobi(-1.0, 0.0)
        with pytest.raises(DomainError):
            WeightedMeasure.power(-1.5)

    def test_negative_interior_anchor_refused(self):
        with pytest.raises(DomainError):
            WeightedMeasure.product(((0.5, -0.5),), (0.0, 1.0))


class TestSplitting:
    @pytest.mark.parametrize(
        "m",
        [
            WeightedMeasure.lebesgue(0.0, 1.0),
            WeightedMeasure.jacobi(0.5, 0.5),
            WeightedMeasure.jacobi(-0.3, 1.2),
        ],
    )
    def test_equal_measure_split(self, m):
        a, b = m.support
        (l, c), (c2, r) = equal_measure_split(m, (a + 0.05, b - 0.05))
        assert c == c2
        left = interval_mass(m, (l, c))
        right = interval_mass(m, (c, r))
        assert left == pytest.approx(right, rel=1e-9)

    def test_zero_mass_refused(self):
        m = WeightedMeasure.lebesgue(0.0, 1.0)
        with pytest.raises((DegenerateInputError, DomainError)):
            equal_measure_split(m, (0.5, 0.5))

    def test_outside_support_refused(self):
        m = WeightedMeasure.lebesgue(0.0, 1.0)
        with pytest.raises(DomainError):
            interval_mass(m, (-0.5, 0.5))


class TestDoubling:
    def test_closed_form_matches_direct_ratio(self):
        for a in (-0.5, 0.5, 2.0):
            m = WeightedMeasure.power(a)
            for k, j in ((2, 3), (5, 4), (9, 5)):
                got = doubling_ratio(m, (k * 2.0**-j, (k + 1) * 2.0**-j))
                want = dyadic_doubling_ratio_closed_form(a, k, j)
                assert got == pytest.approx(want, rel=1e-11)

    def test_scale_invariance(self):
        v0 = dyadic_doubling_ratio_closed_form(0.5, 17, 0)
        v7 = dyadic_doubling_ratio_closed_form(0.5, 17, 7)
        assert v0 == pytest.approx(v7, rel=1e-14)

    def test_bracket_orientation(self):
        lo, hi = doubling_bracket(2.0)
        assert lo == 3.0
        assert hi == pytest.approx(27.0 / 7.0)
        lo, hi = doubling_bracket(-0.5)
        extreme = math.sqrt(3.0) / (math.sqrt(2.0) - 1.0)
        assert lo == min(3.0, extreme)
        assert hi == max(3.0, extreme)

    def test_limit_approaches_three(self):
        v = dyadic_doubling_ratio_closed_form(1.7, 10**6)
        assert v == pytest.approx(3.0, rel=1e-5)


class TestPowerMasses:
    """Power masses of short intervals away from 0 against 40-digit mpmath:
    hi^(p+1) - lo^(p+1) formed through log1p((hi - lo) / lo) keeps the digits
    that the rounded ratio hi / lo loses."""

    def test_cell_masses_of_a_graded_grid(self):
        mpmath = pytest.importorskip("mpmath")
        from jacobi_watson.harmonic import _window_grid

        m = WeightedMeasure.power(-0.6)
        grid = _window_grid(m, 256)
        got = m.cell_masses(grid)
        with mpmath.workdps(40):
            s = mpmath.mpf(0.4)
            want = np.array(
                [float((mpmath.mpf(r) ** s - mpmath.mpf(l) ** s) / s) for l, r in zip(grid[:-1], grid[1:])]
            )
        assert np.max(np.abs(got - want) / want) < 1e-15

    def test_cdf_next_to_the_far_end(self):
        mpmath = pytest.importorskip("mpmath")
        x = -1.0 + 1e-12
        with mpmath.workdps(40):
            s = mpmath.mpf(2.5)
            want = float((1 - abs(mpmath.mpf(x)) ** s) / s)
        got = WeightedMeasure.power(1.5, (-1.0, 0.0)).cdf(x)
        assert got == pytest.approx(want, rel=1e-15, abs=0.0)
