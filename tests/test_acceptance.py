"""Acceptance gate: one test per shipped criterion, at stated tolerances.

Each test prints as one pass/fail line under pytest -v. Stated runtime
budgets are asserted where the criterion carries one.
"""

import math
import time

import numpy as np
import pytest

from jacobi_watson import (
    AbelParameter,
    BaileyArguments,
    JacobiParams,
    PowerWeight,
    WeightedMeasure,
    a1_constant,
    abel_mean,
    binomial_real,
    cz_decompose,
    doubling_bracket,
    dyadic_doubling_ratio_closed_form,
    gauss_jacobi_rule,
    jacobi_eval,
    jacobi_eval_table,
    jacobi_norm,
    jacobi_norm_sequence,
    kernel_mass,
    kernel_shift_check,
    lp_convergence_probe,
    mainest_integral,
    modified_abel_mean,
    poisson_mass,
    watson_kernel_bailey,
    watson_kernel_integral,
    weighted_interval_average,
)
from jacobi_watson import test_function_family as function_family
from jacobi_watson.estimates import j_domination_probe
from jacobi_watson.kernels import watson_series_matrix
from jacobi_watson.quadrature import interval_rule

PARAM_AXIS = (-0.5, 0.0, 0.5, 1.7)
FOUR_BOXES = [(-0.5, -0.5), (0.0, 0.0), (0.5, 0.3), (1.7, 0.4)]


def test_c01_orthogonality_and_norms():
    t0 = time.perf_counter()
    for a in PARAM_AXIS:
        for b in PARAM_AXIS:
            p = JacobiParams(a, b)
            rule = gauss_jacobi_rule(p, 48)
            table = jacobi_eval_table(p, 20, rule.nodes)
            gram = (table * rule.weights) @ table.T
            h = jacobi_norm_sequence(p, 20)
            scale = np.sqrt(np.outer(h, h))
            off = np.abs(gram - np.diag(np.diag(gram))) / scale
            assert np.max(off) <= 1e-10
            for n in range(21):
                assert gram[n, n] == pytest.approx(h[n], rel=1e-10)
    assert time.perf_counter() - t0 < 5.0


def test_c02_normalization_at_one():
    for a in PARAM_AXIS:
        for b in PARAM_AXIS:
            p = JacobiParams(a, b)
            for n in range(31):
                want = binomial_real(n + a, n)
                assert jacobi_eval(p, n, 1.0) == pytest.approx(want, rel=1e-12)


def test_c03_kernel_cross_validation():
    t0 = time.perf_counter()
    grid = np.linspace(-1.0, 1.0, 20)
    thin = np.linspace(-0.8, 0.8, 5)
    for a, b in FOUR_BOXES:
        p = JacobiParams(a, b)
        for r in (0.5, 0.9):
            ab = AbelParameter(r)
            series, _, tail = watson_series_matrix(p, r, grid, grid, tol_abs=1e-12)
            assert tail <= 1e-11
            for i, x in enumerate(grid):
                for j, y in enumerate(grid):
                    if BaileyArguments.from_points(ab, float(x), float(y)).margin <= 0.1:
                        continue
                    cf = watson_kernel_bailey(p, ab, float(x), float(y))
                    assert cf.value == pytest.approx(series[i, j], rel=1e-8)
        if a + b > -1.0:
            ab = AbelParameter(0.9)
            srow, _, _ = watson_series_matrix(p, 0.9, thin, thin, tol_abs=1e-12)
            for i, x in enumerate(thin):
                for j, y in enumerate(thin):
                    iv = watson_kernel_integral(p, ab, float(x), float(y))
                    assert iv.value == pytest.approx(srow[i, j], rel=1e-4)
    assert time.perf_counter() - t0 < 60.0


def test_c04_positivity_and_conservation():
    grid = np.linspace(-1.0, 1.0, 20)
    for a, b in FOUR_BOXES:
        p = JacobiParams(a, b)
        for r in (0.5, 0.9, 0.95, 0.99):
            mat, _, _ = watson_series_matrix(p, r, grid, grid, tol_abs=1e-12)
            assert float(np.min(mat)) >= -1e-10
            tol = 1e-8 if r <= 0.95 else 1e-6
            mass = kernel_mass(p, AbelParameter(r), 0.3)
            assert mass == pytest.approx(1.0, abs=tol)


def test_c05_abel_convergence_laws():
    p = JacobiParams(0.0, 0.0)
    fam = {tf.tag: tf for tf in function_family(p)}
    errs = lp_convergence_probe(fam["pk:3"], p, 2.0, [0.5, 0.9])
    for err, r in zip(errs, (0.5, 0.9)):
        want = (1.0 - r**3) * math.sqrt(jacobi_norm(p, 3))
        assert abs(err - want) <= 1e-8
    l1 = lp_convergence_probe(fam["sign"], p, 1.0, [0.9, 0.99, 0.999], tol=1e-6)
    assert l1[0] > l1[1] > l1[2] > 0.0


class _Profile:
    """Nonnegative profile on an arbitrary support via the unit reference."""

    def __init__(self, support, kind):
        self.a, self.b = support
        self.kind = kind
        w = self.b - self.a
        if kind == "step":
            self.breakpoints = (self.a + 0.25 * w,)
        elif kind == "kink":
            self.breakpoints = (self.a + 0.5 * w,)
        else:
            self.breakpoints = ()

    def __call__(self, x):
        t = (np.asarray(x, dtype=float) - self.a) / (self.b - self.a)
        if self.kind == "const":
            return np.ones_like(t)
        if self.kind == "smooth":
            return t * t + 0.05
        if self.kind == "step":
            return np.where(t <= 0.25, 4.0, 0.0)
        return 0.2 + np.abs(t - 0.5)


def test_c06_stopping_time_matrix():
    t0 = time.perf_counter()
    measures = [
        WeightedMeasure.lebesgue(0.0, 1.0),
        WeightedMeasure.jacobi(0.5, 0.5),
        WeightedMeasure.power(0.7, (0.0, 1.0)),
    ]
    for m in measures:
        support = m.support
        total = m.interval_mass_exact(*support)
        for kind in ("const", "smooth", "step", "kink"):
            f = _Profile(support, kind)
            t, w = m.quadrature_rule(512)
            norm1 = float(np.dot(w, f(t)))
            gavg = norm1 / total
            for mult in (1.2, 1.6, 2.5, 4.0, 8.0):
                lam = mult * gavg
                d = cz_decompose(m, f, lam)
                assert not d.trivial
                slack = 1e-12 * max(1.0, 2.0 * lam)
                for l, r, avg in d.intervals:
                    assert lam - slack < avg <= 2.0 * lam + slack
                assert d.mass_G <= d.norm1 / lam + 1e-12
                assert d.mass_Gstar <= 3.0 * d.norm1 / lam + 1e-12
                for l, r, avg in d.intervals:
                    bps = [p for p in f.breakpoints if l < p < r]
                    edges = [l] + bps + [r]
                    ib = 0.0
                    for lo, hi in zip(edges[:-1], edges[1:]):
                        tt, ww = m.cell_rule(lo, hi, 24)
                        ib += float(np.dot(ww, d.bad(tt)))
                    assert abs(ib) <= 1e-9 * d.norm1
    assert time.perf_counter() - t0 < 30.0


def test_c07_doubling_bracket_exact():
    ks = np.arange(2, 10_001)
    for a in (-0.5, 0.5, 2.0):
        lo, hi = doubling_bracket(a)
        vals = np.array([dyadic_doubling_ratio_closed_form(a, int(k)) for k in ks])
        assert np.all(vals >= lo)
        assert np.all(vals <= hi)


def test_c08_weight_identities():
    m = WeightedMeasure.lebesgue(0.0, 1.0)
    assert a1_constant(PowerWeight(), m) == pytest.approx(1.0, abs=1e-10)
    for a, abar in ((2.0, -0.5), (1.0, -0.3)):
        mp = WeightedMeasure.power(a, (0.0, 1.0))
        w = PowerWeight(((0.0, abar),))
        for x in np.linspace(0.05, 1.0, 20):
            got = weighted_interval_average(mp, w, (0.0, float(x)))
            want = ((a + 1.0) / (a + abar + 1.0)) * x**abar
            assert got == pytest.approx(want, rel=1e-8)
    mj = WeightedMeasure.jacobi(0.5, 0.5)
    wj = PowerWeight(((1.0, -0.3), (-1.0, -0.3)))
    coarse = a1_constant(wj, mj, grid_size=256)
    fine = a1_constant(wj, mj, grid_size=512)
    assert math.isfinite(coarse) and math.isfinite(fine)
    assert max(coarse, fine) / min(coarse, fine) < 2.0


def test_c09_comparison_kernel_masses():
    assert abs(poisson_mass("k1") - 4.0) <= 1e-6
    assert abs(poisson_mass("k2") - 2.0) <= 1e-6
    assert abs(poisson_mass("k3") - math.pi) <= 1e-6


def test_c10_shift_constants_exact():
    for eta in (1.1, 1.5, 3.0):
        out = kernel_shift_check(eta)
        assert out["holds"]
        assert out["worst_far"] <= out["bound_far"]
        assert out["worst_near"] <= out["bound_near"]


def test_c11_superposition_and_averaging_stability():
    sup = 0.0
    for a in (-0.5, 0.0, 1.7):
        p = JacobiParams(a, 0.0)
        for r in (0.5, 0.9):
            ab = AbelParameter(r)
            for x in (0.1, 0.5, 0.9):
                coarse = mainest_integral(p, ab, x)
                fine = mainest_integral(p, ab, x, n_y=96, n_s=32, level=3)
                assert math.isfinite(fine)
                assert max(coarse, fine) / min(coarse, fine) <= 1.5
                sup = max(sup, fine)
    assert math.isfinite(sup) and sup > 0.0
    for a in (-0.5, 0.0, 1.7):
        p = JacobiParams(a, 0.0)
        fam = {tf.tag: tf for tf in function_family(p)}
        for tag in ("const", "bump", "clipped"):
            f = fam[tag]
            xs = np.linspace(0.05, 0.9, 5)
            w1 = j_domination_probe(p, f, [0.5, 0.9], xs)
            w2 = j_domination_probe(p, f, [0.5, 0.9], xs, n_y=96, n_s=32, level=3)
            assert math.isfinite(w1) and math.isfinite(w2)
            assert max(w1, w2) / min(w1, w2) <= 2.0


def _flat_l2_norm(f, breakpoints=()):
    edges = [-1.0] + sorted(b for b in breakpoints if -1.0 < b < 1.0) + [1.0]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        t, w = interval_rule(lo, hi, 48)
        total += float(np.dot(w, np.asarray(f(t)) ** 2))
    return math.sqrt(total)


def test_c12_function_window_ratio_stable():
    # alpha = beta = -1/2 puts p = 2 inside the window (4/3, 4); the modified
    # means carry (1 -+ x)^(-1/4) endpoint factors, absorbed by the norm rule
    p = JacobiParams(-0.5, -0.5)
    fam = {tf.tag: tf for tf in function_family(p)}
    tags = ("const", "bump", "clipped", "pk:3")
    rs = (0.6, 0.9, 0.99)

    def fitted(nodes):
        # the outer x-rule is the refined quantity: the means come from one
        # expansion per (f, r), evaluated on all nodes at once
        xq, wq = interval_rule(-1.0, 1.0, nodes, e_left=-0.5, e_right=-0.5)
        worst = 0.0
        for tag in tags:
            f = fam[tag]
            denom = _flat_l2_norm(f, getattr(f, "breakpoints", ()))
            for r in rs:
                vals = modified_abel_mean(f, p, AbelParameter(r), xq)
                num = math.sqrt(float(np.dot(wq, vals * vals)))
                worst = max(worst, num / denom)
        return worst

    c16 = fitted(16)
    c32 = fitted(32)
    assert math.isfinite(c16) and math.isfinite(c32)
    assert c16 != c32
    assert abs(c32 - c16) <= 0.25 * c16
