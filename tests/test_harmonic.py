"""Maximal functions, the stopping-time decomposition, variation constants,
and the weight characteristics."""

import math

import numpy as np
import pytest

from jacobi_watson import (
    DomainError,
    JacobiParams,
    PowerWeight,
    WeightedMeasure,
    a1_constant,
    ap_constant,
    ap_divergence_probe,
    cz_decompose,
    hl_maximal,
    kernel_level_bound_check,
    lateral_maximal,
    weighted_interval_average,
    zygmund_bound_check,
    zygmund_constants,
)
from jacobi_watson.errors import DegenerateInputError
from jacobi_watson.harmonic import _maximal_profile, _window_sup
from jacobi_watson.kernels import watson_series_matrix


class Step:
    """4 on [0, 1/4], 0 after; unit integral against Lebesgue on (0, 1)."""

    breakpoints = (0.25,)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= 0.25, 4.0, 0.0)


def unit_interval():
    return WeightedMeasure.lebesgue(0.0, 1.0)


class TestLateralMaximal:
    def test_monotone_function_has_split_limits(self):
        # f = 1 - x: the left sup is the average over all of (0, 1/2), the
        # right sup is the one-sided limit f(1/2+) = 1/2
        m = unit_interval()
        f = lambda x: 1.0 - np.asarray(x)
        assert lateral_maximal(m, f, 0.5, "left") == pytest.approx(0.75, abs=1e-10)
        assert lateral_maximal(m, f, 0.5, "right") == pytest.approx(0.5, abs=1e-9)

    def test_validation(self):
        m = unit_interval()
        with pytest.raises(DomainError):
            lateral_maximal(m, lambda x: x, 0.0, "left")
        with pytest.raises(DomainError):
            lateral_maximal(m, lambda x: x, 0.5, "up")


class TestHlMaximal:
    def test_constant_is_fixed_point(self):
        m = unit_interval()
        xs = np.linspace(0.05, 0.95, 7)
        np.testing.assert_allclose(
            hl_maximal(m, lambda x: np.ones_like(np.asarray(x)), xs), 1.0, rtol=1e-12
        )

    def test_positively_homogeneous(self):
        m = unit_interval()
        f = Step()
        xs = np.linspace(0.05, 0.95, 7)
        base = hl_maximal(m, f, xs)
        scaled = hl_maximal(m, lambda t: 3.0 * f(t), xs)
        np.testing.assert_allclose(scaled, 3.0 * base, rtol=1e-12)

    def test_sublinear(self):
        m = unit_interval()
        f = Step()
        g = lambda x: np.asarray(x) ** 2
        xs = np.linspace(0.05, 0.95, 9)
        both = hl_maximal(m, lambda t: f(t) + g(t), xs)
        assert np.all(both <= hl_maximal(m, f, xs) + hl_maximal(m, g, xs) + 1e-12)

    def test_dominates_family_averages(self):
        m = unit_interval()
        f = Step()
        grid = np.linspace(0.0, 1.0, 65)
        mx = hl_maximal(m, f, grid[1:-1], window_family=grid)
        # every family interval containing the point is dominated
        for i in (0, 16, 40):
            for j in (48, 64):
                l, r = grid[i], grid[j]
                t = np.linspace(l, r, 4001)
                avg = np.trapezoid(f(t), t) / (r - l)
                inside = (grid[1:-1] > l) & (grid[1:-1] < r)
                assert np.all(mx[inside] >= avg - 1e-6)

    def test_grows_under_family_refinement(self):
        m = unit_interval()
        f = Step()
        xs = np.linspace(0.05, 0.95, 9)
        coarse = hl_maximal(m, f, xs, window_family=np.linspace(0.0, 1.0, 33))
        fine = hl_maximal(m, f, xs, window_family=np.linspace(0.0, 1.0, 129))
        assert np.all(fine >= coarse - 1e-12)

    def test_point_outside_support_rejected(self):
        with pytest.raises(DomainError):
            hl_maximal(unit_interval(), Step(), 1.5)


class TestStoppingTimeDecomposition:
    def test_dyadic_trace(self):
        # hand trace: split at the measure midpoint 1/2; the left half has
        # average 2 in (lam, 2 lam], the right half is flat zero
        m = unit_interval()
        d = cz_decompose(m, Step(), 1.5)
        assert not d.trivial
        assert d.norm1 == pytest.approx(1.0, rel=1e-12)
        assert len(d.intervals) == 1
        l, r, avg = d.intervals[0]
        assert (l, r) == (0.0, 0.5)
        assert avg == pytest.approx(2.0, rel=1e-12)
        assert d.mass_G == pytest.approx(0.5, rel=1e-12)
        assert d.mass_G <= d.mass_Gstar <= 3.0 * d.mass_G + 1e-12

    def test_parts_reassemble_and_bound(self):
        m = unit_interval()
        lam = 1.5
        d = cz_decompose(m, Step(), lam)
        xs = np.linspace(0.01, 0.99, 23)
        np.testing.assert_allclose(d.good(xs) + d.bad(xs), Step()(xs), atol=1e-12)
        assert np.max(d.good(xs)) <= 2.0 * lam + 1e-12

    def test_bad_part_has_zero_mean_per_interval(self):
        m = unit_interval()
        d = cz_decompose(m, Step(), 1.5)
        l, r, _ = d.intervals[0]
        total = 0.0
        for lo, hi in ((l, 0.25), (0.25, r)):
            t, w = m.cell_rule(lo, hi, 24)
            total += float(np.dot(w, d.bad(t)))
        assert total == pytest.approx(0.0, abs=1e-12)

    def test_selection_bracket_and_mass_bound(self):
        m = WeightedMeasure.jacobi(0.5, 0.3)
        f = lambda x: (1.0 - np.asarray(x)) ** 2 + 0.05
        norm1_scale = 1.0
        for mult in (1.3, 2.0, 4.0):
            d = cz_decompose(m, f, mult * 0.4)
            lam = mult * 0.4
            for l, r, avg in d.intervals:
                assert lam < avg <= 2.0 * lam + 1e-12
            assert d.mass_Gstar <= 3.0 * d.norm1 / lam + 1e-12

    def test_high_threshold_selects_nothing(self):
        m = unit_interval()
        d = cz_decompose(m, Step(), 50.0)
        assert d.intervals == ()
        assert d.mass_G == 0.0

    def test_trivial_when_global_average_exceeds_threshold(self):
        m = unit_interval()
        d = cz_decompose(m, Step(), 0.5)
        assert d.trivial
        assert d.intervals == ()
        xs = np.linspace(0.01, 0.99, 7)
        np.testing.assert_allclose(d.good(xs), Step()(xs), atol=1e-14)
        np.testing.assert_allclose(d.bad(xs), 0.0, atol=1e-14)

    def test_negative_input_rejected(self):
        with pytest.raises(DomainError):
            cz_decompose(unit_interval(), lambda x: np.asarray(x) - 0.5, 1.0)
        with pytest.raises(DomainError):
            cz_decompose(unit_interval(), Step(), 0.0)


def _watson_kernel_callable(p):
    def kern(r, x, y):
        mat, _, _ = watson_series_matrix(p, r, np.array([x]), np.asarray(y, dtype=float))
        return mat[0]

    return kern


class TestVariationConstants:
    def test_mass_and_variation(self):
        # positive kernel with unit mass forces M1 = 1; the weighted second
        # variation sits near 0.53 on this grid and must refine stably
        p = JacobiParams(0.5, 0.5)
        m = WeightedMeasure.jacobi(0.5, 0.5)
        zc = zygmund_constants(
            _watson_kernel_callable(p), m, [0.5, 0.9], [0.0, 0.5],
            partition_depth=10, order=256,
        )
        assert zc.M1 == pytest.approx(1.0, abs=1e-10)
        assert 0.4 < zc.M2 < 0.7
        assert zc.stable
        assert zc.M == pytest.approx(zc.M1 + 2.0 * zc.M2, rel=1e-14)
        depths = [d for d, _ in zc.m2_trace]
        values = [v for _, v in zc.m2_trace]
        assert depths == sorted(depths)
        assert values == sorted(values)

    def test_maximal_domination(self):
        p = JacobiParams(0.5, 0.5)
        m = WeightedMeasure.jacobi(0.5, 0.5)
        kern = _watson_kernel_callable(p)
        zc = zygmund_constants(kern, m, [0.5, 0.9], [0.0, 0.5], partition_depth=10, order=256)
        ratio = zygmund_bound_check(
            kern, m, lambda x: np.abs(np.asarray(x)) + 0.2,
            [0.5, 0.9], [0.0, 0.5], constants=zc, order=256,
        )
        assert 0.0 < ratio <= 1.05

    def test_level_bound_constant_is_modest(self):
        p = JacobiParams(0.5, 0.5)
        m = WeightedMeasure.jacobi(0.5, 0.5)
        c = kernel_level_bound_check(
            _watson_kernel_callable(p), m,
            lambda x: 1.0 + 0.0 * np.asarray(x), 2.5, [0.5, 0.9],
            n_x=16, order=128,
        )
        assert 0.0 < c < 1.0

    def test_depth_validation(self):
        p = JacobiParams(0.5, 0.5)
        m = WeightedMeasure.jacobi(0.5, 0.5)
        with pytest.raises(DomainError):
            zygmund_constants(_watson_kernel_callable(p), m, [0.5], [0.0], partition_depth=3)


class TestWeights:
    def test_unit_weight_characteristics(self):
        m = unit_interval()
        assert a1_constant(PowerWeight(), m) == pytest.approx(1.0, rel=1e-12)
        assert ap_constant(PowerWeight(), m, 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_left_power_extremal_is_exact(self):
        # for w = x^(1/2), p = 2 the product of averages over (0, x) is
        # (2/3) x^(1/2) * 2 x^(-1/2) = 4/3 for every x, and no interval
        # away from the origin beats it
        m = unit_interval()
        got = ap_constant(PowerWeight(((0.0, 0.5),)), m, 2.0)
        assert got == pytest.approx(4.0 / 3.0, rel=1e-9)

    def test_one_sided_power_maximal_law(self):
        # Mw = w / (1 - d) for w = x^(-d), so the characteristic is 10/7
        m = unit_interval()
        got = a1_constant(PowerWeight(((0.0, -0.3),)), m, grid_size=256)
        assert got == pytest.approx(1.0 / 0.7, rel=1e-9)

    def test_weighted_average_identity_on_power_measure(self):
        # avg over (0, x) of t^g against t^a dt is (a+1)/(a+g+1) x^g
        mp = WeightedMeasure.power(0.7, (0.0, 1.0))
        got = weighted_interval_average(mp, PowerWeight(((0.0, 0.4),)), (0.0, 0.36))
        assert got == pytest.approx((1.7 / 2.1) * 0.36**0.4, rel=1e-12)

    def test_inadmissible_weights_go_infinite(self):
        m = unit_interval()
        assert ap_constant(PowerWeight(((0.0, -1.0),)), m, 2.0) == math.inf
        assert ap_constant(PowerWeight(((0.0, 1.0),)), m, 2.0) == math.inf

    def test_divergence_probe_separates_the_classes(self):
        m = unit_interval()
        bad = ap_divergence_probe(PowerWeight(((0.0, -1.2),)), m, 2.0, levels=8)
        assert bad["divergent"]
        assert bad["sups"] == sorted(bad["sups"])
        good = ap_divergence_probe(PowerWeight(((0.0, 0.5),)), m, 2.0, levels=5)
        assert not good["divergent"]

    def test_exponent_validation(self):
        m = unit_interval()
        with pytest.raises(DomainError):
            ap_constant(PowerWeight(), m, 1.0)
        with pytest.raises(DomainError):
            ap_divergence_probe(PowerWeight(), m, 0.5)

    def test_power_weight_evaluation_and_scaling(self):
        w = PowerWeight(((0.0, 2.0), (1.0, 1.0)))
        assert w(0.5) == pytest.approx(0.125, rel=1e-14)
        ws = w.scaled(0.5)
        assert ws(0.5) == pytest.approx(math.sqrt(0.125), rel=1e-14)

    def test_zero_mass_interval_rejected(self):
        m = unit_interval()
        with pytest.raises(DegenerateInputError):
            weighted_interval_average(m, PowerWeight(), (0.3, 0.3))


@pytest.mark.parametrize("dips", [False, True])
@pytest.mark.parametrize("n", [1, 2, 7, 64, 65, 130, 199])
def test_maximal_profile_is_the_max_over_every_window(n, dips):
    rng = np.random.default_rng(n)
    masses = rng.random(n)
    masses[rng.random(n) < 0.2] = 0.0
    masses[0] = masses[-1] = 0.0
    masses[n // 2] = 1.0
    ratio = rng.random(n) * 3.0
    if dips:
        # a near-flat f with a few zeros: the best interval around a zero is
        # as long as it can be, reaching far to both sides
        ratio = 1.0 + 0.01 * ratio
        ratio[rng.choice(n, size=1 + n // 16)] = 0.0
    integrals = masses * ratio
    cm = np.concatenate([[0.0], np.cumsum(masses)])
    ci = np.concatenate([[0.0], np.cumsum(integrals)])
    dm = cm[None, :] - cm[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        avg = np.where(dm > 0.0, (ci[None, :] - ci[:, None]) / dm, -np.inf)
    # cell c lies in [g_i, g_j] for every pair i <= c < j
    want = np.array([avg[: c + 1, c + 1 :].max() for c in range(n)])
    assert np.array_equal(_maximal_profile(masses, integrals), want)


@pytest.mark.parametrize("p_exp", [1.5, 2.0, 3.7])
@pytest.mark.parametrize("n", [1, 31, 32, 512, 1100])
def test_window_sup_is_the_full_pair_table_max(n, p_exp):
    # the row slices of _window_sup against the one-table formula, bit for bit;
    # n = 1100 takes 29 rows per slice, with a short last slice
    rng = np.random.default_rng(n)
    base = rng.random(n)
    base[rng.random(n) < 0.2] = 0.0
    base[0] = 0.0
    top = base * rng.random(n) * 5.0
    dual = base * rng.random(n)
    cb, ct, cd = (np.concatenate([[0.0], np.cumsum(v)]) for v in (base, top, dual))
    db = cb[None, :] - cb[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        prod = ((ct[None, :] - ct[:, None]) / db) * (
            ((cd[None, :] - cd[:, None]) / db) ** (p_exp - 1.0)
        )
    prod[~(db > 0.0)] = -np.inf
    want = float(np.max(prod))
    got = _window_sup(base, top, dual, p_exp)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_window_sup_of_zero_masses_is_minus_inf():
    zero = np.zeros(40)
    assert _window_sup(zero, zero, zero, 2.0) == -math.inf
