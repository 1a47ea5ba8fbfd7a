"""Abel means, both integral routes, maximal function, Lp probes."""

import math

import mpmath
import numpy as np
import pytest

from jacobi_watson import (
    AbelParameter,
    DomainError,
    Expansion,
    JacobiParams,
    WeightedMeasure,
    abel_mean,
    default_r_grid,
    fourier_jacobi_coefficients,
    jacobi_eval,
    jacobi_function_eval,
    jacobi_maximal,
    jacobi_norm,
    jacobi_norm_sequence,
    lp_convergence_probe,
    lp_norm,
    modified_abel_mean,
    weak11_probe,
)
from jacobi_watson import abel as abel_module
from jacobi_watson import test_function_family as function_family
from jacobi_watson.abel import _as_expansion, _default_terms, _jump_coefficients, _trim
from jacobi_watson.polynomials import _jacobi_blocks, _jacobi_rows, binomial_real


def family(p):
    return {tf.tag: tf for tf in function_family(p)}


def test_family_has_the_six_profiles():
    fam = family(JacobiParams(0.5, 0.3))
    assert sorted(fam) == ["bump", "clipped", "const", "fk:3", "pk:3", "sign"]
    assert fam["sign"].breakpoints == (0.0,)
    assert fam["sign"].jumps == ((0.0, 2.0),)


class TestSingleTermMeans:
    """A single polynomial P_3 is an eigenvector: its mean is r^3 P_3(x)."""

    def test_series_route(self):
        p = JacobiParams(0.5, 0.3)
        pk = family(p)["pk:3"]
        for r in (0.5, 0.9):
            for x in (-0.6, 0.0, 0.85):
                want = r**3 * jacobi_eval(p, 3, x)
                got = abel_mean(pk, p, AbelParameter(r), x, route="series")
                assert got == pytest.approx(want, abs=1e-12)

    def test_kernel_route(self):
        p = JacobiParams(0.5, 0.3)
        pk = family(p)["pk:3"]
        got = abel_mean(pk, p, AbelParameter(0.7), 0.4, route="kernel")
        assert got == pytest.approx(0.7**3 * jacobi_eval(p, 3, 0.4), abs=1e-10)

    def test_modified_mean_eigenvector(self):
        # F_3 declares its endpoint exponents (b/2 at -1, a/2 at +1), so the
        # halfweight rule absorbs them and the integrand is a polynomial
        p = JacobiParams(0.5, 0.3)
        fk = family(p)["fk:3"]
        for r in (0.5, 0.9):
            for x in (-0.3, 0.4):
                got = modified_abel_mean(fk, p, AbelParameter(r), x)
                want = r**3 * jacobi_function_eval(p, 3, x)
                assert got == pytest.approx(want, abs=1e-13)


class TestDualRoutes:
    @pytest.mark.parametrize("a,b", [(0.5, 0.3), (-0.5, -0.5)])
    @pytest.mark.parametrize("tag", ["bump", "const"])
    def test_smooth_functions_agree_tightly(self, a, b, tag):
        p = JacobiParams(a, b)
        f = family(p)[tag]
        for r in (0.5, 0.9):
            for x in (0.0, 0.6):
                h = modified_abel_mean(f, p, AbelParameter(r), x, route="halfweight")
                l = modified_abel_mean(f, p, AbelParameter(r), x, route="lebesgue")
                assert h == pytest.approx(l, abs=1e-9)

    def test_kinked_function_agrees_coarsely(self):
        # clipped declares its kink, so both routes split there; the gap left
        # (3.3e-9 here) is the series route's miss at a kink that never
        # plateaus (ROADMAP item 3), which grows toward r = 0.5 and x -> 1
        p = JacobiParams(0.5, 0.3)
        f = family(p)["clipped"]
        h = modified_abel_mean(f, p, AbelParameter(0.9), 0.0, route="halfweight")
        l = modified_abel_mean(f, p, AbelParameter(0.9), 0.0, route="lebesgue")
        assert h == pytest.approx(l, abs=2e-5)

    def test_series_vs_kernel_for_jump_function(self):
        p = JacobiParams(0.0, 0.0)
        f = family(p)["sign"]
        for x in (-0.5, 0.3):
            s = abel_mean(f, p, AbelParameter(0.9), x, route="series")
            k = abel_mean(f, p, AbelParameter(0.9), x, route="kernel")
            assert s == pytest.approx(k, abs=1e-7)


class TestCoefficients:
    def test_projection_is_a_delta_on_basis_elements(self):
        p = JacobiParams(0.5, 0.3)
        e = fourier_jacobi_coefficients(family(p)["pk:3"], p, 6)
        assert e.coeffs[3] == pytest.approx(1.0, rel=1e-12)
        mask = np.ones(7, dtype=bool)
        mask[3] = False
        assert np.max(np.abs(e.coeffs[mask])) < 1e-12

    def test_constant_projects_to_constant(self):
        p = JacobiParams(0.0, 0.0)
        e = fourier_jacobi_coefficients(family(p)["const"], p, 4)
        assert e.coeffs[0] == pytest.approx(1.0, rel=1e-13)
        assert np.max(np.abs(e.coeffs[1:])) < 1e-13

    def test_partial_sum_reconstructs_polynomials(self):
        p = JacobiParams(0.2, 0.8)
        e = fourier_jacobi_coefficients(lambda x: x**4 - 0.5 * x, p, 6)
        xs = np.linspace(-1.0, 1.0, 11)
        np.testing.assert_allclose(
            e(xs), xs**4 - 0.5 * xs, atol=1e-12
        )

    def test_degree(self):
        p = JacobiParams(0.0, 0.0)
        e = Expansion(params=p, coeffs=np.array([1.0, 0.0, 2.0]))
        assert e.degree == 2

    def test_order_must_resolve_degree(self):
        p = JacobiParams(0.0, 0.0)
        with pytest.raises(DomainError):
            fourier_jacobi_coefficients(lambda x: x, p, 10, order=5)


class TestLpConvergence:
    def test_jump_function_l1_decay(self):
        # frozen trace: the L1 error of the sign function drops by roughly
        # the factor (1-r) ladder, never stalls
        p = JacobiParams(0.0, 0.0)
        errs = lp_convergence_probe(
            family(p)["sign"], p, 1.0, [0.9, 0.99, 0.999], tol=1e-6
        )
        assert errs[0] == pytest.approx(0.390778, rel=1e-4)
        assert errs[0] > errs[1] > errs[2] > 0.0

    def test_single_term_l2_law(self):
        # || r^3 P_3 - P_3 ||_2 = (1 - r^3) h_3^(1/2) exactly
        p = JacobiParams(0.0, 0.0)
        errs = lp_convergence_probe(family(p)["pk:3"], p, 2.0, [0.5, 0.9])
        for err, r in zip(errs, (0.5, 0.9)):
            assert err == pytest.approx(
                (1.0 - r**3) * math.sqrt(jacobi_norm(p, 3)), rel=1e-8
            )

    def test_sup_norm_error_for_smooth_function(self):
        p = JacobiParams(0.5, 0.5)
        errs = lp_convergence_probe(family(p)["bump"], p, math.inf, [0.9, 0.99])
        assert errs[0] > errs[1] > 0.0

    def test_r_sequence_validated(self):
        p = JacobiParams(0.0, 0.0)
        with pytest.raises(DomainError):
            lp_convergence_probe(family(p)["const"], p, 2.0, [0.5, 1.0])


class TestMaximalFunction:
    def test_dominates_every_grid_mean(self):
        p = JacobiParams(0.0, 0.0)
        f = family(p)["sign"]
        xs = np.linspace(-0.9, 0.9, 7)
        grid = default_r_grid(6)
        mx = jacobi_maximal(f, p, xs, r_grid=grid)
        for r in grid:
            means = np.abs(
                np.array([abel_mean(f, p, AbelParameter(float(r)), float(x)) for x in xs])
            )
            assert np.all(mx >= means - 1e-10)

    def test_monotone_under_grid_refinement(self):
        # default_r_grid(j) is nested in default_r_grid(j+k)
        p = JacobiParams(0.5, 0.3)
        f = family(p)["bump"]
        xs = np.linspace(-0.95, 0.95, 9)
        coarse = jacobi_maximal(f, p, xs, r_grid=default_r_grid(6), tol=1e-6)
        fine = jacobi_maximal(f, p, xs, r_grid=default_r_grid(8), tol=1e-6)
        assert np.all(fine >= coarse - 1e-12)

    def test_scalar_input_gives_scalar(self):
        p = JacobiParams(0.0, 0.0)
        out = jacobi_maximal(family(p)["const"], p, 0.25, r_grid=default_r_grid(4))
        assert isinstance(out, float)
        assert out == pytest.approx(1.0, rel=1e-10)

    def test_empty_or_bad_grid_rejected(self):
        p = JacobiParams(0.0, 0.0)
        with pytest.raises(DomainError):
            jacobi_maximal(family(p)["const"], p, 0.0, r_grid=[])
        with pytest.raises(DomainError):
            jacobi_maximal(family(p)["const"], p, 0.0, r_grid=[0.5, 1.0])


def _mp_jacobi_rows(a, b, n_max, x):
    """P_0(x), ..., P_{n_max}(x) by the three-term recurrence in 40-digit arithmetic."""
    with mpmath.workdps(40):
        a, b, x = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x)
        rows = [mpmath.mpf(1), (a - b) / 2 + (a + b + 2) / 2 * x]
        for k in range(2, n_max + 1):
            s = 2 * k + a + b
            c0 = 2 * k * (k + a + b) * (s - 2)
            c1 = (s - 1) * (a * a - b * b)
            c2 = (s - 1) * s * (s - 2)
            c3 = 2 * (k + a - 1) * (k + b - 1) * s
            rows.append(((c1 + c2 * x) * rows[-1] - c3 * rows[-2]) / c0)
        return rows[: n_max + 1]


def _mp_jacobi(a, b, n, x):
    """P_n(x) in 40-digit arithmetic."""
    return _mp_jacobi_rows(a, b, n, x)[n]


def _mp_step_coefficients(a, b, t, n_max, wanted):
    """c(n) of the unit step H(x - t) for n in wanted (1 <= n <= n_max): the
    closed form (1-t)^(a+1) (1+t)^(b+1) P_(n-1)^(a+1,b+1)(t) / (2n h_n), in
    40-digit arithmetic with h_n from the gamma functions."""
    with mpmath.workdps(40):
        a, b, t = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(t)
        rows = _mp_jacobi_rows(a + 1, b + 1, n_max - 1, t)
        scale = (1 - t) ** (a + 1) * (1 + t) ** (b + 1)
        out = {}
        for n in wanted:
            log_h = (
                (a + b + 1) * mpmath.log(2)
                - mpmath.log(2 * n + a + b + 1)
                + mpmath.loggamma(n + a + 1)
                + mpmath.loggamma(n + b + 1)
                - mpmath.loggamma(n + 1)
                - mpmath.loggamma(n + a + b + 1)
            )
            out[n] = float(scale * rows[n - 1] / (2 * n) / mpmath.exp(log_h))
        return out


class TestAdaptiveProjection:
    """Expansions stop at the coefficient plateau unless the residual objects."""

    R_TOP = 1.0 - 2.0**-12
    XS = np.linspace(-1.0, 1.0, 25)  # the CLI's default x grid
    PARAMS = pytest.mark.parametrize("a,b", [(0.5, 0.5), (-0.5, -0.5)])

    @PARAMS
    def test_sparse_spectrum_is_not_chopped(self, a, b):
        # the window over [k/2, k] reads noise at k = 128 and 256; only the
        # residual guard sees the lone P_500
        p = JacobiParams(a, b)
        top = binomial_real(500 + a, 500)

        def f(x):
            return jacobi_eval(p, 3, x) + 1e-3 * jacobi_eval(p, 500, x) / top

        e = _as_expansion(f, p, 0.99, 1e-8)  # degree bound 1897
        assert e.degree >= 500
        assert abs(e.coeffs[500] - 1e-3 / top) <= 1e-12

    @PARAMS
    def test_constant_maximal_is_one(self, a, b):
        p = JacobiParams(a, b)
        mx = jacobi_maximal(family(p)["const"], p, self.XS)
        assert np.max(np.abs(mx - 1.0)) <= 1e-13

    @PARAMS
    def test_single_term_maximal_matches_oracle(self, a, b):
        # r^3 grows with r, so the max over the grid is r_top^3 |P_3(x)|
        p = JacobiParams(a, b)
        mx = jacobi_maximal(family(p)["pk:3"], p, self.XS, r_grid=default_r_grid(12))
        want = np.array(
            [float(abs(mpmath.mpf(self.R_TOP) ** 3 * _mp_jacobi(a, b, 3, x))) for x in self.XS]
        )
        assert np.max(np.abs(mx - want)) <= 1e-13 * np.max(want)

    @PARAMS
    @pytest.mark.parametrize("tag", ["bump", "const", "pk:3"])
    def test_smooth_inputs_stop_early(self, a, b, tag):
        p = JacobiParams(a, b)
        e = _as_expansion(family(p)[tag], p, self.R_TOP, 1e-8)
        assert e.coeffs.size <= 512

    @pytest.mark.parametrize(
        "a,b,t,tol",
        [
            (0.5, 0.5, 0.0, 1e-13),
            (-0.5, -0.5, 0.0, 1e-13),
            (0.5, -0.5, 0.0, 1e-13),
            (-0.5, 0.5, 0.0, 1e-13),
            (0.9, -0.9, 0.3, 1e-11),  # measured 1.7e-13
        ],
    )
    def test_jump_coefficients_match_mp_closed_form(self, a, b, t, tol):
        # errors are relative to the local envelope max |c_j|, |j - n| <= 2,
        # since at t = 0 and a = b every other coefficient vanishes
        n_max = 16384
        tested = [*range(1, 50), *range(998, 1003), *range(16370, n_max + 1)]
        window = sorted({j for n in tested for j in range(n - 2, n + 3) if 1 <= j <= n_max})
        want = _mp_step_coefficients(a, b, t, n_max, window)
        got = _jump_coefficients(JacobiParams(a, b), ((t, 1.0),), n_max)
        for n in tested:
            env = max(abs(want[j]) for j in range(n - 2, n + 3) if j in want)
            assert abs(got[n] - want[n]) <= tol * env, (n, got[n], want[n])

    @pytest.mark.parametrize("a,b,t", [(0.5, 0.5, 0.0), (-0.5, -0.5, 0.0), (0.9, -0.9, 0.3)])
    def test_jump_coefficients_are_the_per_row_dot_form(self, a, b, t):
        # one jump: the blocked row sums keep every bit of one np.dot per
        # degree, the signed zeros at t = 0 included
        p, n = JacobiParams(a, b), 5000
        scale = np.array([2.0 * (1.0 - t) ** (a + 1.0) * (1.0 + t) ** (b + 1.0)])
        want = np.empty(n + 1)
        want[0] = 2.0 * WeightedMeasure.jacobi(a, b).interval_mass_exact(t, 1.0)
        rows = _jacobi_rows(JacobiParams(a + 1.0, b + 1.0), n - 1, np.array([t]))
        for k, row in zip(range(1, n + 1), rows):
            want[k] = np.dot(scale, row) / (2.0 * k)
        want /= jacobi_norm_sequence(p, n)
        assert _jump_coefficients(p, ((t, 2.0),), n).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "a,b,n",
        [
            (0.5, 0.5, 56646),
            (0.9, -0.9, 56646),
            (-0.5, -0.5, 16384),
            (-0.9, 0.3, 16384),
            (1.5, 0.5, 16384),
            (0.0, 0.0, 16384),
        ],
    )
    @pytest.mark.parametrize(
        "jumps", [((0.0, 2.0),), ((-0.5, 1.0), (0.0, 2.0), (0.7, -0.5))], ids=["1jump", "3jumps"]
    )
    def test_jump_coefficients_are_the_blocked_array_form(self, a, b, n, jumps):
        # one float recurrence pass per jump point keeps every bit of block
        # sums over the array recurrence; a spare point keeps one jump on the
        # array path in the reference
        p = JacobiParams(a, b)
        t = np.array([pt for pt, _ in jumps])
        d = np.array([ht for _, ht in jumps])
        want = np.empty(n + 1)
        want[0] = sum(ht * WeightedMeasure.jacobi(a, b).interval_mass_exact(pt, 1.0)
                      for pt, ht in jumps)
        scale = d * (1.0 - t) ** (a + 1.0) * (1.0 + t) ** (b + 1.0)
        for s, block in _jacobi_blocks(JacobiParams(a + 1.0, b + 1.0), n - 1, np.append(t, 0.5)):
            rows = (block[:, : t.size] * scale).sum(axis=1, initial=-0.0)
            want[1 + s : 1 + s + rows.size] = rows
        want[1:] /= 2.0 * np.arange(1, n + 1)
        want /= jacobi_norm_sequence(p, n)
        assert _jump_coefficients(p, jumps, n).tobytes() == want.tobytes()

    @PARAMS
    def test_jump_matches_quadrature_route(self, a, b):
        # fourier_jacobi_coefficients projects sign itself on a split rule
        # and shares no closed form with the expansion
        p = JacobiParams(a, b)
        f = family(p)["sign"]
        n = _default_terms(0.99, 1e-8)
        e = _as_expansion(f, p, 0.99, 1e-8)
        ref = _trim(fourier_jacobi_coefficients(f, p, n, 2 * (n + 1)).coeffs)
        assert e.coeffs.size == ref.size
        assert np.max(np.abs(e.coeffs - ref)) <= 1e-11

    @pytest.mark.parametrize(
        "a,bound",
        # at (-1/2, -1/2) the projected remainder -1 keeps a rounding
        # coefficient of 3.6e-14 at n = 128, below the plateau tolerance
        [(0.5, 0.0), (0.0, 0.0), (-0.5, 1e-13)],
    )
    def test_sign_even_coefficients_vanish(self, a, bound):
        # sign is odd and so is P_n for odd n when a = b; the closed form
        # reads P_(n-1)^(a+1,a+1)(0), an exact zero for even n
        p = JacobiParams(a, a)
        assert not np.any(_jump_coefficients(p, ((0.0, 2.0),), 16384)[2::2])
        e = _as_expansion(family(p)["sign"], p, self.R_TOP, 1e-8)
        assert np.max(np.abs(e.coeffs[2::2])) <= bound

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (-0.5, -0.5), (0.0, 0.0)])
    def test_jump_projects_only_the_remainder(self, a, b, monkeypatch):
        # sign's remainder is the constant -1, which stops at the first
        # checkpoint (129 rows); a fallback to projecting sign itself would
        # read all 16385 rows of the degree bound
        rows = []
        inner = abel_module._coefficients

        def counting(*args):
            for c in inner(*args):
                rows.append(c)
                yield c

        monkeypatch.setattr(abel_module, "_coefficients", counting)
        p = JacobiParams(a, b)
        e = _as_expansion(family(p)["sign"], p, self.R_TOP, 1e-8)
        assert len(rows) <= 257
        assert e.degree >= 16380


def test_jumps_are_validated():
    with pytest.raises(DomainError):
        abel_module.TestFunction("edge", np.sign, jumps=((1.0, 2.0),))
    with pytest.raises(DomainError):
        abel_module.TestFunction("outside", np.sign, jumps=((-1.5, 2.0),))
    with pytest.raises(DomainError):
        abel_module.TestFunction("nan point", np.sign, jumps=((math.nan, 2.0),))
    with pytest.raises(DomainError):
        abel_module.TestFunction("inf height", np.sign, jumps=((0.0, math.inf),))
    with pytest.raises(DomainError):
        abel_module.TestFunction("nan height", np.sign, jumps=((0.0, math.nan),))


def test_weak11_probe_is_finite_and_order_one():
    p = JacobiParams(0.0, 0.0)
    worst = weak11_probe(family(p)["sign"], p, n_cells=512)
    assert 0.0 < worst < 10.0


def test_lp_norm_basics():
    p = JacobiParams(0.0, 0.0)
    fam = family(p)
    assert lp_norm(fam["const"], p, 1.0) == pytest.approx(2.0, rel=1e-12)
    assert lp_norm(fam["sign"], p, 2.0) == pytest.approx(math.sqrt(2.0), rel=1e-10)
    assert lp_norm(fam["sign"], p, math.inf) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(DomainError):
        lp_norm(fam["const"], p, 0.5)


def test_unknown_route_rejected():
    p = JacobiParams(0.0, 0.0)
    f = family(p)["const"]
    with pytest.raises(DomainError):
        abel_mean(f, p, AbelParameter(0.5), 0.0, route="fancy")
    with pytest.raises(DomainError):
        modified_abel_mean(f, p, AbelParameter(0.5), 0.0, route="fancy")


def test_default_r_grid_shape():
    g = default_r_grid(5)
    np.testing.assert_allclose(g, [0.5, 0.75, 0.875, 0.9375, 0.96875])
