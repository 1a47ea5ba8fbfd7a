"""Kernel evaluation routes, their geometry helpers, and cross-validation."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import gamma, hyp2f1

from jacobi_watson import (
    AbelParameter,
    abel_mean,
    BaileyArguments,
    DomainError,
    JacobiParams,
    WatsonGeometry,
    appell_f4,
    gauss_jacobi_rule,
    jacobi_eval_table,
    jacobi_norm_sequence,
    kernel_mass,
    modified_watson_kernel,
    watson_kernel,
    watson_kernel_bailey,
    watson_kernel_integral,
    watson_kernel_series,
)
from jacobi_watson import test_function_family as function_family
from jacobi_watson.errors import SingularEvaluationError
from jacobi_watson.kernels import _series_budget, _series_pairs, watson_series_matrix

BOXES = [(-0.5, -0.5), (0.0, 0.0), (0.5, 0.3), (1.7, 0.4)]


def _endpoint_value(a, b, r):
    """K(r, 1, -1) from the generating function of (2n+c) Gamma(n+c)/n!.

    Summing r^n P_n(1) P_n(-1) / h_n telescopes to
    Gamma(a+b+2) (1-r) / (2^(a+b+1) Gamma(a+1) Gamma(b+1) (1+r)^(a+b+2)).
    """
    c = a + b + 2.0
    return gamma(c) * (1.0 - r) / (2.0 ** (a + b + 1.0) * gamma(a + 1.0) * gamma(b + 1.0) * (1.0 + r) ** c)


class TestEndpointClosedForm:
    @pytest.mark.parametrize("a,b", BOXES)
    @pytest.mark.parametrize("r", [0.5, 0.9])
    def test_series_route(self, a, b, r):
        p = JacobiParams(a, b)
        got = watson_kernel_series(p, AbelParameter(r), 1.0, -1.0, tol=1e-13)
        assert got.value == pytest.approx(_endpoint_value(a, b, r), rel=1e-9)
        assert got.error_estimate <= 1e-12

    @pytest.mark.parametrize("a,b", BOXES)
    @pytest.mark.parametrize("r", [0.5, 0.9])
    def test_closed_form_route(self, a, b, r):
        p = JacobiParams(a, b)
        got = watson_kernel_bailey(p, AbelParameter(r), 1.0, -1.0)
        assert got.value == pytest.approx(_endpoint_value(a, b, r), rel=1e-12)


def test_appell_f4_reduces_to_gauss_on_axis():
    for a1, a2, c1, c2, x in [
        (0.5, 1.2, 0.8, 1.0, 0.3),
        (2.0, 0.7, 1.5, 0.9, -0.6),
        (1.0, 1.0, 2.0, 3.0, 0.85),
    ]:
        got = appell_f4(a1, a2, c1, c2, x, 0.0)
        assert got == pytest.approx(hyp2f1(a1, a2, c1, x), rel=1e-12)


def test_appell_f4_symmetry():
    got = appell_f4(0.7, 1.3, 0.9, 1.1, 0.2, 0.15)
    swapped = appell_f4(1.3, 0.7, 0.9, 1.1, 0.2, 0.15)
    assert got == pytest.approx(swapped, rel=1e-13)


class TestRouteAgreement:
    @pytest.mark.parametrize("a,b", BOXES)
    def test_series_vs_closed_form_interior(self, a, b):
        p = JacobiParams(a, b)
        for r in (0.5, 0.9):
            ab = AbelParameter(r)
            for x, y in [(0.2, -0.4), (0.9, 0.7), (-0.8, -0.1)]:
                s = watson_kernel_series(p, ab, x, y, tol=1e-13)
                c = watson_kernel_bailey(p, ab, x, y)
                assert c.value == pytest.approx(s.value, rel=1e-10)

    @pytest.mark.parametrize("a,b", [(0.0, 0.0), (0.5, 0.3), (1.7, 0.4)])
    def test_integral_representation(self, a, b):
        # the contour route carries quadrature error; 5e-6 is its level here
        p = JacobiParams(a, b)
        for r in (0.5, 0.9):
            ab = AbelParameter(r)
            for x, y in [(0.2, -0.4), (0.9, 0.7)]:
                s = watson_kernel_series(p, ab, x, y, tol=1e-13)
                i = watson_kernel_integral(p, ab, x, y)
                assert i.method == "integral"
                assert i.value == pytest.approx(s.value, rel=5e-6)

    def test_dispatch_prefers_closed_form_when_safe(self):
        p = JacobiParams(0.5, 0.5)
        ab = AbelParameter(0.5)
        out = watson_kernel(p, ab, 0.3, -0.3)
        assert out.method in ("bailey", "closed-form")

    def test_matrix_contraction_matches_scalar(self):
        p = JacobiParams(0.5, 0.3)
        x = np.array([0.1, 0.8])
        y = np.array([-0.5, 0.0, 0.6])
        mat, terms, tail = watson_series_matrix(p, 0.7, x, y, tol_abs=1e-13)
        assert mat.shape == (2, 3)
        assert tail <= 1e-12
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                s = watson_kernel_series(p, AbelParameter(0.7), xi, yj, tol=1e-13)
                assert mat[i, j] == pytest.approx(s.value, rel=1e-11)


def test_kernel_positivity_on_grid():
    p = JacobiParams(0.5, 0.5)
    for r in (0.5, 0.9):
        mat, _, _ = watson_series_matrix(
            p, r, np.linspace(-0.95, 0.95, 9), np.linspace(-0.95, 0.95, 9)
        )
        assert np.all(mat > 0.0)


@pytest.mark.parametrize("a,b", BOXES)
def test_kernel_mass_is_one(a, b):
    p = JacobiParams(a, b)
    assert kernel_mass(p, AbelParameter(0.5), 0.3) == pytest.approx(1.0, abs=1e-10)
    assert kernel_mass(p, AbelParameter(0.9), -0.7) == pytest.approx(1.0, abs=1e-8)


class TestModifiedKernel:
    def test_halfweight_identity(self):
        p = JacobiParams(0.5, 1.2)
        ab = AbelParameter(0.6)
        x, y = 0.3, -0.5
        base = watson_kernel(p, ab, x, y).value
        w = (
            (1.0 - x) ** 0.25 * (1.0 + x) ** 0.6
            * (1.0 - y) ** 0.25 * (1.0 + y) ** 0.6
        )
        assert modified_watson_kernel(p, ab, x, y) == pytest.approx(base * w, rel=1e-13)

    def test_singular_endpoint_refused(self):
        p = JacobiParams(-0.5, 0.0)
        with pytest.raises(SingularEvaluationError):
            modified_watson_kernel(p, AbelParameter(0.5), 1.0, 0.0)


class TestAbelParameter:
    def test_k_identity(self):
        ab = AbelParameter(0.64)
        assert ab.k == pytest.approx((0.8 + 1.25) / 2.0, rel=1e-15)

    def test_k_minus_1_is_cancellation_free(self):
        # at r = 1 - 1e-12 the naive difference k - 1 retains ~4 digits
        ab = AbelParameter(1.0 - 1e-12)
        s = math.sqrt(ab.r)
        exact = (1.0 - s) ** 2 / (2.0 * s)
        assert ab.k_minus_1 == exact
        assert ab.k_minus_1 > 0.0

    def test_phi_squares_to_product(self):
        ab = AbelParameter(0.7)
        for x in (-1.0, 0.0, 0.9, 1.0):
            assert ab.phi(x) ** 2 == pytest.approx(ab.k_minus_1 * (ab.k - x), rel=1e-14)

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            AbelParameter(0.0)
        with pytest.raises(DomainError):
            AbelParameter(1.0)
        with pytest.raises(DomainError):
            AbelParameter(0.5).phi(2.0)


class TestWatsonGeometry:
    def test_sum_and_difference_of_z(self):
        g = WatsonGeometry(s=1.3, x=0.2, y=-0.6)
        assert g.Z2 - g.Z1 == pytest.approx(g.x + g.y, rel=1e-14)
        assert g.Z1 + g.Z2 == pytest.approx(2.0 * (g.s**2 + g.Y), rel=1e-14)

    def test_y_at_unit_s_collapses(self):
        # s = 1 kills the second term, so Y = |x - y| / 2 and Z1 = 1 - min(x, y)
        g = WatsonGeometry(s=1.0, x=0.7, y=-0.2)
        assert g.Y == pytest.approx(0.45, rel=1e-14)
        assert g.Z1 == pytest.approx(1.2, rel=1e-14)
        assert g.Z2 == pytest.approx(1.7, rel=1e-14)

    def test_z_positive_beyond_unit_s(self):
        for s in (1.0, 1.2, 2.0):
            for x in (-0.9, 0.0, 0.9):
                for y in (-0.9, 0.5):
                    g = WatsonGeometry(s=s, x=x, y=y)
                    assert g.Z1 > 0.0
                    assert g.Z2 > 0.0


class TestBaileyArguments:
    def test_from_points_geometry(self):
        ab = AbelParameter(0.5)
        args = BaileyArguments.from_points(ab, 0.28, -0.6)
        assert args.a == pytest.approx(0.5 * math.sqrt(0.72 * 1.6), rel=1e-15)
        assert args.b == pytest.approx(0.5 * math.sqrt(1.28 * 0.4), rel=1e-15)
        assert args.k == ab.k

    def test_margin_always_positive(self):
        # a + b <= 1 < k pointwise, worst case on the diagonal x = y
        ab = AbelParameter(0.99)
        xs = np.linspace(-1.0, 1.0, 41)
        margins = [
            BaileyArguments.from_points(ab, float(x), float(y)).margin
            for x in xs
            for y in xs
        ]
        assert min(margins) > 0.0
        assert min(margins) == pytest.approx(1.0 - 1.0 / ab.k, abs=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            BaileyArguments.from_points(AbelParameter(0.5), 1.5, 0.0)


def test_series_rejects_out_of_range():
    p = JacobiParams(0.0, 0.0)
    with pytest.raises(DomainError):
        watson_kernel_series(p, AbelParameter(0.5), 1.2, 0.0)


class TestStreamedSeries:
    """The series kernel streams the recurrence in blocks of degrees."""

    @staticmethod
    def _peak_bytes(call):
        """Peak traced allocation of call() beyond what was live before it."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (0.9, -0.9), (-0.9, 0.3)])
    def test_matrix_is_the_table_contraction(self, a, b):
        # blocks move the sums by summation order only, measured against the
        # envelope sum |w_n P_n(x) P_n(y)| of the table-built contraction
        p, r = JacobiParams(a, b), 0.99
        x = np.linspace(-0.95, 0.95, 6)
        y = gauss_jacobi_rule(p, 300).nodes
        mat, n_terms, _ = watson_series_matrix(p, r, x, y)
        assert n_terms == _series_budget(p, r, 1e-12, 200000)[0]
        w = r ** np.arange(n_terms + 1) / jacobi_norm_sequence(p, n_terms)
        tx, ty = jacobi_eval_table(p, n_terms, x), jacobi_eval_table(p, n_terms, y)
        want = (tx * w[:, None]).T @ ty
        env = (np.abs(tx) * w[:, None]).T @ np.abs(ty)
        assert np.max(np.abs(mat - want) / env) <= 1e-14

    def test_pair_batches_are_one_pair_calls(self):
        # 2500 pairs span three passes of up to 1024 pairs; every pass gets the
        # blocks of degrees a one-pair call gets, so the bits agree
        p, r = JacobiParams(0.5, -0.3), 0.9
        rng = np.random.default_rng(11)
        x, y = rng.uniform(-1.0, 1.0, 2500), rng.uniform(-1.0, 1.0, 2500)
        batch, _, _ = _series_pairs(p, r, x, y)
        picked = [*range(8), *range(1018, 1030), *range(2042, 2054), *range(2492, 2500),
                  *range(0, 2500, 97)]
        for i in picked:
            one, _, _ = _series_pairs(p, r, x[i], y[i])
            assert np.float64(one[0]).tobytes() == np.float64(batch[i]).tobytes(), i

    def test_kernel_mass_memory_stays_flat_near_one(self):
        # r = 0.994 sums 10,466 terms on the 816 nodes of the kernel cells at
        # x = 0.3; full tables of them took 164 MB
        p, ab = JacobiParams(0.5, 0.5), AbelParameter(0.994)
        kernel_mass(p, ab, 0.3)  # warm the caches outside the guard; cells are per call
        peak = self._peak_bytes(lambda: kernel_mass(p, ab, 0.3))
        assert peak < 8 * 2**20

    def test_kernel_route_mean_memory_stays_flat_near_one(self):
        p = JacobiParams(0.5, 0.5)
        sign = {f.tag: f for f in function_family(p)}["sign"]
        x = np.linspace(-0.96, 0.96, 25)

        def mean():
            return abel_mean(sign, p, AbelParameter(0.99), x, route="kernel")

        mean()  # the caches are warm from here on; the cells are built per call
        assert self._peak_bytes(mean) < 8 * 2**20

    @pytest.mark.parametrize("bad", [1.5, -1.0000001, math.nan, math.inf])
    def test_points_outside_the_interval_are_refused(self, bad):
        p = JacobiParams(0.5, 0.5)
        inside = np.array([0.0, 0.3])
        with pytest.raises(DomainError):
            watson_series_matrix(p, 0.9, np.array([bad]), inside)
        with pytest.raises(DomainError):
            watson_series_matrix(p, 0.9, inside, np.array([0.2, bad]))
        with pytest.raises(DomainError):
            _series_pairs(p, 0.9, inside, bad)
