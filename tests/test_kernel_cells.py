"""One rule for the integrals of the Watson kernel: cells graded at the
localization scale phi, taken on the side of the nearer of +-1, serve
`kernel_mass`, the kernel route of `abel_mean` and the `lebesgue` reference
of `modified_abel_mean`."""

import numpy as np
import pytest

from jacobi_watson import (
    AbelParameter,
    JacobiParams,
    WeightedMeasure,
    abel_mean,
    kernel_mass,
    modified_abel_mean,
    watson_series_matrix,
)
from jacobi_watson import abel as abel_module
from jacobi_watson import kernels
from jacobi_watson import test_function_family as function_family

XS = np.linspace(-1.0, 1.0, 25)  # the CLI's default x grid
MASS_XS = [0.0, 0.3, 0.9, -0.9, 1.0 - 1e-6, -(1.0 - 1e-6), 1.0, -1.0]


def family(p):
    return {tf.tag: tf for tf in function_family(p)}


@pytest.mark.parametrize("a,b", [(0.5, 0.5), (0.9, -0.9), (-0.9, 0.3), (1.7, 1.2)])
def test_kernel_mass_is_one_near_the_series_cliff(a, b):
    # the 2048-node Gauss rule read 5.6e-10 to 1.1e-8 here, and cells graded
    # at the +1-side phi up to 6.0e-5 at x = -1
    p, ab = JacobiParams(a, b), AbelParameter(0.994)
    for x in MASS_XS:
        assert abs(kernel_mass(p, ab, x) - 1.0) <= 1e-11, x


def test_kernel_route_of_const_is_the_series_at_a_corner():
    # scipy's 512-node Golub-Welsch rule left a 6.4e-9 gap
    p, ab = JacobiParams(0.9, -0.9), AbelParameter(0.9)
    const = family(p)["const"]
    gap = abel_mean(const, p, ab, XS, route="kernel") - abel_mean(const, p, ab, XS)
    assert np.max(np.abs(gap)) <= 1e-12


@pytest.mark.parametrize("r", [0.5, 0.9])
def test_kernel_route_of_clipped_matches_a_fine_rule(r):
    # the mean suite's dual-route points; the 512-node rule missed by 1e-5
    p = JacobiParams(0.0, 0.0)
    clipped = family(p)["clipped"]
    xs = XS[::5]
    y, w = WeightedMeasure.jacobi(0.0, 0.0).quadrature_rule(8192, clipped.breakpoints)
    mat, _, _ = watson_series_matrix(p, r, xs, y, tol_abs=1e-13)
    got = abel_mean(clipped, p, AbelParameter(r), xs, route="kernel")
    assert np.max(np.abs(got - mat @ (w * clipped(y)))) <= 1e-12


def test_kernel_cells_grow_like_log_one_over_one_minus_r(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("building the cells called the series")

    monkeypatch.setattr(kernels, "_series_budget", refuse)
    p = JacobiParams(0.5, 0.5)
    for xs, bps in (([0.3], ()), (XS[::5], (0.0,))):
        low, high = (
            kernels._kernel_cells(p, AbelParameter(r), xs, bps)[0].size
            for r in (0.9, 1.0 - 2.0**-12)
        )
        assert high <= 2.5 * low


@pytest.mark.parametrize("x", [-1.0 + 1e-9, -0.9, 0.0, 0.3, 0.95, 1.0 - 1e-6])
@pytest.mark.parametrize("r", [0.5, 0.99])
def test_lebesgue_reference_nodes_are_strictly_inside(x, r, monkeypatch):
    # the cells' ends are exact, so no node rounds onto +-1, where the
    # half weight of a negative exponent is infinite
    seen = []

    def recording(p, rr, xs, y, *args, **kwargs):
        seen.append(np.array(y))
        return watson_series_matrix(p, rr, xs, y, *args, **kwargs)

    monkeypatch.setattr(abel_module, "watson_series_matrix", recording)
    p = JacobiParams(-0.5, -0.5)
    value = modified_abel_mean(family(p)["bump"], p, AbelParameter(r), x, route="lebesgue")
    assert np.isfinite(value)
    (y,) = seen
    assert np.all(np.abs(y) < 1.0)

