"""The modified (Jacobi-function) Abel mean: its two routes agree as r -> 1.

The halfweight route is a view of the shared adaptive expansion; the lebesgue
route integrates the Watson series against f on cells graded toward x, where
the kernel peaks with width about 1 - r. The two share no nodes.
"""

import pytest

from jacobi_watson import (
    AbelParameter,
    JacobiParams,
    jacobi_function_eval,
    modified_abel_mean,
)
from jacobi_watson import test_function_family as function_family

RADII = (0.5, 0.9, 0.99)
POINTS = (-0.9, -0.3, 0.0, 0.6, 0.95)


@pytest.mark.parametrize("tag", ["const", "bump", "pk:3"])
@pytest.mark.parametrize(
    "a,b", [(0.5, 0.5), (0.5, -0.5), (-0.5, 0.5), (-0.5, -0.5), (0.9, -0.9)]
)
def test_halfweight_and_lebesgue_routes_agree(a, b, tag):
    p = JacobiParams(a, b)
    f = {tf.tag: tf for tf in function_family(p)}[tag]
    for r in RADII:
        for x in POINTS:
            h = modified_abel_mean(f, p, AbelParameter(r), x, route="halfweight")
            l = modified_abel_mean(f, p, AbelParameter(r), x, route="lebesgue")
            assert h == pytest.approx(l, abs=1e-8), (r, x)


@pytest.mark.parametrize("a,b", [(0.5, 0.3), (-0.5, -0.5)])
@pytest.mark.parametrize("r", [0.999, 1.0 - 2.0**-12])
def test_jacobi_function_is_an_eigenfunction_near_one(a, b, r):
    # F_3 with its endpoint exponents declared: the projection is exact, and
    # no series budget caps r
    p = JacobiParams(a, b)
    fk = {tf.tag: tf for tf in function_family(p)}["fk:3"]
    for x in (-0.9, -0.3, 0.4, 0.95):
        got = modified_abel_mean(fk, p, AbelParameter(r), x, f_exponents=(0.5 * b, 0.5 * a))
        assert got == pytest.approx(r**3 * jacobi_function_eval(p, 3, x), abs=1e-13)
