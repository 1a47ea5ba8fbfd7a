"""The three-term recurrence against 40-digit references, each error taken
relative to the envelope max_(m <= n) |P_m(x)|.

mpmath's P_n, a terminating 2F1 summed at 40 digits, is the reference wherever
that sum is cheap: near +-1 at every degree, and at interior points up to
degree 4000. Beyond that, at interior points, mpmath's sum takes seconds and
then gives up, so the reference there is the same recurrence run in integers,
with every coefficient and x exact and each step's one division floored at
2^-136 (about 41 digits); it is checked against mpmath where both apply.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from jacobi_watson.polynomials import JacobiParams, jacobi_eval_table

DEGREES = (1000, 4000, 16384, 56646)
INTERIOR = (0.3, -0.7)
EDGE = (1.0 - 6e-5, -(1.0 - 3e-5))
# degrees up to which mpmath's 2F1 sum at an interior point stays cheap
MPMATH_INTERIOR_MAX = 4000
# worst error / envelope over DEGREES and the four points, the larger of the
# two forms of the step (dividing by c0, or multiplying by c2/c0, c1/c0 and
# c3/c0): 3.4e-13, 1.6e-12, 9.8e-12 and 2.4e-11; the bounds keep about a
# factor 3 above that
BOUND = {(0.5, 0.5): 1e-12, (0.9, -0.9): 5e-12, (-0.99, 0.5): 3e-11, (1.7, 1.2): 7e-11}
FRAC_BITS = 136


def _integer_rows(a: float, b: float, x: float, degrees) -> dict:
    """P_n(x) at the given degrees, as mpmath numbers.

    The classical step c0 P_n = (c1 + c2 x) P_(n-1) - c3 P_(n-2), with a, b and
    x as the exact binary fractions they are and c0..c3 scaled by d^3 to
    integers, d the common denominator of a and b; each step's quotient is
    floored to a multiple of 2^-FRAC_BITS.
    """
    fa, fb, fx = Fraction(a), Fraction(b), Fraction(x)
    d = math.lcm(fa.denominator, fb.denominator)
    ma, mb = int(fa * d), int(fb * d)
    s, xn, xd = ma + mb, fx.numerator, fx.denominator
    one = 1 << FRAC_BITS
    prev, cur = one, (((ma - mb) * xd + (s + 2 * d) * xn) << FRAC_BITS) // (2 * d * xd)
    out = {}
    for n in range(2, max(degrees) + 1):
        u = 2 * n * d + s
        c0 = 2 * n * (n * d + s) * (u - 2 * d) * d
        c1 = (u - d) * (ma * ma - mb * mb)
        c2 = (u - d) * u * (u - 2 * d)
        c3 = 2 * (n * d + ma - d) * (n * d + mb - d) * u
        prev, cur = cur, ((c1 * xd + c2 * xn) * cur - c3 * xd * prev) // (c0 * xd)
        if n in degrees:
            out[n] = mpmath.mpf(cur) / one
    return out


@pytest.mark.parametrize("a,b", sorted(BOUND))
@mpmath.workdps(40)
def test_recurrence_against_forty_digits(a, b):
    points = INTERIOR + EDGE
    table = jacobi_eval_table(JacobiParams(a, b), max(DEGREES), np.array(points))
    envelope = np.maximum.accumulate(np.abs(table), axis=0)
    worst = 0.0
    for j, t in enumerate(points):
        exact = _integer_rows(a, b, t, DEGREES) if t in INTERIOR else {}
        for n in DEGREES:
            if n in exact:
                ref = exact[n]
                if n <= MPMATH_INTERIOR_MAX:
                    # the integer recurrence is itself a 40-digit reference
                    gap = abs(ref - mpmath.jacobi(n, a, b, t)) / envelope[n, j]
                    assert gap <= 1e-30, (t, n, gap)
            else:
                ref = mpmath.jacobi(n, a, b, t)
            err = float(abs(mpmath.mpf(table[n, j]) - ref)) / envelope[n, j]
            worst = max(worst, err)
            assert err <= BOUND[a, b], (t, n, err)
    assert worst > 0.0
