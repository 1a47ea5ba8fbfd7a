"""`measure.doubling_sweep` on x^a dx against the closed forms of its cells."""

import numpy as np
import pytest

from jacobi_watson.measure import WeightedMeasure, doubling_sweep, dyadic_doubling_ratio_closed_form


def _closed_form_sup(a: float, depth: int) -> float:
    """Sup of the dyadic doubling ratios of x^a dx on [0, 1] down to 2^-depth.

    The cell at k = 0 triples to [0, 2h], ratio 2^(a+1); the cell at k = 1
    to [0, 3h], ratio 3^(a+1) / (2^(a+1) - 1); the interior cells have the
    closed form. The last cell, clipped at 1, never holds the sup.
    """
    s = a + 1.0
    interior = max(
        dyadic_doubling_ratio_closed_form(a, k, j)
        for j in range(2, depth + 1)
        for k in range(2, 2**j - 1)
    )
    return max(2.0**s, 3.0**s / (2.0**s - 1.0), interior)


@pytest.mark.parametrize("depth", [3, 6, 8])
@pytest.mark.parametrize("a", np.linspace(-0.95, 3.0, 17).tolist())
def test_sweep_is_the_max_of_the_closed_forms(a, depth):
    got = doubling_sweep(WeightedMeasure.power(a), depth)
    assert got == pytest.approx(_closed_form_sup(a, depth), rel=1e-13, abs=0.0)
