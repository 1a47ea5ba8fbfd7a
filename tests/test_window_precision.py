"""The two measured causes of the measure-weights failure at seed 903, pinned.

At that seed two `hl_maximal` jobs on the product measure below read above
the sup of their step function. Both causes lose digits next to x = 1, and
ROADMAP item 5 owns both; its plan to rescale each cell's rule to its exact
mass mends neither, so each is a strict xfail until it is fixed:

- cell masses: a product measure's `cell_masses` are differences of
  CDF-table values, and the 24-node cell rules form |t - 1| from rounded
  nodes;
- the maximal profile: `harmonic._maximal_profile` forms window masses and
  integrals as differences of prefix sums, so a window of a few tiny cells
  next to x = 1 takes the rounding of the whole prefix.
"""

import numpy as np
import pytest
from scipy import special

from jacobi_watson import WeightedMeasure, abel, harmonic

ITEM_5 = "ROADMAP item 5: "
# x^A (1 - x)^B dx on (0, 1), drawn at seed 903
A, B = -0.01279669891609192, 1.0620982104124823
SEED_903 = WeightedMeasure.product(((0.0, A), (1.0, B)), (0.0, 1.0))
STEP = abel.TestFunction("step", lambda x: np.where(x < 0.5, 1.0, 4.0), breakpoints=(0.5,))


def _beta_masses(edges):
    """Cell masses of SEED_903 from the regularized incomplete beta function,
    the complementary tail for cells in the upper half."""
    l, r = edges[:-1], edges[1:]
    low = special.betainc(A + 1.0, B + 1.0, r) - special.betainc(A + 1.0, B + 1.0, l)
    high = special.betainc(B + 1.0, A + 1.0, 1.0 - l) - special.betainc(B + 1.0, A + 1.0, 1.0 - r)
    return special.beta(A + 1.0, B + 1.0) * np.where(l + r > 1.0, high, low)


@pytest.mark.parametrize(
    "source",
    [
        # 1.9e-5 relative at a 1.4e-12 cell at x = 0.99999712
        pytest.param("cell_masses", marks=pytest.mark.xfail(
            strict=True, reason=ITEM_5 + "CDF-table differences lose digits near x = 1")),
        # 5.6e-8 relative
        pytest.param("cell_rules", marks=pytest.mark.xfail(
            strict=True, reason=ITEM_5 + "cell_rule forms |t - 1| from rounded nodes")),
    ],
)
def test_cell_masses_near_one_match_the_incomplete_beta(source):
    edges = harmonic._window_grid(SEED_903, 677)
    if source == "cell_masses":
        got = SEED_903.cell_masses(edges)
    else:
        got = SEED_903.cell_rules(edges, 24)[1].reshape(-1, 24).sum(axis=1)
    want = _beta_masses(edges)
    assert np.max(np.abs(got - want) / want) <= 1e-10


PROFILE = pytest.mark.xfail(
    strict=True, reason=ITEM_5 + "prefix-sum differences in _maximal_profile")


@pytest.mark.parametrize(
    "m, family, x",
    [
        # away from x = 1 the bound holds: 4 (1 + 5e-15)
        pytest.param(SEED_903, None, 0.75, id="seed903-interior"),
        # reads 5.0
        pytest.param(SEED_903, None, 1.0 - 2e-8, id="seed903-default", marks=PROFILE),
        # reads 6.0
        pytest.param(SEED_903, 677, 1.0 - 2e-8, id="seed903-677", marks=PROFILE),
        # reads 4 (1 + 6.9e-8)
        pytest.param(WeightedMeasure.jacobi(0.5, 0.5), None, 1.0 - 1e-6, id="jacobi-default",
                     marks=PROFILE),
    ],
)
def test_maximal_function_of_a_step_stays_below_its_sup(m, family, x):
    assert harmonic.hl_maximal(m, STEP, x, window_family=family) <= 4.0 * (1.0 + 1e-12)
