"""End exponents declared by the input, absorbed by every rule.

`fk:3` = P_3 hw declares (b/2 at -1, a/2 at +1). At (0, -0.6) it behaves like
(1+y)^-0.3, which no rule for J absorbs unless it is declared; its
coefficients are pinned by `fk3_oracle.json` (made by `make_fk3_oracle.py`).
The halfweight route of `modified_abel_mean` is the shared expansion of
f / hw, so it honours f's breakpoints like every other expansion.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from jacobi_watson import (
    AbelParameter,
    DomainError,
    JacobiParams,
    modified_abel_mean,
)
from jacobi_watson import abel
from jacobi_watson import test_function_family as function_family
from jacobi_watson.cli import main

ORACLE = json.loads(Path(__file__).with_name("fk3_oracle.json").read_text())


def _family(p):
    return {tf.tag: tf for tf in function_family(p)}


@pytest.mark.parametrize(
    "r",
    [
        pytest.param(
            0.5,
            marks=pytest.mark.xfail(
                strict=True,
                reason="ROADMAP item 10: the 190-node scipy rule at r = 0.5 reads 2.4e-10",
            ),
        ),
        0.9,
        0.99,
    ],
)
def test_fk3_coefficients_match_the_oracle(r):
    p = JacobiParams(ORACLE["alpha"], ORACLE["beta"])
    e = abel._as_expansion(_family(p)["fk:3"], p, r, abel._MEAN_TOL)
    top = float(np.abs(e.coeffs).max())
    for n, want in ORACLE["coefficients"].items():
        assert abs(e.coeffs[int(n)] - float(want)) <= 1e-12 * top, n


@pytest.mark.parametrize("alpha", ["0", "0.9"])
def test_fk3_mean_suite_passes_at_a_strong_end_power(alpha, capsys):
    argv = ["abel", "--suite", "mean", "--f", "fk:3", "--alpha", alpha, "--beta", "-0.6"]
    assert main(argv) == 0
    capsys.readouterr()


@pytest.mark.parametrize("a,b", [(0.9, -0.9), (0.5, 0.3)])
@pytest.mark.parametrize("r", [0.5, 0.9])
def test_halfweight_route_honours_the_jump_of_sign(a, b, r):
    p = JacobiParams(a, b)
    sign = _family(p)["sign"]
    for x in (0.0, 0.95):
        h = modified_abel_mean(sign, p, AbelParameter(r), x, route="halfweight")
        l = modified_abel_mean(sign, p, AbelParameter(r), x, route="lebesgue")
        assert h == pytest.approx(l, abs=1e-8), x


def test_jumps_and_exponents_together_are_refused():
    with pytest.raises(DomainError, match="jumps"):
        abel.TestFunction("s", np.sign, jumps=((0.0, 2.0),), exponents=(0.3, 0.0))
