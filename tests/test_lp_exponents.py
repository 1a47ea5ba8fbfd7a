"""Lp norms and the Lp probe against J absorb the end exponents f declares.

|f|^p carries p times f's exponents, so `lp_norm` and `lp_convergence_probe`
take rules that absorb those (`abel._lp_rule`), and refuse a function whose
p-th power is not integrable against J. `fk:3` = P_3 hw at (0, -0.6) behaves
like (1+y)^-0.3 at -1: it is in L^1(J) but not in L^2(J).
"""

import pytest

from jacobi_watson import DomainError, JacobiParams, abel
from jacobi_watson import test_function_family as function_family
from jacobi_watson.cli import main

P = JacobiParams(0.0, -0.6)
# int |P_3^(0,-0.6)(y)| (1+y)^-0.9 dy by mpmath at 30 digits, with
# y = -1 + t^10 (which leaves a smooth integrand) split at the roots of P_3
FK3_L1 = 2.2080057687480852


def _fk3(p):
    return {tf.tag: tf for tf in function_family(p)}["fk:3"]


def test_l1_norm_absorbs_the_declared_exponent():
    # J's plain rule read 1.687 here
    assert abel.lp_norm(_fk3(P), P, 1.0) == pytest.approx(FK3_L1, abs=1e-4)


def test_l2_of_a_function_outside_l2_is_refused(capsys):
    with pytest.raises(DomainError, match="not in L\\^2"):
        abel.lp_norm(_fk3(P), P, 2.0)
    with pytest.raises(DomainError, match="not in L\\^2"):
        abel.lp_convergence_probe(_fk3(P), P, 2.0, [0.5, 0.9])
    # the lp suite printed "L2 errors" of 9.87 for it and passed
    assert main(["abel", "--suite", "lp", "--f", "fk:3", "--beta", "-0.6"]) == 2
    assert "not in L^2(J)" in capsys.readouterr().err
