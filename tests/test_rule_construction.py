"""The O(n) Gauss-Jacobi construction at its reduced cost: the truncated Hahn
expansion against the 20-term one, the one-pass boundary series against two
separate exact series, moments from the size floor up, the tabled Stirling
coefficients against the direct form, and the pk:3 check the construction now
serves at (0.9, -0.9)."""

import itertools
import json
import math
import random

import numpy as np
import pytest

from jacobi_watson import quadrature
from jacobi_watson.cli import main
from jacobi_watson.polynomials import JacobiParams, jacobi_eval_table, jacobi_norm
from jacobi_watson.quadrature import (
    _ASY_MIN_NODES,
    _BOUNDARY_NODES,
    _BERNOULLI,
    _ExactSeries,
    _gamma_ratio,
    _gauss_jacobi_nodes,
    _initial_angles,
    _interior_nodes,
)

GRID = [-0.99, -0.9, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]


@pytest.mark.parametrize("n", [513, 600, 774, 1023, 1024, 4096])
def test_hahn_terms_keep_the_full_expansion(n, monkeypatch):
    # only the interior nodes read _HAHN_TERMS; each half of a rule is the
    # x > 0 half for (a, b) or for (b, a), and the grid holds both orders
    halves = {}
    for a, b in itertools.product(GRID, GRID):
        guess = _initial_angles(n, a, b)
        t = guess[guess <= 0.5 * np.pi][_BOUNDARY_NODES:]
        halves[a, b] = (t, _interior_nodes(n, a, b, t))
    monkeypatch.setattr(quadrature, "_HAHN_TERMS", 20)
    for (a, b), (t, (x, w)) in halves.items():
        xf, wf = _interior_nodes(n, a, b, t)
        assert np.array_equal(x, xf), (a, b)
        assert np.max(np.abs(w - wf) / wf) <= 2e-15, (a, b)


def _hyp2f1_reference(m, b, c, z, bits=256):
    """2F1(-m, b; c; z) for exact rationals b = bn/bd and c = cn/cd, summed on
    its own in fixed point, one series per call."""
    (bn, bd), (cn, cd) = b, c
    zn, zd = z.as_integer_ratio()
    term = total = 1 << bits
    for k in range(m):
        term = term * ((k - m) * (k * bd + bn) * zn * cd) // (bd * zd * (k * cd + cn) * (k + 1))
        total += term
        if abs(term) <= abs(total) >> 64:
            break
    return total / (1 << bits)


def test_one_pass_pair_matches_two_exact_series():
    rng = random.Random(20130101)
    for _ in range(300):
        n = rng.choice([513, 777, 1024, 4096, 32768])
        a, b = rng.uniform(-0.99, 2.0), rng.uniform(-0.99, 2.0)
        # z out to the 25th zero from x = 1, past the 20 boundary nodes
        z = float(0.5 * (1.0 - np.cos(rng.uniform(0.5, 80.0) / n)))
        big, low = n + a + b + 1.0, a + 1.0
        p, q = _ExactSeries(n, big, low).pair(z)
        (bn, bd), (cn, cd) = big.as_integer_ratio(), low.as_integer_ratio()
        want_p = _hyp2f1_reference(n, (bn, bd), (cn, cd), z)
        # the derivative series at b + 1 and c + 1, taken as exact rationals
        want_q = _hyp2f1_reference(n - 1, (bn + bd, bd), (cn + cd, cd), z)
        assert p == want_p, (n, a, b, z)
        assert abs(q - want_q) <= np.spacing(abs(want_q)), (n, a, b, z)


def test_shared_factors_grow_only_as_far_as_the_sums_reach():
    n, a, b = 4096, 0.9, -0.9
    series = _ExactSeries(n, n + a + b + 1.0, a + 1.0)
    series.pair(float(0.5 * (1.0 - np.cos(10.0 / n))))
    reached = len(series.up)
    assert 0 < reached < 200
    series.pair(float(0.5 * (1.0 - np.cos(2.0 / n))))
    assert len(series.up) == reached == len(series.down)


def _moment_error(n, a, b):
    """max over k <= 40 of |sum w P_k(x) - h_0 delta_k0| / h_0."""
    x, w = _gauss_jacobi_nodes(n, a, b)
    p = JacobiParams(a, b)
    h0 = jacobi_norm(p, 0)
    moments = jacobi_eval_table(p, 40, x) @ w
    moments[0] -= h0
    return float(np.max(np.abs(moments)) / h0)


@pytest.mark.parametrize("n", [_ASY_MIN_NODES, 774, 1023])
def test_moments_from_the_size_floor(n):
    for a, b in itertools.product(GRID[1:], GRID[1:]):
        assert _moment_error(n, a, b) <= 1e-14, (a, b)


def test_moments_at_the_exponent_corner_match_the_full_expansion(monkeypatch):
    got = [_moment_error(n, -0.99, -0.99) for n in (_ASY_MIN_NODES, 1023)]
    monkeypatch.setattr(quadrature, "_HAHN_TERMS", 20)
    want = [_moment_error(n, -0.99, -0.99) for n in (_ASY_MIN_NODES, 1023)]
    for g, w in zip(got, want):
        assert g <= w + 2e-15
    assert max(got) <= 2.1e-13


def test_pk3_single_term_check_at_asymmetric_exponents(tmp_path):
    # scipy's 524-node rule read 3.3e-8 against 1e-10 at r = 0.9; the r = 0.5
    # check still runs on a 190-node scipy rule
    out = tmp_path / "rep.json"
    main(["abel", "--suite", "mean", "--f", "pk:3", "--alpha", "0.9", "--beta", "-0.9",
          "--out", str(out)])
    records = {r["name"]: r for r in json.loads(out.read_text())["records"]}
    record = records["single-term r=0.9"]
    assert record["hard"] and record["passed"]
    assert record["value"] <= 1e-14


def _direct_gamma_ratio(z, ups, downs):
    """`_gamma_ratio` with comb(m, j) B_j formed inside every Bernoulli polynomial."""

    def poly(m, x):
        return sum(math.comb(m, j) * _BERNOULLI[j] * x ** (m - j) for j in range(m + 1))

    out = 0.0
    for k in range(1, len(_BERNOULLI) - 1):
        diff = sum(poly(k + 1, u) for u in ups) - sum(poly(k + 1, d) for d in downs)
        out += (-1) ** (k + 1) * diff / (k * (k + 1) * z**k)
    return math.exp(out)


STIRLING_EXPONENTS = [-0.99, -0.5, 0.0, 0.5, 1.7, 2.0]
STIRLING_SIZES = [514, 1024, 16384, 32768]


def test_tabled_stirling_series_is_the_direct_form():
    # the shifts _interior_nodes and _boundary_nodes pass; each half of a rule
    # is the x > 0 half for (a, b) or for (b, a), and the grid holds both orders
    for a, b in itertools.product(STIRLING_EXPONENTS, STIRLING_EXPONENTS):
        m = 0.5 * (a + b)
        shifts = [
            ((m + 1.0, m + 1.0, m + 1.5, m + 1.5), (a + b + 2.0, 1.0, a + 1.0, b + 1.0)),
            ((b + 1.0, 0.0), (a + b + 1.0, a + 1.0)),
        ]
        for z, (ups, downs) in itertools.product(STIRLING_SIZES, shifts):
            assert _gamma_ratio(z, ups, downs) == _direct_gamma_ratio(z, ups, downs), (a, b, z)


@pytest.mark.parametrize("n", STIRLING_SIZES)
def test_tabled_stirling_series_keeps_the_rule_bytes(n, monkeypatch):
    # every pair on the two smaller sizes; the symmetric pairs and the grid
    # against its reverse on the larger ones
    pairs = list(itertools.product(STIRLING_EXPONENTS, STIRLING_EXPONENTS))
    if n > 1024:
        pairs = [(e, e) for e in STIRLING_EXPONENTS]
        pairs += list(zip(STIRLING_EXPONENTS, reversed(STIRLING_EXPONENTS)))
    got = {ab: _gauss_jacobi_nodes(n, *ab) for ab in pairs}
    monkeypatch.setattr(quadrature, "_gamma_ratio", _direct_gamma_ratio)
    for ab, (x, w) in got.items():
        xd, wd = _gauss_jacobi_nodes(n, *ab)
        assert x.tobytes() == xd.tobytes() and w.tobytes() == wd.tobytes(), ab
