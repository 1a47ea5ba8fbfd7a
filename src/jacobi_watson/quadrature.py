"""Deterministic quadrature helpers.

Mapped Gauss rules whose weights absorb known endpoint singularities
(t-l)^e_left (r-t)^e_right, graded cell subdivisions for boundary layers,
and a square-root substitution rule for integrals carrying a 1/sqrt(s-k)
factor. Callers pass the full integrand; the singular behavior is encoded
in the rule, not in the integrand handling.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import special

from .errors import ConvergenceError, DegenerateInputError, DomainError

__all__ = [
    "gauss_legendre",
    "interval_rule",
    "graded_breakpoints",
    "graded_grid",
    "piece_edges",
    "sqrt_left_rule",
]


# Rules of at least this many nodes, with both exponents in (low, high], come
# from the O(n) asymptotic construction of Hale and Townsend (SIAM J. Sci.
# Comput. 35, 2013); scipy builds the others by Golub-Welsch, in O(n^2) time.
# The exponent range is the one the tests check against closed forms. scipy's
# rules stay bitwise up to 512 nodes, which the tests pin; at 513 the tests'
# case just below the threshold would repeat their n = 512 case, so the
# threshold is 514. There (2 vCPU, scipy 1.17.1, medians of 7) the
# construction takes 4 ms at (1/2, 1/2) against scipy's 10 ms, and 11-15 ms
# at asymmetric exponents against scipy's 13.5-14 ms, about a tie; at 600
# nodes 12-14 ms against 18.5-19 ms, at 774 10-15 ms against 30-32 ms. Only
# (-1/2, -1/2), where scipy has the Chebyshev closed form, is cheaper from
# scipy (0.1 ms against 2-4 ms).
_ASY_MIN_NODES = 514
_ASY_EXPONENTS = (-1.0, 2.0)
# Nodes per end found on an exact series, where the interior expansion stops
# converging. At asymmetric exponents they are most of the fixed cost: 10 of
# 14 ms at 513 nodes, (0.9, -0.9), and 6 of 23 ms at 16384 nodes, (0, 1/2).
_BOUNDARY_NODES = 20
# Terms kept in Hahn's interior expansion: the fewest with which 384 rules
# (n in {513, 600, 774, 1023, 1024, 4096}, both exponents in {-0.99, -0.9,
# -0.5, 0, 0.5, 1, 1.5, 2}) keep the 20-term nodes bitwise and their weights
# within 6.4e-16 relative (9 terms move a node). On 550 random rules of 513
# to 8200 nodes the nodes stay bitwise and the weights within 1.4e-15.
_HAHN_TERMS = 10
# fraction bits of the fixed-point sums in _ExactSeries
_FIXED_BITS = 256
# Newton converges in 2 to 4 steps from the initial angles; more is an error
_NEWTON_STEPS = 10
# B_0..B_9, for the Stirling series of log-gamma ratios
_BERNOULLI = (1.0, -0.5, 1.0 / 6.0, 0.0, -1.0 / 30.0, 0.0, 1.0 / 42.0, 0.0, -1.0 / 30.0, 0.0)
# comb(m, j) B_j for j <= m < 10: the coefficients of the Bernoulli polynomial B_m
_BERNOULLI_POLY = tuple(
    tuple(math.comb(m, j) * _BERNOULLI[j] for j in range(m + 1)) for m in range(len(_BERNOULLI))
)


def _gauss_jacobi_nodes(n: int, alpha: float, beta: float):
    """Ascending nodes and weights of the n-point Gauss rule for the weight
    (1-x)^alpha (1+x)^beta on [-1, 1]. Uncached: its callers cache."""
    low, high = _ASY_EXPONENTS
    if n < _ASY_MIN_NODES or not (low < alpha <= high and low < beta <= high):
        return special.roots_jacobi(n, alpha, beta)
    a, b = float(alpha), float(beta)
    guess = _initial_angles(n, a, b)
    if a == b:
        # symmetric: the x < 0 nodes mirror the first n // 2 of the x >= 0 ones
        xr, wr = _half_rule(n, a, b, guess[: (n + 1) // 2])
        xl, wl = xr[: n // 2], wr[: n // 2]
    else:
        right = guess <= 0.5 * np.pi
        xr, wr = _half_rule(n, a, b, guess[right])
        # P_n^(a,b)(-x) = (-1)^n P_n^(b,a)(x): the x < 0 half is found as the
        # x > 0 half of the rule with the exponents swapped
        xl, wl = _half_rule(n, b, a, np.pi - guess[~right][::-1])
    return np.concatenate([-xl, xr[::-1]]), np.concatenate([wl, wr[::-1]])


def _initial_angles(n: int, a: float, b: float) -> np.ndarray:
    """Gatteschi-Pittaluga approximations to the angles of the nodes, ascending."""
    big = 2.0 * n + a + b + 1.0
    k = (2.0 * np.arange(1, n + 1) + a - 0.5) * np.pi / big
    return k + ((0.25 - a * a) / np.tan(0.5 * k) - (0.25 - b * b) * np.tan(0.5 * k)) / big**2


def _half_rule(n: int, a: float, b: float, t: np.ndarray):
    """Nodes cos(theta) and weights for the angles near the ascending guesses t,
    all in [0, pi/2] up to rounding."""
    xb, wb = _boundary_nodes(n, a, b, t[:_BOUNDARY_NODES])
    xi, wi = _interior_nodes(n, a, b, t[_BOUNDARY_NODES:])
    return np.concatenate([xb, xi]), np.concatenate([wb, wi])


def _interior_nodes(n: int, a: float, b: float, t: np.ndarray):
    """Newton in theta on Hahn's expansion of P_n^(a,b)(cos theta)."""
    cp = _hahn_coefficients(n, a, b)
    # P_n' = (n+a+b+1)/2 P_{n-1}^(a+1,b+1), whose expansion has the same rho
    cd = _hahn_coefficients(n - 1, a + 1.0, b + 1.0)
    rate = n + a + b + 1.0
    for _ in range(_NEWTON_STEPS):
        s, d = _hahn_sums(n, a, b, t, cp, cd)
        step = s / (rate * d)
        t = t + step
        if np.max(np.abs(step)) < 1e-13:
            break
    else:
        raise ConvergenceError("interior Gauss-Jacobi nodes did not converge", n=n, a=a, b=b)
    # one more step, whose derivative also gives the weights
    s, d = _hahn_sums(n, a, b, t, cp, cd)
    t = t + s / (rate * d)
    # w = C_n / (dP/dtheta)^2; the gamma ratio in C_n / K^2 tends to a
    # constant (its power of n is 0)
    m = 0.5 * (a + b)
    scale = 2.0 ** (a + b + 3.0) * np.pi / rate * _gamma_ratio(
        n, (m + 1.0, m + 1.0, m + 1.5, m + 1.5), (a + b + 2.0, 1.0, a + 1.0, b + 1.0)
    )
    half = 0.5 * t
    w = scale * np.sin(half) ** (2.0 * a + 1.0) * np.cos(half) ** (2.0 * b + 1.0) / (4.0 * d * d)
    return np.cos(t), w


def _hahn_coefficients(n: int, a: float, b: float) -> np.ndarray:
    """c[m, l] = (1/2+a)_l (1/2-a)_l (1/2+b)_(m-l) (1/2-b)_(m-l)
    / (l! (m-l)! (2 rho + 1)_m 2^m), rho = n + (a+b+1)/2."""
    rho = n + 0.5 * (a + b + 1.0)
    left = [1.0]
    right = [1.0]
    for k in range(1, _HAHN_TERMS):
        left.append(left[-1] * (k - 0.5 + a) * (k - 0.5 - a) / k)
        right.append(right[-1] * (k - 0.5 + b) * (k - 0.5 - b) / k)
    c = np.zeros((_HAHN_TERMS, _HAHN_TERMS))
    den = 1.0
    for m in range(_HAHN_TERMS):
        for l in range(m + 1):
            c[m, l] = left[l] * right[m - l] / den
        den *= 2.0 * (2.0 * rho + 1.0 + m)
    return c


def _hahn_sums(n: int, a: float, b: float, t: np.ndarray, cp, cd):
    """Hahn's sums for P_n^(a,b)(cos t) and P_{n-1}^(a+1,b+1)(cos t), each
    without the factor K / (sin^(a+1/2)(t/2) cos^(b+1/2)(t/2)) and
    K / (sin^(a+3/2)(t/2) cos^(b+3/2)(t/2)).

    The m, l term is c[m, l] cos(theta_ml) / (sin^l(t/2) cos^(m-l)(t/2)) with
    theta_ml = (rho + m/2) t - (a + l + 1/2) pi/2, i.e. the real part of
    e^(i theta_00) (e^(it/2) / cos(t/2))^m (-i cot(t/2))^l; the derivative's
    phase is pi/2 behind. Both double sums run by Horner's rule.
    """
    rho = n + 0.5 * (a + b + 1.0)
    half = 0.5 * t
    e0 = np.exp(1j * (rho * t - 0.5 * (a + 0.5) * np.pi))
    v = np.exp(1j * half) / np.cos(half)
    u = -1j / np.tan(half)
    fp = np.zeros_like(e0)
    fd = np.zeros_like(e0)
    for m in range(_HAHN_TERMS - 1, -1, -1):
        qp = np.full_like(e0, cp[m, m])
        qd = np.full_like(e0, cd[m, m])
        for l in range(m - 1, -1, -1):
            qp *= u
            qp += cp[m, l]
            qd *= u
            qd += cd[m, l]
        fp *= v
        fp += qp
        fd *= v
        fd += qd
    return (e0 * fp).real, (-1j * e0 * fd).real


def _boundary_nodes(n: int, a: float, b: float, t: np.ndarray):
    """Newton in x near x = 1 on the exactly summed series, and the weights.

    The series is exact, so Newton runs until its step is below the spacing
    of doubles, and that last step still places the root: the node is
    x + step rounded and the weight is taken at x + step to first order. That digit matters where the
    first node holds most of the mass (a near -1); scipy's recurrence, good to
    about n * 1e-16 relative, loses it.
    """
    x = np.cos(t)
    c = n * (n + a + b + 1.0)
    series = _ExactSeries(n, n + a + b + 1.0, a + 1.0)
    p, q = np.empty_like(x), np.empty_like(x)
    moving = np.ones(x.size, dtype=bool)
    for _ in range(_NEWTON_STEPS):
        # P_n^(a,b)(x) and P_{n-1}^(a+1,b+1)(x), each divided by its value at
        # 1, summed again only where the last step moved x
        for i in np.flatnonzero(moving):
            p[i], q[i] = series.pair(0.5 * (1.0 - x[i]))
        step = -2.0 * (a + 1.0) * p / (c * q)
        moving = x + step != x
        if not moving.any():
            break
        x = x + step
    else:
        raise ConvergenceError("boundary Gauss-Jacobi nodes did not converge", n=n, a=a, b=b)
    # (1 - x^2) P_n'(x)^2 at the root x + step, by the Jacobi equation
    # (1-x^2) P'' = (a - b + (a+b+2) x) P' - n (n+a+b+1) P
    omx2 = (1.0 - x) * (1.0 + x)
    q = q * (1.0 + step * (a - b + (a + b + 2.0) * x + c * step) / omx2)
    omx2 = omx2 - 2.0 * x * step
    # C_n / ((n+a+b+1)/2 * binom(n+a, n-1))^2, q being normalized to 1 at x = 1;
    # its gamma ratio goes as n^(-2a-1), taken as n^(-2a) / n so that no
    # rounded exponent multiplies log n
    scale = (2.0 ** (a + b + 3.0) * math.gamma(a + 2.0) ** 2 / (c * (n + a + b + 1.0))
             * float(n) ** (-2.0 * a) / n
             * _gamma_ratio(n, (b + 1.0, 0.0), (a + b + 1.0, a + 1.0)))
    return x + step, scale / (omx2 * q * q)


class _ExactSeries:
    """2F1(-m, b; c; z) and 2F1(-(m-1), b+1; c+1; z) for 0 < z small, each
    rounded once.

    b, c and z are exact binary fractions, so each term t_k of the first
    series is an exact rational; the sums run in integers with _FIXED_BITS
    fraction bits, which leaves room for the terms' growth (about
    e^(2 sqrt(m (m+b) z))) before they cancel. The second series is the
    first's z-derivative times -c / (m b), that is -c / (m b z) sum k t_k, so
    one pass over the t_k gives both, with b + 1 and c + 1 exact. The integer
    factors of t_(k+1) / t_k that do not involve z are shared by every z, and
    are made only as far as some z's sums reach.
    """

    def __init__(self, m: int, b: float, c: float):
        self.m = m
        self.b = b.as_integer_ratio()
        self.c = c.as_integer_ratio()
        self.up = []
        self.down = []

    def pair(self, z: float):
        """Both series at z; each sum stops once a term is below 2^-64 of it."""
        (bn, bd), (cn, cd) = self.b, self.c
        zn, zd = z.as_integer_ratio()
        up, down = self.up, self.down
        term = total = 1 << _FIXED_BITS
        moment = 0
        value = None
        for k in range(self.m):
            if k == len(up):
                up.append((k - self.m) * (k * bd + bn) * cd)
                down.append(bd * (k * cd + cn) * (k + 1))
            term = term * (up[k] * zn) // (down[k] * zd)
            total += term
            weighted = (k + 1) * term
            moment += weighted
            if value is None and abs(term) <= abs(total) >> 64:
                value = total
            if value is not None and abs(weighted) <= abs(moment) >> 64:
                break
        if value is None:
            value = total
        # -c / (m b z) * moment / 2^F, with c = cn/cd, b = bn/bd, z = zn/zd
        deriv = (-cn * bd * zd * moment) / ((cd * self.m * bn * zn) << _FIXED_BITS)
        return value / (1 << _FIXED_BITS), deriv


def _gamma_ratio(z: float, ups, downs) -> float:
    """prod Gamma(z + u) / prod Gamma(z + d), divided by z^(sum u - sum d),
    for large z.

    That quotient is exp of the Stirling series
    sum_k (-1)^(k+1) [sum B_(k+1)(u) - sum B_(k+1)(d)] / (k (k+1) z^k),
    accurate to rounding for z >= 1000 and shifts of a few units. Callers
    supply the power of z themselves: differences of lgamma values lose about
    1e-11 at z = 32768, and a rounded exponent times log z loses 1e-15.
    """
    out = 0.0
    for k in range(1, len(_BERNOULLI) - 1):
        diff = sum(_bernoulli_poly(k + 1, u) for u in ups) - sum(
            _bernoulli_poly(k + 1, d) for d in downs
        )
        out += (-1) ** (k + 1) * diff / (k * (k + 1) * z**k)
    return math.exp(out)


def _bernoulli_poly(m: int, x: float) -> float:
    return sum(c * x ** (m - j) for j, c in enumerate(_BERNOULLI_POLY[m]))


@lru_cache(maxsize=256)
def gauss_legendre(n: int):
    x, w = _gauss_jacobi_nodes(n, 0.0, 0.0)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=512)
def _gauss_jacobi_raw(n: int, alpha: float, beta: float):
    """The library's one Gauss-Jacobi rule cache, read-only arrays."""
    if alpha == 0.0 and beta == 0.0:
        # the Legendre case shares gauss_legendre's cache, so one copy of each
        # Legendre rule stays alive; both build through _gauss_jacobi_nodes
        return gauss_legendre(n)
    x, w = _gauss_jacobi_nodes(n, alpha, beta)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def interval_rule(l: float, r: float, n: int, e_left: float = 0.0, e_right: float = 0.0):
    """Nodes/weights integrating F over [l, r] when F ~ (t-l)^e_left (r-t)^e_right.

    The singular factors are divided out of Gauss-Jacobi weights, so the rule
    applied to the full integrand F is exact whenever F equals the singular
    factors times a polynomial of degree <= 2n-1. With e_left = e_right = 0
    this is plain mapped Gauss-Legendre. Exponents must exceed -1.
    """
    if not (r > l):
        raise DegenerateInputError(f"need r > l, got [{l}, {r}]")
    if e_left <= -1.0 or e_right <= -1.0:
        raise DomainError("endpoint exponents must be > -1 for integrability")
    half = 0.5 * (r - l)
    mid = 0.5 * (r + l)
    if e_left == 0.0 and e_right == 0.0:
        xi, wi = gauss_legendre(n)
        return mid + half * xi, half * wi
    xi, wi = _gauss_jacobi_raw(n, e_right, e_left)
    t = mid + half * xi
    # dividing by the unit-interval factors keeps the scale at plain `half`;
    # the constant half^e difference against (t-l)^e cancels inside the rule
    w = half * wi / ((1.0 + xi) ** e_left * (1.0 - xi) ** e_right)
    return t, w


def graded_breakpoints(
    l: float,
    r: float,
    lean_left: bool = True,
    min_scale: float = 1e-15,
    n_uniform: int = 4,
) -> np.ndarray:
    """Breakpoints of [l, r] accumulating geometrically toward one endpoint.

    The first cell next to the graded endpoint has width about min_scale*(r-l);
    widths double until they reach the uniform part l + (r - l) k / n_uniform,
    which is the same whichever end is graded. The ends are l and r exactly.
    """
    if not (r > l):
        raise DegenerateInputError(f"need r > l, got [{l}, {r}]")
    width = r - l
    pts = l + width * (np.arange(n_uniform + 1) * (1.0 / n_uniform))
    pts[-1] = r
    fine = [0.5 / n_uniform]
    while fine[-1] > min_scale:
        fine.append(fine[-1] / 2.0)
    fine = width * np.asarray(fine[:-1])
    return np.unique(np.concatenate([pts, l + fine if lean_left else r - fine]))


def graded_grid(l: float, r: float, min_scale, n_uniform: int = 4) -> np.ndarray:
    """Sorted union of the breakpoints of [l, r] graded toward either end;
    min_scale is one relative scale for both ends, or a (left, right) pair."""
    sides = zip((True, False), np.broadcast_to(min_scale, 2))
    return np.unique(np.concatenate([graded_breakpoints(l, r, e, s, n_uniform) for e, s in sides]))


def piece_edges(l: float, r: float, breakpoints) -> list:
    """Edges of the smooth pieces of [l, r]: l, the breakpoints strictly
    inside in ascending order, then r."""
    return [l] + sorted(b for b in breakpoints if l < b < r) + [r]


def sqrt_left_rule(k: float, upper: float, layer: float, n_per_cell: int = 16,
                   level: int = 1):
    """Rule for integrals of the form int_k^upper g(s) (s-k)^(-1/2) ds.

    Substituting u = sqrt(s-k) removes the singularity exactly; the u range is
    subdivided into cells graded around sqrt(layer) so boundary layers of width
    `layer` above k are resolved. `level` doubles the cell count per increment.
    Returns s nodes and weights applying to g alone.
    """
    if not (upper > k):
        raise DegenerateInputError(f"need upper > k, got [{k}, {upper}]")
    u_max = np.sqrt(upper - k)
    u_layer = np.sqrt(max(layer, 1e-300))
    u_layer = min(u_layer, u_max / 4.0)
    edges = [0.0]
    u = max(u_layer * 0.5, u_max * 1e-8)
    while u < u_max:
        edges.append(u)
        u *= 2.0
    edges.append(u_max)
    edges = np.asarray(sorted(set(edges)))
    for _ in range(level - 1):
        edges = np.sort(np.concatenate([edges, 0.5 * (edges[1:] + edges[:-1])]))
    xi, wi = gauss_legendre(n_per_cell)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    u_nodes = mid + half * xi
    return (k + u_nodes**2).ravel(), (2.0 * half * wi).ravel()
