"""Poisson-type comparison kernels and the majorant integrals that dominate
the Watson kernel near r -> 1.

The chain certified here: pointwise the kernel is at most C (1 + L) with L a
single integral in s; L is dominated dyadically by scaled interval averages;
the auxiliary s-integrals stay bounded uniformly in r; and the superposition
integral behind the maximal-operator bound is finite for both signs of the
exponent. Fitted constants are reported, never asserted against any named
value; literal constants (4, 2, the regional constants of the shift bound)
are checked exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError, RegimeError
from .kernels import AbelParameter, WatsonGeometry, watson_series_matrix
from .measure import WeightedMeasure
from .polynomials import JacobiParams
from .quadrature import interval_rule, piece_edges, sqrt_left_rule

__all__ = [
    "PoissonTypeKernel",
    "DyadicMajorant",
    "poisson_mass",
    "L_majorant",
    "basic_inequality_constant",
    "dyadic_domination_constant",
    "estm_integrals",
    "estm_proof_variant",
    "kernel_shift_check",
    "mainest_integral",
    "j_operator_apply",
    "j_domination_probe",
    "sxy_inequalities_check",
]


# ---- Poisson-type kernels ---------------------------------------------------


@dataclass(frozen=True)
class PoissonTypeKernel:
    """One of the four comparison kernels on the line.

    k1 = (|x|+1)^(-3/2), k2 = (x^2+1)^(-3/2), k3 = (x^2+1)^(-1), and
    k4 = (x^2+1)^(-(1+alpha/2)). All are even, positive, and non-increasing
    in |x|; k4 is integrable exactly when its exponent 1 + alpha/2 exceeds
    1/2, i.e. alpha > -1.
    """

    tag: str
    alpha: float | None = None

    def __post_init__(self):
        if self.tag not in ("k1", "k2", "k3", "k4"):
            raise DomainError(f"unknown kernel tag {self.tag!r}")
        if self.tag == "k4":
            if self.alpha is None:
                raise DomainError("k4 needs alpha")
            if self.alpha <= -1.0:
                raise RegimeError(f"k4 integrable only for alpha > -1, got {self.alpha}")

    @property
    def exponent(self) -> float:
        if self.tag in ("k1", "k2"):
            return 1.5
        if self.tag == "k3":
            return 1.0
        return 1.0 + 0.5 * self.alpha

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.tag == "k1":
            return (np.abs(x) + 1.0) ** -1.5
        return (x * x + 1.0) ** -self.exponent

    @property
    def analytic_mass(self) -> float:
        if self.tag == "k1":
            return 4.0
        if self.tag == "k2":
            return 2.0
        if self.tag == "k3":
            return math.pi
        a = self.alpha
        return math.sqrt(math.pi) * special.gamma(0.5 * a + 0.5) / special.gamma(0.5 * a + 1.0)


def poisson_mass(tag: str, alpha: float | None = None) -> float:
    """Total integral of a comparison kernel over the line.

    The substitution x = tan(theta) maps the half line to (0, pi/2), taken on
    a 128-node rule; by evenness the mass is twice that piece. The endpoint
    behavior of the transformed integrand at pi/2 is a power of the distance
    (exponent -1/2 for k1, alpha for k4), absorbed by the rule. Folding at 0 also keeps the
    |x| kink of k1 out of the rule's interior.
    """
    if tag == "k4" and (alpha is None or alpha <= -1.0):
        raise RegimeError(f"k4 mass diverges unless alpha > -1, got {alpha}")
    kern = PoissonTypeKernel(tag, alpha)
    if tag == "k1":
        e = -0.5
    elif tag == "k4":
        e = float(alpha)
    else:
        e = 0.0
    t, w = interval_rule(0.0, 0.5 * math.pi, 128, e_left=0.0, e_right=e)
    x = np.tan(t)
    return 2.0 * float(np.dot(w, kern(x) * (1.0 + x * x)))


# ---- the L majorant ---------------------------------------------------------

# nodes per cell and grading level of the s-rule, where the caller does not
# choose them (`mainest_integral` and `j_operator_apply` do)
_S_NODES = 16
_S_LEVEL = 2


def _s_rule(ab: AbelParameter, n_per_cell: int, level: int):
    if ab.k >= 2.0:
        raise RegimeError(f"need k < 2 (r above about 0.172), got k = {ab.k}")
    return sqrt_left_rule(ab.k, 2.0, layer=ab.k_minus_1, n_per_cell=n_per_cell, level=level)


def _l_profile(p, ab, x, y, s, xw):
    """L at fixed x for an array of y, sharing one s-rule; s carries the
    (s-k)^(-1/2) weight already."""
    y = np.asarray(y, dtype=float)
    mn = np.minimum(x, y)[None, :]
    ss = s[:, None]
    g = (ss - mn) ** (1.0 - p.alpha) / (
        ((x - y[None, :]) ** 2 + (ss - 1.0) * (ss - mn)) ** 1.5
    )
    return (1.0 - ab.r) * (xw @ g)


def L_majorant(
    p: JacobiParams,
    ab: AbelParameter,
    x: float,
    y: float,
) -> float:
    """The single-integral majorant
    (1-r) int_k^2 (s-min(x,y))^(1-alpha) / ((x-y)^2 + (s-1)(s-min))^(3/2)
    (s-k)^(-1/2) ds, nonnegative, finite for k < 2."""
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"need 0 <= x <= 1, got {x}")
    if not (-1.0 <= y <= 1.0):
        raise DomainError(f"need |y| <= 1, got {y}")
    s, w = _s_rule(ab, _S_NODES, _S_LEVEL)
    return float(_l_profile(p, ab, x, np.array([y]), s, w)[0])


def basic_inequality_constant(
    p: JacobiParams,
    r_grid,
    x_grid,
    y_grid,
) -> float:
    """Fitted C with K(r,x,y) <= C (1 + L(r,x,y)) over the probe grid."""
    xs = np.asarray(x_grid, dtype=float)
    ys = np.asarray(y_grid, dtype=float)
    if np.any(xs < 0.0) or np.any(xs > 1.0):
        raise DomainError("the majorant comparison needs 0 <= x <= 1")
    worst = 0.0
    for r in np.atleast_1d(r_grid):
        ab = AbelParameter(float(r))
        s, w = _s_rule(ab, _S_NODES, _S_LEVEL)
        kmat, _, _ = watson_series_matrix(p, float(r), xs, ys)
        for i, x in enumerate(xs):
            lvals = _l_profile(p, ab, float(x), ys, s, w)
            worst = max(worst, float(np.max(kmat[i] / (1.0 + lvals))))
    return worst


@dataclass(frozen=True)
class DyadicMajorant:
    """Dyadically inflated intervals around x at the localization scale
    phi = (k-1)^(1/2) (k-x)^(1/2), with the weighted indicator sum
    sum_n 2^(-n/2) chi_{I_n} / J(I_n) that dominates L."""

    params: JacobiParams
    ab: AbelParameter
    x: float

    def __post_init__(self):
        if not (0.0 <= self.x <= 1.0):
            raise DomainError(f"need 0 <= x <= 1, got {self.x}")

    @property
    def phi(self) -> float:
        return self.ab.phi(self.x)

    @property
    def n_max(self) -> int:
        # smallest truncation whose last interval already covers [-1, 1]
        reach = max(self.x + 1.0, 1.0 - self.x)
        return max(0, int(math.ceil(math.log2(max(reach, 1e-300) / self.phi))))

    @property
    def intervals(self) -> tuple:
        out = []
        for n in range(self.n_max + 1):
            h = 2.0**n * self.phi
            out.append((max(self.x - h, -1.0), min(self.x + h, 1.0)))
        return tuple(out)

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        m = WeightedMeasure.jacobi(self.params.alpha, self.params.beta)
        out = np.zeros_like(y)
        for n, (l, r) in enumerate(self.intervals):
            mass = m.interval_mass_exact(l, r)
            inside = (y >= l) & (y <= r)
            out = out + 2.0 ** (-0.5 * n) / mass * inside
        return out


def dyadic_domination_constant(
    p: JacobiParams,
    r_grid,
    x_grid,
    y_grid,
) -> float:
    """Fitted C with L <= C sum_n 2^(-n/2) chi_{I_n} / J(I_n) on the grid."""
    ys = np.asarray(y_grid, dtype=float)
    worst = 0.0
    for r in np.atleast_1d(r_grid):
        ab = AbelParameter(float(r))
        s, w = _s_rule(ab, _S_NODES, _S_LEVEL)
        for x in np.atleast_1d(x_grid):
            maj = DyadicMajorant(p, ab, float(x))
            lvals = _l_profile(p, ab, float(x), ys, s, w)
            worst = max(worst, float(np.max(lvals / maj(ys))))
    return worst


# ---- bounded auxiliary integrals -------------------------------------------


def estm_integrals(ab: AbelParameter, x: float) -> tuple:
    """The two windowed integrals
    (1-r) int_k^2 (s-k)^(-1/2) (s-x)^(-1/2) ds and
    (1-r) int_k^2 (s-k)^(-1/2) (s-1)^(-1/2) (s-x)^(-1/2) ds,
    bounded uniformly as r -> 1 for 0 <= x <= 1."""
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"need 0 <= x <= 1, got {x}")
    s, w = _s_rule(ab, _S_NODES, _S_LEVEL)
    pre = 1.0 - ab.r
    v1 = pre * float(np.dot(w, (s - x) ** -0.5))
    v2 = pre * float(np.dot(w, ((s - 1.0) * (s - x)) ** -0.5))
    return v1, v2


def estm_proof_variant(ab: AbelParameter) -> float:
    """(k-1)^(1/2) int_k^2 (s-k)^(-1/2) (s-1)^(-1) ds, the quantity the
    integration-by-parts argument actually bounds; also uniformly bounded."""
    s, w = _s_rule(ab, _S_NODES, _S_LEVEL)
    return math.sqrt(ab.k_minus_1) * float(np.dot(w, (s - 1.0) ** -1.0))


def kernel_shift_check(eta: float, a_grid=None) -> dict:
    """Shift stability of the Poisson tail: for |a| < 1,
    (z^2+1)^eta / ((z+a)^2+1)^eta is at most (9/4)^eta when |z| > 3 and at
    most 10^eta when |z| <= 3. Checked exactly on the shift grid and 2001
    points z in [-10, 10]."""
    if eta <= 1.0:
        raise DomainError(f"need eta > 1, got {eta}")
    if a_grid is None:
        a_grid = np.linspace(-0.99, 0.99, 199)
    z = np.linspace(-10.0, 10.0, 2001)
    a = np.asarray(a_grid, dtype=float)
    if np.any(np.abs(a) >= 1.0):
        raise DomainError("shift grid must satisfy |a| < 1")
    a = a[a != 0.0]
    ratio = ((z[:, None] ** 2 + 1.0) / ((z[:, None] + a[None, :]) ** 2 + 1.0)) ** eta
    far = np.abs(z) > 3.0
    worst_far = float(np.max(ratio[far]))
    worst_near = float(np.max(ratio[~far]))
    bound_far = 2.25**eta
    bound_near = 10.0**eta
    return {
        "eta": eta,
        "worst_far": worst_far,
        "bound_far": bound_far,
        "worst_near": worst_near,
        "bound_near": bound_near,
        "holds": worst_far <= bound_far and worst_near <= bound_near,
    }


# ---- the superposition integral and the averaging operators ---------------


def _alpha_side_integral(
    p: JacobiParams,
    ab: AbelParameter,
    f,
    x: float,
    n_y: int,
    n_s: int,
    level: int,
) -> float:
    """int_0^1 L(r,x,y) (1-y)^alpha f(y) dy: the measure (1-y)^alpha dy on
    [0, 1], split at y = x, carries the endpoint factor in its weights."""
    s, w = _s_rule(ab, n_s, level)
    m = WeightedMeasure.product(((1.0, p.alpha),), (0.0, 1.0))
    y, wy = m.cell_rules(piece_edges(0.0, 1.0, (x,)), n_y)
    return float(np.dot(wy, _l_profile(p, ab, x, y, s, w) * f(y)))


def mainest_integral(
    p: JacobiParams,
    ab: AbelParameter,
    x: float,
    n_y: int = 48,
    n_s: int = 16,
    level: int = 2,
) -> float:
    """The double integral
    int_0^1 (1-r) int_k^2 (s-min(x,y))^(1-alpha)
    / ((x-y)^2 + (s-1)(s-min))^(3/2) (s-k)^(-1/2) ds (1-y)^alpha dy,
    finite for every alpha > -1 and bounded as r -> 1."""
    if not (0.0 <= x < 1.0):
        raise DomainError(f"need 0 <= x < 1, got {x}")
    return _alpha_side_integral(p, ab, lambda y: np.ones_like(y), x, n_y, n_s, level)


def j_operator_apply(
    p: JacobiParams,
    ab: AbelParameter,
    f,
    x: float,
    side: str = "alpha",
    n_y: int = 48,
    n_s: int = 16,
    level: int = 2,
) -> float:
    """Averaging operator with the L majorant: the alpha side integrates
    L (1-y)^alpha f over [0,1] at x in [0,1]; the beta side is its mirror
    under (x, y) -> (-x, -y) with the roles of the exponents exchanged,
    integrating L~ (1+y)^beta f over [-1,0] at x in [-1,0]."""
    if side == "alpha":
        if not (0.0 <= x < 1.0):
            raise DomainError(f"alpha side needs x in [0,1), got {x}")
        return _alpha_side_integral(p, ab, f, x, n_y, n_s, level)
    if side != "beta":
        raise DomainError(f"side must be 'alpha' or 'beta', got {side!r}")
    if not (-1.0 < x <= 0.0):
        raise DomainError(f"beta side needs x in (-1,0], got {x}")
    mirrored = JacobiParams(p.beta, p.alpha)
    return _alpha_side_integral(mirrored, ab, lambda y: f(-y), -x, n_y, n_s, level)


def j_domination_probe(
    p: JacobiParams,
    f,
    r_grid,
    x_grid,
    n_y: int = 48,
    n_s: int = 16,
    level: int = 2,
) -> float:
    """Worst ratio of the alpha-side averaging operator against the measure
    maximal function over the grid; finite ratios certify pointwise domination.
    Points where the maximal function vanishes are skipped."""
    from .harmonic import hl_maximal

    m = WeightedMeasure.jacobi(p.alpha, p.beta)
    xs = np.atleast_1d(np.asarray(x_grid, dtype=float))
    fstar = np.atleast_1d(hl_maximal(m, f, xs))
    tiny = 1e-14 * max(1.0, float(np.max(fstar)))
    worst = 0.0
    for r in np.atleast_1d(r_grid):
        ab = AbelParameter(float(r))
        for x, fs in zip(xs, fstar):
            if fs <= tiny:
                continue
            val = j_operator_apply(p, ab, f, float(x), "alpha", n_y, n_s, level)
            worst = max(worst, val / fs)
    return worst


# ---- the s-x-y comparison inequalities -------------------------------------


def sxy_inequalities_check(n: int = 40, r_points: int = 24) -> dict:
    """Checks the comparison inequalities behind the majorant bound on a
    grid of (s, x, y) in [1,2] x [0,1] x [-1,1] plus an r grid for the
    localization items.

    Items with explicit constants (4; 2 and 4; the lower bounds in the
    geometric comparisons; the phi bracket; the lower (1-r)^2 rate) are
    verified exactly; the remaining comparability constants are fitted and
    reported. Degenerate 0/0 corners are excluded.
    """
    s = np.linspace(1.0, 2.0, n)[:, None, None]
    x = np.linspace(0.0, 1.0, n)[None, :, None]
    y = np.linspace(-1.0, 1.0, n)[None, None, :]
    mn = np.minimum(x, y) + 0.0 * s
    mx = np.maximum(x, y) + 0.0 * s
    s2 = s * s
    geo = WatsonGeometry(s, x, y)
    y2, z1, z2 = geo.Y2, geo.Z1, geo.Z2
    report: dict = {}

    def _sup_ratio(num, den):
        ok = den > 0.0
        return float(np.max(num[ok] / den[ok]))

    def _inf_ratio(num, den):
        ok = den > 0.0
        return float(np.min(num[ok] / den[ok]))

    w = _sup_ratio(s2 - mn, 4.0 * (s - mn))
    report["i"] = {"constant": 4.0, "worst": w, "holds": w <= 1.0}

    w1 = _sup_ratio(s - mn, 2.0 * (s - x * y))
    w2 = _sup_ratio(2.0 * (s - x * y), 4.0 * (s - mn))
    report["ii"] = {
        "constants": (2.0, 4.0),
        "worst": max(w1, w2),
        "holds": w1 <= 1.0 and w2 <= 1.0,
    }

    base = (x - y) ** 2 + (s - 1.0) * (s - mn)
    report["iii"] = {
        "C1_fit": _inf_ratio(y2, base),
        "C2_fit": _sup_ratio(y2, base),
    }

    lower = _sup_ratio(s2 - mn, z1)
    report["iv"] = {
        "lower_holds": lower <= 1.0 + 1e-12,
        "lower_worst": lower,
        "C_fit": _sup_ratio(z1, s2 - mn),
    }

    chain = s2 + mx
    w_chain = _sup_ratio(chain, z2)
    report["v"] = {
        "lower_holds": float(np.min(chain)) >= 1.0 and w_chain <= 1.0 + 1e-12,
        "min_chain": float(np.min(chain)),
        "chain_worst": w_chain,
        "C_fit": float(np.max(z2)),
    }

    rs = 1.0 - 2.0 ** (-np.linspace(1.0, 12.0, r_points))
    km1 = np.array([AbelParameter(float(r)).k_minus_1 for r in rs])
    xs = np.linspace(0.0, 1.0, n)
    # k - x assembled as (k-1) + (1-x): no cancellation when both are tiny
    kmx = km1[:, None] + (1.0 - xs)[None, :]
    phi = np.sqrt(km1[:, None]) * np.sqrt(kmx)
    lo_ok = bool(np.all(phi >= km1[:, None] * (1.0 - 1e-14)))
    hi_ok = bool(np.all(phi <= kmx * (1.0 + 1e-14)))
    report["vi"] = {"holds": lo_ok and hi_ok}

    rate = km1 / (1.0 - rs) ** 2
    upper = km1 / (1.0 - rs * rs)
    report["vii"] = {
        "lower_constant": 0.125,
        "lower_holds": bool(np.all(rate >= 0.125)),
        "rate_range": (float(np.min(rate)), float(np.max(rate))),
        "rate_limit": float(rate[-1]),
        "C2_fit": float(np.max(upper)),
    }

    hard = [
        report["i"]["holds"],
        report["ii"]["holds"],
        report["iv"]["lower_holds"],
        report["v"]["lower_holds"],
        report["vi"]["holds"],
        report["vii"]["lower_holds"],
    ]
    report["holds"] = all(hard)
    return report
