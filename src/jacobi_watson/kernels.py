"""The summability kernel in three representations.

K(r, x, y) = sum_n r^n P_n(x) P_n(y) / h_n is computed by (1) direct series
summation with a certified tail bound, streamed through the blocked
recurrence so that memory does not grow with the number of terms, (2) the
closed form through the fourth Appell hypergeometric function, valid and
manifestly nonnegative inside its convergence region, and (3) an
oscillatory-free integral representation differentiated in r. The three
routes are independent and cross-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    RegimeError,
    RegionError,
    SingularEvaluationError,
)
from .polynomials import (
    JacobiParams,
    _FULL_BLOCK_POINTS,
    _growth_constant,
    _half_weight,
    _jacobi_blocks,
    _norm_ratio,
    jacobi_norm,
    jacobi_norm_sequence,
)
from .measure import WeightedMeasure, _power_product
from .quadrature import graded_grid, interval_rule, piece_edges, sqrt_left_rule

__all__ = [
    "AbelParameter",
    "BaileyArguments",
    "KernelEval",
    "WatsonGeometry",
    "appell_f4",
    "kernel_mass",
    "modified_watson_kernel",
    "watson_kernel",
    "watson_kernel_bailey",
    "watson_kernel_integral",
    "watson_kernel_series",
    "watson_series_matrix",
]

_BAILEY_MARGIN = 0.05
# relative tolerance of the closed form's F4 sum
_BAILEY_TOL = 1e-12
# caps on the series truncation length, of the scalar series and its pairs and
# of the matrix; a shared cap would change which calls raise at extreme exponents
_SERIES_MAX_TERMS = 100000
_MATRIX_MAX_TERMS = 200000
# anti-diagonals the F4 sum may take before it is declared stalled
_F4_MAX_DIAGONALS = 20000
# nodes per kernel cell, and the first cell's width in units of phi
_CELL_NODES, _CELL_SCALE = 12, 0.05
_growth_cache: dict = {}


def _growth_sq(p: JacobiParams) -> float:
    key = (p.alpha, p.beta)
    if key not in _growth_cache:
        _growth_cache[key] = _growth_constant(p) ** 2
    return _growth_cache[key]


@dataclass(frozen=True)
class AbelParameter:
    """Abel radius r in (0, 1) with the derived quantity k = (r^0.5 + r^-0.5)/2."""

    r: float

    def __post_init__(self):
        if not (0.0 < self.r < 1.0):
            raise DomainError(f"need 0 < r < 1, got r = {self.r}")

    @property
    def k(self) -> float:
        s = math.sqrt(self.r)
        return 0.5 * (s + 1.0 / s)

    @property
    def k_minus_1(self) -> float:
        """k - 1 = (1 - sqrt(r))^2 / (2 sqrt(r)), free of cancellation."""
        s = math.sqrt(self.r)
        return (1.0 - s) ** 2 / (2.0 * s)

    @property
    def fd_step(self) -> float:
        """Step for central differencing in r."""
        return max(1e-5, (1.0 - self.r) * 1e-3)

    def phi(self, x: float) -> float:
        """phi(x, r) = sqrt(k-1) sqrt(k-x), the localization scale at x seen
        from +1 (it shrinks to k - 1 at x = 1 only); phi(|x|) is the nearer end's."""
        if x > self.k:
            raise DomainError(f"need x <= k = {self.k}, got x = {x}")
        return math.sqrt(self.k_minus_1) * math.sqrt(self.k - x)


@dataclass(frozen=True)
class WatsonGeometry:
    """The quantities Y, Z1, Z2 entering the integral representation.

    s, x, y may be scalars or arrays that broadcast together; the derived
    fields are computed once, at construction, with the broadcast shape
    (plain floats when every input is a scalar). Y2 is Y^2 before the clamp
    at zero and the square root.
    """

    s: float
    x: float
    y: float
    Y2: float = field(init=False, repr=False, compare=False)
    Y: float = field(init=False, repr=False, compare=False)
    Z1: float = field(init=False, repr=False, compare=False)
    Z2: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        s2 = self.s * self.s
        y2 = (0.5 * (self.x - self.y)) ** 2 + (s2 - 1.0) * (s2 - self.x * self.y)
        geo = np.sqrt(np.maximum(y2, 0.0))
        mid = 0.5 * (self.x + self.y)
        for name, val in zip(("Y2", "Y", "Z1", "Z2"), (y2, geo, s2 - mid + geo, s2 + mid + geo)):
            object.__setattr__(self, name, float(val) if np.ndim(val) == 0 else val)


@dataclass(frozen=True)
class BaileyArguments:
    """Arguments of the F4 closed form at a point pair (x, y)."""

    a: float
    b: float
    k: float

    @classmethod
    def from_points(cls, ab: AbelParameter, x: float, y: float) -> "BaileyArguments":
        if not (-1.0 <= x <= 1.0 and -1.0 <= y <= 1.0):
            raise DomainError(f"need x, y in [-1, 1], got ({x}, {y})")
        a = 0.5 * math.sqrt((1.0 - x) * (1.0 - y))
        b = 0.5 * math.sqrt((1.0 + x) * (1.0 + y))
        return cls(a=a, b=b, k=ab.k)

    @property
    def first(self) -> float:
        return (self.a / self.k) ** 2

    @property
    def second(self) -> float:
        return (self.b / self.k) ** 2

    @property
    def margin(self) -> float:
        """1 - (a+b)/k; the closed form converges iff this is positive."""
        return 1.0 - (self.a + self.b) / self.k


@dataclass(frozen=True)
class KernelEval:
    """A kernel value with its provenance and an error estimate."""

    value: float
    method: str
    terms: int
    error_estimate: float


def _series_budget(p: JacobiParams, r: float, tol_abs: float, max_terms: int):
    """Smallest truncation length whose certified tail bound is below tol_abs.

    The bound uses sup |P_n| <= C n^(q_eff + 1/2) with q_eff = max(q, -1/2) and
    the exact norm recurrence; the tail is closed geometrically once the term
    ratio has settled below 1.
    """
    q_eff = max(p.q, -0.5)
    c2 = _growth_sq(p)
    h = jacobi_norm(p, 1)
    bound = c2 * r / h
    n = 1
    while n < max_terms:
        rho = r * ((n + 1.0) / n) ** (2.0 * q_eff + 1.0) / _norm_ratio(p, n)
        next_bound = bound * rho
        if rho < 0.995 and next_bound / (1.0 - rho) < tol_abs:
            return n, next_bound / (1.0 - rho)
        bound = next_bound
        n += 1
    raise ConvergenceError(
        "series tail bound did not reach the tolerance",
        r=r,
        tol_abs=tol_abs,
        max_terms=max_terms,
        last_bound=bound,
    )


def watson_kernel_series(
    p: JacobiParams,
    ab: AbelParameter,
    x: float,
    y: float,
    tol: float = 1e-10,
) -> KernelEval:
    """Direct summation of sum_n r^n P_n(x) P_n(y) / h_n with a certified tail."""
    values, n_terms, tail = _series_pairs(p, ab.r, x, y, tol)
    return KernelEval(value=values[0], method="series", terms=n_terms, error_estimate=tail)


def _series_pairs(p: JacobiParams, r: float, x, y, tol: float = 1e-10):
    """Series kernel K(r, x_i, y_i) for each pair of the broadcast x and y.

    All pairs share one certified truncation. They run in chunks of at most
    _PAIR_CHUNK pairs, each one streamed pass (`_series_contract`), so every
    chunk gets the same blocks of degrees and a batch gives the same bits as
    one-pair calls. Returns (values, n_terms, tail_bound).
    """
    x, y = np.broadcast_arrays(*_series_points(x, y))
    scale = max(1.0, 1.0 / jacobi_norm(p, 0))
    n_terms, tail = _series_budget(p, r, tol * scale, _SERIES_MAX_TERMS)
    values = []
    for lo in range(0, x.size, _PAIR_CHUNK):
        c = slice(lo, lo + _PAIR_CHUNK)
        values += _series_contract(p, r, n_terms, x[c], y[c], pairs=True).tolist()
    return values, n_terms, tail


def watson_series_matrix(
    p: JacobiParams,
    r: float,
    x,
    y,
    tol_abs: float = 1e-12,
):
    """Kernel matrix K(r, x_i, y_j) by one streamed truncated-series contraction.

    Returns (matrix, n_terms, tail_bound). The truncation length comes from
    the same certified tail bound as the scalar series. Memory is the matrix
    plus one block of recurrence rows, whatever the number of terms.
    """
    if not (0.0 < r < 1.0):
        raise DomainError(f"need 0 < r < 1, got r = {r}")
    x, y = _series_points(x, y)
    n_terms, tail = _series_budget(p, r, tol_abs, _MATRIX_MAX_TERMS)
    return _series_contract(p, r, n_terms, x, y, pairs=False), n_terms, tail


# pairs per streamed pass of `_series_pairs`: each pass has at most
# _FULL_BLOCK_POINTS points, so the block size never follows the batch
_PAIR_CHUNK = _FULL_BLOCK_POINTS // 2


def _series_points(x, y):
    """x and y as 1-d float arrays, after the one domain check of the series
    routes: every point must be a number in [-1, 1], so nan and +-inf fail."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    for v in (x, y):
        outside = ~(np.abs(v) <= 1.0)
        if outside.any():
            raise DomainError(f"need x, y in [-1, 1], got {v[np.argmax(outside)]}")
    return x, y


def _series_contract(p: JacobiParams, r: float, n_terms: int, x, y, pairs: bool):
    """sum_(n <= n_terms) w_n P_n(x) P_n(y), w_n = r^n / h_n, in one pass.

    One `_jacobi_blocks` pass over x and y together; each block of degrees
    adds (Tx_b w_b)^T Ty_b to the matrix K(x_i, y_j), or, for pairs, the
    row-wise products summed per pair (each pair's block reduced as one
    contiguous row, so its bits do not depend on the other pairs).
    """
    w = r ** np.arange(n_terms + 1) / jacobi_norm_sequence(p, n_terms)
    acc = np.zeros(x.size if pairs else (x.size, y.size))
    for s, block in _jacobi_blocks(p, n_terms, np.concatenate([x, y])):
        tx = block[:, : x.size] * w[s : s + block.shape[0], None]
        ty = block[:, x.size :]
        if pairs:
            acc += np.ascontiguousarray((tx * ty).T).sum(axis=1)
        else:
            acc += tx.T @ ty
    return acc


def appell_f4(
    a1: float,
    a2: float,
    c1: float,
    c2: float,
    x: float,
    y: float,
    tol: float = 1e-14,
) -> float:
    """F4(a1, a2; c1, c2; x, y) summed by anti-diagonals.

    Convergence requires sqrt|x| + sqrt|y| < 1. Within one anti-diagonal the
    terms follow a two-term Pochhammer ratio; summation stops after three
    consecutive anti-diagonal sums fall below tol times the running total.
    """
    if c1 <= 0.0 or c2 <= 0.0:
        raise DomainError(f"need c1, c2 > 0, got ({c1}, {c2})")
    if math.sqrt(abs(x)) + math.sqrt(abs(y)) >= 1.0:
        raise RegionError(
            f"F4 diverges: sqrt|x| + sqrt|y| = {math.sqrt(abs(x)) + math.sqrt(abs(y))} >= 1"
        )
    if x == 0.0 and y == 0.0:
        return 1.0
    if x == 0.0 or y == 0.0:
        # one-variable reduction: a Gauss series in the surviving argument
        z, c = (y, c2) if x == 0.0 else (x, c1)
        term, total = 1.0, 1.0
        for n in range(1, _F4_MAX_DIAGONALS):
            term *= (a1 + n - 1.0) * (a2 + n - 1.0) * z / (n * (c + n - 1.0))
            total += term
            if abs(term) < tol * abs(total):
                return total
        raise ConvergenceError("one-variable F4 series stalled", x=x, y=y)
    total = 1.0
    lead = 1.0  # term at m = 0 on the current anti-diagonal
    small = 0
    for d in range(1, _F4_MAX_DIAGONALS + 1):
        lead *= (a1 + d - 1.0) * (a2 + d - 1.0) * y / (d * (c2 + d - 1.0))
        m = np.arange(d, dtype=float)
        ratios = (x / y) * (d - m) * (c2 + d - m - 1.0) / ((m + 1.0) * (c1 + m))
        terms = lead * np.concatenate(([1.0], np.cumprod(ratios)))
        s_d = float(np.sum(terms))
        if not math.isfinite(s_d):
            raise ConvergenceError("F4 anti-diagonal sum overflowed", x=x, y=y, diagonal=d)
        total += s_d
        if abs(s_d) < tol * abs(total):
            small += 1
            if small >= 3:
                return total
        else:
            small = 0
    raise ConvergenceError(
        "F4 anti-diagonal sums did not settle",
        x=x,
        y=y,
        diagonals=_F4_MAX_DIAGONALS,
        last_sum=s_d,
    )


def _bailey_prefactor(p: JacobiParams, r: float) -> float:
    a, b = p.alpha, p.beta
    return (
        math.gamma(a + b + 2.0)
        * (1.0 - r)
        / (2.0 ** (a + b + 1.0) * math.gamma(a + 1.0) * math.gamma(b + 1.0)
           * (1.0 + r) ** (a + b + 2.0))
    )


def watson_kernel_bailey(
    p: JacobiParams,
    ab: AbelParameter,
    x: float,
    y: float,
) -> KernelEval:
    """Closed form: prefactor times F4 evaluated at ((a/k)^2, (b/k)^2).

    Every factor is positive, so the kernel is manifestly nonnegative wherever
    this representation converges, that is when (a + b)/k < 1.
    """
    args = BaileyArguments.from_points(ab, x, y)
    if args.margin <= 0.0:
        raise RegionError(
            f"closed form diverges at (x, y) = ({x}, {y}): margin = {args.margin}"
        )
    pref = _bailey_prefactor(p, ab.r)
    a, b = p.alpha, p.beta
    f4 = appell_f4(
        0.5 * (a + b + 2.0),
        0.5 * (a + b + 3.0),
        a + 1.0,
        b + 1.0,
        args.first,
        args.second,
        tol=_BAILEY_TOL,
    )
    # diagonal count heuristic mirrors the F4 stopping rule
    decay = 1.0 - args.margin
    est_terms = 4
    if 1e-12 < decay < 1.0:
        est_terms = max(4, int(math.log(_BAILEY_TOL) / math.log(decay)))
    return KernelEval(
        value=pref * f4,
        method="bailey",
        terms=est_terms,
        error_estimate=_BAILEY_TOL * abs(pref * f4),
    )


def _omega_integral(p: JacobiParams, k: float, x: float, y: float) -> float:
    """The inner integral over s = k sec(omega), endpoint behavior absorbed."""
    a, b = p.alpha, p.beta
    power = 2.0 + a + b
    dz = a - b

    def factor(s, root):
        # shared integrand; each part passes the square-root factor it divides by
        g = WatsonGeometry(s, x, y)
        ang = np.arccos(np.clip(k / s, -1.0, 1.0))
        return (
            (s / k) ** power
            * np.cos(dz * ang)
            / (g.Z1**a * g.Z2**b * g.Y)
            * k
            / (s * root)
        )

    # near part: s in [k, k+1], 1/sqrt(s-k) handled by the substitution rule
    s1, w1 = sqrt_left_rule(k, k + 1.0, layer=max(k - 1.0, 1e-14))
    near = float(np.dot(w1, factor(s1, np.sqrt(s1 + k))))
    # far part: s = k + 1/v^2 ... use v = 1/s with endpoint exponent a+b
    def far_integrand(v):
        s = 1.0 / v
        return factor(s, np.sqrt(s * s - k * k)) / (v * v)

    v_nodes, v_weights = interval_rule(0.0, 1.0 / (k + 1.0), 48, e_left=a + b)
    far = float(np.dot(v_weights, far_integrand(v_nodes)))
    return near + far


def watson_kernel_integral(
    p: JacobiParams, ab: AbelParameter, x: float, y: float
) -> KernelEval:
    """Integral representation differentiated in r by a central difference.

    K = r^((1-a-b)/2) d/dr [ k^(1+a+b) * Omega(r) ], where Omega integrates a
    positive algebraic expression over s >= k. Convergent only for a + b > -1.
    """
    a, b = p.alpha, p.beta
    if a + b <= -1.0:
        raise RegimeError(
            f"integral representation diverges for alpha + beta = {a + b} <= -1"
        )
    if not (-1.0 <= x <= 1.0 and -1.0 <= y <= 1.0):
        raise DomainError(f"need x, y in [-1, 1], got ({x}, {y})")
    r = ab.r
    h = ab.fd_step
    if r + h >= 1.0:
        h = 0.5 * (1.0 - r)

    def g(rr: float) -> float:
        s = math.sqrt(rr)
        k = 0.5 * (s + 1.0 / s)
        return k ** (1.0 + a + b) * _omega_integral(p, k, x, y)

    deriv = (g(r + h) - g(r - h)) / (2.0 * h)
    # the 1/pi normalization makes this route agree with the series route
    value = r ** (0.5 * (1.0 - a - b)) * deriv / math.pi
    # second difference at doubled step as the error gauge
    deriv2 = (g(r + 2.0 * h) - g(r - 2.0 * h)) / (4.0 * h) if r + 2.0 * h < 1.0 else deriv
    err = abs(value - r ** (0.5 * (1.0 - a - b)) * deriv2 / math.pi)
    return KernelEval(value=value, method="integral", terms=0, error_estimate=err)


def watson_kernel(
    p: JacobiParams,
    ab: AbelParameter,
    x: float,
    y: float,
) -> KernelEval:
    """Best-route dispatch: closed form inside its region unless F4 overflows, else series."""
    args = BaileyArguments.from_points(ab, x, y)
    if args.margin > _BAILEY_MARGIN:
        try:
            return watson_kernel_bailey(p, ab, x, y)
        except ConvergenceError:
            pass
    return watson_kernel_series(p, ab, x, y)


def modified_watson_kernel(
    p: JacobiParams, ab: AbelParameter, x: float, y: float
) -> float:
    """K(r,x,y) (1-x)^(a/2) (1+x)^(b/2) (1-y)^(a/2) (1+y)^(b/2).

    This kernel reproduces Abel means of expansions in the Jacobi functions
    F_n through plain Lebesgue integration.
    """
    for t in (x, y):
        if p.alpha < 0.0 and t >= 1.0:
            raise SingularEvaluationError("modified kernel singular at x = 1 for alpha < 0")
        if p.beta < 0.0 and t <= -1.0:
            raise SingularEvaluationError("modified kernel singular at x = -1 for beta < 0")
    base = watson_kernel(p, ab, x, y).value
    return base * (_half_weight(p, x) * _half_weight(p, y))


def _kernel_edges(ab: AbelParameter, xs, breakpoints) -> np.ndarray:
    """Cell edges of [-1, 1] for integrals of K(r, x, .) at each x of xs.

    Each piece between consecutive points of -1, 1, the xs and the
    breakpoints is graded toward both ends (`graded_grid`) from a first cell
    _CELL_SCALE phi(|e|) wide at an end e, phi on the side of the nearer of
    +-1, and inside (-1, 1) at most _CELL_SCALE (1 - |e|), so that the cells
    toward a point near a singular end stay clear of it. As phi >= k - 1, a
    piece of width w has at most 4 + 2 log2(5 w / (k - 1)) cells when no end
    lies within k - 1 of +-1.
    """
    ends = np.unique(piece_edges(-1.0, 1.0, [*np.ravel(xs), *breakpoints]))
    # no distance cap at +-1 itself, whose cells absorb the endpoint powers
    s = [_CELL_SCALE * min(ab.phi(abs(e)), (1.0 - abs(e)) or math.inf) for e in ends]
    return np.unique(np.concatenate([
        graded_grid(lo, hi, (s_lo / (hi - lo), s_hi / (hi - lo)))
        for lo, hi, s_lo, s_hi in zip(ends[:-1], ends[1:], s[:-1], s[1:])
    ]))


def _absorbing_rule(p: JacobiParams, exponents, rule, *args):
    """rule(m, *args) on m = jacobi(a + er, b + el), weights divided by (1-y)^er (1+y)^el:
    sum w f ~ int f dJ absorbs f's declared (el, er). With none, J's rule untouched:
    bitwise equal to the rule of jacobi(a, b), not the cached arrays themselves."""
    el, er = exponents
    y, w = rule(WeightedMeasure.jacobi(p.alpha + er, p.beta + el), *args)
    if el == 0.0 and er == 0.0:
        return y, w
    return y, w / _power_product(((1.0, er), (-1.0, el)), y)


def _kernel_cells(p: JacobiParams, ab: AbelParameter, xs, breakpoints, exponents=(0.0, 0.0)):
    """The rule for int K(r, x, y) f(y) dJ(y) at each x of xs, f smooth between
    its breakpoints: _CELL_NODES nodes per `_kernel_edges` cell (`_absorbing_rule`)."""
    edges = _kernel_edges(ab, xs, breakpoints)
    return _absorbing_rule(p, exponents, WeightedMeasure.cell_rules, edges, _CELL_NODES)


def kernel_mass(p: JacobiParams, ab: AbelParameter, x: float) -> float:
    """Integral of K(r, x, .) against the Jacobi measure on the kernel cells at
    x (`_kernel_cells`); the exact value is 1."""
    y, w = _kernel_cells(p, ab, [x], ())
    row, _, _ = watson_series_matrix(p, ab.r, np.array([x]), y, tol_abs=1e-13)
    return float(np.dot(w, row[0]))
