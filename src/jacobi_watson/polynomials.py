"""Jacobi polynomials, their norms, Jacobi functions, and Gauss-Jacobi quadrature.

The polynomials P_n are normalized so that P_n(1) = C(n+alpha, n). Everything
downstream (kernels, expansions, maximal functions) is built on the evaluation
table produced here and on the quadrature rules. The three-term recurrence
lives only in `_jacobi_rows` and the norm ratio h_{n+1}/h_n only in
`_norm_ratio`; every other module calls them. `_jacobi_blocks` is a view over
the one recurrence that stacks its rows into blocks of degrees, so weighted
sums run as one matrix product per block instead of one axpy per degree. On
a single point the recurrence runs its steps on Python floats, bitwise the
array steps, so its cost is the arithmetic rather than per-call overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, RegimeError, SingularEvaluationError
from .quadrature import _gauss_jacobi_nodes

__all__ = [
    "JacobiParams",
    "QuadratureRule",
    "binomial_real",
    "gauss_jacobi_rule",
    "growth_bound_probe",
    "jacobi_eval",
    "jacobi_eval_table",
    "jacobi_function_eval",
    "jacobi_norm",
    "jacobi_norm_sequence",
    "jacobi_weighted_sum",
]


@dataclass(frozen=True)
class JacobiParams:
    """Exponent pair of the weight (1-x)^alpha (1+x)^beta on [-1, 1]."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > -1.0 and self.beta > -1.0):
            raise DomainError(
                f"need alpha > -1 and beta > -1, got ({self.alpha}, {self.beta})"
            )

    @property
    def q(self) -> float:
        """max(alpha, beta), the exponent controlling sup-norm growth of P_n."""
        return max(self.alpha, self.beta)

    def weight(self, x):
        """Density (1-x)^alpha (1+x)^beta of the measure J(dx)."""
        x = np.asarray(x, dtype=float)
        return (1.0 - x) ** self.alpha * (1.0 + x) ** self.beta


def binomial_real(top: float, n: int) -> float:
    """Generalized binomial coefficient C(top, n) for real top > -1 + n... safe range."""
    if n < 0:
        raise DomainError(f"need n >= 0, got {n}")
    return math.exp(
        math.lgamma(top + 1.0) - math.lgamma(top - n + 1.0) - math.lgamma(n + 1.0)
    )


def _jacobi_rows(p: JacobiParams, n_max: int, x: np.ndarray):
    """Yield P_0(x), P_1(x), ..., P_{n_max}(x) by the three-term recurrence.

    This is the library's one copy of the recurrence: tables, single
    evaluations, weighted sums and coefficient projections all consume it.
    The recurrence coefficients are nonzero for n >= 2 whenever
    alpha, beta > -1; n = 1 uses the explicit linear polynomial, so the
    alpha+beta = 0 degeneracy never divides by zero.

    Every step is ((c1 + c2*x)*cur - c3*prev)/c0 in that order, with c0..c3
    from `_recurrence_steps`. On several points each step runs as six ufunc
    calls into one of three rotating buffers, so a yielded row is valid only
    until the next-but-one step overwrites it: consume or copy it before
    then. On one point the same steps run on Python floats
    (`_float_column`), whose arithmetic is the same IEEE double arithmetic
    without the per-call overhead, and the rows are views of one column:
    bitwise the rows the array steps give.
    """
    if x.size == 1:
        yield from _float_column(p, n_max, x).reshape((-1,) + x.shape)
        return
    a, b = p.alpha, p.beta
    cur = 0.5 * (a - b) + 0.5 * (a + b + 2.0) * x
    steps = _recurrence_steps(a, b, n_max)
    prev = np.ones_like(x)
    yield prev
    if n_max < 1:
        return
    yield cur
    nxt = np.empty_like(cur)
    for c0, c1, c2, c3 in steps:
        np.multiply(x, c2, out=nxt)
        np.add(nxt, c1, out=nxt)
        np.multiply(nxt, cur, out=nxt)
        np.multiply(prev, c3, out=prev)
        np.subtract(nxt, prev, out=nxt)
        np.divide(nxt, c0, out=nxt)
        prev, cur, nxt = cur, nxt, prev
        yield cur


def _float_column(p: JacobiParams, n_max: int, x: np.ndarray) -> np.ndarray:
    """P_0(t), ..., P_{n_max}(t) at the one point t of x, as a new 1-d array.

    The steps of `_jacobi_rows` on Python floats: the same IEEE double
    arithmetic in the same order, so bitwise the array rows.
    """
    a, b = p.alpha, p.beta
    t = x.item()
    prev, cur = 1.0, (0.5 * (a - b) + 0.5 * (a + b + 2.0) * x).item()
    col = [prev, cur]
    for c0, c1, c2, c3 in _recurrence_steps(a, b, n_max):
        prev, cur = cur, ((t * c2 + c1) * cur - prev * c3) / c0
        col.append(cur)
    return np.array(col if n_max >= 1 else col[:1])


# degrees whose recurrence coefficients `_recurrence_steps` forms at once
_STEP_CHUNK = 4096


def _recurrence_steps(a: float, b: float, n_max: int):
    """Yield (c0, c1, c2, c3) of the steps to degrees n = 2..n_max.

    One array expression per coefficient, evaluated over chunks of degrees
    and handed out as Python floats: elementwise, so each value is bitwise
    the scalar expression at its degree, while memory stays bounded.
    """
    for lo in range(2, n_max + 1, _STEP_CHUNK):
        n = np.arange(lo, min(lo + _STEP_CHUNK, n_max + 1), dtype=float)
        yield from zip(
            (2.0 * n * (n + a + b) * (2.0 * n + a + b - 2.0)).tolist(),
            ((2.0 * n + a + b - 1.0) * (a * a - b * b)).tolist(),
            ((2.0 * n + a + b - 1.0) * (2.0 * n + a + b) * (2.0 * n + a + b - 2.0)).tolist(),
            (2.0 * (n + a - 1.0) * (n + b - 1.0) * (2.0 * n + a + b)).tolist(),
        )


# a block of `_jacobi_blocks` holds at most this many rows and this many floats
# (1 MiB): enough degrees per block for a matrix product to pay, while the
# buffer stays small next to a 32k-node row
_BLOCK_ROWS = 64
_BLOCK_FLOATS = 2**17
# up to this many points every block but the last has _BLOCK_ROWS rows, so a
# caller that splits its points into such passes gets the same blocks in each
_FULL_BLOCK_POINTS = _BLOCK_FLOATS // _BLOCK_ROWS


def _jacobi_blocks(p: JacobiParams, n_max: int, x: np.ndarray):
    """Yield (s, block) with block[i] = P_(s+i)(x), covering n = 0..n_max.

    The rows of `_jacobi_rows`, stacked B = max(1, min(64, 2^17 // x.size)) at
    a time into one reused buffer; the last block may be shorter. A yielded
    block is valid only until the next one is produced.
    """
    size = max(1, min(_BLOCK_ROWS, _BLOCK_FLOATS // max(x.size, 1)))
    buf = np.empty((size, x.size))
    k = 0
    for n, row in enumerate(_jacobi_rows(p, n_max, x)):
        buf[k] = row
        k += 1
        if k == size:
            yield n + 1 - size, buf
            k = 0
    if k:
        yield n_max + 1 - k, buf[:k]


def jacobi_eval_table(p: JacobiParams, n_max: int, x) -> np.ndarray:
    """Table P_n(x) for n = 0..n_max by the three-term recurrence.

    Returns an array of shape (n_max+1, len(x)).
    """
    if n_max < 0:
        raise DomainError(f"need n_max >= 0, got {n_max}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size == 1:
        return _float_column(p, n_max, x)[:, None]
    out = np.empty((n_max + 1, x.size), dtype=float)
    for n, row in enumerate(_jacobi_rows(p, n_max, x)):
        out[n] = row
    return out


def jacobi_eval(p: JacobiParams, n: int, x):
    """P_n(x) with P_n(1) = C(n+alpha, n); x may be a scalar or an array."""
    if n < 0:
        raise DomainError(f"need n >= 0, got {n}")
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    for cur in _jacobi_rows(p, n, np.atleast_1d(arr)):
        pass
    return float(cur[0]) if scalar else cur


def jacobi_weighted_sum(p: JacobiParams, weights, x) -> np.ndarray:
    """Streaming evaluation of sum_n weights[n] P_n(x).

    Runs the three-term recurrence in blocks of degrees (`_jacobi_blocks`)
    and adds one matrix product per block, so memory stays O(len(x)) no
    matter how long the coefficient vector is. weights may be a 1-d array or a
    (m, n_terms) matrix; the matrix form accumulates one sum per row (shape
    (m, len(x))), sharing a single recurrence pass.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    w = np.asarray(weights, dtype=float)
    matrix = w.ndim == 2
    if not matrix:
        w = w[None, :]
    n_terms = w.shape[1]
    if n_terms == 0:
        raise DomainError("empty coefficient vector")
    acc = np.zeros((w.shape[0], x.size))
    for s, block in _jacobi_blocks(p, n_terms - 1, x):
        acc += w[:, s : s + block.shape[0]] @ block
    return acc if matrix else acc[0]


def jacobi_norm(p: JacobiParams, n: int) -> float:
    """Squared L2(J) norm h_n of P_n.

    h_n = 2^(a+b+1)/(2n+a+b+1) * G(n+a+1)G(n+b+1) / (G(n+1)G(n+a+b+1)).
    """
    if n < 0:
        raise DomainError(f"need n >= 0, got {n}")
    a, b = p.alpha, p.beta
    if n == 0:
        # the generic form is 0/0 here when a+b+1 = 0; the limit is clean
        log_h = (
            (a + b + 1.0) * math.log(2.0)
            + math.lgamma(a + 1.0)
            + math.lgamma(b + 1.0)
            - math.lgamma(a + b + 2.0)
        )
        return math.exp(log_h)
    log_h = (
        (a + b + 1.0) * math.log(2.0)
        - math.log(2.0 * n + a + b + 1.0)
        + math.lgamma(n + a + 1.0)
        + math.lgamma(n + b + 1.0)
        - math.lgamma(n + 1.0)
        - math.lgamma(n + a + b + 1.0)
    )
    return math.exp(log_h)


def jacobi_norm_sequence(p: JacobiParams, n_max: int) -> np.ndarray:
    """h_n for n = 0..n_max, computed by the stable ratio recurrence.

    One running product h_(n+1) = h_n * ratio(n): np.cumprod multiplies in
    that order, so the values are bitwise those of the scalar loop.
    """
    h = np.empty(n_max + 1, dtype=float)
    h[0] = jacobi_norm(p, 0)
    if n_max >= 1:
        # the 0 -> 1 ratio degenerates when a+b+1 = 0, so start the
        # recurrence from the directly computed h_1
        h[1] = jacobi_norm(p, 1)
        h[2:] = _norm_ratio(p, np.arange(1, n_max, dtype=float))
        np.cumprod(h[1:], out=h[1:])
    return h


def _norm_ratio(p: JacobiParams, n):
    """h_{n+1} / h_n for n >= 1 (at n = 0 it degenerates when a+b+1 = 0);
    n may be a scalar or an array of degrees."""
    a, b = p.alpha, p.beta
    s = 2.0 * n + a + b
    return (s + 1.0) / (s + 3.0) * ((n + a + 1.0) * (n + b + 1.0)) / (
        (n + 1.0) * (n + a + b + 1.0)
    )


def jacobi_function_eval(p: JacobiParams, n: int, x):
    """Jacobi function F_n(x) = P_n(x) (1-x)^(a/2) (1+x)^(b/2).

    The F_n are orthogonal in plain Lebesgue measure on [-1, 1] with the same
    norms h_n. Evaluation at an endpoint whose exponent is negative is refused.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    xv = np.atleast_1d(arr)
    if p.alpha < 0.0 and np.any(xv >= 1.0):
        raise SingularEvaluationError("F_n is singular at x = 1 for alpha < 0")
    if p.beta < 0.0 and np.any(xv <= -1.0):
        raise SingularEvaluationError("F_n is singular at x = -1 for beta < 0")
    vals = jacobi_eval(p, n, xv) * _half_weight(p, xv)
    return float(vals[0]) if scalar else vals


def _half_weight(p: JacobiParams, x):
    """(1-x)^(alpha/2) (1+x)^(beta/2), the factor taking P_n to F_n."""
    return (1.0 - x) ** (0.5 * p.alpha) * (1.0 + x) ** (0.5 * p.beta)


def growth_bound_probe(p: JacobiParams, n_max: int) -> float:
    """Fit C in sup |P_n| <= C n^(q+1/2), q = max(alpha, beta) >= -1/2.

    Returns the sup over 1 <= n <= n_max and a 400-point cosine-spaced x grid
    (endpoints included) of |P_n(x)| / n^(q+1/2). The profile decays after
    small n, so the returned constant stops growing once n_max clears the
    first few degrees.
    """
    if p.q < -0.5:
        raise RegimeError(
            f"growth bound requires max(alpha, beta) >= -1/2, got q = {p.q}"
        )
    if n_max < 1:
        raise DomainError(f"need n_max >= 1, got {n_max}")
    return _growth_constant(p, n_max, 400)


def _growth_constant(p: JacobiParams, n_max: int = 64, grid_size: int = 200) -> float:
    """Internal growth-constant fit with q clamped to -1/2 (valid for all params)."""
    q_eff = max(p.q, -0.5)
    x = np.cos(np.linspace(0.0, np.pi, grid_size))
    table = jacobi_eval_table(p, n_max, x)
    n = np.arange(1, n_max + 1, dtype=float)
    return float(np.max(np.abs(table[1:]) / n[:, None] ** (q_eff + 0.5)))


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights for integration against (1-x)^alpha (1+x)^beta dx."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def order(self) -> int:
        return self.nodes.size

    def integrate(self, f) -> float:
        """Integrate a callable (or an array of node values) against the rule."""
        vals = f(self.nodes) if callable(f) else np.asarray(f, dtype=float)
        return float(np.dot(self.weights, vals))


@lru_cache(maxsize=128)
def _roots_jacobi_cached(order: int, alpha: float, beta: float):
    nodes, weights = _gauss_jacobi_nodes(order, alpha, beta)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gauss_jacobi_rule(p: JacobiParams, order: int) -> QuadratureRule:
    """Gauss rule of the given order for the measure J(dx) = (1-x)^a (1+x)^b dx.

    Exact for polynomials of degree <= 2*order - 1.
    """
    if order < 1:
        raise DomainError(f"need order >= 1, got {order}")
    nodes, weights = _roots_jacobi_cached(order, p.alpha, p.beta)
    return QuadratureRule(nodes=nodes, weights=weights)
