"""Jacobi polynomials, their norms, Jacobi functions, and Gauss-Jacobi quadrature.

The polynomials P_n are normalized so that P_n(1) = C(n+alpha, n). Everything
downstream (kernels, expansions, maximal functions) is built on the evaluation
table produced here and on the quadrature rules. The three-term recurrence
lives only in `_jacobi_blocks` and the norm ratio h_{n+1}/h_n only in
`_norm_ratio`; every other module calls them. `_jacobi_blocks` writes its
rows in place into blocks of degrees, each step the divide-free
P_n = (A_n x + B_n) P_(n-1) - C_n P_(n-2), so weighted sums run as one matrix
product per block instead of one axpy per degree; `_jacobi_rows` is a view
that yields the blocks' rows. On a single point the recurrence runs its steps
on Python floats, bitwise the array steps, so its cost is the arithmetic
rather than per-call overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularEvaluationError
from .quadrature import _gauss_jacobi_raw

__all__ = [
    "JacobiParams",
    "QuadratureRule",
    "binomial_real",
    "gauss_jacobi_rule",
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


def binomial_real(top: float, n: int) -> float:
    """Generalized binomial coefficient C(top, n) = Gamma(top + 1) / (Gamma(top - n + 1) n!)
    for real top > n - 1, where every gamma is positive; log-gamma drops signs below that."""
    if n < 0:
        raise DomainError(f"need n >= 0, got {n}")
    return math.exp(
        math.lgamma(top + 1.0) - math.lgamma(top - n + 1.0) - math.lgamma(n + 1.0)
    )


def _jacobi_rows(p: JacobiParams, n_max: int, x: np.ndarray):
    """Yield P_0(x), ..., P_{n_max}(x), each shaped like x: the rows of
    `_jacobi_blocks`, whose one recurrence every consumer shares. A row lives
    in the block buffer, valid only until the next block is produced.
    """
    for _, block in _jacobi_blocks(p, n_max, x.reshape(-1)):
        yield from block.reshape((-1,) + x.shape)


def _float_column(p: JacobiParams, n_max: int, x: np.ndarray) -> np.ndarray:
    """P_0(t), ..., P_{n_max}(t) at the one point t of x, as a new 1-d array.

    The steps of `_jacobi_blocks` on Python floats: the same IEEE double
    arithmetic in the same order, so bitwise the array rows.
    """
    a, b = p.alpha, p.beta
    t = x.item()
    prev, cur = 1.0, t * (0.5 * (a + b + 2.0)) + 0.5 * (a - b)
    col = [prev, cur]
    for lo in range(2, n_max + 1, _STEP_CHUNK):
        steps = _recurrence_steps(a, b, lo, min(lo + _STEP_CHUNK, n_max + 1))
        for an, bn, cn in zip(*(v.tolist() for v in steps)):
            prev, cur = cur, (t * an + bn) * cur - cn * prev
            col.append(cur)
    return np.array(col if n_max >= 1 else col[:1])


# degrees whose recurrence coefficients `_recurrence_steps` forms at once
_STEP_CHUNK = 4096


def _recurrence_steps(a: float, b: float, lo: int, hi: int):
    """(A, B, C) at the degrees n = lo..hi-1 of the step
    P_n = (A_n x + B_n) P_(n-1) - C_n P_(n-2): c2/c0, c1/c0 and c3/c0 of the
    classical c0..c3, as array expressions, so each value is bitwise the scalar
    expression at its degree. Degrees 0 and 1 are not steps; they take the
    values of degree 2, where c0 is nonzero as for every n >= 2.
    """
    n = np.maximum(np.arange(lo, hi, dtype=float), 2.0)
    c0 = 2.0 * n * (n + a + b) * (2.0 * n + a + b - 2.0)
    c1 = (2.0 * n + a + b - 1.0) * (a * a - b * b)
    c2 = (2.0 * n + a + b - 1.0) * (2.0 * n + a + b) * (2.0 * n + a + b - 2.0)
    c3 = 2.0 * (n + a - 1.0) * (n + b - 1.0) * (2.0 * n + a + b)
    return c2 / c0, c1 / c0, c3 / c0


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

    The library's one array recurrence: B = max(1, min(64, 2^17 // x.size))
    rows at a time, written in place into one reused buffer as
    P_n = (A_n x + B_n) P_(n-1) - C_n P_(n-2) (`_recurrence_steps`), with P_1
    the explicit linear polynomial. A yielded block, the last maybe shorter, is
    valid only until the next one is produced. Below _FULL_BLOCK_POINTS points
    one broadcast per block forms the (A_n x + B_n) rows and a step takes 3
    ufunc calls; in a full 1 MiB block each row forms its own while in cache,
    in 5. One point runs the same steps on Python floats (`_float_column`).
    """
    size = max(1, min(_BLOCK_ROWS, _BLOCK_FLOATS // max(x.size, 1)))
    if x.size == 1:
        col = _float_column(p, n_max, x)[:, None]
        for s in range(0, n_max + 1, size):
            yield s, col[s : s + size]
        return
    a, b = p.alpha, p.beta
    # rows 0 and 1 hold the two rows before the block, rows 2.. the block
    buf = np.empty((size + 2, x.size))
    rows, tmp = list(buf), np.empty_like(x)
    whole = x.size < _FULL_BLOCK_POINTS
    chunk = size * max(1, _STEP_CHUNK // size)
    for s in range(0, n_max + 1, size):
        k = min(size, n_max + 1 - s)
        j = s % chunk
        if j == 0:
            steps = _recurrence_steps(a, b, s, min(s + chunk, n_max + 1))
            fa, fb, fc = (v.tolist() for v in steps)
        block = buf[2 : 2 + k]
        if whole:
            np.multiply(steps[0][j : j + k, None], x, out=block)
            np.add(block, steps[1][j : j + k, None], out=block)
        if s == 0:
            block[0] = 1.0
        if s <= 1 < s + k:
            np.multiply(x, 0.5 * (a + b + 2.0), out=block[1 - s])
            np.add(block[1 - s], 0.5 * (a - b), out=block[1 - s])
        for i in range(max(0, 2 - s), k):
            row = rows[i + 2]
            if not whole:
                np.multiply(x, fa[j + i], out=row)
                np.add(row, fb[j + i], out=row)
            np.multiply(row, rows[i + 1], out=row)
            np.multiply(rows[i], fc[j + i], out=tmp)
            np.subtract(row, tmp, out=row)
        yield s, block
        buf[:2] = buf[k : k + 2]


def jacobi_eval_table(p: JacobiParams, n_max: int, x) -> np.ndarray:
    """Table P_n(x) for n = 0..n_max by the three-term recurrence.

    Returns an array of shape (n_max+1, len(x)).
    """
    if n_max < 0:
        raise DomainError(f"need n_max >= 0, got {n_max}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((n_max + 1, x.size), dtype=float)
    for s, block in _jacobi_blocks(p, n_max, x):
        out[s : s + block.shape[0]] = block
    return out


def jacobi_eval(p: JacobiParams, n: int, x):
    """P_n(x) with P_n(1) = C(n+alpha, n); x may be a scalar or an array."""
    if n < 0:
        raise DomainError(f"need n >= 0, got {n}")
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    for cur in _jacobi_rows(p, n, np.atleast_1d(arr)):
        pass
    return float(cur[0]) if scalar else cur.copy()


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

    def integrate(self, f) -> float:
        """Integrate a callable (or an array of node values) against the rule."""
        vals = f(self.nodes) if callable(f) else np.asarray(f, dtype=float)
        return float(np.dot(self.weights, vals))


def _roots_jacobi_cached(order: int, alpha: float, beta: float):
    # quadrature's cached rule, held once; perfbench's tracer wraps this name
    return _gauss_jacobi_raw(order, alpha, beta)


def gauss_jacobi_rule(p: JacobiParams, order: int) -> QuadratureRule:
    """Gauss rule of the given order for the measure J(dx) = (1-x)^a (1+x)^b dx.

    Exact for polynomials of degree <= 2*order - 1.
    """
    if order < 1:
        raise DomainError(f"need order >= 1, got {order}")
    nodes, weights = _roots_jacobi_cached(order, p.alpha, p.beta)
    return QuadratureRule(nodes=nodes, weights=weights)
