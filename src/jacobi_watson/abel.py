"""Fourier-Jacobi expansions and their Abel regularization.

Coefficients, partial sums, Abel means computed by the series and by the
kernel-quadrature route, the modified (Jacobi-function) mean, the maximal
function over the Abel parameter, and convergence diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .kernels import AbelParameter, watson_series_matrix
from .measure import WeightedMeasure
from .polynomials import (
    JacobiParams,
    _half_weight,
    _jacobi_rows,
    jacobi_eval,
    jacobi_norm_sequence,
    jacobi_weighted_sum,
)
from .quadrature import composite_rule, graded_breakpoints, graded_grid, piece_edges
from .quadrature import _gauss_jacobi_raw

__all__ = [
    "Expansion",
    "TestFunction",
    "abel_mean",
    "default_r_grid",
    "fourier_jacobi_coefficients",
    "jacobi_maximal",
    "lp_convergence_probe",
    "lp_norm",
    "modified_abel_mean",
    "partial_sum",
    "test_function_family",
    "weak11_probe",
]

_MAX_SERIES_TERMS = 16384
# The adaptive projection stops when its coefficient window and its residual
# are both below this share of the input's scale (`_plateaued`). It is 10x
# `_trim`'s 1e-14 cut: the quadrature noise of smooth inputs straddles that cut
# at the first checkpoints (bump at (-0.99, 1/2) reads 1.1e-14 at k = 256), so
# a stop at the cut itself would miss plateaus, while the noise climbs past
# 1e-13 of max |c| only from degree 512 on.
_PLATEAU_TOL = 1e-13
_FIRST_CHECKPOINT = 128


@dataclass(frozen=True)
class Expansion:
    """Finite Fourier-Jacobi coefficient vector c(n), n = 0..N."""

    params: JacobiParams
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise DomainError("coeffs must be a nonempty 1-d vector")
        if not np.all(np.isfinite(c)):
            raise DomainError("coefficients must be finite")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def energy(self) -> float:
        """Sum of c(n)^2 h_n, the squared L2(J) norm of the represented sum."""
        h = jacobi_norm_sequence(self.params, self.degree)
        return float(np.sum(self.coeffs**2 * h))

    def __call__(self, x):
        """The represented sum, sum_n c(n) P_n(x), at each x."""
        return jacobi_weighted_sum(self.params, self.coeffs, x)


@dataclass(frozen=True, eq=False)
class TestFunction:
    """Named pointwise function on [-1, 1] with optional smoothness breakpoints.

    breakpoints lists interior points where the function is not smooth, so
    quadrature rules can split there.
    """

    tag: str
    fn: object
    breakpoints: tuple = ()

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))


def test_function_family(p: JacobiParams):
    """The fixed test family: constant, sign, P_3, F_3, a narrow bump, and a
    clipped endpoint-singular profile."""

    def clipped(x):
        with np.errstate(divide="ignore"):
            raw = (1.0 - x) ** -0.2
        return np.minimum(raw, 10.0)

    return [
        TestFunction("const", lambda x: np.ones_like(x)),
        TestFunction("sign", np.sign, breakpoints=(0.0,)),
        TestFunction("pk:3", lambda x: jacobi_eval(p, 3, x)),
        TestFunction("fk:3", lambda x: jacobi_eval(p, 3, x) * _half_weight(p, x)),
        TestFunction("bump", lambda x: np.exp(-0.5 * (x / 0.1) ** 2)),
        # the clip at 10 puts the kink where (1-x)^(-0.2) crosses it
        TestFunction("clipped", clipped, breakpoints=(1.0 - 1e-5,)),
    ]


def _coefficients(p: JacobiParams, x: np.ndarray, wf: np.ndarray, n_max: int):
    """Yield c(n) = (1/h_n) sum_i wf_i P_n(x_i) for n = 0..n_max.

    The library's one projection loop: it streams the shared recurrence of
    `polynomials`, so no (n_max x nodes) table is materialized.
    """
    h = jacobi_norm_sequence(p, n_max)
    for n, row in enumerate(_jacobi_rows(p, n_max, x)):
        yield np.dot(wf, row) / h[n]


def fourier_jacobi_coefficients(
    f, p: JacobiParams, degree: int, order: int | None = None
) -> Expansion:
    """Coefficients c(n) = (1/h_n) int f P_n dJ for n = 0..degree.

    order is the quadrature size; it must be at least degree + 1 so the rule
    resolves every projected polynomial.
    """
    if degree < 0:
        raise DomainError(f"need degree >= 0, got {degree}")
    if order is None:
        order = max(2 * (degree + 1), 64)
    if order < degree + 1:
        raise DomainError(f"order {order} cannot resolve degree {degree}")
    m = WeightedMeasure.jacobi(p.alpha, p.beta)
    x, w = m.quadrature_rule(order, getattr(f, "breakpoints", ()))
    coeffs = np.fromiter(_coefficients(p, x, w * f(x), degree), float, degree + 1)
    return Expansion(params=p, coeffs=coeffs)


def partial_sum(e: Expansion, m: int, x):
    """Sum of c(n) P_n(x) for n <= m."""
    if not (0 <= m <= e.degree):
        raise DomainError(f"need 0 <= m <= {e.degree}, got {m}")
    vals = jacobi_weighted_sum(e.params, e.coeffs[: m + 1], x)
    return float(vals[0]) if np.ndim(x) == 0 else vals


def _default_terms(r: float, tol: float) -> int:
    n = int(math.ceil(math.log(tol) / math.log(r))) + 64
    return min(max(n, 32), _MAX_SERIES_TERMS)


def _trim(coeffs: np.ndarray) -> np.ndarray:
    """Drop the trailing coefficient tail that sits at quadrature-noise level."""
    mags = np.abs(coeffs)
    top = float(mags.max())
    if top == 0.0:
        return coeffs[:1]
    keep = np.nonzero(mags > 1e-14 * top)[0]
    return coeffs[: keep[-1] + 1]


def _plateaued(p: JacobiParams, head: np.ndarray, x, w, fx) -> bool:
    """True when the projection may stop at degree k = head.size - 1.

    Window: the top half of the coefficients, j in [k/2, k], sits at or below
    _PLATEAU_TOL * max |c|. Guard: the partial sum reproduces f on the rule's
    nodes to _PLATEAU_TOL in the rule-weighted norm. On the full rule nothing
    aliases, so a sparse spectrum (a lone P_500 behind P_3) passes the window
    at k = 128 and 256; only the residual sees it.
    """
    mags = np.abs(head)
    if mags[head.size // 2 :].max() > _PLATEAU_TOL * mags.max():
        return False
    resid = fx - jacobi_weighted_sum(p, head, x)
    return float(np.dot(w, resid * resid)) <= _PLATEAU_TOL**2 * float(np.dot(w, fx * fx))


def _as_expansion(f, p: JacobiParams, r_max: float, tol: float) -> Expansion:
    """Expansion of f resolved for Abel means up to r_max at tolerance tol.

    The degree `_default_terms` gives (r_max^n <= tol plus a margin, capped
    at _MAX_SERIES_TERMS) sizes the rule and bounds the projection, which
    stops early at the first doubling checkpoint k >= _FIRST_CHECKPOINT where
    the coefficients have plateaued (`_plateaued`), after Aurentz & Trefethen,
    "Chopping a Chebyshev series", ACM TOMS 43 (2017). Inputs that never
    plateau, such as a jump, run to the bound with the coefficients
    `fourier_jacobi_coefficients` gives. The trailing noise is then trimmed.
    """
    if isinstance(f, Expansion):
        return f
    n = _default_terms(r_max, tol)
    m = WeightedMeasure.jacobi(p.alpha, p.beta)
    x, w = m.quadrature_rule(_rule_size(n), getattr(f, "breakpoints", ()))
    return _project(p, x, w, f(x), n)


def _rule_size(n: int) -> int:
    """Nodes of the rule that projects onto degrees up to n."""
    return min(max(2 * (n + 1), 64), 2 * _MAX_SERIES_TERMS)


def _project(p: JacobiParams, x, w, fx, n: int) -> Expansion:
    """Expansion of the values fx on the rule (x, w) for J, stopped at the
    first plateaued checkpoint up to degree n and trimmed."""
    coeffs = np.empty(n + 1)
    k = _FIRST_CHECKPOINT
    for j, c in enumerate(_coefficients(p, x, w * fx, n)):
        coeffs[j] = c
        if j == k:
            if _plateaued(p, coeffs[: k + 1], x, w, fx):
                coeffs = coeffs[: k + 1]
                break
            k *= 2
    return Expansion(params=p, coeffs=_trim(coeffs))


def _damped_sum(e: Expansion, rs: np.ndarray, x) -> np.ndarray:
    """Abel means sum_n r^n c(n) P_n(x), one row per r of rs, in one pass."""
    n = np.arange(e.coeffs.size)
    return jacobi_weighted_sum(e.params, rs[:, None] ** n[None, :] * e.coeffs[None, :], x)


def abel_mean(
    f,
    p: JacobiParams,
    ab: AbelParameter,
    x,
    route: str = "series",
    order: int | None = None,
    tol: float = 1e-9,
):
    """Abel mean at parameter r: sum_n r^n c(n) P_n(x).

    route "series" sums the damped expansion; route "kernel" integrates the
    Watson kernel against f in the Jacobi measure. The two agree within the
    stated series tolerance plus quadrature error.
    """
    r = ab.r
    if route == "series":
        vals = _damped_sum(_as_expansion(f, p, r, tol), np.array([r]), x)[0]
        return float(vals[0]) if np.ndim(x) == 0 else vals
    if route != "kernel":
        raise DomainError(f"unknown route {route!r}")
    if order is None:
        order = 1024 if r > 0.9 else 512
    m = WeightedMeasure.jacobi(p.alpha, p.beta)
    ynodes, yweights = m.quadrature_rule(order, getattr(f, "breakpoints", ()))
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    mat, _, _ = watson_series_matrix(p, r, xs, ynodes, tol_abs=tol * 1e-3)
    vals = mat @ (yweights * f(ynodes))
    return float(vals[0]) if np.ndim(x) == 0 else vals


def modified_abel_mean(
    f,
    p: JacobiParams,
    ab: AbelParameter,
    x: float,
    route: str = "halfweight",
    order: int = 160,
    f_exponents: tuple[float, float] = (0.0, 0.0),
) -> float:
    """Abel mean of the Jacobi-function expansion, a Lebesgue-measure integral
    of the half-weighted kernel, at a scalar x.

    route "halfweight" is hw(x) times the Abel mean of f / hw, with
    hw = (1-y)^(a/2) (1+y)^(b/2): the shared adaptive expansion, projected on
    a Gauss-Jacobi rule that absorbs hw and whose size follows r. The
    reference route "lebesgue" integrates the full modified-kernel integrand
    (the Watson series) on Gauss-Legendre cells graded toward +-1 and toward
    x, where the kernel peaks with width about 1 - r; `order` sizes its cells.
    The two routes share no nodes or weight machinery. f_exponents = (at -1,
    at +1) declares endpoint exponents carried by f itself; the halfweight
    rule then absorbs them too, keeping eigenfunction integrands polynomial.
    """
    r = ab.r
    el, er = f_exponents
    wx = _half_weight(p, x)
    if route == "halfweight":
        n = _default_terms(r, 1e-12)
        y, w = _gauss_jacobi_raw(_rule_size(n), 0.5 * p.alpha + er, 0.5 * p.beta + el)
        hw = _half_weight(p, y)
        e = _project(p, y, w * hw / ((1.0 - y) ** er * (1.0 + y) ** el), f(y) / hw, n)
        return wx * float(_damped_sum(e, np.array([r]), x)[0, 0])
    if route != "lebesgue":
        raise DomainError(f"unknown route {route!r}")
    # the end cells carry an unabsorbed integrable singularity; their mass is
    # ~ min_scale^(1 + e/2) ~ 1e-9 at worst. Nodes that round onto +-1 drop.
    grid = [graded_grid(-1.0, 1.0, min_scale=1e-12)]
    for lo, hi, lean_left in ((-1.0, x, False), (x, 1.0, True)):
        if hi > lo:
            scale = 1e-3 * (1.0 - r) / (hi - lo)
            grid.append(graded_breakpoints(lo, hi, lean_left=lean_left, min_scale=scale))
    ynodes, yweights = composite_rule(np.unique(np.concatenate(grid)), max(12, order // 8))
    inside = np.abs(ynodes) < 1.0
    ynodes, yweights = ynodes[inside], yweights[inside]
    row, _, _ = watson_series_matrix(p, r, np.array([float(x)]), ynodes)
    return wx * float(np.dot(yweights, row[0] * _half_weight(p, ynodes) * f(ynodes)))


def default_r_grid(levels: int = 12) -> np.ndarray:
    """Geometric approach to 1: r_j = 1 - 2^-j, j = 1..levels."""
    j = np.arange(1, levels + 1)
    return 1.0 - 2.0 ** (-j.astype(float))


def jacobi_maximal(f, p: JacobiParams, x, r_grid=None, tol: float = 1e-8):
    """max over the r grid of |Abel mean at x|; x may be scalar or an array.

    The expansion is resolved once at the largest grid r; all grid values then
    come from one streaming recurrence pass.
    """
    grid = default_r_grid() if r_grid is None else np.asarray(r_grid, dtype=float)
    if grid.size == 0 or np.any(grid <= 0.0) or np.any(grid >= 1.0):
        raise DomainError("r grid must be nonempty inside (0, 1)")
    vals = _damped_sum(_as_expansion(f, p, float(grid.max()), tol), grid, x)
    best = np.max(np.abs(vals), axis=0)
    return float(best[0]) if np.ndim(x) == 0 else best


def lp_norm(f, p: JacobiParams, p_exp: float, order: int = 256) -> float:
    """Lp norm with respect to J(dx); p_exp = inf takes a dense-grid sup."""
    if p_exp != math.inf and p_exp < 1.0:
        raise DomainError(f"need p >= 1, got {p_exp}")
    if p_exp == math.inf:
        xs = np.cos(np.linspace(0.0, math.pi, 4096))[1:-1]
        return float(np.max(np.abs(f(xs))))
    m = WeightedMeasure.jacobi(p.alpha, p.beta)
    x, w = m.quadrature_rule(order, getattr(f, "breakpoints", ()))
    return float(np.dot(w, np.abs(f(x)) ** p_exp)) ** (1.0 / p_exp)


def lp_convergence_probe(
    f,
    p: JacobiParams,
    p_exp: float,
    r_sequence,
    tol: float = 1e-8,
    n_cell: int = 10,
):
    """Norms ||f(r, .) - f||_p,J along the given r sequence.

    The quadrature grid is graded toward the function's breakpoints, where the
    Abel error concentrates in a layer of width about 1 - r.
    """
    rs = np.asarray(r_sequence, dtype=float)
    if np.any(rs <= 0.0) or np.any(rs >= 1.0):
        raise DomainError("r sequence must lie inside (0, 1)")
    e = _as_expansion(f, p, float(rs.max()), tol)
    m = WeightedMeasure.jacobi(p.alpha, p.beta)
    pieces = piece_edges(-1.0, 1.0, getattr(f, "breakpoints", ()))
    rules = [
        m.cell_rules(graded_grid(lo, hi, min_scale=1e-10), n_cell)
        for lo, hi in zip(pieces[:-1], pieces[1:])
    ]
    x = np.concatenate([t for t, _ in rules])
    w = np.concatenate([w for _, w in rules])
    err = np.abs(_damped_sum(e, rs, x) - f(x)[None, :])
    if p_exp == math.inf:
        return [float(v) for v in err.max(axis=1)]
    norms = (err**p_exp) @ w
    return [float(v) ** (1.0 / p_exp) for v in norms]


def weak11_probe(
    f,
    p: JacobiParams,
    lambda_grid=None,
    n_cells: int = 2048,
    r_grid=None,
    tol: float = 1e-6,
) -> float:
    """Worst lambda * J{maximal > lambda} / ||f||_1 over the lambda grid.

    The level-set measure is a sum of exact cell masses on a cosine-spaced
    partition, with the maximal function sampled at cell midpoints.
    """
    if lambda_grid is None:
        lambda_grid = np.geomspace(0.1, 10.0, 25)
    lam = np.asarray(lambda_grid, dtype=float)
    if np.any(lam <= 0.0):
        raise DomainError("lambda grid must be positive")
    theta = np.linspace(math.pi, 0.0, n_cells + 1)
    edges = np.cos(theta)
    mids = 0.5 * (edges[:-1] + edges[1:])
    m = WeightedMeasure.jacobi(p.alpha, p.beta)
    masses = m.cell_masses(edges)
    maximal = jacobi_maximal(f, p, mids, r_grid=r_grid, tol=tol)
    norm1 = lp_norm(f, p, 1.0)
    worst = 0.0
    for lv in lam:
        level_mass = float(masses[maximal > lv].sum())
        worst = max(worst, lv * level_mass / norm1)
    return worst
