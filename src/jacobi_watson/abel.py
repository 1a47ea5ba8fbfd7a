"""Fourier-Jacobi expansions and their Abel regularization.

Coefficients, Abel means computed by the series and by the kernel-quadrature
route, the modified (Jacobi-function) mean, the maximal function over the Abel
parameter, and convergence diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .kernels import AbelParameter, _absorbing_rule, _kernel_cells
from .kernels import watson_series_matrix
from .measure import WeightedMeasure
from .polynomials import (
    JacobiParams,
    _half_weight,
    _jacobi_rows,
    jacobi_eval,
    jacobi_eval_table,
    jacobi_norm_sequence,
    jacobi_weighted_sum,
)
# _gauss_jacobi_raw is unused here; perfbench's tracer asserts abel holds it (ROADMAP item 1)
from .quadrature import _ASY_MIN_NODES, _gauss_jacobi_raw, graded_grid, piece_edges

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
# series tolerance of `abel_mean`; its kernel route asks the kernel for 1e-3 of it
_MEAN_TOL = 1e-9


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

    def __call__(self, x):
        """The represented sum, sum_n c(n) P_n(x), at each x."""
        return jacobi_weighted_sum(self.params, self.coeffs, x)


@dataclass(frozen=True, eq=False)
class TestFunction:
    """Named pointwise function on [-1, 1] with optional breakpoints and jumps.

    breakpoints lists interior points where the function is not smooth, so
    quadrature rules can split there. jumps lists ((t, d), ...): f steps up by
    d at t, so that f - sum d H(x - t), with H the unit step and H(0) = 1/2,
    is continuous there. Expansions take each jump's coefficients in closed
    form and project only that remainder (`_as_expansion`). exponents (el, er)
    declare f = (1+x)^el (1-x)^er g with g smooth at +-1; every rule absorbs them.
    """

    tag: str
    fn: object
    breakpoints: tuple = ()
    jumps: tuple = ()
    exponents: tuple = (0.0, 0.0)

    def __post_init__(self):
        if self.jumps and any(self.exponents):
            raise DomainError("jumps leave a remainder that is not (1 -+ x)^e times smooth")
        for t, d in self.jumps:
            if not (-1.0 < t < 1.0 and math.isfinite(d)):
                raise DomainError(
                    f"jump ({t}, {d}) needs a point inside (-1, 1) and a finite height"
                )

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
        TestFunction("sign", np.sign, breakpoints=(0.0,), jumps=((0.0, 2.0),)),
        TestFunction("pk:3", lambda x: jacobi_eval(p, 3, x)),
        TestFunction("fk:3", lambda x: jacobi_eval(p, 3, x) * _half_weight(p, x),
                     exponents=(0.5 * p.beta, 0.5 * p.alpha)),
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
    resolves every projected polynomial. The rule absorbs f's declared end
    exponents (`_absorbing_rule`).
    """
    if degree < 0:
        raise DomainError(f"need degree >= 0, got {degree}")
    if order is None:
        order = max(2 * (degree + 1), 64)
    if order < degree + 1:
        raise DomainError(f"order {order} cannot resolve degree {degree}")
    x, w = _absorbing_rule(p, getattr(f, "exponents", (0.0, 0.0)), WeightedMeasure.quadrature_rule,
                           order, getattr(f, "breakpoints", ()))
    coeffs = np.fromiter(_coefficients(p, x, w * f(x), degree), float, degree + 1)
    return Expansion(params=p, coeffs=coeffs)


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


def _window_flat(head: np.ndarray) -> bool:
    """True when the top half of the coefficients, j in [k/2, k] with
    k = head.size - 1, sits at or below _PLATEAU_TOL * max |c|."""
    mags = np.abs(head)
    return mags[head.size // 2 :].max() <= _PLATEAU_TOL * mags.max()


def _plateaued(p: JacobiParams, head: np.ndarray, x, w, fx) -> bool:
    """True when the projection may stop at degree k = head.size - 1.

    Window: `_window_flat`. Guard: the partial sum reproduces f on the rule's
    nodes to _PLATEAU_TOL in the rule-weighted norm. On the full rule nothing
    aliases, so a sparse spectrum (a lone P_500 behind P_3) passes the window
    at k = 128 and 256; only the residual sees it.
    """
    if not _window_flat(head):
        return False
    resid = fx - jacobi_weighted_sum(p, head, x)
    return float(np.dot(w, resid * resid)) <= _PLATEAU_TOL**2 * float(np.dot(w, fx * fx))


def _as_expansion(f, p: JacobiParams, r_max: float, tol: float) -> Expansion:
    """Expansion of f resolved for Abel means up to r_max at tolerance tol.

    The degree `_default_terms` gives (r_max^n <= tol plus a margin, capped
    at _MAX_SERIES_TERMS) bounds the projection, which stops early at the
    first doubling checkpoint k >= _FIRST_CHECKPOINT where the coefficients
    have plateaued, after Aurentz & Trefethen, "Chopping a Chebyshev series",
    ACM TOMS 43 (2017). The jumps f declares contribute their coefficients up
    to the bound in closed form (`_jump_coefficients`), and only the
    remainder f - sum d H(x - t) is projected: for `sign` it is the constant
    -1. Every rule absorbs the end exponents f declares (`_absorbing_rule`).

    The remainder is projected on two rungs of rules. When the rule the bound
    asks for (`_rule_size`) is larger than _ASY_MIN_NODES per piece between
    breakpoints, the first rung projects on that smaller rule by residual
    (`_project_residual`), up to the largest checkpoint it resolves, and keeps
    the result if a checkpoint plateaus and the expansion also reproduces the
    remainder between the rung's nodes (`_resolved_between`). Otherwise the
    full rule projects as `fourier_jacobi_coefficients` does (`_project`), so
    inputs that never plateau, such as the kink of `clipped`, run to the bound
    with the bits and the cost they had without the rung. The trailing noise
    is then trimmed. Nodes and midpoints together still miss a feature
    narrower than half the rung's node spacing (about 3e-3 mid-interval on
    one piece) and a component that vanishes on all of them, which has degree
    at least 2 * _ASY_MIN_NODES - 1 per piece.
    """
    if isinstance(f, Expansion):
        return f
    n = _default_terms(r_max, tol)
    breakpoints = getattr(f, "breakpoints", ())
    jumps = getattr(f, "jumps", ())
    exponents = getattr(f, "exponents", (0.0, 0.0))

    def remainder(x):
        return f(x) - sum(d * np.heaviside(x - t, 0.5) for t, d in jumps)

    full = _rule_size(n)
    rung = _ASY_MIN_NODES * (len(piece_edges(-1.0, 1.0, breakpoints)) - 1)
    e = None
    if full > rung:
        x, w = _absorbing_rule(p, exponents, WeightedMeasure.quadrature_rule, rung, breakpoints)
        top = _FIRST_CHECKPOINT
        while _rule_size(2 * top) <= rung:
            top *= 2
        e = _project_residual(p, x, w, remainder(x), top)
        if e is not None and not _resolved_between(e, remainder, x, w, rung // _ASY_MIN_NODES):
            e = None
    if e is None:
        x, w = _absorbing_rule(p, exponents, WeightedMeasure.quadrature_rule, full, breakpoints)
        e = _project(p, x, w, remainder(x), n)
    if not jumps:
        return e
    coeffs = _jump_coefficients(p, jumps, n)
    coeffs[: e.coeffs.size] += e.coeffs
    return Expansion(params=p, coeffs=_trim(coeffs))


def _jump_coefficients(p: JacobiParams, jumps, n: int) -> np.ndarray:
    """c(0..n) of sum d H(x - t) over jumps ((t, d), ...), in closed form.

    c(k) = (d/h_k) int_t^1 P_k dJ. DLMF 18.9.16 gives
    d/dx [(1-x)^(a+1) (1+x)^(b+1) P_(k-1)^(a+1,b+1)(x)] = -2k (1-x)^a (1+x)^b P_k(x),
    so for k >= 1 the integral is (1-t)^(a+1) (1+t)^(b+1) P_(k-1)^(a+1,b+1)(t) / (2k);
    k = 0 takes the measure's exact mass of [t, 1]. One recurrence pass per
    jump point, which runs on Python floats, serves every degree: O(n) work,
    no quadrature.
    """
    a, b = p.alpha, p.beta
    t = np.array([pt for pt, _ in jumps], dtype=float)
    d = np.array([ht for _, ht in jumps], dtype=float)
    m = WeightedMeasure.jacobi(a, b)
    coeffs = np.empty(n + 1)
    coeffs[0] = sum(ht * m.interval_mass_exact(pt, 1.0) for pt, ht in jumps)
    scale = d * (1.0 - t) ** (a + 1.0) * (1.0 + t) ** (b + 1.0)
    q = JacobiParams(a + 1.0, b + 1.0)
    rows = np.hstack([jacobi_eval_table(q, n - 1, pt) for pt in t])
    # summed from -0.0, the exact additive identity: a product sum from +0.0
    # (`rows @ scale` too) turns a -0.0 term into +0.0, while with one jump
    # this keeps the bits of the per-row np.dot
    coeffs[1:] = (rows * scale).sum(axis=1, initial=-0.0)
    coeffs[1:] /= 2.0 * np.arange(1, n + 1)
    return coeffs / jacobi_norm_sequence(p, n)


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


def _project_residual(p: JacobiParams, x, w, fx, n: int):
    """Expansion of the values fx on the rule (x, w) for J by residual
    projection, stopped at the first plateaued checkpoint up to degree n and
    trimmed; None when no checkpoint plateaus.

    Each degree takes c_j = <res, P_j>_w / h_j from the running residual and
    then removes c_j P_j from it (modified Gram-Schmidt; Bjorck, BIT 7, 1967),
    so a coefficient carries the rule's error only in proportion to what is
    left of f, and the guard reads the residual itself: at a checkpoint the
    window must be flat (`_window_flat`) and ||res||_w at most _PLATEAU_TOL of
    ||f||_w. It needs a rule on which the P_j up to degree n are orthogonal:
    the Gauss rule for J, or a split rule, whose pieces absorb their end's
    exponent and integrate the other factor, smooth on the piece, to near
    rounding. The full rule keeps `_project`'s classical sums: this update
    per degree took `clipped` at r = 1 - 2^-12, which never plateaus, from
    about 2.5 s to 4.5 s.
    """
    h = jacobi_norm_sequence(p, n)
    res = np.array(fx, dtype=float)
    floor = _PLATEAU_TOL**2 * float(np.dot(w, res * res))
    coeffs = np.empty(n + 1)
    k = _FIRST_CHECKPOINT
    for j, row in enumerate(_jacobi_rows(p, n, x)):
        coeffs[j] = c = np.dot(w * res, row) / h[j]
        res -= c * row
        if j == k:
            if _window_flat(coeffs[: k + 1]) and float(np.dot(w, res * res)) <= floor:
                return Expansion(params=p, coeffs=_trim(coeffs[: k + 1]))
            k *= 2
    return None


def _resolved_between(e: Expansion, g, x, w, pieces: int) -> bool:
    """True when e reproduces g at the midpoints of consecutive rung nodes.

    x, w is the rung: `pieces` Gauss rules of equal size with ascending
    nodes, one per piece. Its nodes on a piece are the roots of P_m for that
    piece's rule, so a component P_m s(x) of g vanishes on every node, and
    neither the window nor the node residual sees it: for
    P_3 + 1e-3 P_514 / P_514(1) on one piece the rung plateaus at degree 3.
    The midpoints, weighted by the mean of the two nodes' weights, see it; the
    test is the rung's guard, ||g - e|| <= _PLATEAU_TOL ||g|| in that norm.
    """
    xr, wr = x.reshape(pieces, -1), w.reshape(pieces, -1)
    xm = (0.5 * (xr[:, :-1] + xr[:, 1:])).ravel()
    wm = (0.5 * (wr[:, :-1] + wr[:, 1:])).ravel()
    gm = g(xm)
    resid = gm - jacobi_weighted_sum(e.params, e.coeffs, xm)
    return float(np.dot(wm, resid * resid)) <= _PLATEAU_TOL**2 * float(np.dot(wm, gm * gm))


def _damped_sum(e: Expansion, rs: np.ndarray, x) -> np.ndarray:
    """Abel means sum_n r^n c(n) P_n(x), one row per r of rs, in one pass."""
    n = np.arange(e.coeffs.size)
    return jacobi_weighted_sum(e.params, rs[:, None] ** n[None, :] * e.coeffs[None, :], x)


def abel_mean(f, p: JacobiParams, ab: AbelParameter, x, route: str = "series"):
    """Abel mean at parameter r: sum_n r^n c(n) P_n(x).

    route "series" sums the damped expansion, resolved to 1e-9; route "kernel"
    integrates the Watson kernel against f in the Jacobi measure, on the
    kernel cells at the xs and f's breakpoints (`kernels._kernel_cells`). The
    two routes agree within the series tolerance plus quadrature error.
    """
    r = ab.r
    if route == "series":
        vals = _damped_sum(_as_expansion(f, p, r, _MEAN_TOL), np.array([r]), x)[0]
        return float(vals[0]) if np.ndim(x) == 0 else vals
    if route != "kernel":
        raise DomainError(f"unknown route {route!r}")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    breakpoints = getattr(f, "breakpoints", ())
    ynodes, yweights = _kernel_cells(p, ab, xs, breakpoints, getattr(f, "exponents", (0.0, 0.0)))
    mat, _, _ = watson_series_matrix(p, r, xs, ynodes, tol_abs=_MEAN_TOL * 1e-3)
    vals = mat @ (yweights * f(ynodes))
    return float(vals[0]) if np.ndim(x) == 0 else vals


def modified_abel_mean(f, p: JacobiParams, ab: AbelParameter, x, route: str = "halfweight"):
    """Abel mean of the Jacobi-function expansion, a Lebesgue-measure integral
    of the half-weighted kernel; x may be scalar or an array.

    It is hw(x) times the Abel mean of g = f / hw, with
    hw = (1-y)^(a/2) (1+y)^(b/2), and g declared with f's breakpoints and f's
    exponents less hw's, so its rules absorb hw. route "halfweight" sums the
    damped expansion of g at tolerance 1e-12 (`_as_expansion`); the reference
    route "lebesgue" is `abel_mean`'s kernel route on g.
    """
    el, er = getattr(f, "exponents", (0.0, 0.0))
    g = TestFunction("f/hw", lambda y: f(y) / _half_weight(p, y), getattr(f, "breakpoints", ()),
                     exponents=(el - 0.5 * p.beta, er - 0.5 * p.alpha))
    if route == "halfweight":
        vals = _damped_sum(_as_expansion(g, p, ab.r, 1e-12), np.array([ab.r]), x)[0]
    elif route == "lebesgue":
        vals = np.atleast_1d(abel_mean(g, p, ab, x, route="kernel"))
    else:
        raise DomainError(f"unknown route {route!r}")
    vals = _half_weight(p, x) * vals
    return float(vals[0]) if np.ndim(x) == 0 else vals


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


def _lp_rule(f, p: JacobiParams, p_exp: float, rule, *args):
    """`_absorbing_rule` for |f|^p_exp, whose end exponents are p_exp times
    f's declared ones (f's own for p_exp = inf, where only the nodes count)."""
    q = 1.0 if p_exp == math.inf else p_exp
    el, er = (q * e for e in getattr(f, "exponents", (0.0, 0.0)))
    if p.alpha + er <= -1.0 or p.beta + el <= -1.0:
        raise DomainError(f"{getattr(f, 'tag', 'f')} is not in L^{p_exp:g}(J)")
    return _absorbing_rule(p, (el, er), rule, *args)


def lp_norm(f, p: JacobiParams, p_exp: float) -> float:
    """Lp norm with respect to J(dx), on a 256-node rule split at f's
    breakpoints that absorbs the end exponents of |f|^p (`_lp_rule`);
    p_exp = inf takes a dense-grid sup."""
    if p_exp != math.inf and p_exp < 1.0:
        raise DomainError(f"need p >= 1, got {p_exp}")
    if p_exp == math.inf:
        xs = np.cos(np.linspace(0.0, math.pi, 4096))[1:-1]
        return float(np.max(np.abs(f(xs))))
    breakpoints = getattr(f, "breakpoints", ())
    x, w = _lp_rule(f, p, p_exp, WeightedMeasure.quadrature_rule, 256, breakpoints)
    return float(np.dot(w, np.abs(f(x)) ** p_exp)) ** (1.0 / p_exp)


def lp_convergence_probe(
    f,
    p: JacobiParams,
    p_exp: float,
    r_sequence,
    tol: float = 1e-8,
):
    """Norms ||f(r, .) - f||_p,J along the given r sequence.

    The quadrature grid is graded toward the function's breakpoints, where the
    Abel error concentrates in a layer of width about 1 - r, with a 10-node
    rule on each cell, which absorbs the end exponents of the error's p-th
    power (`_lp_rule`).
    """
    rs = np.asarray(r_sequence, dtype=float)
    if np.any(rs <= 0.0) or np.any(rs >= 1.0):
        raise DomainError("r sequence must lie inside (0, 1)")
    pieces = piece_edges(-1.0, 1.0, getattr(f, "breakpoints", ()))
    grids = [graded_grid(lo, hi, min_scale=1e-10) for lo, hi in zip(pieces[:-1], pieces[1:])]
    x, w = _lp_rule(f, p, p_exp, WeightedMeasure.cell_rules, np.unique(np.concatenate(grids)), 10)
    e = _as_expansion(f, p, float(rs.max()), tol)
    err = np.abs(_damped_sum(e, rs, x) - f(x)[None, :])
    if p_exp == math.inf:
        return [float(v) for v in err.max(axis=1)]
    norms = (err**p_exp) @ w
    return [float(v) ** (1.0 / p_exp) for v in norms]


def weak11_probe(f, p: JacobiParams, n_cells: int = 2048) -> float:
    """Worst lambda * J{maximal > lambda} / ||f||_1 over 25 geometric levels
    lambda in [0.1, 10].

    The level-set measure is a sum of exact cell masses on a cosine-spaced
    partition, with the maximal function (on the default r grid, resolved to
    1e-6) sampled at cell midpoints.
    """
    theta = np.linspace(math.pi, 0.0, n_cells + 1)
    edges = np.cos(theta)
    mids = 0.5 * (edges[:-1] + edges[1:])
    m = WeightedMeasure.jacobi(p.alpha, p.beta)
    masses = m.cell_masses(edges)
    maximal = jacobi_maximal(f, p, mids, tol=1e-6)
    norm1 = lp_norm(f, p, 1.0)
    worst = 0.0
    for lv in np.geomspace(0.1, 10.0, 25):
        level_mass = float(masses[maximal > lv].sum())
        worst = max(worst, lv * level_mass / norm1)
    return worst
