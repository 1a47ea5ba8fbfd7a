"""Maximal functions, equal-measure stopping-time decompositions, kernel
variation constants, and Muckenhoupt-type weight characteristics.

Everything here is relative to a WeightedMeasure. Averages use exact interval
masses wherever the measure family has a closed-form CDF; integrals of point
functions use singular-aware cell quadrature. The non-centered maximal
function over a finite window family is computed exactly (for the family) by
a cumulative-average profile, so property tests can rely on sharp
inequalities instead of sampling slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DomainError
from .measure import WeightedMeasure, _invert_mass, _power_product, interval_mass
from .quadrature import graded_breakpoints, graded_grid, piece_edges

__all__ = [
    "CZDecomposition",
    "ZygmundConstants",
    "PowerWeight",
    "hl_maximal",
    "lateral_maximal",
    "cz_decompose",
    "zygmund_constants",
    "zygmund_bound_check",
    "kernel_level_bound_check",
    "weighted_interval_average",
    "ap_constant",
    "a1_constant",
    "ap_divergence_probe",
]


# ---- grids and cumulative profiles -------------------------------------

# nodes per cell of the grids of `hl_maximal` and of `lateral_maximal`
_HL_NODES = 16
_LATERAL_NODES = 16
# the stopping time subdivides to this depth, and cells down to this share of
# the total mass; each half is integrated with this many nodes per cell
_CZ_MAX_DEPTH = 40
_CZ_MIN_MASS_REL = 1e-9
_CZ_NODES = 24
# nodes per cell of the A_p divergence families
_AP_NODES = 24


def _window_grid(m: WeightedMeasure, window_family) -> np.ndarray:
    """Endpoint grid for the interval family: graded toward both support ends
    plus a uniform part. An explicit array is used as-is (clipped)."""
    a, b = m.support
    if window_family is not None and not isinstance(window_family, (int, np.integer)):
        g = np.unique(np.clip(np.asarray(window_family, dtype=float), a, b))
        if g.size < 2:
            raise DegenerateInputError("window family needs at least two endpoints")
        if g[0] != a or g[-1] != b:
            g = np.unique(np.concatenate([[a, b], g]))
        return g
    n_uniform = 256 if window_family is None else int(window_family)
    if n_uniform < 4:
        raise DomainError(f"need at least 4 grid points, got {n_uniform}")
    return graded_grid(a, b, min_scale=1e-10, n_uniform=n_uniform)


def _cell_sums(w: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Per-cell dot products of w and v on a rule with n nodes per cell."""
    return np.einsum("ij,ij->i", w.reshape(-1, n), v.reshape(-1, n))


def _cell_data(m: WeightedMeasure, f, grid: np.ndarray, n_quad: int):
    """Per-cell exact masses and quadrature integrals of |f| d(mu)."""
    cuts = piece_edges(grid[0], grid[-1], getattr(f, "breakpoints", ()))
    grid = np.unique(np.concatenate([grid, cuts]))
    t, w = m.cell_rules(grid, n_quad)
    return grid, m.cell_masses(grid), _cell_sums(w, np.abs(f(t)), n_quad)


# right endpoints per block of _maximal_profile: large enough that numpy's
# per-call cost stays small, small enough that a block stays in cache
_PROFILE_BLOCK = 64


def _maximal_profile(masses: np.ndarray, integrals: np.ndarray) -> np.ndarray:
    """profile[c] = max over grid intervals [g_i, g_j], i <= c < j, of the
    average integrals/masses; intervals of zero mass do not count.

    Right endpoints are taken in blocks from the top, with best[i] the max
    over the right endpoints already passed. Each block reduces its rows
    below the block to one, and the suffix-max over right endpoints and
    prefix-max over left endpoints run on the small corner table that is
    left. Memory is O(n) and time O(n^2); the max of the same averages is
    bitwise the one over the full pair table.
    """
    cm = np.concatenate([[0.0], np.cumsum(masses)])
    ci = np.concatenate([[0.0], np.cumsum(integrals)])
    n = cm.size - 1
    best = np.full(n, -np.inf)
    profile = np.empty(n)
    for hi in range(n, 0, -_PROFILE_BLOCK):
        lo = max(hi - _PROFILE_BLOCK, 0)
        k = hi - lo
        # averages over [g_i, g_j] for i < hi and lo < j <= hi
        dm = cm[lo + 1 : hi + 1] - cm[:hi, None]
        with np.errstate(invalid="ignore", divide="ignore"):
            avg = (ci[lo + 1 : hi + 1] - ci[:hi, None]) / dm
        avg[~(dm > 0.0)] = -np.inf
        # corner: row 0 stands for every i < lo and column k for every j > hi
        corner = np.full((k + 1, k + 1), -np.inf)
        if lo:
            below = avg[:lo]
            corner[0, :k] = below.max(axis=0)
            corner[0, k] = best[:lo].max()
            np.maximum(best[:lo], below.max(axis=1), out=best[:lo])
        corner[1:, :k] = avg[lo:]
        corner[1:, k] = best[lo:hi]
        s = np.maximum.accumulate(corner[:, ::-1], axis=1)[:, ::-1]
        profile[lo:hi] = np.diagonal(np.maximum.accumulate(s, axis=0)[1:])
    return profile


def _locate(grid: np.ndarray, x: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(grid, x, side="right") - 1
    return np.clip(idx, 0, grid.size - 2)


def hl_maximal(m: WeightedMeasure, f, x, window_family=None):
    """Non-centered maximal function sup over intervals I containing x of
    (1/mu(I)) int_I |f| dmu, the sup running over all intervals with endpoints
    in the window family's grid.

    Exact for the family: the value at x is the true maximum over every grid
    interval whose interior meets x, so it dominates the absolute average
    over any single probed interval and grows under family refinement.
    """
    grid = _window_grid(m, window_family)
    grid, masses, integrals = _cell_data(m, f, grid, _HL_NODES)
    profile = _maximal_profile(masses, integrals)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    a, b = m.support
    if np.any(xs < a) or np.any(xs > b):
        raise DomainError("evaluation points must lie in the support")
    idx = _locate(grid, xs)
    out = profile[idx]
    # a point sitting exactly on an interior grid line belongs to both cells
    on_edge = (xs == grid[idx]) & (idx > 0)
    out = np.where(on_edge, np.maximum(out, profile[np.maximum(idx - 1, 0)]), out)
    return float(out[0]) if np.ndim(x) == 0 else out


def lateral_maximal(m: WeightedMeasure, f, a: float, side: str) -> float:
    """One-sided maximal value at a: sup over intervals (x, a) (side "left")
    or (a, b) (side "right") of the measure average of |f|.

    Candidate endpoints are graded toward a (200 uniform plus the graded
    ones) so the sup picks up the one-sided limit f(a+-) when f is monotone.
    """
    sa, sb = m.support
    if not (sa < a < sb):
        raise DomainError(f"need an interior point, got {a} in [{sa}, {sb}]")
    if side == "left":
        grid = graded_breakpoints(sa, a, lean_left=False, min_scale=1e-12, n_uniform=200)
    elif side == "right":
        grid = graded_breakpoints(a, sb, lean_left=True, min_scale=1e-12, n_uniform=200)
    else:
        raise DomainError(f"side must be 'left' or 'right', got {side!r}")
    _, masses, integrals = _cell_data(m, f, grid, _LATERAL_NODES)
    if side == "left":
        # every window ends at a: read the cells from a, so that each window
        # is a running sum and not a difference of sums over the whole grid
        masses, integrals = masses[::-1], integrals[::-1]
    best = float(_maximal_profile(masses, integrals)[0])
    if best == -math.inf:
        raise DegenerateInputError("every candidate window has zero mass")
    return best


# ---- stopping-time decomposition ----------------------------------------


@dataclass(frozen=True)
class CZDecomposition:
    """Result of the equal-measure stopping-time decomposition at threshold
    lam: disjoint selected intervals with averages in (lam, 2 lam], the
    bounded part g (= interval average on each selected interval, = f off
    them), the mean-zero part b = f - g, and the masses of the selection G
    and its measure-inflated triple G*.

    When trivial is True the global average already exceeds lam; no selection
    is performed (nothing to decompose at this threshold) and g = f, b = 0.
    """

    lam: float
    intervals: tuple
    good: object
    bad: object
    mass_G: float
    mass_Gstar: float
    gstar_intervals: tuple
    norm1: float
    trivial: bool = False


def _integral_and_sup(m: WeightedMeasure, f, l: float, r: float):
    """Integral of f dmu plus the max of f over the quadrature nodes; the
    node max certifies cells that can never produce a selectable child."""
    t, w = m.cell_rules(piece_edges(l, r, getattr(f, "breakpoints", ())), _CZ_NODES)
    fv = np.asarray(f(t), dtype=float)
    return float(np.dot(w, fv)), float(np.max(fv))


def _merged_mass(m: WeightedMeasure, intervals) -> tuple:
    """Union mass of possibly overlapping intervals; returns (mass, merged)."""
    if not intervals:
        return 0.0, ()
    ordered = sorted(intervals)
    merged = [list(ordered[0])]
    for l, r in ordered[1:]:
        if l <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], r)
        else:
            merged.append([l, r])
    mass = sum(m.interval_mass_exact(l, r) for l, r in merged)
    return mass, tuple((l, r) for l, r in merged)


def cz_decompose(m: WeightedMeasure, f, lam: float) -> CZDecomposition:
    """Equal-measure bisection selection at threshold lam for f >= 0.

    Each interval is split at its measure midpoint; a half whose average
    exceeds lam is selected (the parent average <= lam forces the half's
    average <= 2 lam), the rest are subdivided until depth 40 or a mass floor
    of 1e-9 of the total. Both halves exceeding lam under a parent at or
    below lam is impossible and raises, rather than being assumed away.
    """
    if not (math.isfinite(lam) and lam > 0.0):
        raise DomainError(f"need a finite positive threshold, got {lam}")
    a, b = m.support
    probe, _ = m.quadrature_rule(256)
    fv = np.asarray(f(probe), dtype=float)
    scale = max(1.0, float(np.max(np.abs(fv))))
    if np.min(fv) < -1e-10 * scale:
        raise DomainError("decomposition requires f >= 0 on the support")

    total_mass = m.interval_mass_exact(a, b)
    norm1 = _integral_and_sup(m, f, a, b)[0]
    mass_floor = _CZ_MIN_MASS_REL * total_mass

    trivial = bool(norm1 / total_mass > lam)
    # (l, r, mass, depth) per stacked interval, (l, r, average, mass) per selected
    stack = [] if trivial else [(a, b, total_mass, 0)]
    selected = []
    while stack:
        l, r, mass, depth = stack.pop()
        if depth >= _CZ_MAX_DEPTH:
            continue
        c, left = _invert_mass(m, l, r, 0.5 * mass, mass)
        over = 0
        for lo, hi, mu in ((l, c, left), (c, r, m.interval_mass_exact(c, r))):
            if mu <= 0.0:
                continue
            integral, sup = _integral_and_sup(m, f, lo, hi)
            avg = integral / mu
            if avg > lam:
                over += 1
                if avg > 2.0 * lam * (1.0 + 1e-8):
                    raise AssertionError(
                        "half average exceeds twice the threshold below a "
                        "parent at or under it; quadrature is inconsistent"
                    )
                selected.append((lo, hi, avg, mu))
            elif mu >= mass_floor and sup > lam:
                # f <= lam across the cell means no descendant is selectable;
                # recursing is only useful where the level set still crosses
                stack.append((lo, hi, mu, depth + 1))
        # the parent average was <= lam, so at most one half can exceed it
        if over == 2:
            raise AssertionError("both halves exceed the threshold")
    selected.sort(key=lambda iv: iv[0])

    # G* grows each selected interval by its own mass on either side
    inflated = [
        (_invert_mass(m, l, a, mu, m.interval_mass_exact(a, l))[0],
         _invert_mass(m, r, b, mu, m.interval_mass_exact(r, b))[0])
        for l, r, _, mu in selected
    ]
    mass_gstar, merged = _merged_mass(m, inflated)
    lefts = np.array([iv[0] for iv in selected])
    rights = np.array([iv[1] for iv in selected])
    avgs = np.array([iv[2] for iv in selected])

    def good(x):
        x = np.asarray(x, dtype=float)
        out = np.asarray(f(x), dtype=float).copy()
        if lefts.size:
            idx = np.searchsorted(lefts, x, side="right") - 1
            inside = (idx >= 0) & (x <= rights[np.clip(idx, 0, None)])
            out[inside] = avgs[idx[inside]]
        return out

    def bad(x):
        x = np.asarray(x, dtype=float)
        return np.asarray(f(x), dtype=float) - good(x)

    return CZDecomposition(
        lam=lam,
        intervals=tuple((l, r, avg) for l, r, avg, _ in selected),
        good=good,
        bad=bad,
        mass_G=sum((mu for *_, mu in selected), 0.0),
        mass_Gstar=mass_gstar,
        gstar_intervals=merged,
        norm1=norm1,
        trivial=trivial,
    )


# ---- variation constants --------------------------------------------------


@dataclass(frozen=True)
class ZygmundConstants:
    """M1 bounds kernel mass, M2 the measure-weighted second variation, and
    M = M1 + 2 M2 is the constant dominating kernel averages by the maximal
    function. m2_trace records (depth, value) refinements; stable is False
    when the finest refinement still grew by more than 10x."""

    M1: float
    M2: float
    M: float
    stable: bool
    m2_trace: tuple


def _weighted_variation(kernel, m: WeightedMeasure, r: float, x: float, depth: int) -> float:
    """max of the two one-sided Stieltjes sums sum mu(x, y_i) |dK| on a
    uniform partition of each side at the given dyadic depth; mu(x, y_i)
    is a running sum of the partition's cell masses outward from x."""
    a, b = m.support
    n = 2**depth
    worst = 0.0
    for lo, hi, right in ((x, b, True), (a, x, False)):
        if hi - lo > 1e-14 * (b - a):
            ys = np.linspace(lo, hi, n + 1)
            dk = np.abs(np.diff(np.asarray(kernel(r, x, ys), dtype=float)))
            cm = m.cell_masses(ys)
            # step i weighs mu between x and y_(i+1): the cells up to it on
            # the right, the cells after it on the left (none after the last)
            wts = np.cumsum(cm) if right else np.append(np.cumsum(cm[:0:-1])[::-1], 0.0)
            worst = max(worst, float(np.dot(wts, dk)))
    return worst


def zygmund_constants(
    kernel,
    m: WeightedMeasure,
    r_grid,
    x_grid,
    partition_depth: int = 12,
    order: int = 512,
) -> ZygmundConstants:
    """Kernel-mass and weighted-variation constants over an (r, x) grid.

    kernel is a callable (r, x, y_array) -> values. M1 takes quadrature
    masses of |K|; M2 takes Stieltjes sums on nested uniform partitions,
    reported at the finest depth with a growth flag.
    """
    if partition_depth < 5:
        raise DomainError(f"need partition_depth >= 5, got {partition_depth}")
    rs = np.atleast_1d(np.asarray(r_grid, dtype=float))
    xs = np.atleast_1d(np.asarray(x_grid, dtype=float))
    nodes, weights = m.quadrature_rule(order)
    m1 = 0.0
    for r in rs:
        for x in xs:
            vals = np.asarray(kernel(float(r), float(x), nodes), dtype=float)
            m1 = max(m1, float(np.dot(weights, np.abs(vals))))
    depths = [max(5, partition_depth - 4), max(6, partition_depth - 2), partition_depth]
    trace = []
    for d in depths:
        m2_d = 0.0
        for r in rs:
            for x in xs:
                m2_d = max(m2_d, _weighted_variation(kernel, m, float(r), float(x), d))
        trace.append((d, m2_d))
    m2 = trace[-1][1]
    prev = trace[-2][1]
    stable = not (prev > 0.0 and m2 > 10.0 * prev) and not (prev == 0.0 and m2 > 0.0)
    return ZygmundConstants(M1=m1, M2=m2, M=m1 + 2.0 * m2, stable=stable, m2_trace=tuple(trace))


def _kernel_sups(kernel, m: WeightedMeasure, f, r_grid, xs, order: int) -> list:
    """sup over the r grid of |int K(r, x, .) f dmu| at each x, on m's rule."""
    rs = np.atleast_1d(np.asarray(r_grid, dtype=float))
    nodes, weights = m.quadrature_rule(order)
    fvals = np.asarray(f(nodes), dtype=float)
    return [
        max(
            abs(float(np.dot(weights, np.asarray(kernel(float(r), float(x), nodes)) * fvals)))
            for r in rs
        )
        for x in xs
    ]


def zygmund_bound_check(
    kernel,
    m: WeightedMeasure,
    f,
    r_grid,
    x_grid,
    constants: ZygmundConstants | None = None,
    order: int = 512,
) -> float:
    """Worst ratio over the x grid of sup_r |int K f dmu| against
    (M1 + 2 M2) times the maximal function; at most 1 + discretization slack
    when the variation constants hold."""
    if constants is None:
        constants = zygmund_constants(kernel, m, r_grid, x_grid)
    xs = np.atleast_1d(np.asarray(x_grid, dtype=float))
    fstar = hl_maximal(m, f, xs)
    # points where the maximal function vanishes bound nothing
    keep = fstar > 1e-14 * max(1.0, float(np.max(fstar)))
    sups = _kernel_sups(kernel, m, f, r_grid, xs[keep], order)
    return max([0.0] + [t / (constants.M * fs) for t, fs in zip(sups, fstar[keep])])


def kernel_level_bound_check(
    kernel,
    m: WeightedMeasure,
    f,
    lam: float,
    r_grid,
    n_x: int = 64,
    order: int = 512,
) -> float:
    """Fitted constant C with sup_r |int K f dmu| <= C lam for x outside the
    inflated selection at threshold lam. Returns 0 when no probe point falls
    outside."""
    cz = cz_decompose(m, f, lam)
    a, b = m.support
    xs = np.linspace(a, b, n_x + 2)[1:-1]
    outside = np.ones(xs.size, dtype=bool)
    for l, r in cz.gstar_intervals:
        outside &= (xs < l) | (xs > r)
    xs = xs[outside]
    if xs.size == 0:
        return 0.0
    return max([0.0] + _kernel_sups(kernel, m, f, r_grid, xs, order)) / lam


# ---- weights ---------------------------------------------------------------


@dataclass(frozen=True)
class PowerWeight:
    """Weight of the form prod |x - c|^e, the admissible endpoint-power
    family. factors is a tuple of (anchor, exponent) pairs; an empty tuple is
    the unit weight."""

    factors: tuple = ()

    def __post_init__(self):
        object.__setattr__(
            self, "factors", tuple((float(c), float(e)) for c, e in self.factors)
        )

    def __call__(self, x):
        return _power_product(self.factors, x)

    def scaled(self, s: float) -> "PowerWeight":
        return PowerWeight(tuple((c, e * s) for c, e in self.factors))


def _combined_measure(m: WeightedMeasure, w: PowerWeight, scale: float = 1.0):
    """Measure w^scale dmu as a WeightedMeasure, or None when the combined
    density is not integrable (or needs an interior singularity the measure
    layer cannot represent)."""
    merged: dict = {}
    for c, e in m._factors():
        merged[c] = merged.get(c, 0.0) + e
    for c, e in w.factors:
        merged[c] = merged.get(c, 0.0) + e * scale
    merged = {c: e for c, e in merged.items() if abs(e) > 1e-15}
    a, b = m.support
    for c, e in merged.items():
        if e <= -1.0 and a <= c <= b:
            return None
        if e < 0.0 and a < c < b:
            return None
    if not merged:
        return WeightedMeasure.lebesgue(a, b)
    anchors = set(merged)
    try:
        if (a, b) == (-1.0, 1.0) and anchors <= {-1.0, 1.0}:
            return WeightedMeasure.jacobi(merged.get(1.0, 0.0), merged.get(-1.0, 0.0))
        if (a, b) in ((0.0, 1.0), (-1.0, 0.0)) and anchors == {0.0}:
            return WeightedMeasure.power(merged[0.0], (a, b))
        return WeightedMeasure.product(sorted(merged.items()), (a, b))
    except DomainError:
        return None


def weighted_interval_average(m: WeightedMeasure, w: PowerWeight, interval) -> float:
    """(1/mu(I)) int_I w dmu through exact masses of the product measure."""
    mw = _combined_measure(m, w, 1.0)
    if mw is None:
        return math.inf
    l, r = interval
    base = interval_mass(m, (l, r))
    if base <= 0.0:
        raise DegenerateInputError(f"interval [{l}, {r}] has zero mass")
    return interval_mass(mw, (l, r)) / base


# pair-table entries per row slice of _window_sup (256 KiB of floats)
_WINDOW_FLOATS = 2**15


def _window_sup(base, top, dual, p_exp: float) -> float:
    """sup over grid windows of (top/base) (dual/base)^(p-1), from per-cell
    masses; windows of zero base mass are skipped.

    Left endpoints are taken in slices of at most 2^15 / (n+1) rows with a
    running max, so memory is O(n) while each entry is the same elementwise
    expression as on the full pair table, and the max is bitwise its max.
    """
    cb = np.concatenate([[0.0], np.cumsum(base)])
    ct = np.concatenate([[0.0], np.cumsum(top)])
    cd = np.concatenate([[0.0], np.cumsum(dual)])
    step = max(1, _WINDOW_FLOATS // cb.size)
    best = -np.inf
    for lo in range(0, cb.size, step):
        rows = slice(lo, lo + step)
        db = cb[None, :] - cb[rows, None]
        with np.errstate(invalid="ignore", divide="ignore"):
            prod = ((ct[None, :] - ct[rows, None]) / db) * (
                ((cd[None, :] - cd[rows, None]) / db) ** (p_exp - 1.0)
            )
        prod[~(db > 0.0)] = -np.inf
        best = np.maximum(best, np.max(prod))
    return float(best)


def ap_constant(
    w: PowerWeight,
    m: WeightedMeasure,
    p_exp: float,
    grid_size: int = 512,
) -> float:
    """Muckenhoupt characteristic: sup over the interval family of
    [avg of w] [avg of w^(-1/(p-1))]^(p-1), averages in dmu.

    Infinite (returned as inf) when either combined density fails to be
    integrable. The family is every sub-interval with endpoints on a graded
    grid, denser near the support endpoints.
    """
    if p_exp <= 1.0:
        raise DomainError("need p > 1; use a1_constant for p = 1")
    mw = _combined_measure(m, w, 1.0)
    mv = _combined_measure(m, w, -1.0 / (p_exp - 1.0))
    if mw is None or mv is None:
        return math.inf
    grid = _window_grid(m, grid_size)
    return _window_sup(m.cell_masses(grid), mw.cell_masses(grid), mv.cell_masses(grid), p_exp)


def a1_constant(
    w: PowerWeight,
    m: WeightedMeasure,
    grid_size: int = 512,
) -> float:
    """sup over the grid's cell midpoints of (maximal function of w in dmu) / w,
    with the maximal function computed from exact product-measure masses."""
    mw = _combined_measure(m, w, 1.0)
    if mw is None:
        return math.inf
    grid = _window_grid(m, grid_size)
    masses = m.cell_masses(grid)
    profile = _maximal_profile(masses, mw.cell_masses(grid))
    keep = masses > 0.0
    mids = (0.5 * (grid[:-1] + grid[1:]))[keep]
    return float(np.max(profile[keep] / w(mids)))


def ap_divergence_probe(
    w: PowerWeight,
    m: WeightedMeasure,
    p_exp: float,
    levels: int = 6,
) -> dict:
    """A_p products over families kept a shrinking distance 4^-j from the
    support ends, each on a graded grid with 128 uniform points. Divergence
    (>10x growth across levels) flags a weight outside the admissible class;
    admissible weights plateau.
    """
    if p_exp <= 1.0:
        raise DomainError("need p > 1")
    a, b = m.support
    width = b - a
    s = -1.0 / (p_exp - 1.0)
    sups = []
    for j in range(1, levels + 1):
        delta = width * 0.25**j
        grid = graded_grid(a + delta, b - delta, min_scale=1e-6, n_uniform=128)
        t, wt = m.cell_rules(grid, _AP_NODES)
        wv = w(t)
        base = wt.reshape(-1, _AP_NODES).sum(axis=1)
        top = _cell_sums(wt, wv, _AP_NODES)
        sups.append(_window_sup(base, top, _cell_sums(wt, wv**s, _AP_NODES), p_exp))
    divergent = sups[-1] > 10.0 * sups[0]
    return {"sups": sups, "divergent": divergent}
