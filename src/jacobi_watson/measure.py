"""Weighted measures on an interval: densities, CDFs, splitting, doubling.

A measure is described by a family tag, parameters, and a support interval.
Densities are products of |x - c|^e factors; singular anchors must sit at the
support endpoints. CDFs use closed forms (incomplete beta, power laws) where
available and graded singular-aware quadrature otherwise; tiny intervals fall
back to local quadrature so relative precision survives cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DegenerateInputError, DomainError
from .quadrature import gauss_legendre, graded_breakpoints, piece_edges, _gauss_jacobi_raw

__all__ = [
    "WeightedMeasure",
    "interval_mass",
    "equal_measure_split",
    "doubling_ratio",
    "doubling_sweep",
    "dyadic_doubling_ratio_closed_form",
    "doubling_bracket",
]

_TINY_REL = 1e-6
# nodes of the local rule behind tiny-cell masses and the CDF table
_MASS_NODES = 24


def _jacobi_mass(alpha: float, beta: float, l, r):
    """Mass of [l, r] in (1-x)^alpha (1+x)^beta dx, for floats or arrays,
    from the regularized incomplete beta function. When both ends lie near +1
    it is the difference of the complementary tails, free of cancellation.
    Floats pick that branch with an `if`, as `np.where` on 0-d arrays would
    double the cost of a scalar mass, and skip the zero tail below a CDF's
    lower end."""
    scale = 2.0 ** (alpha + beta + 1.0) * special.beta(beta + 1.0, alpha + 1.0)
    vl, vr = 0.5 * (1.0 + l), 0.5 * (1.0 + r)
    tail = vl + vr > 1.0
    if isinstance(tail, np.ndarray):
        p = np.where(tail, alpha + 1.0, beta + 1.0)
        q = np.where(tail, beta + 1.0, alpha + 1.0)
        hi = np.where(tail, 1.0 - vl, vr)
        lo = np.where(tail, 1.0 - vr, vl)
        return scale * (special.betainc(p, q, hi) - special.betainc(p, q, lo))
    if tail:
        p, q, hi, lo = alpha + 1.0, beta + 1.0, 1.0 - vl, 1.0 - vr
    else:
        p, q, hi, lo = beta + 1.0, alpha + 1.0, vr, vl
    below = 0.0 if lo == 0.0 else special.betainc(p, q, lo)
    return scale * (special.betainc(p, q, hi) - below)


def _power_product(factors, x):
    """prod |x - c|^e over the (c, e) pairs of factors, multiplied in their
    order onto ones: the density of a measure and the value of a weight."""
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    for c, e in factors:
        out = out * np.abs(x - c) ** e
    return out


@dataclass(frozen=True, eq=False)
class WeightedMeasure:
    """Measure rho(x) dx on [support[0], support[1]].

    family is one of "lebesgue", "jacobi", "power", "product"; params hold the
    exponents. Treat instances as immutable.
    """

    family: str
    params: tuple
    support: tuple

    def __post_init__(self):
        a, b = self.support
        if self.family not in ("lebesgue", "jacobi", "power", "product"):
            raise DomainError(f"unknown family {self.family!r}")
        if not all(map(math.isfinite, (a, b, *sum(self._factors(), ())))):
            raise DomainError(
                f"need finite numbers, got {self.family} {self.params} on [{a}, {b}]"
            )
        if not (b > a):
            raise DegenerateInputError(f"empty support [{a}, {b}]")
        for c, e in self._factors():
            if e <= -1.0:
                raise DomainError(f"factor exponent {e} at {c} is not integrable")
            if e < 0.0 and a < c < b:
                raise DomainError("negative exponents must anchor at a support endpoint")
        object.__setattr__(self, "_cum_cache", None)

    # ---- constructors -------------------------------------------------

    @classmethod
    def lebesgue(cls, a: float = 0.0, b: float = 1.0) -> "WeightedMeasure":
        return cls("lebesgue", (), (float(a), float(b)))

    @classmethod
    def jacobi(cls, alpha: float, beta: float) -> "WeightedMeasure":
        if alpha <= -1.0 or beta <= -1.0:
            raise DomainError(f"need alpha, beta > -1, got ({alpha}, {beta})")
        return cls("jacobi", (float(alpha), float(beta)), (-1.0, 1.0))

    @classmethod
    def power(cls, a: float, support=(0.0, 1.0)) -> "WeightedMeasure":
        """|x|^a dx on (0, 1) or (-1, 0)."""
        support = (float(support[0]), float(support[1]))
        if support not in ((0.0, 1.0), (-1.0, 0.0)):
            raise DomainError("power family lives on (0, 1) or (-1, 0)")
        if a <= -1.0:
            raise DomainError(f"need a > -1, got {a}")
        return cls("power", (float(a),), support)

    @classmethod
    def product(cls, factors, support) -> "WeightedMeasure":
        """Density prod |x - c|^e for (c, e) pairs in `factors`."""
        params = tuple((float(c), float(e)) for c, e in factors)
        return cls("product", params, (float(support[0]), float(support[1])))

    # ---- density -------------------------------------------------------

    def _factors(self):
        if self.family == "lebesgue":
            return ()
        if self.family == "jacobi":
            alpha, beta = self.params
            return ((1.0, alpha), (-1.0, beta))
        if self.family == "power":
            return ((0.0, self.params[0]),)
        return self.params

    def density(self, x):
        return _power_product(self._factors(), x)

    # ---- cdf and interval mass -----------------------------------------

    @property
    def total_mass(self) -> float:
        return self.cdf(self.support[1])

    def cdf(self, x: float) -> float:
        """Mass of [support_left, x]."""
        a, b = self.support
        return self.interval_mass_exact(a, min(max(float(x), a), b))

    def _quad_interval_mass(self, l: float, r: float) -> float:
        nodes, weights = self.cell_rule(l, r, _MASS_NODES)
        return float(np.sum(weights))

    def interval_mass_exact(self, l: float, r: float) -> float:
        """Mass of [l, r], using cancellation-safe branches for tiny intervals."""
        a, b = self.support
        if r <= l:
            return 0.0
        if self.family == "lebesgue":
            return r - l
        if self.family == "power":
            (p,) = self.params
            if a == 0.0:
                lo, hi = l, r
            else:
                lo, hi = -r, -l
            if lo <= 0.0:
                return hi ** (p + 1.0) / (p + 1.0)
            # hi^(p+1) - lo^(p+1) without cancellation; (hi - lo) / lo keeps the
            # digits of a short interval that the rounded ratio hi / lo loses
            return lo ** (p + 1.0) * math.expm1((p + 1.0) * math.log1p((hi - lo) / lo)) / (p + 1.0)
        if r - l < _TINY_REL * (b - a):
            return self._quad_interval_mass(l, r)
        if self.family == "jacobi":
            return _jacobi_mass(*self.params, l, r)
        return self._generic_cdf(r) - self._generic_cdf(l)

    def _cumulative_table(self):
        cache = getattr(self, "_cum_cache")
        if cache is not None:
            return cache
        a, b = self.support
        mid = 0.5 * (a + b)
        anchors = sorted({c for c, _ in self._factors() if a < c < b})
        halves = [graded_breakpoints(a, mid), graded_breakpoints(mid, b, lean_left=False)]
        bp = np.unique(np.concatenate([*halves, anchors]))
        # the 0.0 leads the running sum, as in a left-to-right scalar loop
        cum = np.cumsum(np.concatenate([[0.0], self._rule_masses(bp[:-1], bp[1:])]))
        table = (bp, cum)
        object.__setattr__(self, "_cum_cache", table)
        return table

    def _generic_cdf(self, x: float) -> float:
        a, b = self.support
        if x <= a:
            return 0.0
        bp, cum = self._cumulative_table()
        if x >= b:
            return float(cum[-1])
        i = int(np.searchsorted(bp, x, side="right") - 1)
        i = min(max(i, 0), bp.size - 2)
        partial = self._quad_interval_mass(bp[i], x) if x > bp[i] else 0.0
        return float(cum[i] + partial)

    def _generic_cdfs(self, x: np.ndarray) -> np.ndarray:
        """`_generic_cdf` at each point of x, with the partial cells batched."""
        a, b = self.support
        bp, cum = self._cumulative_table()
        i = np.clip(np.searchsorted(bp, x, side="right") - 1, 0, bp.size - 2)
        out = cum[i]
        part = (x > a) & (x < b) & (x > bp[i])
        out[part] += self._rule_masses(bp[i[part]], x[part])
        out[x >= b] = cum[-1]
        out[x <= a] = 0.0
        return out

    # ---- quadrature against the measure ---------------------------------

    def cell_rule(self, l: float, r: float, n: int = 24):
        """Nodes/weights with the density folded in: sum w f(x) ~ int_l^r f dmu.

        Singular endpoint factors are absorbed by Gauss-Jacobi weights when l
        or r is an anchor; cells must not contain an anchor strictly inside.
        """
        if not (r > l):
            raise DegenerateInputError(f"need r > l, got [{l}, {r}]")
        factors = self._factors()
        e_l = sum(e for c, e in factors if c == l)
        e_r = sum(e for c, e in factors if c == r)
        rest = [(c, e) for c, e in factors if c != l and c != r]
        for c, _ in rest:
            if l < c < r:
                raise DomainError(f"anchor {c} lies inside cell [{l}, {r}]")
        half = 0.5 * (r - l)
        mid = 0.5 * (r + l)
        if e_l == 0.0 and e_r == 0.0:
            xi, wi = gauss_legendre(n)
            t = mid + half * xi
            w = half * wi
        else:
            xi, wi = _gauss_jacobi_raw(n, e_r, e_l)
            t = mid + half * xi
            w = half ** (1.0 + e_l + e_r) * wi
        for c, e in rest:
            w = w * np.abs(t - c) ** e
        return t, w

    def _cell_rule_rows(self, lefts, rights, n: int):
        """`cell_rule` on each cell [lefts[k], rights[k]], as (cells, n) arrays.

        Cells with no nonzero-exponent anchor at either end share one broadcast
        of the Legendre rule, with the same operations in the same order as
        `cell_rule`, so every row is bitwise the scalar one. Cells with a
        singular end keep `cell_rule`'s Gauss-Jacobi path, row by row.
        """
        l = np.asarray(lefts, dtype=float)
        r = np.asarray(rights, dtype=float)
        factors = self._factors()
        bad = ~(r > l)
        anchored = np.zeros(l.shape, dtype=bool)
        for c, e in factors:
            bad |= (l < c) & (c < r)
            if e != 0.0:
                anchored |= (l == c) | (r == c)
        if np.any(bad):
            # the first bad cell raises what the row-by-row loop would raise
            k = int(np.argmax(bad))
            self.cell_rule(lefts[k], rights[k], n)
        t = np.empty((l.size, n))
        w = np.empty((l.size, n))
        free = ~anchored
        if np.any(free):
            xi, wi = gauss_legendre(n)
            half = 0.5 * (r[free] - l[free])[:, None]
            mid = 0.5 * (r[free] + l[free])[:, None]
            tf = mid + half * xi
            wf = half * wi
            # a factor anchored at an end of a free cell has exponent 0 and
            # multiplies by exactly 1
            for c, e in factors:
                wf = wf * np.abs(tf - c) ** e
            t[free] = tf
            w[free] = wf
        for k in np.flatnonzero(anchored):
            t[k], w[k] = self.cell_rule(lefts[k], rights[k], n)
        return t, w

    def _rule_masses(self, lefts, rights) -> np.ndarray:
        """`_quad_interval_mass` of each cell [lefts[k], rights[k]]."""
        return self._cell_rule_rows(lefts, rights, _MASS_NODES)[1].sum(axis=1)

    def cell_rules(self, edges, n: int):
        """`cell_rule` on each cell between consecutive edges, concatenated:
        n nodes per cell, so reshape(-1, n) gives one row per cell.

        Batched over the cells and bitwise equal to the loop over `cell_rule`,
        including its errors: DegenerateInputError for a cell with r <= l,
        DomainError for an anchor strictly inside a cell.
        """
        t, w = self._cell_rule_rows(edges[:-1], edges[1:], n)
        return t.ravel(), w.ravel()

    def cell_masses(self, edges) -> np.ndarray:
        """`interval_mass_exact` of each cell between consecutive edges.

        Batched over the cells and bitwise equal to the scalar loop: jacobi
        masses take `_jacobi_mass` on arrays, product masses look the CDF
        table up in one `searchsorted`, and tiny cells and partial table cells
        sum batched 24-node rules. Power masses stay a loop over the scalar, whose libm
        `**`, `log1p` and `expm1` numpy's vector versions do not match to the ulp.
        """
        if self.family == "power":
            return np.array([self.interval_mass_exact(l, r) for l, r in zip(edges[:-1], edges[1:])])
        l = np.asarray(edges[:-1], dtype=float)
        r = np.asarray(edges[1:], dtype=float)
        out = np.zeros(l.size)
        live = ~(r <= l)
        if self.family == "lebesgue":
            out[live] = (r - l)[live]
            return out
        a, b = self.support
        tiny = live & (r - l < _TINY_REL * (b - a))
        out[tiny] = self._rule_masses(l[tiny], r[tiny])
        wide = live & ~tiny
        if self.family == "product":
            out[wide] = self._generic_cdfs(r[wide]) - self._generic_cdfs(l[wide])
            return out
        out[wide] = _jacobi_mass(*self.params, l[wide], r[wide])
        return out

    def quadrature_rule(self, n: int, breakpoints=()):
        """Rule for the whole support, split at the breakpoints inside it.

        Each piece between breakpoints gets one Gauss rule, which keeps
        polynomial projections exact up to the rule degree; subdividing
        instead would alias high-degree modes. Without breakpoints a product
        measure is graded into cells toward its ends and anchors.
        """
        a, b = self.support
        edges = piece_edges(a, b, breakpoints)
        if len(edges) > 2:
            return self.cell_rules(edges, max(24, n // (len(edges) - 1)))
        if self.family != "product":
            return self.cell_rule(a, b, n)
        bp, _ = self._cumulative_table()
        return self.cell_rules(bp, max(8, n // 8))


def _check_inside(m: WeightedMeasure, interval) -> tuple:
    a, b = m.support
    l, r = float(interval[0]), float(interval[1])
    slack = 1e-12 * (b - a)
    if l < a - slack or r > b + slack:
        raise DomainError(f"interval [{l}, {r}] leaves the support [{a}, {b}]")
    return (min(max(l, a), b), min(max(r, a), b))


def interval_mass(m: WeightedMeasure, interval) -> float:
    """Mass of a closed subinterval of the support."""
    l, r = _check_inside(m, interval)
    if r <= l:
        return 0.0
    return m.interval_mass_exact(l, r)


def _invert_mass(m: WeightedMeasure, x0: float, x1: float, target: float, whole: float):
    """(t, mass), mass = mu between x0 and t, for t between x0 and x1 (either
    order), by bisection from x0: it stops when mass is within 1e-12 of target
    (relative), when the step falls below 1e-17 |x1 - x0|, which ends a target
    the float grid cannot resolve, or after 200 steps. whole is mu between x0
    and x1; when it is at most target, the answer is (x1, whole)."""
    if whole <= target:
        return x1, whole
    near, far = x0, x1
    for _ in range(200):
        t = 0.5 * (near + far)
        mass = m.interval_mass_exact(min(x0, t), max(x0, t))
        err = mass - target
        if abs(err) <= 1e-12 * target or abs(far - near) <= 1e-17 * abs(x1 - x0):
            break
        if err > 0.0:
            far = t
        else:
            near = t
    return t, mass


def equal_measure_split(m: WeightedMeasure, interval):
    """Split an interval into two halves of equal measure (`_invert_mass`)."""
    l, r = _check_inside(m, interval)
    total = interval_mass(m, (l, r))
    if total <= 0.0:
        raise DegenerateInputError(f"interval [{l}, {r}] has zero mass")
    c, _ = _invert_mass(m, l, r, 0.5 * total, total)
    return (l, c), (c, r)


def doubling_ratio(m: WeightedMeasure, interval) -> float:
    """mu(3I)/mu(I) with 3I the concentric triple clipped to the support."""
    l, r = _check_inside(m, interval)
    base = interval_mass(m, (l, r))
    if base <= 0.0:
        raise DegenerateInputError(f"interval [{l}, {r}] has zero mass")
    a, b = m.support
    c, w = 0.5 * (l + r), r - l
    tl, tr = max(c - 1.5 * w, a), min(c + 1.5 * w, b)
    return interval_mass(m, (tl, tr)) / base


def doubling_sweep(m: WeightedMeasure, max_depth: int) -> float:
    """Sup of doubling ratios over the dyadic cells of the support up to a depth."""
    a, b = m.support
    best = 0.0
    for j in range(1, max_depth + 1):
        edges = np.linspace(a, b, 2**j + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            if interval_mass(m, (lo, hi)) <= 0.0:
                continue
            best = max(best, doubling_ratio(m, (lo, hi)))
    return best


def dyadic_doubling_ratio_closed_form(a: float, k: int, j: int = 0) -> float:
    """Doubling ratio of x^a dx over [k 2^-j, (k+1) 2^-j], k >= 2.

    Equals ((k+2)^(a+1) - (k-1)^(a+1)) / ((k+1)^(a+1) - k^(a+1)); the scale
    2^-j cancels, so the value does not depend on j. Evaluated through
    expm1/log1p so the k -> infinity approach to 3 keeps full precision.
    """
    if a <= -1.0:
        raise DomainError(f"need a > -1, got {a}")
    if k < 2:
        raise DomainError(f"need k >= 2, got {k}")
    if j < 0:
        raise DomainError(f"need j >= 0, got {j}")
    s = a + 1.0
    num = math.expm1(s * math.log1p(2.0 / k)) - math.expm1(s * math.log1p(-1.0 / k))
    den = math.expm1(s * math.log1p(1.0 / k))
    return num / den


def doubling_bracket(a: float):
    """Sharp two-sided bracket for the dyadic doubling ratios of x^a dx.

    One end is the scale-free limit 3 (k -> infinity), the other the extreme
    value 3^(a+1)/(2^(a+1)-1); orientation depends on the sign of a(a-1).
    """
    if a <= -1.0:
        raise DomainError(f"need a > -1, got {a}")
    extreme = 3.0 ** (a + 1.0) / (2.0 ** (a + 1.0) - 1.0)
    return (min(3.0, extreme), max(3.0, extreme))
