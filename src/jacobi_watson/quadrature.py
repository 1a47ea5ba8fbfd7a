"""Deterministic quadrature helpers.

Mapped Gauss rules whose weights absorb known endpoint singularities
(t-l)^e_left (r-t)^e_right, graded cell subdivisions for boundary layers,
and a square-root substitution rule for integrals carrying a 1/sqrt(s-k)
factor. Callers pass the full integrand; the singular behavior is encoded
in the rule, not in the integrand handling.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import special

from .errors import DegenerateInputError, DomainError

__all__ = [
    "gauss_legendre",
    "interval_rule",
    "graded_breakpoints",
    "composite_rule",
    "sqrt_left_rule",
]


@lru_cache(maxsize=256)
def gauss_legendre(n: int):
    x, w = special.roots_legendre(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=512)
def _gauss_jacobi_raw(n: int, alpha: float, beta: float):
    if alpha == 0.0 and beta == 0.0:
        # not for speed (roots_jacobi(n, 0, 0) calls roots_legendre itself):
        # sharing gauss_legendre's cache keeps one copy of each Legendre rule
        return gauss_legendre(n)
    x, w = special.roots_jacobi(n, alpha, beta)
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
    ratio: float = 2.0,
    min_scale: float = 1e-15,
    n_uniform: int = 4,
) -> np.ndarray:
    """Breakpoints of [l, r] accumulating geometrically toward one endpoint.

    The first cell next to the graded endpoint has width about min_scale*(r-l);
    widths grow by `ratio` until they reach the uniform part.
    """
    if not (r > l):
        raise DegenerateInputError(f"need r > l, got [{l}, {r}]")
    width = r - l
    rel = [1.0 / n_uniform * k for k in range(n_uniform + 1)]
    pts = [1.0 / n_uniform]
    while pts[-1] / ratio > min_scale:
        pts.append(pts[-1] / ratio)
    rel = sorted(set(rel + pts))
    rel = np.asarray(rel)
    if lean_left:
        return l + width * rel
    return r - width * rel[::-1]


def composite_rule(breakpoints, n: int, e_left: float = 0.0, e_right: float = 0.0):
    """Composite rule over consecutive cells; endpoint exponents apply to the
    outermost cells only (interior cells are plain Gauss)."""
    bp = np.asarray(breakpoints, dtype=float)
    if bp.size < 2:
        raise DegenerateInputError("need at least two breakpoints")
    nodes, weights = [], []
    last = bp.size - 2
    for i in range(bp.size - 1):
        el = e_left if i == 0 else 0.0
        er = e_right if i == last else 0.0
        t, w = interval_rule(bp[i], bp[i + 1], n, el, er)
        nodes.append(t)
        weights.append(w)
    return np.concatenate(nodes), np.concatenate(weights)


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
    if level > 1:
        for _ in range(level - 1):
            edges = np.sort(np.concatenate([edges, 0.5 * (edges[1:] + edges[:-1])]))
    xi, wi = gauss_legendre(n_per_cell)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        mid = 0.5 * (b + a)
        u_nodes = mid + half * xi
        nodes.append(k + u_nodes**2)
        weights.append(2.0 * half * wi)
    return np.concatenate(nodes), np.concatenate(weights)
