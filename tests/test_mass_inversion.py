"""The one mass inversion of the measure layer, `measure._invert_mass`.

It bisects from a point x0 toward x1 for the point t with mu between x0 and
t equal to a target. `equal_measure_split` and the stopping time's inflated
set G* (`harmonic.cz_decompose`) both call it. The references below are the
loops these two ran before: the split's is kept bitwise, and G*'s ends, once
a fixed 100 halvings, move by no more than the new stopping rule allows.
"""

import pytest

from jacobi_watson import WeightedMeasure, equal_measure_split, interval_mass
from jacobi_watson.measure import _invert_mass

MEASURES = {
    "jacobi(-0.9, 0.3)": WeightedMeasure.jacobi(-0.9, 0.3),
    "power(-0.6)": WeightedMeasure.power(-0.6),
    "product": WeightedMeasure.product(((0.0, -0.4), (1.0, 0.7)), (0.0, 1.0)),
    "lebesgue": WeightedMeasure.lebesgue(0.0, 1.0),
}


def _stretches(m):
    """Subintervals of the support: whole, touching each end, interior, tiny."""
    a, b = m.support
    w = b - a
    return [(a, b), (a, a + 0.3 * w), (b - 0.2 * w, b), (a + 0.1 * w, a + 0.7 * w),
            (b - 3e-7 * w, b - 1e-7 * w)]


def _split_loop(m, interval):
    """The bisection `equal_measure_split` ran on its own: to 1e-12 of the
    mass, a step below 1e-17 of the width, or 200 steps."""
    l, r = interval
    total = interval_mass(m, (l, r))
    lo, hi = l, r
    for _ in range(200):
        c = 0.5 * (lo + hi)
        err = interval_mass(m, (l, c)) - 0.5 * total
        if abs(err) <= 0.5 * 1e-12 * total or hi - lo <= 1e-17 * (r - l):
            break
        if err > 0.0:
            hi = c
        else:
            lo = c
    return (l, c), (c, r)


def _hundred_halvings(m, point, target, direction):
    """The endpoint search G* ran on its own: 100 halvings, clipped at the
    support; direction "left" searches below the point."""
    a, b = m.support
    if direction == "left":
        if m.interval_mass_exact(a, point) <= target:
            return a
        lo, hi = a, point
        for _ in range(100):
            c = 0.5 * (lo + hi)
            if m.interval_mass_exact(c, point) > target:
                lo = c
            else:
                hi = c
        return 0.5 * (lo + hi)
    if m.interval_mass_exact(point, b) <= target:
        return b
    lo, hi = point, b
    for _ in range(100):
        c = 0.5 * (lo + hi)
        if m.interval_mass_exact(point, c) > target:
            hi = c
        else:
            lo = c
    return 0.5 * (lo + hi)


def _mass_between(m, x0, t):
    return m.interval_mass_exact(min(x0, t), max(x0, t))


@pytest.mark.parametrize("name", sorted(MEASURES))
@pytest.mark.parametrize("share", [0.01, 0.3, 0.6])
def test_both_directions_stop_within_1e_12_of_the_target(name, share):
    # targets the float grid resolves: 1e-6 of the stretch from x0 = 0.4 ends
    # on the step rule, and 0.9 toward jacobi(-0.9, .)'s singular end leaves
    # 1 - t near 1e-11, where one ulp of t moves the mass by 1e-8
    m = MEASURES[name]
    a, b = m.support
    x0 = a + 0.4 * (b - a)
    for x1 in (a, b):
        whole = _mass_between(m, x0, x1)
        target = share * whole
        t, mass = _invert_mass(m, x0, x1, target, whole)
        assert min(x0, x1) < t < max(x0, x1)
        # the mass it returns is its last evaluation, bitwise a fresh one
        assert mass == _mass_between(m, x0, t)
        assert abs(mass - target) <= 1e-12 * target, (x1, mass / target - 1.0)


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_a_stretch_short_of_the_target_clips_at_its_end(name):
    m = MEASURES[name]
    a, b = m.support
    x0 = a + 0.75 * (b - a)
    for x1 in (a, b):
        whole = _mass_between(m, x0, x1)
        assert _invert_mass(m, x0, x1, 1.5 * whole, whole) == (x1, whole)
        assert _invert_mass(m, x0, x1, whole, whole) == (x1, whole)


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_equal_measure_split_is_the_former_loop_bitwise(name):
    m = MEASURES[name]
    for interval in _stretches(m):
        assert equal_measure_split(m, interval) == _split_loop(m, interval), interval


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_inflation_ends_within_1e_11_of_a_hundred_halvings(name):
    m = MEASURES[name]
    a, b = m.support
    for l, r in _stretches(m)[1:]:
        mu = m.interval_mass_exact(l, r)
        for share in (0.5, 1.0, 3.0):
            left, _ = _invert_mass(m, l, a, share * mu, m.interval_mass_exact(a, l))
            right, _ = _invert_mass(m, r, b, share * mu, m.interval_mass_exact(r, b))
            assert abs(left - _hundred_halvings(m, l, share * mu, "left")) <= 1e-11
            assert abs(right - _hundred_halvings(m, r, share * mu, "right")) <= 1e-11
