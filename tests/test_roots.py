"""The safeguarded root search: jumps it cannot resolve, superlinear
steps on smooth misses, fewer evaluations with a slope than without, no
walk of one-cell Newton steps, and first-feasible cells on an integer grid,
with and without a slope."""

import numpy as np
import pytest

from isackit.roots import falling_root


def _search(miss, lo, hi, floor, tol, **options):
    """falling_root on [lo, hi], every evaluation of miss recorded, the two
    at the ends included."""
    seen = []

    def counted(x):
        seen.append(x)
        return miss(x)

    f_lo, f_hi = counted(lo), counted(hi)
    return falling_root(counted, lo, hi, f_lo, f_hi, floor, tol, **options), seen


def _logistic(v):
    return 1.0 / (1.0 + np.exp((v - 0.1) / 0.01))


# two smooth misses, their slopes and roots
_SMOOTH = [
    (lambda v: (1.0 + v) ** -4 - 1.37 ** -4, lambda v: -4.0 * (1.0 + v) ** -5, 0.37),
    (lambda v: _logistic(v) - 0.935, lambda v: -_logistic(v) * (1.0 - _logistic(v)) / 0.01,
     0.1 + 0.01 * np.log(1.0 / 0.935 - 1.0))]


@pytest.mark.parametrize("below, above", [(0.5, -0.5), (1e-12, -1.0)])
def test_falling_root_ends_at_a_jump_it_cannot_resolve(below, above):
    # a miss that jumps over the tolerance band at x = 1: the bracket
    # shrinks to 2^-40 of its width around the jump. The lopsided jump
    # stalls regula falsi at the low end; the safeguard bisects at least
    # once in every four steps.
    x, seen = _search(lambda v: below if v < 1.0 else above, 0.01, 4.0,
                      3.99 * 2.0 ** -40, 1e-13)
    assert x == seen[-1]
    assert abs(x - 1.0) <= 3.99 * 2.0 ** -40
    assert len(seen) <= 2 + 4 * 40


@pytest.mark.parametrize("miss, root", [(miss, root) for miss, _, root in _SMOOTH])
def test_falling_root_is_superlinear_on_a_smooth_miss(miss, root):
    # plain regula falsi under the same safeguard needs 25 and 34
    # evaluations here; the Illinois step needs 14
    x, seen = _search(miss, 0.01, 4.0, 3.99 * 2.0 ** -40, 1e-12)
    assert abs(miss(x)) <= 1e-12
    assert abs(x - root) <= 1e-9
    assert len(seen) <= 16


@pytest.mark.parametrize("miss, slope, root", _SMOOTH)
def test_a_supplied_slope_takes_fewer_evaluations(miss, slope, root):
    # Newton steps from lo, with the Illinois step where Newton's point
    # leaves the bracket or its step does not halve: 8 and 12 evaluations
    # against 14 and 14 without the slope
    x, seen = _search(miss, 0.01, 4.0, 3.99 * 2.0 ** -40, 1e-12)
    x_newton, seen_newton = _search(miss, 0.01, 4.0, 3.99 * 2.0 ** -40, 1e-12,
                                    slope=slope)
    assert abs(miss(x_newton)) <= 1e-12
    assert abs(x_newton - root) <= 1e-9
    assert len(seen_newton) < len(seen)


def test_a_slope_within_a_floor_does_not_walk_the_grid():
    # exp(-2x) - 1e-300 on the integer grid 0..2^40: from the infeasible
    # side, Newton's step is half a cell at every point, so steps of one
    # cell, were they not counted toward the bisection safeguard, would walk
    # the 345 cells up to the root
    def miss(x):
        return np.exp(-2.0 * x) - 1e-300

    def slope(x):
        return -2.0 * np.exp(-2.0 * x)

    x, seen = _search(miss, 0, 2 ** 40, 1, -1.0, snap=round, slope=slope)
    assert min(v for v in seen if miss(v) <= 0) == 346 and 345 in seen
    assert x in (345, 346) and x == seen[-1]
    assert len(seen) <= 2 + 4 * 40


@pytest.mark.parametrize("cells", [7, 1000, 2 ** 40])
def test_falling_root_finds_the_first_feasible_cell(cells):
    # a step miss on the integer grid 0..cells, feasible (<= 0) from cell c
    # on, with random heights on either side: the search must end where a
    # bisection does, on the bracket (c - 1, c), evaluating each cell once
    _first_feasible_cells(cells, with_slope=False)


@pytest.mark.parametrize("cells", [7, 1000, 2 ** 40])
def test_falling_root_with_a_slope_finds_the_first_feasible_cell(cells):
    # the same with Newton steps on the slope of the infeasible side, which
    # point past the jump at c
    _first_feasible_cells(cells, with_slope=True)


def _first_feasible_cells(cells, with_slope):
    rng = np.random.default_rng(cells)
    jumps = {1, 2, cells - 1, cells} | set(rng.integers(1, cells, 20).tolist())
    for c in sorted(jumps):
        a, b = 10.0 ** rng.uniform(-12, 2, 2)
        steep = rng.uniform(0, 1)

        def miss(x):
            return a + steep * (c - x) / cells if x < c else -b

        def slope(x):  # none on the flat feasible side
            return -steep / cells if x < c else None

        options = {"slope": slope} if with_slope else {}
        x, seen = _search(miss, 0, cells, 1, -1.0, snap=round, **options)
        inside = seen[2:]
        assert all(isinstance(v, int) and 0 < v < cells for v in inside)
        assert len(set(inside)) == len(inside)
        assert min(v for v in seen if miss(v) <= 0) == c
        assert c - 1 in seen
        assert x in (c - 1, c) and x == seen[-1]
        assert len(seen) <= 2 + 4 * np.log2(cells)
