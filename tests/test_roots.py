"""The safeguarded Illinois search: jumps it cannot resolve, superlinear
steps on smooth misses, and first-feasible cells on an integer grid."""

import numpy as np
import pytest

from isackit.roots import falling_root


def _search(miss, lo, hi, floor, tol, **snap):
    """falling_root on [lo, hi], every evaluation of miss recorded, the two
    at the ends included."""
    seen = []

    def counted(x):
        seen.append(x)
        return miss(x)

    f_lo, f_hi = counted(lo), counted(hi)
    return falling_root(counted, lo, hi, f_lo, f_hi, floor, tol, **snap), seen


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


@pytest.mark.parametrize("miss, root", [
    (lambda v: (1.0 + v) ** -4 - 1.37 ** -4, 0.37),
    (lambda v: 1.0 / (1.0 + np.exp((v - 0.1) / 0.01)) - 0.935,
     0.1 + 0.01 * np.log(1.0 / 0.935 - 1.0))])
def test_falling_root_is_superlinear_on_a_smooth_miss(miss, root):
    # plain regula falsi under the same safeguard needs 25 and 34
    # evaluations here; the Illinois step needs 14
    x, seen = _search(miss, 0.01, 4.0, 3.99 * 2.0 ** -40, 1e-12)
    assert abs(miss(x)) <= 1e-12
    assert abs(x - root) <= 1e-9
    assert len(seen) <= 16


@pytest.mark.parametrize("cells", [7, 1000, 2 ** 40])
def test_falling_root_finds_the_first_feasible_cell(cells):
    # a step miss on the integer grid 0..cells, feasible (<= 0) from cell c
    # on, with random heights on either side: the search must end where a
    # bisection does, on the bracket (c - 1, c), evaluating each cell once
    rng = np.random.default_rng(cells)
    jumps = {1, 2, cells - 1, cells} | set(rng.integers(1, cells, 20).tolist())
    for c in sorted(jumps):
        a, b = 10.0 ** rng.uniform(-12, 2, 2)
        steep = rng.uniform(0, 1)

        def miss(x):
            return a + steep * (c - x) / cells if x < c else -b

        x, seen = _search(miss, 0, cells, 1, -1.0, snap=round)
        inside = seen[2:]
        assert all(isinstance(v, int) and 0 < v < cells for v in inside)
        assert len(set(inside)) == len(inside)
        assert min(v for v in seen if miss(v) <= 0) == c
        assert c - 1 in seen
        assert x in (c - 1, c) and x == seen[-1]
        assert len(seen) <= 2 + 4 * np.log2(cells)
