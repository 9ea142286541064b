"""Safeguarded Illinois search for where a falling miss crosses zero, behind
the epsilon-constraint designs of `classical_design` (a weight on a 2^-40
grid) and the radar noise calibration of `constellation_ae` (a variance)."""


def falling_root(miss, lo, hi, f_lo: float, f_hi: float, floor, tol: float,
                 snap=lambda x: x):
    """Point in (lo, hi) where miss(x), which falls as x grows, crosses zero;
    f_lo = miss(lo) > 0 >= miss(hi) = f_hi, and hi - lo > floor.

    Each step is regula falsi, lo + (hi - lo) * f_lo / (f_lo - f_hi), with
    the other end's miss halved when the same end is kept twice (the Illinois
    step of Dowell and Jarratt, BIT 1971), so the search is superlinear where
    plain regula falsi stalls at one end. Safeguards keep it no slower than
    bisection: a step is passed through `snap` (e.g. `round` on an integer
    grid with floor 1) and clamped two floors inside the bracket, so that a
    root next to one end puts the step past it and the far end moves too,
    and a bisection step follows a clamped step; one also follows each pair
    of steps that did not halve the bracket; and once the bracket is four
    floors wide or narrower, every step bisects.

    A point with miss <= 0 becomes hi, any other lo. Returns the first point
    with |miss| <= tol (a negative tol never stops early), or else, once the
    bracket is `floor` wide, the last point evaluated, an end of it.
    """
    mark, steps, bisect = hi - lo, 0, False
    kept = 0  # +1 after lo moved last, -1 after hi did
    while hi - lo > floor:
        if bisect or hi - lo <= 4 * floor:
            x, bisect = snap(0.5 * (lo + hi)), False
        else:
            x = snap(lo + (hi - lo) * (f_lo / (f_lo - f_hi)))
            bisect = not lo + 2 * floor <= x <= hi - 2 * floor
            x = min(max(x, lo + 2 * floor), hi - 2 * floor)
        f = miss(x)
        if abs(f) <= tol:
            return x
        if f > 0:
            lo, f_lo = x, f
            if kept > 0:
                f_hi *= 0.5
            kept = 1
        else:
            hi, f_hi = x, f
            if kept < 0:
                f_lo *= 0.5
            kept = -1
        steps += 1
        if steps == 2:
            bisect = bisect or hi - lo > 0.5 * mark
            mark, steps = hi - lo, 0
    return x
