"""Safeguarded search for where a falling miss crosses zero, behind the
epsilon-constraint designs of `classical_design` (a weight on a 2^-40 grid,
by Newton steps on the closed-form slope of the constrained metric) and the
radar noise calibration of `constellation_ae` (a variance, by Illinois steps:
a Monte-Carlo miss has no slope)."""


def falling_root(miss, lo, hi, f_lo: float, f_hi: float, floor, tol: float,
                 snap=lambda x: x, slope=None):
    """Point in (lo, hi) where miss(x), which falls as x grows, crosses zero;
    f_lo = miss(lo) > 0 >= miss(hi) = f_hi, and hi - lo > floor.

    Without `slope`, each step is regula falsi, lo + (hi - lo) * f_lo /
    (f_lo - f_hi), with the other end's miss halved when the same end is
    kept twice (the Illinois step of Dowell and Jarratt, BIT 1971), so the
    search is superlinear where plain regula falsi stalls at one end.

    With `slope`, a function that returns the slope of miss at a point miss
    has evaluated (None where it has none), a step is Newton's from the last
    point evaluated (lo at first) when the slope is negative, Newton's point
    lies inside the bracket and the step is at most half as long as the
    step before last (the test of `rtsafe` in Press et al., Numerical
    Recipes: Newton's points may close on the root from one side, so they
    are judged by their steps, not by the bracket). Otherwise the step is
    the Illinois one. A Newton step shorter than `floor` goes to the
    neighbouring point on the root's side, one floor away, which closes the
    bracket when the root lies within it.

    Safeguards bound the search: a step is passed through `snap` (e.g.
    `round` on an integer grid with floor 1) and clamped two floors inside
    the bracket, so that a root next to one end puts the step past it and
    the far end moves too, and a bisection step follows a clamped step; one
    also follows each pair of counted steps that did not halve the bracket
    (every step counts but a Newton step of a floor or more, whose progress
    between counted steps is included); and once the bracket is four floors
    wide or narrower, every step bisects. A run of uncounted Newton steps
    ends, as each is at most half as long as the step before last; the
    one-floor steps count, so a slope that keeps pointing within a floor of
    the last point (a miss that decays like its slope) cannot walk the
    bracket a floor at a time.

    A point with miss <= 0 becomes hi, any other lo. Returns the first point
    with |miss| <= tol (a negative tol never stops early), or else, once the
    bracket is `floor` wide, the last point evaluated, an end of it.
    """
    mark, steps, bisect = hi - lo, 0, False
    kept = 0  # +1 after lo moved last, -1 after hi did
    x, f = lo, f_lo
    moved = (hi - lo, hi - lo)  # how far the last two steps went
    while hi - lo > floor:
        newton = False
        if slope is not None and not bisect and hi - lo > 4 * floor:
            d = slope(x)
            if d is not None and d < 0.0:
                t = x - f / d
                newton = lo < t < hi and abs(t - x) <= 0.5 * moved[0]
        if newton:
            if abs(t - x) < floor:  # a counted step
                t, newton = snap(x + floor if f > 0 else x - floor), False
            else:
                inner = min(max(t, lo + 2 * floor), hi - 2 * floor)
                bisect, t = inner != t, snap(inner)
        elif bisect or hi - lo <= 4 * floor:
            t, bisect = snap(0.5 * (lo + hi)), False
        else:
            t = snap(lo + (hi - lo) * (f_lo / (f_lo - f_hi)))
            bisect = not lo + 2 * floor <= t <= hi - 2 * floor
            t = min(max(t, lo + 2 * floor), hi - 2 * floor)
        moved, x = (moved[1], abs(t - x)), t
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
        if newton:
            continue
        steps += 1
        if steps == 2:
            bisect = bisect or hi - lo > 0.5 * mark
            mark, steps = hi - lo, 0
    return x
