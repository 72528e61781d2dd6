"""The critical budget by bisection over RK4 runs of `simulate`: an oracle
for the closed-form `critical_budget`, independent of it.

A run dies if it reaches extinction within the horizon, or if it ends as a
shrinking ball.  It grows if its last area a satisfies the isoperimetric
escape condition 2*sqrt(pi*a) > M: every set of area a has perimeter at
least that, so the rate perimeter - M stays positive and the area keeps
growing.  Near the critical budget both are decided at ball entry, which
comes early, so a short horizon suffices.
"""

import math

from shrinkset import rounded_area, simulate


def rk4_dies(omega0, M, horizon, dt=None):
    trace = simulate(omega0, M, horizon, dt)
    if trace.T_star is not None:
        return True
    perimeter_floor = 2.0 * math.sqrt(math.pi * float(trace.a[-1]))
    if perimeter_floor > M:
        return False
    if trace.T_dagger is not None:
        return True  # a ball below the stationary radius M / 2pi
    raise AssertionError(f"no outcome at M = {M} within the horizon {horizon}")


def rk4_critical_budget(omega0, rel_tol=1e-7, horizon=1.0, dt=None):
    """Bisect on M from the isoperimetric floor until the bracket is at most
    rel_tol wide relative to its ends; returns the bracket midpoint."""
    lo = 2.0 * math.sqrt(math.pi * rounded_area(omega0))
    assert not rk4_dies(omega0, lo, horizon, dt)
    hi = 2.0 * lo
    while not rk4_dies(omega0, hi, horizon, dt):
        lo, hi = hi, 2.0 * hi
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if rk4_dies(omega0, mid, horizon, dt):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
