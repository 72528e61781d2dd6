"""A fourth-order Runge-Kutta integrator of the area ODE, driven by
`area_rate`: an oracle for the closed-form trajectory of `simulate` and
`critical_budget`, independent of it.

`rk4_to_ball` steps to the multiples of dt and splits a step exactly where
the set crosses a regime boundary (stadium entry, where the rate has a
kink), so the order survives, and stops at ball entry.  A ball of area a
dies iff 2*sqrt(pi*a) < M, its perimeter below the budget, so ball entry
decides the outcome.
"""

import math

from shrinkset import area_rate, dilate, inner_radius, rounded_area
from shrinkset.evolution import default_step


def rk4_to_ball(omega0, M, horizon, dt):
    """Sample times and areas from t = 0 to ball entry or the horizon,
    whichever comes first, and the ball-entry time (None if not reached)."""

    def rate(t, a):
        return area_rate(omega0, t, a, M)

    def step(t, a, h):
        k1 = rate(t, a)
        k2 = rate(t + 0.5 * h, a + 0.5 * h * k1)
        k3 = rate(t + 0.5 * h, a + 0.5 * h * k2)
        k4 = rate(t + h, a + h * k3)
        return a + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    # signed distances to the regime boundaries, in the order they are met
    def past_hat(t, a):
        r, locus = inner_radius(dilate(omega0, t))
        return a - (math.pi * r * r + 4.0 * r * locus.half_length)

    def past_ball(t, a):
        r = inner_radius(dilate(omega0, t))[0]
        return a - math.pi * r * r

    ts, areas = [0.0], [rounded_area(omega0)]
    events = [past_hat, past_ball]
    k = 1
    while True:
        t, a = ts[-1], areas[-1]
        while events and events[0](t, a) <= 0.0:
            if events.pop(0) is past_ball:
                return ts, areas, t
        if t >= horizon:
            return ts, areas, None
        end = min(k * dt, horizon)
        t1, a1 = end, step(t, a, end - t)
        if events[0](t1, a1) <= 0.0:
            # bisect the step for the crossing, to float resolution
            lo, hi = 0.0, end - t
            while lo < 0.5 * (lo + hi) < hi:
                mid = 0.5 * (lo + hi)
                if events[0](t + mid, step(t, a, mid)) > 0.0:
                    lo = mid
                else:
                    hi = mid
            if hi < end - t:
                t1, a1 = t + hi, step(t, a, hi)
        k += t1 == end
        ts.append(t1)
        areas.append(a1)


def rk4_dies(omega0, M, horizon, dt=None):
    _, areas, t_ball = rk4_to_ball(omega0, M, horizon, dt or default_step(omega0))
    perimeter_floor = 2.0 * math.sqrt(math.pi * areas[-1])
    if t_ball is None and perimeter_floor < M:
        raise AssertionError(f"no outcome at M = {M} within the horizon {horizon}")
    # every set of area a has perimeter at least 2 sqrt(pi a), so past
    # perimeter_floor > M the area grows for ever
    return perimeter_floor < M


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
