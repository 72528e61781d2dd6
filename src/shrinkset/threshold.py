"""Long-run classification and the critical budget, from the closed-form
trajectory (see evolution): the set becomes a ball of radius R_b at T† and
then dies iff R_b < M / 2pi.  R_b falls with M, so the critical budget is
the one root of ln R_b(M) - ln(M / 2pi), which Brent's bracketed method
finds to adjacent floats in a handful of evaluations (see critical_budget).
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass

from .errors import NotCriticalError, require_finite
from .evolution import _trajectory
from .geometry import RoundedSet

EXTINCT = "Extinct"
GROWS = "Grows"


@dataclass(frozen=True)
class Outcome:
    kind: str  # Extinct | Grows
    time: float  # extinction time T* if Extinct, ball-entry time T† if Grows


def classify(omega0: RoundedSet, M: float) -> Outcome:
    """Extinct at the extinction time T*, or Grows (for ever) from the
    ball-entry time T†: the outcome of the budget-M evolution."""
    require_finite("budget M", M, sys.float_info.min)
    _, _, t_ball, t_star, _ = _trajectory(omega0).phases(M)[-1]
    return Outcome(GROWS, t_ball) if t_star == math.inf else Outcome(EXTINCT, t_star)


def _brent(f, a: float, fa: float, b: float) -> tuple[float, float]:
    """Root of f between a and b, where f(a) and f(b) differ in sign, by
    Brent's method (Brent 1973, ch. 4, as netlib zeroin): inverse quadratic
    and secant steps, with bisection wherever they would not shrink the
    bracket fast enough.  It stops only at a zero or at a bracket of adjacent
    floats, so its tolerance is an ulp: returns the end of smaller |f| and
    the float next to it in the bracket, or the zero and the float above."""
    fb = f(b)
    # b is the best guess and c the bracket's other end, where f has the
    # other sign; a is the previous b, and e the step before last
    c, fc = a, fa
    d = e = b - a
    while fb != 0.0:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c, fa, fb, fc = b, c, b, fb, fc, fb
        if math.nextafter(b, c) == c:
            return b, c
        step, m = sys.float_info.epsilon * abs(b), 0.5 * (c - b)
        if abs(m) > step and abs(e) >= step and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # the secant through a and b
                p, q = 2.0 * m * s, 1.0 - s
            else:  # the inverse quadratic through a, b and c
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            p, q = abs(p), -q if p > 0.0 else q
            # kept if it lands well inside the bracket and shrinks it faster
            # than the bisection two steps back would
            if 2.0 * p < min(3.0 * m * q - abs(step * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        # a step of at least an ulp or two, or to the midpoint of a bracket
        # that narrow, which is a float strictly inside it
        b += d if abs(d) > step else math.copysign(min(step, abs(m)), m)
        fb = f(b)
    return b, math.nextafter(b, math.inf)


def critical_budget(omega0: RoundedSet, tol: float = 1e-3, full_output: bool = False):
    """The root M0 of ln R_b(M) - ln(M / 2pi), by Brent's method in M between
    the isoperimetric floor 2 sqrt(pi * area) and a budget where the set
    provably dies.  The final bracket [lo, hi] is two adjacent floats
    whatever tol is, which must be positive and bounds its width, and M0 is
    its end of smaller |excess|, not its dying end: with the excess at ulp
    noise there, 296 of 500 random_rounded_set hulls (default_rng(5)) grow
    at M0, and for 4 neither end dies (ROADMAP.md, small leads).  A ball,
    whose excess at the floor is not positive, has the floor for its root.
    With full_output, also returns the final bracket and the root log: one
    (M, excess, seconds) per evaluation of the excess."""
    require_finite("tol", tol, 0.0, strict=True)
    traj = _trajectory(omega0)
    roots = []

    def excess(M: float) -> float:
        start = time.perf_counter()
        f = traj.excess(M)
        roots.append((M, f, time.perf_counter() - start))
        return f

    floor = traj.floor
    f = excess(floor)
    if f > 0.0:
        m0, end = _brent(excess, floor, f, traj.cap)
    else:  # a ball
        m0, end = floor, math.nextafter(floor, math.inf)
    if full_output:
        return m0, (min(m0, end), max(m0, end)), roots
    return m0


def ball_time_at_critical(omega0: RoundedSet, M: float) -> float:
    """First time the controlled set becomes a ball, at a near-critical M.
    A budget below the isoperimetric floor 2 sqrt(pi * area), which no
    critical budget undercuts, raises NotCriticalError."""
    require_finite("budget M", M, sys.float_info.min)
    traj = _trajectory(omega0)
    if M < traj.floor:
        raise NotCriticalError(f"budget {M} is below the isoperimetric floor {traj.floor}")
    return traj.phases(M)[-1][2]
