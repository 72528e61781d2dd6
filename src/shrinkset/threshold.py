"""Long-run classification and the critical budget, from the closed-form
trajectory (see evolution): the set becomes a ball of radius R_b at T† and
then dies iff R_b < M / 2pi.  R_b falls with M, so the critical budget is
the one root of ln R_b(M) - ln(M / 2pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadConfigError, NotCriticalError
from .evolution import _Trajectory
from .geometry import RoundedSet

EXTINCT = "Extinct"
GROWS = "Grows"


@dataclass(frozen=True)
class Outcome:
    kind: str  # Extinct | Grows
    time: float  # extinction time T* if Extinct, ball-entry time T† if Grows


def _check_budget(M: float) -> None:
    if not (M > 0.0 and math.isfinite(M)):
        raise BadConfigError(f"budget M must be positive and finite, got {M}")


def classify(omega0: RoundedSet, M: float) -> Outcome:
    """Extinct at the extinction time T*, or Grows (for ever) from the
    ball-entry time T†: the outcome of the budget-M evolution."""
    _check_budget(M)
    _, t_ball, t_star = _Trajectory(omega0).times(M)
    return Outcome(GROWS, t_ball) if t_star is None else Outcome(EXTINCT, t_star)


def critical_budget(omega0: RoundedSet, tol: float = 1e-3, full_output: bool = False):
    """Least budget that drives the set extinct: the root of ln R_b(M) -
    ln(M / 2pi), bisected in ln M from the isoperimetric floor 2 sqrt(pi *
    area) and a budget where the set provably dies until the bracket is at
    most tol wide or no float lies strictly inside it.  Returns the root of
    the chord through the final bracket's ends; with full_output, also the
    final bracket [lo, hi] and the number of bisection steps."""
    if not (tol > 0 and math.isfinite(tol)):
        raise BadConfigError(f"tol must be positive and finite, got {tol}")
    traj = _Trajectory(omega0)
    lo, hi = traj.floor, traj.cap
    f_lo, f_hi = traj.excess(lo), traj.excess(hi)
    iterations = 0
    while hi - lo > tol:
        mid = math.sqrt(lo) * math.sqrt(hi)
        if not lo < mid < hi:
            break
        f = traj.excess(mid)
        if f < 0.0:
            hi, f_hi = mid, f
        else:
            lo, f_lo = mid, f
        iterations += 1
    # f_hi < 0 throughout; f_lo <= 0 only when the root is the floor (a ball)
    m0 = min(lo + f_lo / (f_lo - f_hi) * (hi - lo), hi) if f_lo > 0.0 else lo
    if full_output:
        return m0, (lo, hi), iterations
    return m0


def ball_time_at_critical(omega0: RoundedSet, M: float) -> float:
    """First time the controlled set becomes a ball, at a near-critical M.
    A budget below the isoperimetric floor 2 sqrt(pi * area), which no
    critical budget undercuts, raises NotCriticalError."""
    _check_budget(M)
    traj = _Trajectory(omega0)
    if M < traj.floor:
        raise NotCriticalError(f"budget {M} is below the isoperimetric floor {traj.floor}")
    return traj.times(M)[1]
