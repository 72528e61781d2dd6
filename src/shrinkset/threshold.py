"""Long-run classification and the critical budget.

For each budget M the controlled area either collapses in finite time or
grows without bound; the critical budget separating the two is located by
bisection.  Unbounded growth is certified by the isoperimetric escape
condition 2*sqrt(pi*a) > M: from then on the rate perimeter - M stays
positive, so the area can only keep growing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadConfigError, DegenerateDomainError, NotCriticalError
from .evolution import EvolutionTrace, _escaped, default_step, simulate
from .geometry import RoundedSet, rounded_area

EXTINCT = "Extinct"
GROWS = "Grows"
UNDETERMINED = "Undetermined"

_PROBE_BUDGET = 1e-6


@dataclass(frozen=True)
class Outcome:
    kind: str  # Extinct | Grows | Undetermined
    time: float  # extinction time / escape time / horizon
    trace: EvolutionTrace


def classify(
    omega0: RoundedSet, M: float, horizon: float = 50.0, dt: float | None = None
) -> Outcome:
    """Outcome of the budget-M evolution: Extinct, Grows, or Undetermined."""
    trace = simulate(omega0, M, horizon, dt=dt, stop_when_growing=True)
    if trace.T_star is not None:
        return Outcome(EXTINCT, trace.T_star, trace)
    if _escaped(float(trace.a[-1]), M):
        return Outcome(GROWS, float(trace.t[-1]), trace)
    return Outcome(UNDETERMINED, horizon, trace)


def critical_budget(
    omega0: RoundedSet,
    tol: float = 1e-3,
    horizon: float = 50.0,
    dt: float | None = None,
    full_output: bool = False,
):
    """Least budget that drives the set extinct, located by bisection.

    Returns the bracket midpoint; with full_output, also the final bracket
    [lo, hi] and the number of bisection steps.  The bisection stops when the
    bracket is at most tol wide or no float lies strictly inside it.  An
    Undetermined outcome (near-critical slow dynamics) is retried once at
    double the horizon and then assigned to the side its final trend
    indicates.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise BadConfigError(f"tol must be positive and finite, got {tol}")
    if dt is None:
        dt = default_step(omega0)
    if classify(omega0, _PROBE_BUDGET, horizon, dt).kind != GROWS:
        raise DegenerateDomainError(
            "domain does not sustain growth even at a vanishing budget"
        )
    lo = _PROBE_BUDGET
    hi = 2.0 * math.sqrt(math.pi * rounded_area(omega0)) + 1.0
    while classify(omega0, hi, horizon, dt).kind == GROWS:
        hi *= 2.0
        if hi > 1e9:
            raise DegenerateDomainError("no extinction budget found below 1e9")
    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        out = classify(omega0, mid, horizon, dt)
        if out.kind == UNDETERMINED:
            out = classify(omega0, mid, 2.0 * horizon, dt)
        if out.kind == GROWS:
            lo = mid
        elif out.kind == EXTINCT:
            hi = mid
        else:
            # still undetermined: assign by the final trend of the area
            if float(out.trace.rate[-1]) < 0.0:
                hi = mid
            else:
                lo = mid
        iterations += 1
    m0 = 0.5 * (lo + hi)
    if full_output:
        return m0, (lo, hi), iterations
    return m0


def ball_time_at_critical(
    omega0: RoundedSet,
    M: float,
    horizon: float = 50.0,
    dt: float | None = None,
) -> float:
    """First time the controlled set becomes a ball, at a near-critical M."""
    trace = simulate(omega0, M, horizon, dt=dt, stop_when_growing=True)
    if trace.T_dagger is None:
        raise NotCriticalError(
            "trajectory never reached the ball regime; budget is not near-critical"
        )
    return trace.T_dagger
