"""Long-run classification and the critical budget, from the closed-form
trajectory.

The controlled set is always the opening of the grown domain at radius
rho = c0 + t + d, d the erosion depth of the kernel.  On a piece of the
erosion profile, with k = tan_sum - pi > 0, the area ODE becomes
d rho / dd = 1 + 2k rho / M, so the piece maps rho affinely:
rho_end = e^x rho_start + (M/2k) expm1(x), x = 2k (d1 - d0) / M.  On a
segment locus of length L the stadium's straight part shrinks as
L - (M/2) ln(R / R_start), R = c0 + t + d_max, so the set becomes a ball at
R_b = R_start e^(2L/M), at time T† = R_b - c0 - d_max, and then dies iff
R_b < M / 2pi.  R_b falls with M, so the critical budget is the one root of
ln R_b(M) - ln(M / 2pi).  Logs carry it all: e^x overflows at small M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadConfigError, DegenerateDomainError, NotCriticalError
from .geometry import RoundedSet, rounded_area
from .morphology import _profile

EXTINCT = "Extinct"
GROWS = "Grows"


@dataclass(frozen=True)
class Outcome:
    kind: str  # Extinct | Grows
    time: float  # extinction time T* if Extinct, ball-entry time T† if Grows


class _Trajectory:
    """The budget-M evolution of one initial set, through M -> ln R_b(M)."""

    def __init__(self, omega0: RoundedSet):
        area = 0.0 if omega0.is_empty else rounded_area(omega0)
        if not area > 0.0:
            raise DegenerateDomainError("domain has zero area")
        prof = _profile(omega0.kernel)
        pc, c0 = prof.pieces, omega0.radius
        k2 = 2.0 * (np.array(pc.tan_sum) - math.pi)
        self._log_k2 = np.log(k2)
        self._growth = k2 * (np.array(pc.d1) - np.array(pc.d0))  # x * M per piece
        self._log_c0 = math.log(c0) if c0 > 0.0 else -math.inf
        self._two_l = 2.0 * prof.locus_len
        self.rbar = prof.rbar(c0)  # c0 + d_max
        # isoperimetric floor: below it the area grows at all times
        self.floor = 2.0 * math.sqrt(math.pi * area)
        # here each phase's exponents sum to at most 1/2, so by Gronwall
        # R_b <= e * rbar <= M / 2pi: the set dies
        self.cap = 2.0 * max(self._two_l, float(self._growth.sum()), math.pi * math.e * self.rbar)

    def log_ball_radius(self, M: float) -> float:
        x = self._growth / M
        after = np.cumsum(x[::-1])[::-1]  # exponent from each piece's start on
        # ln of what each piece adds at the end, (M/2k) expm1(x) e^(after - x),
        # and of what is left of the start radius; a zero-length piece adds 0
        with np.errstate(divide="ignore"):
            terms = math.log(M) - self._log_k2 + after + np.log(-np.expm1(-x))
        start = self._log_c0 + float(x.sum())
        return float(np.logaddexp.reduce(terms, initial=start)) + self._two_l / M

    def excess(self, M: float) -> float:
        """ln R_b - ln(M / 2pi): negative iff the budget-M evolution dies."""
        return self.log_ball_radius(M) - math.log(M / (2.0 * math.pi))

    def ball_time(self, M: float) -> float:
        """T† = R_b - c0 - d_max; inf past the float range."""
        try:
            return max(math.exp(self.log_ball_radius(M)) - self.rbar, 0.0)
        except OverflowError:
            return math.inf


def _check_budget(M: float) -> None:
    if not (M > 0.0 and math.isfinite(M)):
        raise BadConfigError(f"budget M must be positive and finite, got {M}")


def classify(omega0: RoundedSet, M: float) -> Outcome:
    """Extinct at the extinction time T*, or Grows (for ever) from the
    ball-entry time T†: the outcome of the budget-M evolution."""
    _check_budget(M)
    traj = _Trajectory(omega0)
    gap = traj.excess(M)
    if gap >= 0.0:
        return Outcome(GROWS, traj.ball_time(M))
    # the free ball's lifetime -r0 - rstar ln(1 - r0/rstar) (evolution's tail),
    # with r0 / rstar = e^gap and 1 - r0/rstar = -expm1(gap) in full precision
    life = -M / (2.0 * math.pi) * (math.exp(gap) + math.log(-math.expm1(gap)))
    return Outcome(EXTINCT, traj.ball_time(M) + life)


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
    return traj.ball_time(M)
