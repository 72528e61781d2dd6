"""One-step problem: least-perimeter subset of a rounded convex set at fixed area.

The minimizer falls into one of three regimes depending on the target area a:

  Ball     a <= pi*Rbar^2          a ball of radius sqrt(a/pi)
  Stadium  pi*Rbar^2 < a < A_hat   a stadium of radius Rbar along the
                                   inscribed-ball locus
  Opening  a >= A_hat              the morphological opening at the radius
                                   rho whose opening has area a

where Rbar is the inner radius and A_hat the area of the maximal opening.
Because erosion of a convex polygon is piecewise linear in the depth, the
opening area is piecewise quadratic in rho and every regime has a closed
form; no iteration is needed.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRegimeError, require_finite
from .geometry import RoundedSet, rounded_perimeter
from .morphology import (
    _AREA_REL_TOL,
    BALL,
    OPENING,
    STADIUM,
    ErosionProfile,
    _profile,
    opening,
)

# perfbench/run.py traces the one-step query under this older name
_Scene = ErosionProfile


@dataclass(frozen=True)
class IsoperimetricSolution:
    regime: str
    set: RoundedSet
    area: float
    perimeter: float
    max_curvature: float
    rho: float


def optimal_subset(s: RoundedSet, a: float) -> IsoperimetricSolution:
    """Least-perimeter subset of s with area a (ties broken canonically).

    Ball-regime solutions are centered at the centroid of the maximal
    opening, i.e. at the midpoint of the inscribed-ball locus.
    """
    _, regime, rho, length = _profile(s.kernel).query(s.radius, a)
    sub = _subset(s, regime, rho, length)
    kappa = 1.0 / rho if rho > 0.0 else math.inf
    return IsoperimetricSolution(
        regime=regime,
        set=sub,
        area=a,
        perimeter=rounded_perimeter(sub),
        max_curvature=kappa,
        rho=rho,
    )


def _subset(s: RoundedSet, regime: str, rho: float, length: float) -> RoundedSet:
    """The subset of s of a regime at radius rho: the ball at the middle of
    the inscribed-ball locus, the stadium with straight part `length` along
    the locus, or the opening."""
    prof = _profile(s.kernel)
    center = np.array(prof.locus_center)
    if regime == BALL:
        return RoundedSet.ball(center, rho)
    if regime == STADIUM:
        half = 0.5 * length * np.array(prof.locus_dir)
        return RoundedSet.stadium(center - half, center + half, rho)
    return opening(s, rho) if rho > s.radius else s


def perimeter_of_area(s: RoundedSet, a: float) -> float:
    """Perimeter of the optimal subset, without building the set."""
    return _profile(s.kernel).query(s.radius, a)[0]


def invert_opening_area(s: RoundedSet, a: float) -> float:
    """The rho in (0, Rbar] whose opening of s has area a.

    On the plateau a == area(s) the largest such rho is returned.  Exact
    (piecewise-quadratic inversion), no iteration.
    """
    prof = _profile(s.kernel)
    c = s.radius
    a_full = prof.area_full(c)
    tol = _AREA_REL_TOL * a_full
    if not prof.area_hat(c) - tol <= a <= a_full + tol:
        require_finite("area", a)
        raise OutOfRegimeError(
            f"area {a} outside the opening range "
            f"[{prof.area_hat(c)}, {a_full}]"
        )
    return prof.query(c, a)[2]


def free_arc_turning(s: RoundedSet, rho: float) -> float:
    """Total turning excess sum_i (2 tan(theta_i/2) - theta_i) of the free
    arcs of opening(s, rho); equals -d(perimeter)/d(rho).  The theta_i sum
    to 2pi: it is 2 tan_sum - 2pi of the piece holding depth rho - radius."""
    prof = _profile(s.kernel)
    rbar = prof.rbar(s.radius)
    if not (s.radius < rho < rbar):
        require_finite("rho", rho)
        raise OutOfRegimeError(
            f"rho {rho} outside the corner-rounding range ({s.radius}, {rbar})"
        )
    pc = prof.pieces
    p = min(bisect_right(pc.d1, rho - s.radius), len(pc) - 1)
    return 2.0 * pc.tan_sum[p] - 2.0 * math.pi
