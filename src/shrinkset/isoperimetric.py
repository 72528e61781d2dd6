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
from .geometry import ConvexPolygon, RoundedSet, cross2, rounded_perimeter
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
    sub = _subset(s.kernel, s.radius, regime, rho, length)
    kappa = 1.0 / rho if rho > 0.0 else math.inf
    return IsoperimetricSolution(
        regime=regime,
        set=sub,
        area=a,
        perimeter=rounded_perimeter(sub),
        max_curvature=kappa,
        rho=rho,
    )


def _subset(
    kernel: ConvexPolygon, c: float, regime: str, rho: float, length: float
) -> RoundedSet:
    """The subset of a regime at radius rho of the kernel rounded by c: the
    ball at the middle of the inscribed-ball locus, the stadium with
    straight part `length` along the locus, or the opening, the one regime
    that reads the rounded set.  _subsets measures the same sets at many
    rows at once."""
    prof = _profile(kernel)
    if regime == BALL:
        return RoundedSet(prof.center, rho)
    if regime == STADIUM:
        center, half = np.array(prof.locus_center), 0.5 * length * np.array(prof.locus_dir)
        return RoundedSet.stadium(center - half, center + half, rho)
    s = RoundedSet(kernel, c)
    return opening(s, rho) if rho > c else s


def _subset_kernels(kernel: ConvexPolygon, c, regime, rho, length):
    """The sets _subset gives at the rows of the arrays c, regime, rho and
    length, as arrays (radius, center, half, live, rows, polygon): row k
    has the radius radius[k] and the kernel center[k] + [-half[k],
    half[k]] e, e the locus direction (a point where half[k] is 0), except
    on the rows listed in `rows`, where rows[i] has the polygon kernel
    polygon[i]: one slot per edge of the whole kernel, holding the edge's
    start vertex, or the next live edge's where erosion removed it.
    live[k] is False for an empty set.  A ball's or a stadium's kernel
    comes from the locus, the openings' from one read of the profile at
    all their depths."""
    prof = _profile(kernel)
    openings, d = regime == OPENING, rho - c  # d: the erosion depth, as erode takes it
    whole = openings & (d <= 0.0)  # rho <= c: the rounded kernel itself
    radius = np.where(whole, c, rho)
    live = ~(openings & (d > prof.d_max + prof.tol))  # polygon_erode's empty set
    # polygon_erode gives the locus from d_max - tol on: a point or a
    # segment, taken as the stadiums are
    half = 0.5 * np.where(openings, prof.locus_len, np.where(regime == STADIUM, length, 0.0))
    rows = np.flatnonzero(whole | openings & (d < prof.d_max - prof.tol))
    center = np.broadcast_to(np.array(prof.locus_center), (len(c), 2)).copy()
    center[rows] = half[rows] = 0.0
    n = len(kernel)
    polygon = np.broadcast_to(kernel.vertices, (len(rows), n, 2)).copy()
    inner = ~whole[rows]
    if inner.any():
        v, alive = prof.polygons_at(d[rows[inner]])
        # each slot takes the vertex of the next live edge, cyclically: the
        # one after as many live edges as come before the slot
        count = alive.sum(axis=1)
        first = np.cumsum(count) - count  # each depth's first vertex in v
        before = np.cumsum(alive, axis=1) - alive
        polygon[inner] = v[first[:, None] + before % count[:, None]]
    return radius, center, half, live, rows, polygon


def _subsets(kernel: ConvexPolygon, c, regime, rho, length, dirs: np.ndarray):
    """(area, perimeter, support, live) of the sets _subset gives at the
    rows of the arrays c, regime, rho and length, without building one:
    Steiner's area and perimeter from each kernel's vertices (a shoelace
    and the edge lengths), the support numbers in the unit directions dirs
    (a column each), and whether the set is nonempty; an empty set's
    numbers mean nothing."""
    r, center, half, live, rows, v = _subset_kernels(kernel, c, regime, rho, length)
    # a segment is the closed 2-gon: its perimeter is twice its length
    area, perim = np.zeros(len(c)), 4.0 * half
    # c.u + r + half |e.u| in one product, e the locus direction
    e = np.array(_profile(kernel).locus_dir)
    u = np.vstack((dirs.T, np.ones(len(dirs)), np.abs(dirs @ e)))
    support = np.column_stack((center, r, half)) @ u
    if len(v):
        d = v - v[:, :1]  # about the first vertex, as polygon_area
        area[rows] = 0.5 * cross2(d[:, 1:-1], d[:, 2:]).sum(axis=1)
        step = np.concatenate((v[:, 1:], v[:, :1]), axis=1) - v
        perim[rows] = np.hypot(step[..., 0], step[..., 1]).sum(axis=1)
        # a polygon's farthest vertex in direction u starts the first edge
        # whose normal is u or after it counterclockwise: its slot, on
        # every row; the angles are turns from the first edge's normal
        normals = kernel.edge_normals()
        angle = np.arctan2(normals[:, 1], normals[:, 0])
        turn = np.mod(np.arctan2(dirs[:, 1], dirs[:, 0]) - angle[0], 2.0 * math.pi)
        slot = np.searchsorted(np.mod(angle - angle[0], 2.0 * math.pi), turn) % len(angle)
        # v[:, slot]: take copies the (x, y) pairs about 13 times faster
        w = np.take(v, slot, axis=1)
        support[rows] += w[..., 0] * dirs[:, 0] + w[..., 1] * dirs[:, 1]
    return area + r * perim + math.pi * r**2, perim + 2.0 * math.pi * r, support, live


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
