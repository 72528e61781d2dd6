"""Minkowski dilation, erosion, opening and inscribed-ball structure.

Erosion of a convex polygon by depth d is the intersection of its edge
half-planes moved inward by d.  Because the polygon is convex, the only
combinatorial events as d grows are edges vanishing, so the whole erosion
family can be precomputed once as a small piecewise-linear "profile".
The profile also yields the maximal erosion depth and the locus of centers
of maximal inscribed balls (a point or a segment), plus closed forms for
the area and perimeter of every eroded polygon, and with them every answer
of the one-step least-perimeter problem (see ErosionProfile.query).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AreaExceedsDomainError, EmptySetError, NonpositiveAreaError
from .geometry import (
    ConvexPolygon,
    _bbox_scale,
    _merge_close,
    Point2,
    RoundedSet,
    hausdorff,
    polygon_area,
    polygon_perimeter,
)

BALL = "Ball"
STADIUM = "Stadium"
OPENING = "Opening"

_DEPTH_REL_TOL = 1e-12
_AREA_REL_TOL = 1e-12
_ULP = float(np.finfo(float).eps)


@dataclass(frozen=True)
class InnerBallLocus:
    """Centers of maximal inscribed balls: the segment center +- h*e,
    |h| <= half_length (half_length == 0 for a unique inscribed ball)."""

    radius: float
    center: Point2
    direction: Point2
    half_length: float


@dataclass(frozen=True)
class _Piece:
    """One combinatorial interval [d0, d1] of the erosion family."""

    d0: float
    d1: float
    vertices: np.ndarray  # polygon at depth d0
    velocities: np.ndarray  # inward vertex velocities (per unit depth)
    area0: float
    perim0: float
    tan_sum: float  # sum of tan(theta_i / 2) over exterior angles


class ErosionProfile:
    """Piecewise description of d -> erode(kernel, d) for d in [0, d_max],
    with closed forms for the kernel dilated by any rounding radius c.

    The same kernel is queried repeatedly during an evolution while only the
    rounding radius grows (dilation leaves the kernel untouched), so all the
    combinatorial work is done once per kernel (see _profile) and each query
    is O(#pieces).  A point or segment kernel has no pieces and is its own
    locus.
    """

    def __init__(self, kernel: ConvexPolygon):
        if len(kernel) == 0:
            raise EmptySetError("erosion profile needs a nonempty kernel")
        self.pieces: list[_Piece] = []
        self.area0 = polygon_area(kernel)
        self.perim0 = polygon_perimeter(kernel)
        scale = kernel.diameter
        self.tol = _DEPTH_REL_TOL * max(scale, 1.0)
        poly, d = kernel, 0.0
        while len(poly) >= 3:
            v = poly.vertices
            normals = poly.edge_normals()
            nprev = np.roll(normals, 1, axis=0)
            # vertex i slides so it stays on both adjacent offset lines
            lines = np.stack([nprev, normals], axis=1)
            w = np.linalg.solve(lines, np.ones((len(v), 2, 1)))[..., 0]
            edges = np.roll(v, -1, axis=0) - v
            lengths = np.linalg.norm(edges, axis=1)
            units = edges / lengths[:, None]
            shrink = ((np.roll(w, -1, axis=0) - w) * units).sum(axis=1)
            with np.errstate(divide="ignore"):
                events = np.where(shrink > 1e-14, lengths / shrink, np.inf)
            step = float(events.min())
            self.pieces.append(
                _Piece(
                    d0=d,
                    d1=d + step,
                    vertices=v,
                    velocities=w,
                    area0=polygon_area(poly),
                    perim0=polygon_perimeter(poly),
                    tan_sum=float(np.tan(0.5 * poly.exterior_angles()).sum()),
                )
            )
            d += step
            u = v - step * w
            # a simultaneous collapse scatters its n vertices over up to ~n^2
            # ulps of the scale: a remainder that small is a point
            if _bbox_scale(u) <= len(u) ** 2 * _ULP * scale:
                u = u[:1]
            # merge at the parent scale: a collapse event leaves clusters of
            # float noise that the polygon's own bbox tolerance cannot see
            poly = ConvexPolygon(_merge_close(u, self.tol))
        self.d_max = d
        self.locus = poly
        lv = poly.vertices
        if len(lv) == 2:
            e = lv[1] - lv[0]
            self.locus_len = float(np.linalg.norm(e))
            self.locus_center = Point2(*(0.5 * (lv[0] + lv[1])))
            self.locus_dir = Point2(*(e / self.locus_len))
        else:
            self.locus_len = 0.0
            self.locus_center = Point2(*lv[0])
            self.locus_dir = Point2(1.0, 0.0)

    def _piece_at(self, d: float) -> _Piece:
        for piece in self.pieces:
            if d <= piece.d1:
                return piece
        return self.pieces[-1]

    def polygon_at(self, d: float) -> ConvexPolygon:
        if d <= 0.0:
            return ConvexPolygon(self.pieces[0].vertices)
        if d >= self.d_max:
            return self.locus
        p = self._piece_at(d)
        return ConvexPolygon(p.vertices - (d - p.d0) * p.velocities)

    def rbar(self, c: float) -> float:
        """Inner radius of the kernel rounded by c."""
        return c + self.d_max

    def area_full(self, c: float) -> float:
        return self.area0 + c * self.perim0 + math.pi * c * c

    def area_hat(self, c: float) -> float:
        """Area of the maximal opening (the stadium over the whole locus)."""
        r = self.rbar(c)
        return 2.0 * r * self.locus_len + math.pi * r * r

    def _opening_depth(self, c: float, a: float) -> tuple[float, float]:
        """Erosion depth d with area(opening at rho=c+d) == a, and that area's
        perimeter.  Valid for area_hat <= a <= area_full."""
        for p in self.pieces:
            t = p.tan_sum - math.pi  # > 0: opening area strictly decreases
            b = c + p.d0
            f0 = p.area0 + b * p.perim0 + math.pi * b * b
            x1 = p.d1 - p.d0
            f1 = f0 - t * (x1 * x1 + 2.0 * b * x1)
            if a >= f1 or p is self.pieces[-1]:
                x = -b + math.sqrt(max(b * b + (f0 - a) / t, 0.0))
                x = min(max(x, 0.0), x1)
                d = p.d0 + x
                perim = p.perim0 - 2.0 * p.tan_sum * x + 2.0 * math.pi * (c + d)
                return d, perim
        # degenerate kernel: opening is the whole set at every depth
        return 0.0, self.perim0 + 2.0 * math.pi * c

    def query(self, c: float, a: float) -> tuple[float, str, float, float]:
        """(perimeter, regime, rho, erosion depth) of the least-perimeter
        subset with area a of the kernel rounded by c."""
        a_full = self.area_full(c)
        tol = _AREA_REL_TOL * a_full
        if not a > 0.0:
            raise NonpositiveAreaError(f"target area {a} is not positive")
        if a > a_full + tol:
            raise AreaExceedsDomainError(
                f"target area {a} exceeds domain area {a_full}"
            )
        rbar = self.rbar(c)
        a_ball = math.pi * rbar * rbar
        if a >= a_full - tol:
            # plateau: largest rho whose opening still fills the set is c
            # (== rbar without pieces); a set that is one ball is reported
            # as a ball
            regime = OPENING if self.pieces or self.locus_len > 0.0 else BALL
            return self.perim0 + 2.0 * math.pi * c, regime, c, 0.0
        if a >= self.area_hat(c) - tol:
            d, perim = self._opening_depth(c, a)
            return perim, OPENING, c + d, d
        if a >= a_ball - tol and self.locus_len > 0.0:
            length = max((a - a_ball) / (2.0 * rbar), 0.0)
            return 2.0 * length + 2.0 * math.pi * rbar, STADIUM, rbar, self.d_max
        r = math.sqrt(a / math.pi)
        return 2.0 * math.sqrt(math.pi * a), BALL, r, self.d_max


def _profile(poly: ConvexPolygon) -> ErosionProfile:
    if poly._profile is None:
        poly._profile = ErosionProfile(poly)
    return poly._profile


def dilate(s: RoundedSet, r: float) -> RoundedSet:
    """Minkowski sum with the disk of radius r (kernel unchanged)."""
    if not (r >= 0.0 and math.isfinite(r)):
        raise ValueError("dilation radius must be finite and nonnegative")
    if s.is_empty:
        return s
    return RoundedSet(s.kernel, s.radius + r)


def polygon_erode(poly: ConvexPolygon, d: float) -> ConvexPolygon:
    """Inward offset by d: the set of centers whose d-ball fits inside.

    The result may degenerate to a segment, a point, or the empty polygon.
    """
    if d < 0:
        raise ValueError("erosion depth must be nonnegative")
    if len(poly) < 3:
        raise ValueError("polygon_erode needs at least 3 vertices")
    prof = _profile(poly)
    if d > prof.d_max + prof.tol:
        return ConvexPolygon.empty()
    if d >= prof.d_max - prof.tol:
        return prof.locus
    return prof.polygon_at(d)


def erode(s: RoundedSet, r: float) -> RoundedSet:
    """Adjoint of dilate: erode(s, r) = {x : B_r(x) inside s}."""
    if not (r >= 0.0 and math.isfinite(r)):
        raise ValueError("erosion radius must be finite and nonnegative")
    if s.is_empty or r == 0.0:
        return s
    if r <= s.radius:
        return RoundedSet(s.kernel, s.radius - r)
    if len(s.kernel) < 3:
        # ball or stadium: nothing left of the kernel to erode into
        return RoundedSet.empty()
    return RoundedSet(polygon_erode(s.kernel, r - s.radius), 0.0)


def opening(s: RoundedSet, rho: float) -> RoundedSet:
    """Union of all rho-balls contained in s: erosion then dilation."""
    if rho <= 0:
        raise ValueError("opening radius must be positive")
    if s.is_empty:
        return s
    if rho <= s.radius:
        return s
    core = erode(s, rho)
    if core.is_empty:
        return core
    return dilate(core, rho)


def inner_radius(s: RoundedSet) -> tuple[float, InnerBallLocus]:
    """Radius of the largest inscribed ball and the locus of its centers."""
    if s.is_empty:
        raise EmptySetError("inner radius of empty set")
    prof = _profile(s.kernel)
    rbar = prof.rbar(s.radius)
    locus = InnerBallLocus(
        rbar, prof.locus_center, prof.locus_dir, 0.5 * prof.locus_len
    )
    return rbar, locus


def duality_gap(s: RoundedSet, r: float) -> float:
    """Hausdorff gap of s vs erode(dilate(s, r), r); ~0 for convex sets."""
    return hausdorff(s, erode(dilate(s, r), r))
