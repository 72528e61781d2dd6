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

import functools
import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import (
    AreaExceedsDomainError, BadConfigError, EmptySetError, NonpositiveAreaError, require_finite
)
from .geometry import (
    COLLINEAR_REL_TOL,
    ConvexPolygon,
    _bbox_scale,
    _dot_rows,
    _merge_close,
    _vertex_turns,
    Point2,
    RoundedSet,
    cross2,
    cycled,
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


class ErosionProfile:
    """Piecewise description of d -> erode(kernel, d) for d in [0, d_max],
    with closed forms for the kernel dilated by any rounding radius c.

    The same kernel is queried repeatedly during an evolution while only the
    rounding radius grows (dilation leaves the kernel untouched), so all the
    combinatorial work is done once per kernel (see _profile).  A query
    costs O(#pieces) at a radius other than the last one queried, which
    sets up its bisection, and O(log #pieces) at the same radius.  A point
    or segment kernel has no pieces and is its own locus.

    The build is an event queue over the kernel's edges, which traces the
    straight skeleton of a convex polygon (Aichholzer et al. 1995) in
    O(n log n): every edge keeps its offset line and its start vertex, and
    when edges vanish only their two surviving neighbours get a new shared
    vertex (where their lines cross) and a new collapse depth, which the
    queue orders.  Each piece's area, perimeter and tan_sum follow from
    the previous piece in closed form.  `death` holds the depth at which
    each edge vanishes, and the build keeps every start vertex it sets, so
    polygons_at rebuilds the eroded polygons at many depths at once from
    the edges alive at each.  A kernel far from the origin is built in its
    own frame (see `origin`), since the build's rounding grows with its
    coordinates.
    """

    def __init__(self, kernel: ConvexPolygon):
        if len(kernel) == 0:
            raise EmptySetError("erosion profile needs a nonempty kernel")
        # a row (d0, d1, area0, perim0, tan_sum) per piece [d0, d1]: the eroded
        # polygon's area, perimeter and sum of tan(theta_i / 2) at d0
        self.pieces: list[tuple[float, float, float, float, float]] = []
        # (c, the negated opening areas at radius c where pieces 1, 2, ... start)
        self._starts: tuple[float, list[float]] = (math.nan, [])
        self.area0 = polygon_area(kernel)
        self.perim0 = polygon_perimeter(kernel)
        scale = kernel.diameter
        self.tol = tol = _DEPTH_REL_TOL * scale
        n = len(kernel)
        if n < 3:
            self.d_max, self.death, self.locus = 0.0, np.zeros(0), kernel
        else:
            # the build's rounding grows with its coordinates: its origin is
            # the vertex mean rounded to a grid of 4x the power of two above
            # the diameter, 0 near the origin and an exact shift far from it
            grid = math.ldexp(4.0, math.frexp(scale)[1])
            self.origin = origin = grid * np.round(kernel.vertices.sum(axis=0) / (n * grid))
            v = kernel.vertices - origin
            normals = kernel.edge_normals()
            # vertex i slides so it stays on the offset lines of edges i - 1, i
            lines = np.stack([cycled(normals, -1), normals], axis=1)
            w = np.linalg.solve(lines, np.ones((n, 2, 1)))[..., 0]
            step = cycled(v) - v
            lengths = np.sqrt(_dot_rows(step, step))
            shrink = cross2(normals, cycled(w) - w)
            with np.errstate(divide="ignore"):
                events = np.where(shrink > 1e-14, lengths / shrink, np.inf)
            tau = np.tan(0.5 * _vertex_turns(normals))
            d, area, perim, tan_sum = 0.0, self.area0, self.perim0, float(tau.sum())
            # per edge, as Python floats: its unit normal (nx, ny) and direction
            # (-ny, nx); its start vertex, at (px, py) at depth pd and moving by
            # -(wx, wy) per unit depth, and tan(theta / 2) there; the depth
            # where it vanishes (key); its neighbours in the ring of live edges
            nx, ny = normals[:, 0].tolist(), normals[:, 1].tolist()
            px, py, pd = v[:, 0].tolist(), v[:, 1].tolist(), [0.0] * n
            wx, wy = w[:, 0].tolist(), w[:, 1].tolist()
            tau, key = tau.tolist(), events.tolist()
            prev, nxt = [n - 1, *range(n - 1)], [*range(1, n), 0]
            death = [math.inf] * n
            # (depth, edge) in order, which is a heap already
            order = np.argsort(events, kind="stable")
            order = order[: np.searchsorted(events[order], math.inf)]
            heap = [*zip(events[order].tolist(), order.tolist())]
            live = n
            # the collapse residue is noise of the input's own coordinates
            mag = scale + float(np.abs(kernel.vertices).max())
            # each start vertex the build sets, in its frame, as (edge, x, y,
            # depth, wx, wy): the kernel's own in first, and each event's
            # appended to rows, six floats at a time
            first = np.column_stack([np.arange(n), v, np.zeros(n), w])
            rows = []

            def length(g: int, depth: float) -> float:
                h = nxt[g]
                dx = px[h] - (depth - pd[h]) * wx[h] - px[g] + (depth - pd[g]) * wx[g]
                dy = py[h] - (depth - pd[h]) * wy[h] - py[g] + (depth - pd[g]) * wy[g]
                return dy * nx[g] - dx * ny[g]

            def grouped() -> np.ndarray:
                # the rows grouped by edge, each group in event order
                t = np.concatenate([first, np.array(rows, float).reshape(-1, 6)])
                return t[np.argsort(t[:, 0], kind="stable")]

            def polygon_before(depth: float, table: np.ndarray) -> np.ndarray:
                # vertices at depth of the edges alive just before it, from
                # each one's last row in the table, its start vertex now
                last = table[np.searchsorted(table[:, 0], np.arange(n), side="right") - 1]
                r = last[np.array(death) >= depth]
                return r[:, 1:3] - (depth - r[:, 3:4]) * r[:, 4:6]

            rest = None  # what the collapse leaves, once it is known to be a point
            while True:
                depth, e = heapq.heappop(heap)
                if death[e] < math.inf or key[e] != depth:
                    continue  # superseded entry
                self.pieces.append((d, depth, area, perim, tan_sum))
                # a simultaneous collapse scatters its n vertices over up to
                # ~n^2 ulps of the coordinates: a remainder that small is a
                # point.  Only a remainder whose perimeter (in closed form,
                # at most pi times its extent) allows it is built
                x = depth - d
                small = live * live * _ULP * mag
                if perim - 2.0 * tan_sum * x <= 4.0 * small:
                    table = grouped()
                    u = polygon_before(depth, table)
                    if _bbox_scale(u) <= small:
                        rest = u[:1]
                        break
                # every edge no longer than tol at this depth vanishes with
                # e, including neighbours that the collapse leaves that short
                dying = [e]
                death[e] = depth
                while heap:
                    k, f = heap[0]
                    if death[f] == math.inf and key[f] == k:
                        if length(f, depth) > tol:
                            break
                        dying.append(f)
                        death[f] = depth
                    heapq.heappop(heap)
                for f in dying:
                    a, c = prev[f], nxt[f]
                    nxt[a], prev[c] = c, a
                    for g in (a, c):
                        if death[g] == math.inf and length(g, depth) <= tol:
                            dying.append(g)
                            death[g] = depth
                live -= len(dying)
                if live < 3:
                    break
                # each run of vanished edges leaves one vertex, at the start
                # of the surviving edge c that follows it
                joins = {nxt[f] for f in dying if death[nxt[f]] == math.inf}
                turn = {}
                for c in joins:
                    a = prev[c]
                    turn[c] = (nx[a] * ny[c] - ny[a] * nx[c], nx[a] * nx[c] + ny[a] * ny[c])
                if any(s <= COLLINEAR_REL_TOL for s, _ in turn.values()):
                    break  # two antiparallel edges meet: a segment is left
                area = area - perim * x + tan_sum * x * x
                perim = perim - 2.0 * tan_sum * x
                tan_sum -= sum(tau[f] for f in dying)
                for c, (s, co) in turn.items():
                    a = prev[c]
                    t = math.tan(0.5 * math.atan2(s, co))
                    tan_sum += t - tau[c]
                    tau[c] = t
                    # c's old start vertex, slid along c onto a's line
                    qx = px[c] - (depth - pd[c]) * wx[c]
                    qy = py[c] - (depth - pd[c]) * wy[c]
                    ax = px[a] - (depth - pd[a]) * wx[a]
                    ay = py[a] - (depth - pd[a]) * wy[a]
                    r = ((qx - ax) * nx[a] + (qy - ay) * ny[a]) / s
                    px[c], py[c], pd[c] = qx - r * ny[c], qy + r * nx[c], depth
                    # the same 2x2 system as the first piece's, by Cramer
                    wx[c], wy[c] = (ny[c] - ny[a]) / s, (nx[a] - nx[c]) / s
                    rows += (c, px[c], py[c], depth, wx[c], wy[c])
                for g in joins | {prev[c] for c in joins}:
                    h = nxt[g]
                    rate = (wy[h] - wy[g]) * nx[g] - (wx[h] - wx[g]) * ny[g]
                    if rate > 1e-14:
                        key[g] = depth + length(g, depth) / rate
                        heapq.heappush(heap, (key[g], g))
                    else:
                        key[g] = math.inf
                d = depth
            self.d_max = depth
            if rest is None:
                table = grouped()
                rest = polygon_before(depth, table)
            # else the table the point was read from, which no event followed
            self._rows = table
            self._start = np.searchsorted(table[:, 0], np.arange(n))
            self.death = np.minimum(np.array(death), depth)
            # merge at the parent scale: a collapse event leaves clusters of
            # float noise that the polygon's own bbox tolerance cannot see
            self.locus = ConvexPolygon(_merge_close(rest, tol) + origin)
        lv = self.locus.vertices
        if len(lv) == 2:
            e = lv[1] - lv[0]
            self.locus_len = float(np.linalg.norm(e))
            self.locus_center = Point2(*(0.5 * (lv[0] + lv[1])))
            self.locus_dir = Point2(*(e / self.locus_len))
        else:
            self.locus_len = 0.0
            self.locus_center = Point2(*lv[0])
            self.locus_dir = Point2(1.0, 0.0)

    @functools.cached_property
    def center(self) -> ConvexPolygon:
        """The locus centre as a point kernel, which every ball that
        isoperimetric's _subset gives shares."""
        return ConvexPolygon.point(self.locus_center)

    def polygons_at(self, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The kernel eroded by each depth d < d_max, read at once: alive[k,
        e] is whether edge e is alive at depth d[k], and the vertices are
        the live edges' start vertices, depth by depth in edge order, each
        the last vertex the build set for its edge at or before the depth,
        moved on to it.  polygon_erode returns the locus near d_max."""
        rows, start = self._rows, self._start
        alive = self.death > d[:, None]
        i = (start + np.add.reduceat(rows[:, 3] <= d[:, None], start, axis=1) - 1)[alive]
        r, at = rows[i], np.repeat(d, alive.sum(axis=1))[:, None]
        return r[:, 1:3] - (at - r[:, 3:4]) * r[:, 4:6] + self.origin, alive

    def polygon_at(self, d: float) -> ConvexPolygon:
        """The kernel eroded by one depth d < d_max."""
        return ConvexPolygon(self.polygons_at(np.array([d]))[0])

    def rbar(self, c: float) -> float:
        """Inner radius of the kernel rounded by c."""
        return c + self.d_max

    def area_full(self, c: float) -> float:
        return self.area0 + c * self.perim0 + math.pi * c * c

    def area_hat(self, c: float) -> float:
        """Area of the maximal opening (the stadium over the whole locus)."""
        r = self.rbar(c)
        return 2.0 * r * self.locus_len + math.pi * r * r

    def query(self, c: float, a: float) -> tuple[float, str, float, float]:
        """(perimeter, regime, rho, straight length) of the least-perimeter
        subset with area a of the kernel rounded by c: the length is the
        stadium's straight part, 0 in the other regimes.

        An opening answer finds its piece with bisect_left on the negated
        opening areas at the pieces' starts, which the profile keeps for the
        radius last queried: a query at a new radius pays O(#pieces) for
        them, and each query at that radius then O(log #pieces) in C."""
        a_full = self.area0 + c * self.perim0 + math.pi * c * c
        tol = _AREA_REL_TOL * a_full
        if not a > 0.0:
            require_finite("target area", a)
            raise NonpositiveAreaError(f"target area {a} is not positive")
        if a > a_full + tol:
            require_finite("target area", a)
            raise AreaExceedsDomainError(
                f"target area {a} exceeds domain area {a_full}"
            )
        rbar = c + self.d_max
        a_ball = math.pi * rbar * rbar
        pieces = self.pieces
        if a >= a_full - tol:
            # plateau: largest rho whose opening still fills the set is c
            # (== rbar without pieces); a set that is one ball is reported
            # as a ball
            regime = OPENING if pieces or self.locus_len > 0.0 else BALL
            return self.perim0 + 2.0 * math.pi * c, regime, c, 0.0
        if a >= 2.0 * rbar * self.locus_len + a_ball - tol:
            if not pieces:
                # degenerate kernel: opening is the whole set at every depth
                # (depth 0.0, which turns a radius of -0.0 into 0.0)
                return self.perim0 + 2.0 * math.pi * c, OPENING, c + 0.0, 0.0
            # the opening area falls with depth: the first piece whose end,
            # the next piece's start, has an area of at most a (or the last),
            # and f0, the area where it starts (the whole set's for the first)
            at, starts = self._starts
            if at != c:
                starts = [
                    -(area0 + (b := c + d0) * perim0 + math.pi * b * b)
                    for d0, _, area0, perim0, _ in pieces[1:]
                ]
                self._starts = c, starts
            p = bisect_left(starts, -a)
            f0 = -starts[p - 1] if p else a_full
            d0, d1, _, perim0, tan_sum = pieces[p]
            t = tan_sum - math.pi  # > 0: opening area strictly decreases
            b = c + d0
            x = -b + math.sqrt(max(b * b + (f0 - a) / t, 0.0))
            x = min(max(x, 0.0), d1 - d0)
            d = d0 + x
            return perim0 - 2.0 * tan_sum * x + 2.0 * math.pi * (c + d), OPENING, c + d, 0.0
        if a >= a_ball - tol and self.locus_len > 0.0:
            length = max((a - a_ball) / (2.0 * rbar), 0.0)
            return 2.0 * length + 2.0 * math.pi * rbar, STADIUM, rbar, length
        r = math.sqrt(a / math.pi)
        return 2.0 * math.sqrt(math.pi * a), BALL, r, 0.0


def _profile(poly: ConvexPolygon) -> ErosionProfile:
    if poly._profile is None:
        poly._profile = ErosionProfile(poly)
    return poly._profile


def dilate(s: RoundedSet, r: float) -> RoundedSet:
    """Minkowski sum with the disk of radius r (kernel unchanged)."""
    require_finite("dilation radius", r, 0.0)
    if s.is_empty:
        return s
    return RoundedSet(s.kernel, s.radius + r)


def polygon_erode(poly: ConvexPolygon, d: float) -> ConvexPolygon:
    """Inward offset by d: the set of centers whose d-ball fits inside.

    The result may degenerate to a segment, a point, or the empty polygon.
    """
    require_finite("erosion depth", d, 0.0)
    if len(poly) < 3:
        raise BadConfigError("polygon_erode needs at least 3 vertices")
    prof = _profile(poly)
    if d > prof.d_max + prof.tol:
        return ConvexPolygon.empty()
    if d >= prof.d_max - prof.tol:
        return prof.locus
    return prof.polygon_at(d)


def erode(s: RoundedSet, r: float) -> RoundedSet:
    """Adjoint of dilate: erode(s, r) = {x : B_r(x) inside s}."""
    require_finite("erosion radius", r, 0.0)
    if s.is_empty or r == 0.0:
        return s
    if r <= s.radius:
        return RoundedSet(s.kernel, s.radius - r)
    if len(s.kernel) < 3:
        # ball or stadium: nothing left of the kernel to erode into
        return RoundedSet.empty()
    return RoundedSet(polygon_erode(s.kernel, r - s.radius), 0.0)


def opening(s: RoundedSet, rho: float) -> RoundedSet:
    """Union of all rho-balls contained in s: erosion then dilation, which
    keep an empty set as it is."""
    require_finite("opening radius", rho, 0.0, strict=True)
    if rho <= s.radius:
        return s
    return dilate(erode(s, rho), rho)


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
