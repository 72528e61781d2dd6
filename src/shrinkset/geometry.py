"""Disk-rounded convex polygons and their exact measurements.

Every set handled by the library is a ``RoundedSet``: a convex polygonal
kernel Minkowski-summed with a closed disk.  Kernels may be degenerate
(empty, a point, or a segment), which makes balls and stadiums ordinary
members of the same family instead of special cases: the polygon formulas
take a segment as the closed 2-gon v0 -> v1 -> v0.  Still branching: kernels
without an edge and polygon_area's zero-area fast path.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import BadConfigError, EmptySetError, require_finite

# Relative tolerances for canonicalization (see ConvexPolygon).
MERGE_REL_TOL = 1e-12
COLLINEAR_REL_TOL = 1e-12

# Number of uniformly spaced angles added to the exact kernel normals when
# comparing support functions, and their unit vectors, built once.
SUPPORT_GRID = 1024
_GRID_ANGLES = np.linspace(0.0, 2.0 * math.pi, SUPPORT_GRID, endpoint=False)
_GRID_DIRECTIONS = np.stack([np.cos(_GRID_ANGLES), np.sin(_GRID_ANGLES)], axis=1)


class Point2(NamedTuple):
    x: float
    y: float


def cross2(a, b) -> np.ndarray:
    """z-component of the 2D cross product (vectorized)."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def cycled(a: np.ndarray, k: int = 1) -> np.ndarray:
    """np.roll(a, -k, axis=0), without its overhead on a polygon's few rows."""
    return np.concatenate((a[k:], a[:k]))


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (n, 2) arrays: the bits of
    (a * b).sum(axis=1), but for the sign of a zero sum, without numpy's
    slow reduction over an axis of length two."""
    return a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]


def _vertex_turns(normals: np.ndarray) -> np.ndarray:
    """Turning angle at each vertex, from the normal of the edge before it
    to that of the edge it starts."""
    nprev = cycled(normals, -1)
    return np.arctan2(cross2(nprev, normals), _dot_rows(nprev, normals))


def _bbox_scale(v: np.ndarray) -> float:
    """Cheap diameter proxy used to make tolerances scale-invariant."""
    x, y = v[:, 0], v[:, 1]
    return math.hypot(x.max() - x.min(), y.max() - y.min())


def _merge_close(v: np.ndarray, tol: float) -> np.ndarray:
    """Merge cyclically-consecutive vertices closer than tol."""
    # one numpy pass decides the usual case: every cyclic gap is above tol
    # and nothing merges.  The bound sits a billionth and an ulp above tol,
    # past where np.hypot's and math.hypot's roundings can part
    d = cycled(v) - v
    if (np.hypot(d[:, 0], d[:, 1]) > math.nextafter(tol * (1.0 + 1e-9), math.inf)).all():
        return v.copy()
    # a chain of close points is compared with the last vertex kept, which
    # one pass cannot reproduce
    kept = []
    for p in v:
        if not kept or math.hypot(p[0] - kept[-1][0], p[1] - kept[-1][1]) > tol:
            kept.append(p)
    # wraparound
    while len(kept) > 1 and math.hypot(
        kept[0][0] - kept[-1][0], kept[0][1] - kept[-1][1]
    ) <= tol:
        kept.pop()
    return np.array(kept, float).reshape(-1, 2)


def _collinear_extremes(v: np.ndarray) -> np.ndarray:
    """Reduce a set of (nearly) collinear points to its extreme pair."""
    direction = v[np.argmax(np.linalg.norm(v - v[0], axis=1))] - v[0]
    s = (v - v[0]) @ (direction / np.linalg.norm(direction))
    return np.array([v[np.argmin(s)], v[np.argmax(s)]], float)


# the offsets (from the edge's start, from its far vertex) that _diameter compares
_DIAMETER_PAIRS = np.array([(a, b) for a in (0, 1) for b in range(-2, 3)])


def _diameter(v: np.ndarray) -> float:
    """Largest vertex distance of a convex polygon (counterclockwise).

    It is attained by an antipodal pair: an endpoint of some edge and the
    vertex farthest behind that edge's line (rotating calipers; Shamos
    1978).  That vertex is the one whose normal cone holds the edge's
    inward normal, found by bisection on the unwrapped normal angles; its
    two neighbours on each side are compared too, against rounding.
    """
    n = len(v)
    if n == 0:
        return 0.0
    d = cycled(v) - v
    # the outward normals' angles increase but for one wrap, after which
    # they start again from their smallest
    phi = np.arctan2(-d[:, 0], d[:, 1])
    phi[np.argmin(phi):] += 2.0 * math.pi
    far = np.searchsorted(np.concatenate([phi, phi + 2.0 * math.pi]), phi + math.pi)
    # each edge's two ends against the five vertices around its far one,
    # one row per pair of offsets; the root of the largest square is the
    # largest root
    ends = _DIAMETER_PAIRS[:, :1] + np.arange(n)
    near = _DIAMETER_PAIRS[:, 1:] + far
    x, y = v[:, 0], v[:, 1]
    dx = x.take(ends, mode="wrap") - x.take(near, mode="wrap")
    dy = y.take(ends, mode="wrap") - y.take(near, mode="wrap")
    # squared in place: fresh (10, n) temporaries fault their pages in
    dx *= dx
    dy *= dy
    dx += dy
    return math.sqrt(dx.max())


# writes a slot past the class's own __setattr__, as __init__ does
_assign = object.__setattr__


def _refuse_public(self, name: str, value) -> None:
    # a public field is written once, by __init__ (or by copy and pickle):
    # a set changed in place would keep the memos (profile, trajectory) of
    # the set it was
    if not name.startswith("_") and hasattr(self, name):
        raise AttributeError(f"{type(self).__name__}.{name} cannot be assigned")
    _assign(self, name, value)


class ConvexPolygon:
    """Counterclockwise convex polygon; 0, 1 or 2 vertices mean empty /
    point / segment.

    Construction canonicalizes: vertices closer than 1e-12 of the diameter
    are merged and vertices whose turn has a sine of at most 1e-12 are
    dropped, so near-degenerate erosion outputs collapse to their true
    shape while fine polygons keep every corner.
    """

    __slots__ = ("vertices", "_profile", "_diameter")
    __setattr__ = _refuse_public

    def __init__(self, vertices):
        v = np.asarray(vertices, float).reshape(-1, 2)
        if not np.isfinite(v).all():
            raise BadConfigError("vertices must be finite")
        v = self._canonicalize(v)
        v.setflags(write=False)
        _assign(self, "vertices", v)
        _assign(self, "_profile", None)  # lazily filled by morphology
        _assign(self, "_diameter", None)

    @staticmethod
    def _canonicalize(v: np.ndarray) -> np.ndarray:
        if len(v) <= 1:
            return v.copy()
        scale = _bbox_scale(v)
        if not math.isfinite(scale * scale):  # areas and cross products scale as it
            raise BadConfigError(f"vertices span {scale}: the square overflows")
        if scale == 0.0:
            return v[:1].copy()
        v = _merge_close(v, MERGE_REL_TOL * scale)
        if len(v) <= 2:
            return v
        # orientation from coordinates relative to a vertex: a polygon far
        # smaller than its distance to the origin cancels out otherwise
        dvec = v - v[0]
        if float(cross2(dvec, cycled(dvec)).sum()) < 0:
            v = v[::-1].copy()
            dvec = v - v[0]
        cross_tol = COLLINEAR_REL_TOL * scale * scale
        # a globally collinear point set is a segment, not a thin polygon
        axis = dvec[np.argmax(_dot_rows(dvec, dvec))]
        if (np.abs(cross2(dvec, axis)) <= cross_tol).all():
            return _collinear_extremes(v)
        merged = v
        # the edges in units of the power of two above the scale, an exact
        # change: a product of two squared lengths overflows past 2^256
        unit = math.ldexp(1.0, -math.frexp(scale)[1])
        unit_tol = COLLINEAR_REL_TOL * (scale * unit) * (scale * unit)  # cross_tol * unit^2
        # drop collinear vertices until stable: a vertex turns by too little
        # when the sine of its turn is at most COLLINEAR_REL_TOL, which keeps
        # the real corners between the short edges of a fine polygon
        changed = True
        while changed and len(v) >= 3:
            before = (v - cycled(v, -1)) * unit
            cr = cross2(before, cycled(before))
            if (cr < -unit_tol).any():
                raise BadConfigError("vertices do not describe a convex polygon")
            sq = _dot_rows(before, before)
            keep = cr > COLLINEAR_REL_TOL * np.sqrt(sq * cycled(sq))
            changed = not keep.all()
            v = v[keep]
        if len(v) < 3:
            return _collinear_extremes(merged)
        # every turn is to the left: they sum to a whole number of turns,
        # more than one for a star or a zig-zag
        if np.arctan2(cr, _dot_rows(before, cycled(before))).sum() > 3.0 * math.pi:
            raise BadConfigError("vertices do not describe a convex polygon")
        return v

    # -- constructors ---------------------------------------------------

    @classmethod
    def empty(cls) -> "ConvexPolygon":
        return cls(np.zeros((0, 2)))

    @classmethod
    def point(cls, p) -> "ConvexPolygon":
        return cls(np.asarray(p, float).reshape(1, 2))

    @classmethod
    def segment(cls, p, q) -> "ConvexPolygon":
        return cls(np.array([p, q], float))

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.vertices)

    def __repr__(self) -> str:
        return f"ConvexPolygon({self.vertices.tolist()!r})"

    @property
    def diameter(self) -> float:
        """Largest distance between two vertices (computed once)."""
        if self._diameter is None:
            self._diameter = _diameter(self.vertices)
        return self._diameter

    def edge_normals(self) -> np.ndarray:
        """Unit outward normals, one per edge (both directions for a segment)."""
        v = self.vertices
        if len(v) < 2:
            return np.zeros((0, 2))
        d = cycled(v) - v
        n = np.stack([d[:, 1], -d[:, 0]], axis=1)
        return n / np.sqrt(_dot_rows(n, n))[:, None]

    def exterior_angles(self) -> np.ndarray:
        """Turning angle at each vertex, in (0, pi); degenerate kernels give
        pi per endpoint (segment) or 2*pi (point)."""
        if len(self.vertices) == 1:
            return np.array([2.0 * math.pi])
        return _vertex_turns(self.edge_normals())


def polygon_area(p: ConvexPolygon) -> float:
    """Shoelace area, 0 for degenerate polygons; taken relative to the first
    vertex, or a polygon far from the origin loses it to cancellation."""
    v = p.vertices
    if len(v) < 3:
        return 0.0
    return 0.5 * float(cross2(v[1:-1] - v[0], v[2:] - v[0]).sum())


def polygon_perimeter(p: ConvexPolygon) -> float:
    """Boundary length.  A segment counts twice its length (the boundary is
    traversed on both sides), which keeps the Steiner formulas exact for
    stadiums."""
    v = p.vertices
    if len(v) < 2:
        return 0.0
    d = cycled(v) - v
    return float(np.sqrt(_dot_rows(d, d)).sum())


def polygon_centroid(p: ConvexPolygon) -> np.ndarray:
    """Area centroid, taken relative to the first vertex as polygon_area is."""
    v = p.vertices
    if len(v) == 0:
        raise EmptySetError("centroid of empty polygon")
    if len(v) < 3:
        return v.mean(axis=0)
    d = v - v[0]
    nxt = cycled(d)
    cr = cross2(d, nxt)
    return v[0] + (d + nxt).T @ cr / (3.0 * cr.sum())


class RoundedSet:
    """A convex kernel polygon dilated by a disk of radius >= 0."""

    __slots__ = ("kernel", "radius", "_trajectory")
    __setattr__ = _refuse_public

    def __init__(self, kernel: ConvexPolygon, radius: float):
        require_finite("radius", radius, 0.0)
        radius = float(radius)
        if not math.isfinite(radius * radius):  # rounded_area squares it
            raise BadConfigError(f"radius {radius}: the square overflows")
        _assign(self, "kernel", kernel)
        _assign(self, "radius", radius)
        _assign(self, "_trajectory", None)  # lazily filled by evolution

    @classmethod
    def empty(cls) -> "RoundedSet":
        return cls(ConvexPolygon.empty(), 0.0)

    @classmethod
    def ball(cls, center, radius: float) -> "RoundedSet":
        return cls(ConvexPolygon.point(center), radius)

    @classmethod
    def stadium(cls, p, q, radius: float) -> "RoundedSet":
        return cls(ConvexPolygon.segment(p, q), radius)

    @classmethod
    def from_polygon(cls, vertices, radius: float = 0.0) -> "RoundedSet":
        return cls(ConvexPolygon(vertices), radius)

    @property
    def is_empty(self) -> bool:
        return len(self.kernel) == 0

    @property
    def diameter(self) -> float:
        return self.kernel.diameter + 2.0 * self.radius

    def __repr__(self) -> str:
        return f"RoundedSet(kernel={self.kernel!r}, radius={self.radius!r})"


def _hull(pts: np.ndarray) -> list[int]:
    """Indices of the convex hull's vertices, counterclockwise (Andrew's
    monotone chain, 1979); fewer than 3 for collinear or coincident points."""
    xy = pts.tolist()
    order = sorted(range(len(xy)), key=xy.__getitem__)
    hull: list[int] = []
    for chain in (order, order[::-1]):  # the lower hull, then the upper
        base = len(hull)
        for i in chain:
            while len(hull) > base + 1:
                (ax, ay), (bx, by), (cx, cy) = xy[hull[-2]], xy[hull[-1]], xy[i]
                if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0.0:
                    break
                hull.pop()
            hull.append(i)
        hull.pop()  # the chain's last point starts the other chain
    return hull


def random_rounded_set(rng: np.random.Generator) -> RoundedSet:
    """Convex hull of 4 to 9 uniform points in [0, 2]^2 (drawn again if flat)
    rounded by a radius uniform in [0, 0.5): the tests' and `validate`'s sets."""
    while True:
        pts = rng.random((int(rng.integers(4, 10)), 2)) * 2.0
        if len(hull := _hull(pts)) >= 3:
            return RoundedSet.from_polygon(pts[hull], float(rng.random() * 0.5))


def rounded_area(s: RoundedSet) -> float:
    """Steiner formula: kernel area + r * kernel perimeter + pi r^2."""
    if s.is_empty:
        return 0.0
    k, r = s.kernel, s.radius
    area = polygon_area(k) + r * polygon_perimeter(k) + math.pi * r**2
    if not math.isfinite(area):  # past about 1.3e154 across
        raise BadConfigError("set area overflows")
    return area


def rounded_perimeter(s: RoundedSet) -> float:
    """Kernel perimeter plus one full turn of arcs (2 pi r)."""
    if s.is_empty:
        return 0.0
    return polygon_perimeter(s.kernel) + 2.0 * math.pi * s.radius


def boundary_pieces(s: RoundedSet):
    """Decompose the boundary into straight edges and circular arcs.

    Returns a list of ("seg", p0, p1) and ("arc", center, r, a0, a1) items
    with a0 < a1; arcs are centered at kernel vertices.
    """
    if s.is_empty:
        return []
    v = s.kernel.vertices
    r = s.radius
    pieces = []
    if len(v) == 1:
        if r > 0:
            pieces.append(("arc", v[0], r, 0.0, 2.0 * math.pi))
        return pieces
    normals = s.kernel.edge_normals()
    nxt = cycled(v)
    for i in range(len(v)):
        n = normals[i]
        pieces.append(("seg", v[i] + r * n, nxt[i] + r * n))
        if r > 0:
            n2 = normals[(i + 1) % len(v)]
            a0 = math.atan2(n[1], n[0])
            turn = math.atan2(float(cross2(n, n2)), float(np.dot(n, n2)))
            pieces.append(("arc", nxt[i], r, a0, a0 + turn))
    return pieces


def rounded_centroid(s: RoundedSet) -> Point2:
    """Area-weighted centroid of the parallel body (Schneider 2014): its
    moment is A_K c_K + r sum_e L_e m_e + (r^2/2) sum_i theta_i v_i over the
    kernel's edges (length L_e, midpoint m_e) and exterior angles theta_i,
    since the edge strips' and vertex sectors' outward offsets cancel
    around the closed boundary; a point or segment is no special case."""
    if s.is_empty:
        raise EmptySetError("centroid of empty set")
    k, r = s.kernel, s.radius
    v = k.vertices
    area = rounded_area(s)
    if area == 0.0:
        c = v.mean(axis=0)
    else:
        nxt = cycled(v)
        moment = (
            polygon_area(k) * polygon_centroid(k)
            + r * (np.linalg.norm(nxt - v, axis=1) @ (0.5 * (v + nxt)))
            + (0.5 * r * r * k.exterior_angles()) @ v
        )
        c = moment / area
    return Point2(float(c[0]), float(c[1]))


def support(s: RoundedSet, theta: float) -> float:
    """Support function h(theta) = max over the set of p . (cos, sin)."""
    require_finite("theta", theta)
    if s.is_empty:
        raise EmptySetError("support of empty set")
    u = np.array([math.cos(theta), math.sin(theta)])
    return float((s.kernel.vertices @ u).max()) + s.radius


def _support_values(s: RoundedSet, dirs: np.ndarray) -> np.ndarray:
    return (s.kernel.vertices @ dirs.T).max(axis=0) + s.radius


def _probe_directions(a: RoundedSet, b: RoundedSet) -> np.ndarray:
    dirs = [_GRID_DIRECTIONS]
    for s in (a, b):
        n = s.kernel.edge_normals()
        if len(n):
            dirs.append(n)
    return np.concatenate(dirs)


def contains(a: RoundedSet, b: RoundedSet, tol: float) -> bool:
    """b subset of a, up to tol, tested on support functions at the kernels'
    edge normals plus a uniform angular grid."""
    require_finite("tol", tol, 0.0)
    if b.is_empty:
        return True
    if a.is_empty:
        return False
    dirs = _probe_directions(a, b)
    return bool(np.all(_support_values(b, dirs) <= _support_values(a, dirs) + tol))


def hausdorff(a: RoundedSet, b: RoundedSet) -> float:
    """Hausdorff distance of convex bodies: sup-norm of the support gap,
    sampled at kernel normals plus a uniform angular grid."""
    if a.is_empty or b.is_empty:
        raise EmptySetError("hausdorff of empty set")
    dirs = _probe_directions(a, b)
    return float(np.abs(_support_values(a, dirs) - _support_values(b, dirs)).max())


def _segment_length_in_disk(p0, p1, center, r) -> float:
    d = p1 - p0
    length = float(np.linalg.norm(d))
    if length == 0.0:
        return 0.0
    f = p0 - center
    a = length * length
    b = 2.0 * float(f @ d)
    c = float(f @ f) - r * r
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        return 0.0
    sq = math.sqrt(disc)
    t0 = max(0.0, (-b - sq) / (2.0 * a))
    t1 = min(1.0, (-b + sq) / (2.0 * a))
    return max(0.0, t1 - t0) * length


def _arc_length_in_disk(c, rho, a0, a1, center, r) -> float:
    d = np.asarray(center, float) - c
    dist = float(np.linalg.norm(d))
    if dist == 0.0:
        return (a1 - a0) * rho if rho <= r else 0.0
    # point on arc inside disk iff cos(phi - psi) >= q
    q = (rho * rho + dist * dist - r * r) / (2.0 * rho * dist)
    if q <= -1.0:
        return (a1 - a0) * rho
    if q >= 1.0:
        return 0.0
    psi = math.atan2(d[1], d[0])
    half = math.acos(q)
    lo, hi = psi - half, psi + half
    total = 0.0
    for k in (-1, 0, 1, 2):
        s = max(a0, lo + 2.0 * math.pi * k)
        e = min(a1, hi + 2.0 * math.pi * k)
        if e > s:
            total += e - s
    return total * rho


def boundary_length_in_disk(s: RoundedSet, center, r: float) -> float:
    """Exact length of the part of the boundary of s inside the disk
    B_r(center) (segment/arc vs circle clipping)."""
    center = np.asarray(center, float)
    require_finite("radius", r, 0.0)
    if not np.all(np.isfinite(center)):
        raise BadConfigError("center must be finite")
    total = 0.0
    for piece in boundary_pieces(s):
        if piece[0] == "seg":
            total += _segment_length_in_disk(piece[1], piece[2], center, r)
        else:
            _, c, rho, a0, a1 = piece
            total += _arc_length_in_disk(c, rho, a0, a1, center, r)
    return total
