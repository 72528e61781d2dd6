import math

import numpy as np
import pytest

from shrinkset import (
    ConvexPolygon,
    EmptySetError,
    RoundedSet,
    contains,
    dilate,
    duality_gap,
    erode,
    hausdorff,
    inner_radius,
    opening,
    polygon_erode,
    random_rounded_set,
    rounded_area,
)
from shrinkset.geometry import (
    _bbox_scale,
    _merge_close,
    cross2,
    polygon_area,
    polygon_perimeter,
)
from shrinkset.morphology import ErosionProfile

_EPS = float(np.finfo(float).eps)

SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]
RECT = [(0, 0), (2, 0), (2, 1), (0, 1)]
TRIANGLE = [(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)]


def _ellipse(n):
    # inscribed 1.5:1 ellipse n-gon with an edge at each end of the minor
    # axis: four-fold symmetric, so its edges vanish four at a time (two at
    # the last event) and the family has exactly n/4 pieces
    t = 2.0 * math.pi * (np.arange(n) + 0.5) / n
    return np.stack([1.5 * np.cos(t), np.sin(t)], axis=1)


def _reference_profile(kernel):
    """The erosion family event by event, as the build computed it before
    the event queue: after each event every vertex velocity, edge length and
    collapse depth is recomputed from the moved vertices, and the clusters
    the event leaves are merged (there is no collinear cut).  Returns the
    rows (d0, d1, area0, perim0, tan_sum) and d_max."""
    scale = kernel.diameter
    tol = 1e-12 * max(scale, 1.0)
    v = kernel.vertices
    d, rows = 0.0, []
    while len(v) >= 3:
        edges = np.roll(v, -1, axis=0) - v
        lengths = np.linalg.norm(edges, axis=1)
        normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1) / lengths[:, None]
        nprev = np.roll(normals, 1, axis=0)
        lines = np.stack([nprev, normals], axis=1)
        w = np.linalg.solve(lines, np.ones((len(v), 2, 1)))[..., 0]
        shrink = ((np.roll(w, -1, axis=0) - w) * edges / lengths[:, None]).sum(axis=1)
        with np.errstate(divide="ignore"):
            step = float(np.where(shrink > 1e-14, lengths / shrink, np.inf).min())
        turn = np.arctan2(cross2(nprev, normals), (nprev * normals).sum(axis=1))
        area = 0.5 * float(cross2(v, np.roll(v, -1, axis=0)).sum())
        rows.append((d, d + step, area, float(lengths.sum()), float(np.tan(0.5 * turn).sum())))
        d += step
        u = v - step * w
        if _bbox_scale(u) <= len(u) ** 2 * np.finfo(float).eps * scale:
            u = u[:1]
        v = _merge_close(u, tol)
    return np.array(rows).T, d


def _eroded_50_digits(v, d):
    """The convex polygon v eroded by d at 50 digits: v clipped by each
    edge's line moved inward by d (Sutherland and Hodgman 1974)."""
    import mpmath

    with mpmath.workdps(50):
        poly = [tuple(map(mpmath.mpf, p)) for p in v.tolist()]
        lines = []
        for (x0, y0), (x1, y1) in zip(poly, poly[1:] + poly[:1]):
            length = mpmath.hypot(x1 - x0, y1 - y0)
            nx, ny = (y1 - y0) / length, (x0 - x1) / length  # outward
            lines.append((nx, ny, nx * x0 + ny * y0 - d))
        for nx, ny, off in lines:
            out = []
            for a, b in zip(poly, poly[1:] + poly[:1]):
                fa, fb = nx * a[0] + ny * a[1] - off, nx * b[0] + ny * b[1] - off
                if fa <= 0:
                    out.append(a)
                if fa * fb < 0:
                    t = fa / (fa - fb)
                    out.append((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
            poly = out
        return np.array(poly, float)


def sq(radius=0.0):
    return RoundedSet.from_polygon(SQUARE, radius)


class TestDilate:
    def test_square(self):
        d = dilate(sq(), 1.0)
        assert d.radius == 1.0
        assert rounded_area(d) == pytest.approx(5 + math.pi)

    def test_semigroup(self, rng):
        s = random_rounded_set(rng)
        once = dilate(dilate(s, 0.4), 0.7)
        assert hausdorff(once, dilate(s, 1.1)) <= 1e-12

    def test_empty(self):
        assert dilate(RoundedSet.empty(), 1.0).is_empty

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_nonfinite_radius_rejected(self, r):
        with pytest.raises(ValueError):
            dilate(sq(), r)


class TestPolygonErode:
    def test_square_interior(self):
        p = polygon_erode(ConvexPolygon(SQUARE), 0.2)
        assert np.allclose(
            sorted(map(tuple, p.vertices)),
            [(0.2, 0.2), (0.2, 0.8), (0.8, 0.2), (0.8, 0.8)],
        )

    def test_square_to_point(self):
        p = polygon_erode(ConvexPolygon(SQUARE), 0.5)
        assert len(p) == 1
        assert np.allclose(p.vertices[0], (0.5, 0.5))

    def test_rect_to_segment(self):
        p = polygon_erode(ConvexPolygon(RECT), 0.5)
        assert len(p) == 2
        assert np.allclose(sorted(map(tuple, p.vertices)), [(0.5, 0.5), (1.5, 0.5)])

    def test_past_depth_is_empty(self):
        assert len(polygon_erode(ConvexPolygon(SQUARE), 0.51)) == 0

    def test_zero_depth_is_the_kernel(self, rng):
        # the corners at depth 0 are the kernel's own vertices (as numbers:
        # x - 0 * w turns a -0.0 coordinate into 0.0)
        for _ in range(20):
            kernel = random_rounded_set(rng).kernel
            assert np.array_equal(polygon_erode(kernel, 0.0).vertices, kernel.vertices)

    def test_segment_raises(self):
        with pytest.raises(ValueError, match="at least 3 vertices"):
            polygon_erode(ConvexPolygon.segment((0, 0), (1, 0)), 0.1)

    def test_empty_kernel_has_no_profile(self):
        with pytest.raises(EmptySetError):
            ErosionProfile(ConvexPolygon.empty())

    @pytest.mark.parametrize("d", [-0.1, math.nan, math.inf])
    def test_bad_depth_raises(self, d):
        # a nan or infinite depth gave the empty polygon
        with pytest.raises(ValueError):
            polygon_erode(ConvexPolygon(SQUARE), d)


class TestErode:
    def test_radius_roundtrip(self):
        e = erode(dilate(sq(), 1.0), 1.0)
        assert e.radius == 0.0
        assert hausdorff(e, sq()) == 0.0

    def test_polygon_shrink(self):
        e = erode(sq(), 0.3)
        assert rounded_area(e) == pytest.approx(0.16)

    def test_empty_or_zero_radius_is_unchanged(self):
        empty = RoundedSet.empty()
        assert erode(empty, 1.0) is empty
        s = sq(0.2)
        assert erode(s, 0.0) is s

    def test_ball_to_empty(self):
        assert erode(RoundedSet.ball((0, 0), 1.0), 2.0).is_empty
        assert erode(RoundedSet.stadium((0, 0), (1, 0), 0.5), 0.6).is_empty


class TestOpening:
    def test_square_corner_rounding(self):
        o = opening(sq(), 0.3)
        assert o.radius == 0.3
        assert rounded_area(o) == pytest.approx(1 - (4 - math.pi) * 0.09, rel=1e-12)

    def test_square_inscribed_ball(self):
        o = opening(sq(), 0.5)
        assert len(o.kernel) == 1
        assert np.allclose(o.kernel.vertices[0], (0.5, 0.5))
        assert o.radius == 0.5

    def test_empty(self):
        assert opening(RoundedSet.empty(), 0.3).is_empty
        # erode and dilate return an empty set itself, so opening does too
        for empty in (RoundedSet.empty(), RoundedSet(ConvexPolygon.empty(), 0.5)):
            assert opening(empty, 0.3) is empty and opening(empty, 0.8) is empty
        assert opening(RoundedSet.ball((0, 0), 1.0), 2.0).is_empty

    def test_below_radius_is_identity(self):
        s = sq(0.2)
        assert hausdorff(opening(s, 0.1), s) == 0.0

    def test_subset_and_idempotent(self, rng):
        for _ in range(20):
            s = random_rounded_set(rng)
            rho = float(rng.random() * 0.8 + 0.05)
            o = opening(s, rho)
            if o.is_empty:
                continue
            assert contains(s, o, 1e-9)
            assert hausdorff(opening(o, rho), o) <= 1e-9

    def test_monotone_in_rho(self, rng):
        for _ in range(20):
            s = random_rounded_set(rng)
            rbar, _ = inner_radius(s)
            r1, r2 = sorted(rng.random(2) * rbar * 0.98 + 1e-3)
            assert contains(opening(s, r1), opening(s, r2), 1e-9)

    def test_area_strictly_decreasing_past_radius(self):
        s = sq(0.1)
        rbar, _ = inner_radius(s)
        rhos = np.linspace(0.11, rbar, 20)
        areas = [rounded_area(opening(s, float(r))) for r in rhos]
        assert all(a1 > a2 for a1, a2 in zip(areas, areas[1:]))
        # constant plateau below the rounding radius
        assert rounded_area(opening(s, 0.05)) == rounded_area(s)


class TestInnerRadius:
    def test_square(self):
        rbar, locus = inner_radius(sq())
        assert rbar == pytest.approx(0.5, abs=1e-12)
        assert locus.half_length == 0.0
        assert (locus.center.x, locus.center.y) == pytest.approx((0.5, 0.5))

    def test_rectangle(self):
        rbar, locus = inner_radius(RoundedSet.from_polygon(RECT))
        assert rbar == pytest.approx(0.5)
        assert locus.half_length == pytest.approx(0.5)
        assert (locus.center.x, locus.center.y) == pytest.approx((1.0, 0.5))
        assert abs(locus.direction.x) == pytest.approx(1.0)

    def test_additive_under_dilation(self, rng):
        assert inner_radius(sq(0.25))[0] == pytest.approx(0.75)
        for _ in range(20):
            s = random_rounded_set(rng)
            t = float(rng.random())
            assert inner_radius(dilate(s, t))[0] == pytest.approx(
                inner_radius(s)[0] + t, abs=1e-12
            )

    def test_inscribed_balls_fit(self, rng):
        for _ in range(20):
            s = random_rounded_set(rng)
            rbar, locus = inner_radius(s)
            e = np.array(locus.direction)
            c = np.array(locus.center)
            for sign in (-1.0, 1.0):
                ball = RoundedSet.ball(c + sign * locus.half_length * e, rbar)
                assert contains(s, ball, 1e-9)

    def test_empty_raises(self):
        with pytest.raises(EmptySetError):
            inner_radius(RoundedSet.empty())


class TestDuality:
    def test_gap_small_everywhere(self, rng):
        for _ in range(20):
            s = random_rounded_set(rng)
            assert duality_gap(s, float(rng.random() * 3 + 0.01)) <= 1e-9

    def test_square_large_radius(self):
        assert duality_gap(sq(), 10.0) <= 1e-9

    def test_ball(self):
        assert duality_gap(RoundedSet.ball((0, 0), 1.0), 0.1) == 0.0

    def test_adjunction(self, rng):
        for _ in range(20):
            s = random_rounded_set(rng)
            r = float(rng.random() + 0.05)
            assert contains(s, dilate(erode(s, r), r), 1e-9)
            assert contains(erode(dilate(s, r), r), s, 1e-9)


class TestErosionProfile:
    def test_matches_direct_erosion(self, rng):
        # the opening at rho = d of a sharp kernel is its d-erosion dilated
        # by d: querying that area must give back depth d and the closed-form
        # perimeter of the eroded polygon (the ellipse's 100 pieces exercise
        # the bisection for the piece)
        kernels = [random_rounded_set(rng).kernel for _ in range(10)]
        for k in kernels + [ConvexPolygon(_ellipse(400))]:
            s = RoundedSet(k, 0.0)
            prof = ErosionProfile(s.kernel)
            for d in np.linspace(0, prof.d_max * 0.999, 7):
                d = float(d)
                e = polygon_erode(s.kernel, d)
                a = polygon_area(e) + d * polygon_perimeter(e) + math.pi * d * d
                perim, regime, rho, length = prof.query(0.0, a)
                assert regime == "Opening"
                assert length == 0.0
                assert rho == pytest.approx(d, abs=1e-10)
                assert perim - 2.0 * math.pi * d == pytest.approx(
                    polygon_perimeter(e), abs=1e-10
                )

    def test_velocities_match_per_vertex_solve(self, rng):
        # each vertex the build set moves so that it stays on the offset
        # lines of its two edges: at a kernel vertex the batched solve must
        # equal solving its 2x2 system alone, and a vertex left by vanished
        # edges must solve the system of the edges it joins to rounding
        kernels = [random_rounded_set(rng).kernel for _ in range(10)]
        checked = 0
        for k in kernels + [ConvexPolygon(_ellipse(100))]:
            prof = ErosionProfile(k)
            normals = k.edge_normals()
            edge, depth, w = prof._rows[:, 0].astype(int), prof._rows[:, 3], prof._rows[:, 4:6]
            first = prof._start
            assert np.all(depth[first] == 0.0)
            want = [np.linalg.solve(np.array([normals[e - 1], normals[e]]), np.ones(2)) for e in edge[first]]
            assert np.array_equal(w[first], np.array(want))
            for i in np.setdiff1d(np.arange(len(edge)), first):
                # the edge before it in the ring of edges alive past its depth
                alive = np.flatnonzero(prof.death > depth[i])
                a = alive[np.searchsorted(alive, edge[i]) - 1]
                residual = np.array([normals[a], normals[edge[i]]]) @ w[i] - 1.0
                assert np.abs(residual).max() <= 4 * _EPS * np.abs(w[i]).sum()
                checked += 1
        assert checked > 0

    def test_matches_per_event_reference(self, rng):
        # depths and tan_sum to 1e-12 relative; each piece's area and
        # perimeter to 1e-12 of the kernel's, since they inherit the
        # absolute error of the depth they are taken at (late pieces are
        # small: a 1e-14 relative depth error moves a 1e-5 area by 6e-9)
        kernels = [random_rounded_set(rng).kernel for _ in range(30)]
        kernels += [ConvexPolygon(v) for v in (SQUARE, RECT, TRIANGLE)]
        kernels += [ConvexPolygon(_ellipse(n)) for n in (100, 400)]
        for k in kernels:
            prof = ErosionProfile(k)
            (d0, d1, area0, perim0, tan_sum), d_max = _reference_profile(k)
            assert len(prof.pieces) == len(d0)
            got_d0, got_d1, got_area0, got_perim0, got_tan_sum = map(list, zip(*prof.pieces))
            assert prof.d_max == pytest.approx(d_max, rel=1e-12)
            assert got_d0 == pytest.approx(d0, rel=1e-12)
            assert got_d1 == pytest.approx(d1, rel=1e-12)
            for got, want, scale in (
                (got_area0, area0, area0[0]),
                (got_perim0, perim0, perim0[0]),
            ):
                assert got == pytest.approx(want, rel=0, abs=1e-12 * scale)
            assert got_tan_sum == pytest.approx(tan_sum, rel=1e-12)

    def test_consecutive_rows_chain_exactly(self):
        # each row starts where the one before ends, with the area and
        # perimeter that row's closed form gives there, bit for bit: a row
        # read in another order than (d0, d1, area0, perim0, tan_sum) breaks it
        rng = np.random.default_rng(5)
        kernels = [random_rounded_set(rng).kernel for _ in range(300)]
        kernels += [ConvexPolygon(_ellipse(n)) for n in (100, 400, 800, 3200)]
        pairs = 0
        for k in kernels:
            pieces = ErosionProfile(k).pieces
            for (d0, d1, area0, perim0, tan_sum), after in zip(pieces, pieces[1:]):
                x = d1 - d0
                assert after[0] == d1
                assert after[2] == area0 - perim0 * x + tan_sum * x * x
                assert after[3] == perim0 - 2.0 * tan_sum * x
                pairs += 1
        assert pairs > 1000

    @pytest.mark.parametrize("n", [100, 400, 800, 1600, 3200])
    def test_symmetric_ellipse_has_quarter_as_many_pieces(self, n):
        # every event drops only the edges whose collapse fired
        prof = ErosionProfile(ConvexPolygon(_ellipse(n)))
        assert len(prof.pieces) == n // 4
        assert len(prof.locus) == 2

    def test_polygon_perimeter_matches_piece_formula(self, rng):
        # the polygon rebuilt from the edges alive at d keeps every corner,
        # in mid-piece and just before each event
        kernels = [random_rounded_set(rng).kernel for _ in range(30)]
        kernels += [ConvexPolygon(_ellipse(n)) for n in (100, 400, 800, 1600, 3200)]
        for k in kernels:
            prof = ErosionProfile(k)
            for d0, d1, _, perim0, tan_sum in prof.pieces:
                for d in (0.5 * (d0 + d1), d1 - 1e-9 * (d1 - d0)):
                    want = perim0 - 2.0 * tan_sum * (d - d0)
                    got = polygon_perimeter(prof.polygon_at(d))
                    assert got == pytest.approx(want, rel=0, abs=1e-12 * prof.pieces[0][3])

    def test_polygon_at_matches_50_digit_erosion(self, rng):
        # each vertex comes from the build's own rows, extrapolated from the
        # depth where an event set it: within 1e-12 of the diameter of the
        # half-plane intersection at 50 digits, at the middle of every piece,
        # also for a copy a thousand diameters out (built in its own frame)
        for _ in range(20):
            near = random_rounded_set(rng).kernel
            for k in (near, ConvexPolygon(near.vertices + (1e3, 370.0))):
                prof = ErosionProfile(k)
                for d0, d1, *_ in prof.pieces:
                    d = 0.5 * (d0 + d1)
                    got = prof.polygon_at(d).vertices
                    want = _eroded_50_digits(k.vertices, d)
                    gap = np.sqrt(((want[:, None, :] - got[None, :, :]) ** 2).sum(-1))
                    assert max(gap.min(axis=0).max(), gap.min(axis=1).max()) <= 1e-12 * k.diameter

    @pytest.mark.parametrize("n", [512, 1024, 4096])
    @pytest.mark.parametrize("moved", [False, True])
    def test_regular_polygon_collapses_in_one_event(self, n, moved):
        # every edge of a regular n-gon vanishes at the same depth, the
        # apothem; float noise must not split that event or break the build
        t = 2.0 * math.pi * np.arange(n) / n
        v = np.stack([np.cos(t), np.sin(t)], axis=1)
        if moved:
            c, s = math.cos(0.7142223654075871), math.sin(0.7142223654075871)
            v = v @ np.array([[c, s], [-s, c]])
            v += (-0.21754361900867591, 0.03348036524272735)
        prof = ErosionProfile(ConvexPolygon(v))
        assert len(prof.pieces) == 1
        assert len(prof.locus) == 1
        assert prof.d_max == pytest.approx(math.cos(math.pi / n), rel=1e-9)

    @pytest.mark.parametrize(
        "n, radius, angle, offset, rel",
        [
            (100, 0.14364441141927917, 2.392451663226283, (-0.6802754715708924, 29.06838187649244), 1e-9),
            (256, 354060.2058269977, 3.7839803444364, (-51709944.286331505, -3285.4173053875643), 1e-9),
            (2048, 359.6860307111359, 0.07631887441032356, (10639.717317528526, 7168.963725218581), 1e-9),
            (8192, 952.1191516501158, 1.1250840476855517, (-12197.251773986083, -2188.0213868350434), 5e-9),
            (8192, 2182.6229287984374, 5.259321611121413, (19883.00701948878, 6729.76787504262), 5e-9),
        ],
    )
    def test_collapse_residue_is_a_point(self, n, radius, angle, offset, rel):
        # far from the origin, float noise splits the regular polygon's
        # collapse over ~n^2 ulps of the coordinates; the build reads the
        # residue at the first event (below the apothem by that spread) as
        # the point it is, whatever the polygon's size
        t = 2.0 * math.pi * np.arange(n) / n
        c, s = math.cos(angle), math.sin(angle)
        v = np.stack([np.cos(t), np.sin(t)], axis=1) @ np.array([[c, s], [-s, c]])
        prof = ErosionProfile(ConvexPolygon(v * radius + offset))
        assert len(prof.pieces) == 1
        assert len(prof.locus) == 1
        assert prof.d_max == pytest.approx(radius * math.cos(math.pi / n), rel=rel)
