import math

import numpy as np
import pytest

from shrinkset import (
    BadConfigError,
    ConvexPolygon,
    EmptySetError,
    RoundedSet,
    boundary_length_in_disk,
    contains,
    dilate,
    hausdorff,
    random_rounded_set,
    rounded_area,
    rounded_centroid,
    rounded_perimeter,
    support,
)
from shrinkset.geometry import polygon_area, polygon_centroid, polygon_perimeter

SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


def sq(radius=0.0):
    return RoundedSet.from_polygon(SQUARE, radius)


def _ellipse(n):
    t = 2.0 * math.pi * (np.arange(n) + 0.5) / n
    return np.stack([1.5 * np.cos(t), np.sin(t)], axis=1)


def _all_pairs_diameter(v):
    best = 0.0
    for i in range(0, len(v), 256):  # row blocks bound the memory
        d = v[i : i + 256, None, :] - v[None, :, :]
        best = max(best, float(np.sqrt((d * d).sum(-1)).max()))
    return best


class TestPolygonMeasures:
    def test_area(self):
        assert polygon_area(ConvexPolygon(SQUARE)) == 1.0
        assert polygon_area(ConvexPolygon.segment((0, 0), (1, 0))) == 0.0
        assert polygon_area(ConvexPolygon([(0, 0), (2, 0), (0, 2)])) == 2.0

    def test_area_far_from_origin(self):
        # at absolute coordinates the shoelace sum cancels to noise here
        tiny = ConvexPolygon(1e3 + 1e-6 * np.array(SQUARE, float))
        assert polygon_area(tiny) == pytest.approx(1e-12, rel=1e-8)

    def test_perimeter(self):
        assert polygon_perimeter(ConvexPolygon(SQUARE)) == 4.0
        # a segment's boundary is traversed on both sides
        assert polygon_perimeter(ConvexPolygon.segment((0, 0), (1, 0))) == 2.0
        assert polygon_perimeter(ConvexPolygon.point((3, 4))) == 0.0

    def test_diameter_matches_all_pairs(self, rng):
        # the antipodal-pair search gives the bits of the O(n^2) maximum,
        # once per polygon
        polys = [random_rounded_set(rng).kernel for _ in range(50)]
        polys += [ConvexPolygon(_ellipse(n)) for n in (100, 400, 800, 3200)]
        polys += [ConvexPolygon(_ellipse(n) * 1e-6 + 1e3) for n in (7, 512)]
        for n in (3, 4, 6, 64, 512, 4096):
            t = 2.0 * math.pi * np.arange(n) / n + 0.7142223654075871
            polys.append(ConvexPolygon(np.stack([np.cos(t), np.sin(t)], axis=1)))
        polys += [ConvexPolygon.segment((0, 0), (3, 4)), ConvexPolygon.point((1, 2))]
        for p in polys:
            assert p.diameter == _all_pairs_diameter(p.vertices)
            assert p.diameter is p.diameter


class TestCanonicalization:
    def test_duplicates_merged(self):
        p = ConvexPolygon([(0, 0), (0, 0), (1, 0), (1, 1), (0, 1)])
        assert len(p) == 4

    def test_collinear_dropped(self):
        p = ConvexPolygon([(0, 0), (0.5, 0), (1, 0), (1, 1), (0, 1)])
        assert len(p) == 4

    def test_clockwise_input_reoriented(self):
        p = ConvexPolygon(list(reversed(SQUARE)))
        assert polygon_area(p) == 1.0

    def test_nonconvex_rejected(self):
        with pytest.raises(ValueError):
            ConvexPolygon([(0, 0), (2, 0), (1, 0.1), (0, 2)])

    def test_collinear_points_become_segment(self):
        p = ConvexPolygon([(0, 0), (1, 1), (2, 2)])
        assert len(p) == 2

    def test_fine_polygon_keeps_its_corners(self):
        # each vertex turns by 6e-5 between edges 1e-4 long: far above the
        # collinear tolerance relative to those edges
        assert len(ConvexPolygon(_ellipse(100_000))) == 100_000

    def test_tiny_polygon_far_from_origin(self):
        # a triangle 4e-10 across at distance 1.4 from the origin
        v = [
            (0.8958193437258442, 1.0645000558282154),
            (0.8958193433292115, 1.064500056001219),
            (0.8958193433992416, 1.064500055845674),
        ]
        assert np.array_equal(ConvexPolygon(v).vertices, v)
        assert np.array_equal(ConvexPolygon(v[::-1]).vertices, v)


class TestRoundedMeasures:
    def test_area(self):
        assert rounded_area(sq(1.0)) == pytest.approx(5 + math.pi, rel=1e-15)
        assert rounded_area(RoundedSet.ball((2, 3), 0.7)) == pytest.approx(
            math.pi * 0.49, rel=1e-15
        )
        stadium = RoundedSet.stadium((0, 0), (1, 0), 0.5)
        assert rounded_area(stadium) == pytest.approx(1 + math.pi / 4, rel=1e-15)

    def test_perimeter(self):
        assert rounded_perimeter(sq(1.0)) == pytest.approx(4 + 2 * math.pi)
        assert rounded_perimeter(RoundedSet.ball((0, 0), 0.7)) == pytest.approx(
            2 * math.pi * 0.7
        )
        stadium = RoundedSet.stadium((0, 0), (1, 0), 0.5)
        assert rounded_perimeter(stadium) == pytest.approx(2 + math.pi)

    def test_empty(self):
        assert rounded_area(RoundedSet.empty()) == 0.0
        assert rounded_perimeter(RoundedSet.empty()) == 0.0

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -1.0])
    def test_nonfinite_or_negative_radius_rejected(self, radius):
        with pytest.raises(BadConfigError):
            RoundedSet(ConvexPolygon(SQUARE), radius)


class TestCentroid:
    def test_square_any_radius(self):
        for r in (0.0, 0.3, 2.0):
            c = rounded_centroid(sq(r))
            assert (c.x, c.y) == pytest.approx((0.5, 0.5), abs=1e-14)

    def test_ball(self):
        c = rounded_centroid(RoundedSet.ball((2, -1), 0.4))
        assert (c.x, c.y) == pytest.approx((2, -1), abs=1e-14)

    def test_stadium(self):
        c = rounded_centroid(RoundedSet.stadium((0, 0), (2, 0), 0.5))
        assert (c.x, c.y) == pytest.approx((1, 0), abs=1e-14)

    def test_matches_polygon_centroid_at_zero_radius(self, rng):
        for _ in range(20):
            s = RoundedSet(random_rounded_set(rng).kernel, 0.0)
            c = rounded_centroid(s)
            assert np.allclose(c, polygon_centroid(s.kernel), atol=1e-12)

    def test_empty_raises(self):
        with pytest.raises(EmptySetError):
            rounded_centroid(RoundedSet.empty())


class TestSupport:
    def test_unit_ball(self):
        b = RoundedSet.ball((0, 0), 1.0)
        for theta in np.linspace(0, 2 * math.pi, 17):
            assert support(b, theta) == pytest.approx(1.0)

    def test_square(self):
        assert support(sq(), 0.0) == pytest.approx(1.0)
        assert support(sq(0.5), math.pi / 4) == pytest.approx(math.sqrt(2) + 0.5)


class TestContainsHausdorff:
    def test_concentric_balls(self):
        assert contains(RoundedSet.ball((0, 0), 1), RoundedSet.ball((0, 0), 0.5), 0.0)

    def test_dilation_contains(self):
        assert contains(dilate(sq(), 0.1), sq(), 0.0)
        assert not contains(sq(), dilate(sq(), 0.1), 1e-9)

    def test_disjoint_balls(self):
        assert not contains(
            RoundedSet.ball((0, 0), 1), RoundedSet.ball((3, 0), 1), 1e-9
        )

    def test_hausdorff_identical(self):
        assert hausdorff(sq(0.2), sq(0.2)) == 0.0

    def test_hausdorff_balls(self):
        assert hausdorff(
            RoundedSet.ball((0, 0), 1), RoundedSet.ball((0, 0), 2)
        ) == pytest.approx(1.0)

    def test_hausdorff_dilation(self):
        assert hausdorff(sq(), dilate(sq(), 0.3)) == pytest.approx(0.3)


class TestProperties:
    def test_steiner_consistency(self, rng):
        for _ in range(200):
            s = random_rounded_set(rng)
            r = float(rng.random() * 2)
            want = (
                rounded_area(s)
                + r * rounded_perimeter(s)
                + math.pi * r * r
            )
            assert rounded_area(dilate(s, r)) == pytest.approx(want, rel=1e-12)

    def test_isoperimetric_inequality(self, rng):
        for _ in range(200):
            s = random_rounded_set(rng)
            assert rounded_perimeter(s) >= 2 * math.sqrt(
                math.pi * rounded_area(s)
            ) * (1 - 1e-12)
        ball = RoundedSet.ball((1, 1), 0.77)
        assert rounded_perimeter(ball) == pytest.approx(
            2 * math.sqrt(math.pi * rounded_area(ball)), rel=1e-14
        )

    def test_local_perimeter_bound(self, rng):
        for _ in range(20):
            s = random_rounded_set(rng)
            for _ in range(50):
                center = rng.random(2) * 4 - 1
                r = float(rng.random() * s.diameter + 1e-3)
                assert boundary_length_in_disk(s, center, r) <= 2 * math.pi * r + 1e-9

    def test_clipping_recovers_full_perimeter(self, rng):
        for _ in range(20):
            s = random_rounded_set(rng)
            big = 10.0 * s.diameter
            got = boundary_length_in_disk(s, (0.0, 0.0), big)
            assert got == pytest.approx(rounded_perimeter(s), rel=1e-12)

    @pytest.mark.parametrize(
        "center, r",
        [((0.5, 0.5), -10.0), ((0.5, 0.5), math.nan), ((0.5, 0.5), math.inf),
         ((math.nan, 0.5), 1.0), ((0.5, -math.inf), 1.0)],
    )
    def test_clipping_rejects_bad_disk(self, center, r):
        # a negative radius gave the whole perimeter, a nan centre more than it
        with pytest.raises(BadConfigError):
            boundary_length_in_disk(sq(0.2), center, r)

    def test_centroid_invariant_under_dilation_when_symmetric(self):
        for s in (
            RoundedSet.ball((1, 2), 0.5),
            RoundedSet.stadium((0, 0), (2, 1), 0.3),
            RoundedSet.from_polygon([(0, 0), (3, 0), (3, 1), (0, 1)]),
        ):
            c0 = rounded_centroid(s)
            c1 = rounded_centroid(dilate(s, 0.7))
            assert (c1.x, c1.y) == pytest.approx((c0.x, c0.y), abs=1e-12)
