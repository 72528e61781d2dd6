import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from shrinkset import (
    AreaExceedsDomainError,
    BadConfigError,
    NonpositiveAreaError,
    OutOfRegimeError,
    RoundedSet,
    contains,
    dilate,
    free_arc_turning,
    hausdorff,
    inner_radius,
    invert_opening_area,
    opening,
    optimal_subset,
    perimeter_of_area,
    random_rounded_set,
    rounded_area,
    rounded_perimeter,
)
from shrinkset.geometry import ConvexPolygon, polygon_area, polygon_perimeter
from shrinkset.morphology import _AREA_REL_TOL, _profile

SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]
RECT = [(0, 0), (2, 0), (2, 1), (0, 1)]
TRIANGLE = [(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)]
HEXAGON = [
    (math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)
]


def sq(radius=0.0):
    return RoundedSet.from_polygon(SQUARE, radius)


class TestRegimes:
    def test_small_area_gives_centered_ball(self):
        sol = optimal_subset(sq(), 0.5)
        assert sol.regime == "Ball"
        assert sol.rho == pytest.approx(math.sqrt(0.5 / math.pi))
        assert len(sol.set.kernel) == 1
        assert np.allclose(sol.set.kernel.vertices[0], (0.5, 0.5))
        assert sol.perimeter == pytest.approx(2 * math.sqrt(0.5 * math.pi))

    def test_mid_area_gives_stadium(self):
        sol = optimal_subset(RoundedSet.from_polygon(RECT), 1.2)
        assert sol.regime == "Stadium"
        assert sol.rho == pytest.approx(0.5)
        length = 1.2 - math.pi / 4
        assert sol.set.kernel.diameter == pytest.approx(length)
        mid = sol.set.kernel.vertices.mean(axis=0)
        assert np.allclose(mid, (1.0, 0.5))
        assert sol.perimeter == pytest.approx(2 * length + math.pi)

    def test_large_area_gives_opening(self):
        sol = optimal_subset(sq(), 0.9)
        assert sol.regime == "Opening"
        rho = math.sqrt(0.1 / (4 - math.pi))
        assert sol.rho == pytest.approx(rho, rel=1e-12)
        assert sol.perimeter == pytest.approx(4 - 2 * (4 - math.pi) * rho, rel=1e-12)
        assert rounded_area(sol.set) == pytest.approx(0.9, rel=1e-10)

    def test_full_area_is_identity(self):
        sol = optimal_subset(sq(), 1.0)
        assert sol.regime == "Opening"
        assert hausdorff(sol.set, sq()) <= 1e-12
        assert math.isinf(sol.max_curvature)

    def test_solution_invariants(self, rng):
        for _ in range(50):
            s = random_rounded_set(rng)
            a = float(rng.random()) * rounded_area(s)
            if a <= 0:
                continue
            sol = optimal_subset(s, a)
            assert rounded_area(sol.set) == pytest.approx(a, rel=1e-10)
            assert sol.max_curvature == pytest.approx(1.0 / sol.rho)
            assert contains(s, sol.set, 1e-9)
            if sol.regime == "Ball":
                assert len(sol.set.kernel) == 1
            elif sol.regime == "Stadium":
                assert len(sol.set.kernel) == 2
                assert sol.rho == pytest.approx(inner_radius(s)[0])

    def test_errors(self):
        with pytest.raises(NonpositiveAreaError):
            optimal_subset(sq(), 0.0)
        with pytest.raises(AreaExceedsDomainError):
            optimal_subset(sq(), 2.0)

    def test_nan_area_rejected(self):
        with pytest.raises(BadConfigError, match="^target area must be finite"):
            optimal_subset(sq(), math.nan)


class TestInvertOpeningArea:
    def test_square_closed_form(self):
        a = 1 - (4 - math.pi) * 0.04
        assert invert_opening_area(sq(), a) == pytest.approx(0.2, rel=1e-12)

    def test_inscribed_ball(self):
        assert invert_opening_area(sq(), math.pi / 4) == pytest.approx(0.5)

    def test_plateau_resolves_to_largest_rho(self):
        s = sq(0.3)
        assert invert_opening_area(s, rounded_area(s)) == pytest.approx(0.3)

    def test_out_of_bracket(self):
        with pytest.raises(OutOfRegimeError):
            invert_opening_area(sq(), 0.5)

    def test_nan_area_rejected(self):
        with pytest.raises(BadConfigError, match="^area must be finite"):
            invert_opening_area(sq(), math.nan)

    def test_roundtrip(self, rng):
        for _ in range(30):
            s = random_rounded_set(rng)
            rbar, _ = inner_radius(s)
            a_hat = rounded_area(opening(s, rbar))
            a = a_hat + float(rng.random()) * (rounded_area(s) - a_hat)
            rho = invert_opening_area(s, a)
            assert rounded_area(opening(s, rho)) == pytest.approx(a, rel=1e-10)


class TestPerimeterOfArea:
    def test_square_values(self):
        assert perimeter_of_area(sq(), math.pi / 4) == pytest.approx(math.pi)
        assert perimeter_of_area(sq(), 1.0) == pytest.approx(4.0)
        rho = math.sqrt(0.1 / (4 - math.pi))
        assert perimeter_of_area(sq(), 0.9) == pytest.approx(4 - 2 * (4 - math.pi) * rho)

    def test_nan_area_rejected(self):
        with pytest.raises(BadConfigError, match="^target area must be finite"):
            perimeter_of_area(sq(), math.nan)

    def test_monotone_nondecreasing(self, rng):
        for _ in range(10):
            s = random_rounded_set(rng)
            areas = np.sort(rng.random(30)) * rounded_area(s)
            perims = [perimeter_of_area(s, float(a)) for a in areas if a > 0]
            assert all(p1 <= p2 + 1e-12 for p1, p2 in zip(perims, perims[1:]))

    def test_continuous_across_regime_boundaries(self):
        s = RoundedSet.from_polygon(RECT)
        rbar, _ = inner_radius(s)
        a_ball = math.pi * rbar * rbar
        a_hat = rounded_area(opening(s, rbar))
        for boundary in (a_ball, a_hat):
            jump = abs(
                perimeter_of_area(s, boundary + 1e-8)
                - perimeter_of_area(s, boundary - 1e-8)
            )
            assert jump <= 1e-6

    def test_curvature_matches_area_derivative(self, rng):
        for shape in (sq(), RoundedSet.from_polygon(RECT), RoundedSet.from_polygon(TRIANGLE)):
            total = rounded_area(shape)
            rbar, _ = inner_radius(shape)
            transitions = (
                math.pi * rbar**2,
                rounded_area(opening(shape, rbar)),
            )
            da = 1e-6 * total
            count = 0
            for frac in np.linspace(0.02, 0.98, 200):
                a = float(frac * total)
                if any(abs(a - b) < 1e-3 * total for b in transitions):
                    continue
                fd = (
                    perimeter_of_area(shape, a + da)
                    - perimeter_of_area(shape, a - da)
                ) / (2 * da)
                kappa = optimal_subset(shape, a).max_curvature
                assert fd == pytest.approx(kappa, rel=1e-3)
                count += 1
                if count >= 50:
                    break
            assert count >= 50


class TestFreeArcTurning:
    def test_square(self):
        for rho in (0.1, 0.3, 0.49):
            assert free_arc_turning(sq(), rho) == pytest.approx(8 - 2 * math.pi)

    def test_equilateral_triangle(self):
        tri = RoundedSet.from_polygon(TRIANGLE)
        rbar, _ = inner_radius(tri)
        assert free_arc_turning(tri, rbar / 2) == pytest.approx(
            6 * math.sqrt(3) - 2 * math.pi
        )

    def test_regular_hexagon(self):
        hexa = RoundedSet.from_polygon(HEXAGON)
        rbar, _ = inner_radius(hexa)
        assert free_arc_turning(hexa, rbar / 2) == pytest.approx(
            4 * math.sqrt(3) - 2 * math.pi
        )

    @pytest.mark.parametrize(
        "vertices, want",
        [
            (SQUARE, 8 - 2 * math.pi),
            (RECT, 8 - 2 * math.pi),
            (TRIANGLE, 6 * math.sqrt(3) - 2 * math.pi),
        ],
        ids=["square", "rectangle", "triangle"],
    )
    def test_within_the_profile_tolerance_of_rbar(self, vertices, want):
        # polygon_erode snaps to the locus there: the 2x1 rectangle gave 0.0
        # and the unit square -2pi
        s = RoundedSet.from_polygon(vertices)
        rbar, _ = inner_radius(s)
        assert free_arc_turning(s, rbar * (1 - 1e-13)) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [100, 400])
    def test_piece_ends(self, n):
        # on the sharp 1.5:1 ellipse n-gon rho is the depth: each interior
        # piece end belongs to the next piece, and the float below it to its own
        t = 2.0 * math.pi * (np.arange(n) + 0.5) / n
        s = RoundedSet.from_polygon(np.stack([1.5 * np.cos(t), np.sin(t)], axis=1))
        pieces = _profile(s.kernel).pieces
        assert len(pieces) == n // 4
        for (_, d1, _, _, tan_sum), after in zip(pieces, pieces[1:]):
            assert free_arc_turning(s, d1) == 2.0 * after[4] - 2.0 * math.pi
            assert free_arc_turning(s, math.nextafter(d1, 0.0)) == 2.0 * tan_sum - 2.0 * math.pi

    def test_out_of_range(self):
        with pytest.raises(OutOfRegimeError):
            free_arc_turning(sq(), 0.6)
        with pytest.raises(OutOfRegimeError):
            free_arc_turning(sq(0.2), 0.1)

    def test_matches_perimeter_derivative(self, rng):
        for _ in range(10):
            s = random_rounded_set(rng)
            rbar, _ = inner_radius(s)
            rho = s.radius + (rbar - s.radius) * (0.3 + 0.4 * float(rng.random()))
            d = 1e-6
            fd = -(
                rounded_perimeter(opening(s, rho + d))
                - rounded_perimeter(opening(s, rho - d))
            ) / (2 * d)
            assert fd == pytest.approx(free_arc_turning(s, rho), rel=1e-3)


class TestDegenerateKernels:
    def test_segment_opening_below_the_plateau(self):
        # for a segment kernel area_hat(c) falls below area_full(c) by a few
        # ulps, so an area just below the plateau reaches the opening branch,
        # whose opening is the whole stadium
        s = RoundedSet.stadium((0.3, 0.7), (0.7, 0.1), 0.1)
        prof = _profile(s.kernel)
        full = prof.area_full(s.radius)
        tol = _AREA_REL_TOL * full
        a = math.nextafter(full - tol, -math.inf)
        assert prof.area_hat(s.radius) - tol <= a
        assert prof.query(s.radius, a) == (rounded_perimeter(s), "Opening", 0.1, 0.0)


class TestStructure:
    def test_monotone_inclusion(self, rng):
        for _ in range(100):
            s = random_rounded_set(rng)
            total = rounded_area(s)
            a1, a2 = np.sort(rng.random(2) * 0.98 * total + 0.01 * total)
            small = optimal_subset(s, float(a1)).set
            large = optimal_subset(s, float(a2)).set
            assert contains(large, small, 1e-8)

    def test_commutes_with_dilation(self, rng):
        for _ in range(100):
            s = random_rounded_set(rng)
            a = float(rng.random() * 0.9 + 0.05) * rounded_area(s)
            r = float(rng.random() * 0.6 + 0.01)
            grown = dilate(optimal_subset(s, a).set, r)
            direct = optimal_subset(dilate(s, r), rounded_area(grown)).set
            assert hausdorff(grown, direct) <= 1e-8

    def test_beats_random_competitors(self, rng):
        best = optimal_subset(sq(), 0.9)
        count = 0
        while count < 1000:
            pts = rng.random((400, 2))
            hull = ConvexHull(pts)
            poly = ConvexPolygon(pts[hull.vertices])
            area = polygon_area(poly)
            if area < 0.9:
                continue
            centroid = poly.vertices.mean(axis=0)
            lam = math.sqrt(0.9 / area)
            shrunk = ConvexPolygon(centroid + lam * (poly.vertices - centroid))
            assert polygon_perimeter(shrunk) >= best.perimeter - 1e-9
            count += 1
