"""End-to-end acceptance gate.

Each test pins one headline guarantee at its stated tolerance, using
independent closed forms or brute-force checks as oracles.
"""

import math
import time

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from shrinkset import (
    RoundedSet,
    boundary_length_in_disk,
    compute_cost,
    contains,
    critical_budget,
    dilate,
    erode,
    free_arc_turning,
    hausdorff,
    opening,
    optimal_subset,
    perimeter_of_area,
    random_rounded_set,
    raster_area,
    raster_dilate,
    raster_erode,
    raster_opening,
    rasterize,
    rounded_area,
    rounded_perimeter,
    simulate,
)

SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]
TRIANGLE = [(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)]
RECT = [(0, 0), (2, 0), (2, 1), (0, 1)]
HEXAGON = [
    (math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)
]


def sq(radius=0.0):
    return RoundedSet.from_polygon(SQUARE, radius)


# Unit square under budget M: the controlled set is the square of side
# L = 1 + 2t with corners rounded to radius rho. With c = 4 - pi its area
# is L^2 - c rho^2 and its perimeter 4L - 2c rho, so a' = P - M gives
# rho' = 1 + M/(2c rho), rho(0) = 0, i.e. t = rho - (M/2c) ln(1 + 2c rho/M).
# The set is a ball once rho = L/2; at the critical budget that ball is
# stationary, rho = M/(2 pi), which yields the two closed forms below.
# They sit above the isoperimetric floor M0 >= 2 sqrt(pi * area) = 2 sqrt(pi).
SQUARE_M0 = (4 - math.pi) / math.log(4 / math.pi)
SQUARE_T_DAGGER = SQUARE_M0 / (2 * math.pi) - 0.5


def test_01_unit_square_critical_budget():
    start = time.monotonic()
    m0 = critical_budget(sq(), tol=1e-3)
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0
    assert m0 == pytest.approx(SQUARE_M0, abs=1e-7)


def test_02_unit_square_ball_time():
    trace = simulate(sq(), SQUARE_M0, horizon=50.0, dt=1e-3)
    assert trace.T_dagger == pytest.approx(SQUARE_T_DAGGER, abs=1e-3)


def test_03_ball_criticality():
    for radius in (0.5, 1.0, 2.0):
        ball = RoundedSet.ball((0.0, 0.0), radius)
        m0 = critical_budget(ball, tol=1e-4)
        assert m0 == pytest.approx(2 * math.pi * radius, rel=5e-3)
        trace = simulate(ball, 2 * math.pi * radius, horizon=10.0)
        assert np.max(np.abs(trace.a - math.pi * radius**2)) <= 1e-8


def test_04_steiner_exactness(rng):
    start = time.monotonic()
    for _ in range(1000):
        s = random_rounded_set(rng)
        r = float(rng.random())
        kernel_area = rounded_area(RoundedSet(s.kernel, 0.0))
        kernel_perim = rounded_perimeter(RoundedSet(s.kernel, 0.0))
        rho = s.radius + r
        grown = dilate(s, r)
        want_area = kernel_area + rho * kernel_perim + math.pi * rho * rho
        want_perim = kernel_perim + 2 * math.pi * rho
        assert rounded_area(grown) == pytest.approx(want_area, rel=1e-12)
        assert rounded_perimeter(grown) == pytest.approx(want_perim, rel=1e-12)
    assert time.monotonic() - start < 1.0


def test_05_curvature_law():
    shapes = (
        sq(),
        RoundedSet.from_polygon(TRIANGLE),
        RoundedSet.from_polygon(RECT),
    )
    for s in shapes:
        total = rounded_area(s)
        sol_full = optimal_subset(s, total * (1 - 1e-9))
        transitions = []
        probe = np.linspace(0.01, 0.99, 2000) * total
        prev = optimal_subset(s, float(probe[0])).regime
        for a in probe[1:]:
            cur = optimal_subset(s, float(a)).regime
            if cur != prev:
                transitions.append(float(a))
                prev = cur
        da = 1e-6 * total
        checked = 0
        for frac in np.linspace(0.02, 0.98, 400):
            a = float(frac * total)
            if any(abs(a - b) <= 1e-3 * total for b in transitions):
                continue
            fd = (
                perimeter_of_area(s, a + da) - perimeter_of_area(s, a - da)
            ) / (2 * da)
            sol = optimal_subset(s, a)
            assert fd == pytest.approx(1.0 / sol.rho, rel=1e-3)
            checked += 1
            if checked >= 50:
                break
        assert checked >= 50, sol_full.regime


def test_06_free_arc_derivative():
    cases = (
        (sq(), 8 - 2 * math.pi, 0.25),
        (RoundedSet.from_polygon(TRIANGLE), 6 * math.sqrt(3) - 2 * math.pi, 0.14),
        (RoundedSet.from_polygon(HEXAGON), 4 * math.sqrt(3) - 2 * math.pi, 0.4),
    )
    d = 1e-6
    for s, constant, rho in cases:
        turning = free_arc_turning(s, rho)
        assert turning == pytest.approx(constant, rel=1e-12)
        fd = -(
            rounded_perimeter(opening(s, rho + d))
            - rounded_perimeter(opening(s, rho - d))
        ) / (2 * d)
        assert fd == pytest.approx(turning, rel=1e-3)


def test_07_r_commutation(rng):
    for _ in range(100):
        s = random_rounded_set(rng)
        a = float(rng.random() * 0.9 + 0.05) * rounded_area(s)
        r = float(rng.random() * 0.6 + 0.01)
        grown = dilate(optimal_subset(s, a).set, r)
        direct = optimal_subset(dilate(s, r), rounded_area(grown)).set
        assert hausdorff(grown, direct) <= 1e-8


def test_08_monotone_inclusion(rng):
    for _ in range(100):
        s = random_rounded_set(rng)
        total = rounded_area(s)
        a1, a2 = np.sort(rng.random(2) * 0.98 * total + 0.01 * total)
        small = optimal_subset(s, float(a1)).set
        large = optimal_subset(s, float(a2)).set
        assert contains(large, small, 1e-8)


def test_09_raster_oracle_equivalence(rng):
    start = time.monotonic()
    for _ in range(50):
        s = random_rounded_set(rng)
        h = 1e-3 * s.diameter
        grid = rasterize(s, h)
        r = float(rng.random() * 0.25 + 0.05) * s.diameter
        for raster_op, exact_op in (
            (raster_dilate, dilate),
            (raster_erode, erode),
            (raster_opening, opening),
        ):
            got = raster_area(raster_op(grid, r))
            want = exact_op(s, r)
            tol = 5 * h * max(rounded_perimeter(want), rounded_perimeter(s))
            assert got == pytest.approx(rounded_area(want), abs=max(tol, h * h))
    assert time.monotonic() - start <= 120.0


def test_10_budget_monotonicity():
    pairs = ((0.5, 1.5), (2.0, 3.0), (3.4, 3.8))
    for m_lo, m_hi in pairs:
        tr_lo = simulate(sq(), m_lo, horizon=1.0)
        tr_hi = simulate(sq(), m_hi, horizon=1.0)
        t_shared = tr_lo.t[tr_lo.t <= tr_hi.t[-1] + 1e-15]
        a_hi = np.interp(t_shared, tr_hi.t, tr_hi.a)
        a_lo = tr_lo.a[: len(t_shared)]
        assert np.all(a_hi <= a_lo + 1e-8 * 1.0)


def test_11_local_perimeter_bound(rng):
    for _ in range(20):
        s = random_rounded_set(rng)
        for _ in range(200):
            center = rng.normal(scale=2.0, size=2)
            r = float(rng.random() * 2.0 + 1e-3)
            clipped = boundary_length_in_disk(s, center, r)
            assert clipped <= 2 * math.pi * r + 1e-9


def test_12_uncontrolled_growth():
    trace = simulate(sq(), 0.0, horizon=2.0)
    exact = 1 + 4 * trace.t + math.pi * trace.t**2
    assert np.max(np.abs(trace.a - exact) / exact) <= 1e-8
    assert compute_cost(trace, 1.0, 0.0, 1.0) == pytest.approx(
        3 + math.pi / 3, rel=1e-12
    )


def test_competitor_dominance(rng):
    best = optimal_subset(sq(), 0.9)
    count = 0
    while count < 1000:
        pts = rng.random((400, 2))
        hull = ConvexHull(pts)
        vertices = pts[hull.vertices]
        nxt = np.roll(vertices, -1, axis=0)
        area = 0.5 * abs(
            float((vertices[:, 0] * nxt[:, 1] - vertices[:, 1] * nxt[:, 0]).sum())
        )
        if area < 0.9:
            continue
        centroid = vertices.mean(axis=0)
        lam = math.sqrt(0.9 / area)
        shrunk = centroid + lam * (vertices - centroid)
        perim = float(
            np.linalg.norm(np.roll(shrunk, -1, axis=0) - shrunk, axis=1).sum()
        )
        assert perim >= best.perimeter - 1e-9
        count += 1
