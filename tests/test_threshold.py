import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from rk4_oracle import rk4_critical_budget, rk4_to_ball
from scipy.spatial import ConvexHull, QhullError

from shrinkset import (
    BadConfigError,
    DegenerateDomainError,
    EXTINCT,
    GROWS,
    NotCriticalError,
    RoundedSet,
    ball_time_at_critical,
    classify,
    critical_budget,
    random_rounded_set,
    rounded_area,
    simulate,
)
from shrinkset.evolution import _Trajectory
from shrinkset.morphology import _profile

SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]
RECT = [(0, 0), (2, 0), (2, 1), (0, 1)]
# the unit square's closed form (see test_acceptance.py)
SQUARE_M0 = (4 - math.pi) / math.log(4 / math.pi)


def sq(radius=0.0):
    return RoundedSet.from_polygon(SQUARE, radius)


class TestClassify:
    def test_ball_above_critical_dies(self):
        out = classify(RoundedSet.ball((0, 0), 1.0), 7.0)
        assert out.kind == EXTINCT
        assert out.time is not None and out.time > 0

    def test_ball_below_critical_grows(self):
        out = classify(RoundedSet.ball((0, 0), 1.0), 6.0)
        assert out.kind == GROWS
        assert out.time is not None

    def test_square_at_isoperimetric_budget_grows(self):
        # The unit square survives budgets well above 2*sqrt(pi*area):
        # early growth raises the sustainable rate before shrinking bites.
        out = classify(sq(), 2 * math.sqrt(math.pi))
        assert out.kind == GROWS

    def test_extinction_time_matches_simulation(self):
        # the square's corners round at rho' = 1 + M/(2c rho), c = 4 - pi, so
        # it is a ball of radius rho_b = (M/2c)(e^(c/M) - 1) at rho_b - 1/2;
        # then the free-ball tail, r' = 1 - rstar/r, lives
        # -rho_b - rstar ln(1 - rho_b/rstar)
        M, c = 4.0, 4.0 - math.pi
        rho_b = M / (2 * c) * math.expm1(c / M)
        rstar = M / (2 * math.pi)
        t_star = rho_b - 0.5 - rho_b - rstar * math.log1p(-rho_b / rstar)
        out = classify(sq(), M)
        assert out.kind == EXTINCT
        assert out.time == pytest.approx(t_star, abs=1e-12)


class TestCriticalBudget:
    def test_ball_critical_budget_is_perimeter(self):
        for radius in (0.5, 1.0, 2.0):
            m0 = critical_budget(RoundedSet.ball((0, 0), radius), tol=1e-4)
            assert m0 == pytest.approx(2 * math.pi * radius, rel=5e-3)

    def test_square_critical_budget(self):
        m0 = critical_budget(sq(), tol=1e-3)
        assert m0 == pytest.approx(3.553533, abs=5e-3)

    def test_scaling_law(self):
        # Budgets scale linearly with the domain under homothety.
        base = critical_budget(sq(), tol=1e-3)
        for lam in (0.5, 2.0):
            scaled = RoundedSet.from_polygon(
                [(lam * x, lam * y) for x, y in SQUARE]
            )
            m0 = critical_budget(scaled, tol=1e-3 * lam)
            assert m0 == pytest.approx(lam * base, rel=1e-2)

    def test_budget_exceeds_isoperimetric_rate(self):
        # Critical budgets dominate the instantaneous sustainable rate
        # 2*sqrt(pi*area), with equality exactly for balls.
        for s, strict in (
            (RoundedSet.ball((0, 0), 1.0), False),
            (sq(), True),
            (RoundedSet.from_polygon(RECT), True),
        ):
            m0 = critical_budget(s, tol=1e-3)
            floor = 2 * math.sqrt(math.pi * rounded_area(s))
            if strict:
                assert m0 > floor + 5e-3
            else:
                assert m0 == pytest.approx(floor, rel=5e-3)

    def test_bracket_is_valid(self):
        m0, (lo, hi), roots = critical_budget(sq(), tol=1e-3, full_output=True)
        assert lo <= m0 <= hi
        assert hi - lo <= 2e-3
        assert len(roots) > 0
        assert classify(sq(), lo - 1e-3).kind == GROWS
        assert classify(sq(), hi + 1e-3).kind == EXTINCT

    def test_monotone_in_budget(self):
        # More budget means less area at every shared time.
        tr_hi = simulate(sq(), 3.0, horizon=0.5)
        tr_lo = simulate(sq(), 2.5, horizon=0.5)
        a_hi = np.interp(tr_lo.t, tr_hi.t, tr_hi.a)
        assert np.all(a_hi <= tr_lo.a + 1e-8)

    @pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan, math.inf])
    def test_bad_tolerance(self, tol):
        with pytest.raises(BadConfigError):
            critical_budget(sq(), tol=tol)

    def test_tolerance_near_float_spacing(self):
        # near M0 the ball tail's entry test decides at the last bits
        m0, (lo, hi), _ = critical_budget(sq(), tol=1e-15, full_output=True)
        assert lo <= m0 <= hi and hi - lo <= 1e-15
        # below the spacing of M0 the bisection ends at adjacent floats
        m0, (lo, hi), _ = critical_budget(sq(), tol=1e-17, full_output=True)
        assert lo <= m0 <= hi and hi - lo <= 2 * math.ulp(hi)

    def test_degenerate_domain(self):
        # a small ball is not degenerate: by homothety its M0 is 2 pi r
        m0 = critical_budget(RoundedSet.ball((0, 0), 5e-8), tol=1e-4)
        assert m0 == pytest.approx(2 * math.pi * 5e-8, rel=1e-12)
        for s in (
            RoundedSet.ball((0, 0), 0.0),
            RoundedSet.from_polygon([(0, 0), (1, 0)]),
            RoundedSet.empty(),
        ):
            with pytest.raises(DegenerateDomainError):
                critical_budget(s, tol=1e-4)


class TestBallTime:
    def test_ball_is_immediately_a_ball(self):
        assert ball_time_at_critical(RoundedSet.ball((0, 0), 1.0), 2 * math.pi) == 0.0

    def test_square_ball_entry_time(self):
        # use the extinct side of the bracket: trajectories at a budget a
        # hair below critical eventually tip back to growth
        _, (_, hi), _ = critical_budget(sq(), tol=1e-4, full_output=True)
        t = ball_time_at_critical(sq(), hi)
        assert t == pytest.approx(0.065563, abs=2e-3)

    def test_step_size_independence(self):
        # the RK4 oracle's ball entry at either step agrees with the closed
        # form
        rect = RoundedSet.from_polygon(RECT)
        _, (_, hi), _ = critical_budget(rect, tol=1e-4, full_output=True)
        t = ball_time_at_critical(rect, hi)
        assert t > 0
        for dt in (2e-3, 1e-3):
            assert rk4_to_ball(rect, hi, 1.0, dt)[2] == pytest.approx(t, abs=1e-4)

    def test_subcritical_budget_rejected(self):
        with pytest.raises(NotCriticalError):
            ball_time_at_critical(sq(), 1.0)


def _ellipse(n):
    # 1.5:1, with an edge at each end of the minor axis
    t = 2 * math.pi * (np.arange(n) + 0.5) / n
    return np.stack([1.5 * np.cos(t), np.sin(t)], axis=1)


def _oracle_sets():
    sets = [
        sq(),
        RoundedSet.from_polygon(RECT),
        sq(0.2),
        RoundedSet.from_polygon(_ellipse(100)),
        RoundedSet.from_polygon(_ellipse(400)),
    ]
    rng = np.random.default_rng(20260826)
    return sets + [random_rounded_set(rng) for _ in range(6)]


def _cross(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _tangential_m0(vertices):
    """2r(T - pi)/ln(T/pi) of a polygon whose edges all touch its incircle,
    r = 2 area / perimeter and T the sum of tan(theta_i / 2) over its
    exterior angles."""
    v = np.asarray(vertices, float)
    e = np.roll(v, -1, axis=0) - v
    area = 0.5 * float(_cross(v - v[0], np.roll(v, -1, axis=0) - v[0]).sum())
    r = 2.0 * abs(area) / float(np.hypot(*e.T).sum())
    ep = np.roll(e, 1, axis=0)
    theta = np.abs(np.arctan2(_cross(ep, e), (ep * e).sum(axis=1)))
    t = float(np.tan(0.5 * theta).sum())
    return 2.0 * r * (t - math.pi) / math.log(t / math.pi)


# tangential polygons: the square, the equilateral and right isosceles
# triangles and the regular hexagon, as the CLI and the benchmark give them
TANGENTIAL = [
    SQUARE,
    [(0.0, 0.0), (1.0, 0.0), (0.5, 0.8660254037844386)],
    [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
    [(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)],
]


def _mp_tangential_m0(vertices):
    """_tangential_m0 of the float vertices, at 50 digits."""
    import mpmath

    with mpmath.workdps(50):
        v = [tuple(map(mpmath.mpf, p)) for p in np.asarray(vertices, float).tolist()]
        e = [(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(v, v[1:] + v[:1])]
        area = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(v, v[1:] + v[:1])) / 2
        r = 2 * abs(area) / sum(mpmath.hypot(*d) for d in e)
        t = sum(
            mpmath.tan(abs(mpmath.atan2(a[0] * b[1] - a[1] * b[0], a[0] * b[0] + a[1] * b[1])) / 2)
            for a, b in zip(e[-1:] + e[:-1], e)
        )
        return 2 * r * (t - mpmath.pi) / mpmath.log(t / mpmath.pi)


def _root_sets():
    """Non-ball sets whose M0 these tests take, and random hulls."""
    rng = np.random.default_rng(20261019)
    return [
        *_oracle_sets(),
        *(RoundedSet.from_polygon(v) for v in TANGENTIAL),
        RoundedSet.from_polygon([(0, 0), (1, 0), (math.cos(1e-6), math.sin(1e-6))]),
        RoundedSet.from_polygon([(0, 0), (1e7, 0), (1e7, 1), (0, 1)]),
        RoundedSet.from_polygon(1e3 + 1e-6 * np.array(SQUARE, float)),
        RoundedSet.from_polygon(1e-6 * np.array(SQUARE, float)),
        RoundedSet.from_polygon(1e6 * np.array(SQUARE, float)),
        RoundedSet.from_polygon(_ellipse(3200)),
        RoundedSet.from_polygon(_ellipse(400) + 1e4 * np.array([1.0, 0.37])),
        *(random_rounded_set(rng) for _ in range(20)),
    ]


class TestRoot:
    @pytest.mark.parametrize(
        "vertices", TANGENTIAL, ids=["square", "equilateral", "right", "hexagon"]
    )
    def test_tangential_to_four_ulps(self, vertices):
        m0 = critical_budget(RoundedSet.from_polygon(vertices))
        assert abs(m0 - _mp_tangential_m0(vertices)) <= 4 * math.ulp(m0)

    def test_bracket_is_adjacent_floats(self):
        for s in _root_sets():
            traj = _Trajectory(s)
            m0, (lo, hi), roots = critical_budget(s, full_output=True)
            assert math.nextafter(lo, math.inf) == hi and lo <= m0 <= hi
            # the excess is 0 at M0 or changes sign across the bracket
            f_lo, f_hi = traj.excess(lo), traj.excess(hi)
            assert traj.excess(m0) == 0.0 or (f_lo > 0.0) != (f_hi > 0.0)
            assert [M for M, _, _ in roots[:2]] == [traj.floor, traj.cap]
            # tol bounds a width the root always meets
            for tol in (1e-300, 1e300):
                assert critical_budget(s, tol, full_output=True)[:2] == (m0, (lo, hi))

    def test_few_evaluations_on_random_hulls(self, rng):
        for _ in range(200):
            _, _, roots = critical_budget(random_rounded_set(rng), full_output=True)
            assert len(roots) <= 12

    @pytest.mark.parametrize("radius", [5e-8, 0.5, 1.0, 2.0, 1e6])
    def test_ball_root_is_the_floor(self, radius):
        ball = RoundedSet.ball((0.3, -1.0), radius)
        m0, (lo, hi), roots = critical_budget(ball, full_output=True)
        floor = _Trajectory(ball).floor
        assert m0 == lo == floor and hi == math.nextafter(floor, math.inf)
        assert [M for M, _, _ in roots] == [floor]

    def test_nan_inside_the_bracket_raises(self, monkeypatch):
        # the floor's excess is finite, the cap's NaN
        log_radii = _Trajectory.log_radii

        def nan_above_floor(traj, M):
            out = log_radii(traj, M)
            return out if M == traj.floor else np.full_like(out, math.nan)

        monkeypatch.setattr(_Trajectory, "log_radii", nan_above_floor)
        with pytest.raises(DegenerateDomainError, match="NaN"):
            critical_budget(sq())


class TestAgainstRK4:
    @pytest.mark.parametrize("index", range(11))
    def test_critical_budget_matches_bisection_over_simulate(self, index):
        # the bisection runs the RK4 oracle, not simulate
        s = _oracle_sets()[index]
        m0 = critical_budget(s, tol=1e-9)
        assert rk4_critical_budget(s) == pytest.approx(m0, rel=1e-5)

    @pytest.mark.parametrize("shape", [sq(), RoundedSet.from_polygon(RECT), sq(0.2)])
    @pytest.mark.parametrize("factor", [0.99, 1.01, 1.5, 3.0])
    def test_times_match_fine_simulation(self, shape, factor):
        m0 = critical_budget(shape, tol=1e-9)
        M = factor * m0
        out = classify(shape, M)
        assert out.kind == (GROWS if factor < 1.0 else EXTINCT)
        trace = simulate(shape, M, out.time + 0.5, dt=1e-4 / 8)
        t_dagger = trace.T_dagger
        if out.kind == EXTINCT:
            assert out.time == pytest.approx(trace.T_star, rel=1e-12)
        else:
            assert out.time == pytest.approx(t_dagger, rel=1e-12)
        if M >= 2 * math.sqrt(math.pi * rounded_area(shape)):
            assert ball_time_at_critical(shape, M) == pytest.approx(t_dagger, rel=1e-12)

    @pytest.mark.parametrize("index", [0, 1, 2, 3, 5, 6])
    @pytest.mark.parametrize("factor", [0.8, 0.99, 1.01, 1.5])
    def test_exact_trace_matches_rk4(self, index, factor):
        # the square, the 2x1 rectangle, the rounded square, the 100-gon
        # ellipse and two random hulls, on the oracle's rows up to ball entry
        shape = _oracle_sets()[index]
        M = factor * critical_budget(shape, tol=1e-9)
        dt = 1e-4 / 8
        t, a, t_dagger = rk4_to_ball(shape, M, 5.0, dt)
        trace = simulate(shape, M, 5.0, dt)
        _, i, j = np.intersect1d(t, trace.t, assume_unique=True, return_indices=True)
        assert len(i) >= 0.9 * len(t)
        assert np.max(np.abs(np.array(a)[i] - trace.a[j])) <= 1e-7 * a[0]
        assert t_dagger == pytest.approx(trace.T_dagger, rel=1e-6)
        if factor > 1.0:
            # T* from the oracle's ball at entry, r0 = sqrt(a / pi)
            r0, rstar = math.sqrt(a[-1] / math.pi), M / (2 * math.pi)
            t_star = t_dagger - r0 - rstar * math.log1p(-r0 / rstar)
            assert t_star == pytest.approx(trace.T_star, rel=1e-6)


@st.composite
def hulls(draw):
    pts = np.array(
        draw(st.lists(st.tuples(st.floats(0, 2), st.floats(0, 2)), min_size=3, max_size=9))
    )
    try:
        v = pts[ConvexHull(pts).vertices]
    except QhullError:
        assume(False)
    s = RoundedSet.from_polygon(v, draw(st.floats(0, 0.5)))
    assume(rounded_area(s) > 1e-3)
    return s


_properties = settings(max_examples=40, deadline=None, derandomize=True, database=None)


class TestProperties:
    @_properties
    @given(hulls(), st.floats(-6, 6))
    def test_homothety(self, s, exponent):
        lam = 10.0**exponent
        scaled = RoundedSet.from_polygon(lam * s.kernel.vertices, lam * s.radius)
        m0 = critical_budget(s, tol=1e-9)
        assert critical_budget(scaled, tol=1e-9 * lam) / lam == pytest.approx(m0, rel=1e-12)

    @_properties
    @given(hulls(), st.floats(0, 2 * math.pi), st.floats(-1e4, 1e4), st.floats(-1e4, 1e4))
    def test_rigid_motion(self, s, angle, dx, dy):
        rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
        moved = RoundedSet.from_polygon(s.kernel.vertices @ rot.T + (dx, dy), s.radius)
        m0 = critical_budget(s, tol=1e-9)
        assert critical_budget(moved, tol=1e-9) == pytest.approx(m0, rel=1e-10)

    @_properties
    @given(hulls(), st.integers(0, 8), st.integers(0, 8))
    def test_vertex_rotation_or_duplication(self, s, shift, dup):
        v = s.kernel.vertices
        dup %= len(v)
        rolled = np.roll(np.insert(v, dup, v[dup], axis=0), shift, axis=0)
        m0 = critical_budget(s, tol=1e-9)
        same = RoundedSet.from_polygon(rolled, s.radius)
        assert critical_budget(same, tol=1e-9) == pytest.approx(m0, rel=1e-12)

    @_properties
    @given(hulls(), st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_non_finite_input_rejected(self, s, bad):
        with pytest.raises(BadConfigError):
            critical_budget(s, tol=bad)
        with pytest.raises(BadConfigError):
            classify(s, bad)
        with pytest.raises(BadConfigError):
            ball_time_at_critical(s, bad)
        v = s.kernel.vertices.copy()
        v[0, 1] = bad
        with pytest.raises(BadConfigError):
            RoundedSet.from_polygon(v)
        with pytest.raises(BadConfigError):
            RoundedSet.from_polygon(s.kernel.vertices, bad)

    @_properties
    @given(st.tuples(*[st.floats(-1, 1)] * 6))
    def test_random_triangles_match_tangential_formula(self, xy):
        v = np.reshape(xy, (3, 2))
        assume(abs(_cross(v[1] - v[0], v[2] - v[0])) > 1e-3)
        m0 = critical_budget(RoundedSet.from_polygon(v), tol=1e-12)
        assert m0 == pytest.approx(_tangential_m0(v), rel=1e-9)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 12, 100, 1000])
    def test_regular_polygons_match_tangential_formula(self, n):
        t = 2 * math.pi * np.arange(n) / n
        v = np.stack([np.cos(t), np.sin(t)], axis=1)
        m0 = critical_budget(RoundedSet.from_polygon(v), tol=1e-12)
        assert m0 == pytest.approx(_tangential_m0(v), rel=1e-9)


class TestExtremes:
    @pytest.mark.parametrize(
        "vertices",
        [
            [(0, 0), (1, 0), (math.cos(1e-6), math.sin(1e-6))],
            [(0, 0), (1e7, 0), (1e7, 1), (0, 1)],
        ],
        ids=["sliver-triangle", "rectangle-1e7"],
    )
    def test_finite_and_bracketed(self, vertices):
        # e^(2kd/M) and e^(2L/M) overflow at the floor budget of both
        s = RoundedSet.from_polygon(vertices)
        m0, (lo, hi), _ = critical_budget(s, tol=1e-3, full_output=True)
        assert math.isfinite(m0) and lo < hi and lo <= m0 <= hi
        assert m0 > 2 * math.sqrt(math.pi * rounded_area(s))
        assert math.isfinite(ball_time_at_critical(s, m0))
        if len(vertices) == 3:
            assert m0 == pytest.approx(_tangential_m0(vertices), rel=1e-5)

    def test_tiny_square_far_from_origin(self):
        s = RoundedSet.from_polygon(1e3 + 1e-6 * np.array(SQUARE, float))
        m0 = critical_budget(s, tol=1e-12)
        assert m0 / 1e-6 == pytest.approx(SQUARE_M0, rel=1e-8)

    @pytest.mark.parametrize("n", [42, 90, 400, 3200])
    @pytest.mark.parametrize("angle", [0.0, 0.3, 1.1])
    def test_moved_ellipse(self, n, angle):
        # far from the origin the profile is built in the kernel's own frame:
        # no piece has a negative width, and M0 keeps its value but for the
        # input's own rounding (an ulp of a coordinate at 1e6 is 4e-11 of
        # the diameter)
        rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
        v = _ellipse(n) @ rot.T
        m0 = critical_budget(RoundedSet.from_polygon(v), tol=1e-9)
        for s in (1e1, 1e2, 1e3, 1e4, 1e5, 1e6):
            moved = RoundedSet.from_polygon(v + s * np.array([1.0, 0.37]))
            rel = 1e-10 if s <= 1e5 else 1e-9
            assert critical_budget(moved, tol=1e-9) == pytest.approx(m0, rel=rel)
            assert all(d1 >= d0 for d0, d1, *_ in _profile(moved.kernel).pieces)

    @pytest.mark.parametrize("lam", [1e-9, 1e-11])
    def test_tiny_scale_keeps_pieces(self, lam):
        # the build's depth tolerance is relative to the diameter at every
        # scale, so a tiny set is its unit-scale self, scaled
        rng = np.random.default_rng(20261019)
        hulls = [random_rounded_set(rng) for _ in range(4)]
        for s in [RoundedSet.from_polygon(_ellipse(400)), *hulls]:
            scaled = RoundedSet.from_polygon(lam * s.kernel.vertices, lam * s.radius)
            assert len(_profile(scaled.kernel).pieces) == len(_profile(s.kernel).pieces)
            assert critical_budget(scaled) / lam == pytest.approx(critical_budget(s), rel=1e-13)

    def test_nan_trajectory_raises(self, monkeypatch):
        # a NaN excess neither steers the bisection to its cap nor reads as
        # growth
        def nan_radii(traj, M):
            return np.full(traj.pieces.shape[1] + 1, math.nan)

        monkeypatch.setattr(_Trajectory, "log_radii", nan_radii)
        for run in (critical_budget, lambda s: classify(s, 8.0), lambda s: simulate(s, 8.0, 1.0)):
            with pytest.raises(DegenerateDomainError, match="NaN"):
                run(sq())

    def test_area_overflow_rejected(self):
        # the area of a ball of radius 1e154 is inf: M0 came out inf
        with pytest.raises(BadConfigError, match="area overflows"):
            critical_budget(RoundedSet.ball((0, 0), 1e154))

    @pytest.mark.parametrize("lam", [1e-6, 1e6])
    def test_scaled_square(self, lam):
        s = RoundedSet.from_polygon(lam * np.array(SQUARE, float))
        assert critical_budget(s, tol=1e-3 * lam) / lam == pytest.approx(
            critical_budget(sq(), tol=1e-3), rel=1e-12
        )

    @pytest.mark.parametrize("k", [256, 257, 300])
    def test_huge_sets(self, k):
        # past 2^256 the canonicalization's products overflowed: the kernels
        # collapsed to two vertices, and M0 came out up to 65% low
        rng = np.random.default_rng(3)
        sets = [sq(0.1), *(random_rounded_set(rng) for _ in range(20))]
        for s in sets:
            scaled = RoundedSet.from_polygon(np.ldexp(s.kernel.vertices, k), math.ldexp(s.radius, k))
            assert len(scaled.kernel) == len(s.kernel)
            m0 = critical_budget(s)
            assert abs(math.ldexp(critical_budget(scaled), -k) - m0) <= 1e-13 * m0
