import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from rk4_oracle import area_rate, rk4_to_ball
from test_threshold import hulls

from shrinkset import (
    BadConfigError,
    OutOfRangeError,
    RoundedSet,
    ball_time_at_critical,
    check_admissible,
    classify,
    compute_cost,
    critical_budget,
    hausdorff,
    reconstruct_set,
    rounded_area,
    rounded_perimeter,
    simulate,
)
import admissible_reference as reference
from shrinkset import evolution, isoperimetric
from shrinkset.evolution import _path, _radius
from shrinkset.geometry import _GRID_DIRECTIONS, _support_values
from shrinkset.serialize import trace_to_csv

SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]
RECTANGLE = [(0, 0), (2, 0), (2, 1), (0, 1)]
TRIANGLE = [(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)]
_COLUMNS = ("t", "a", "perimeter", "regime", "rho")


def sq(radius=0.0):
    return RoundedSet.from_polygon(SQUARE, radius)


def unit_ball(radius=1.0, center=(0.0, 0.0)):
    return RoundedSet.ball(center, radius)


def exact_radius(k2, M, r0, s):
    """rho of _radius at 50 digits from the same float inputs: with m = M /
    k2 and v = 1 + rho / m, v - ln|v| - s / m is constant, so -v is a branch
    of Lambert W (Corless et al. 1996), and W0(e^x) is Wright omega."""
    import mpmath

    with mpmath.workdps(50):
        k2, M, r0, s = map(mpmath.mpf, (float(k2), M, float(r0), float(s)))
        m = M / k2
        v0 = 1 + r0 / m
        g = v0 - mpmath.log(abs(v0)) + s / m
        if v0 > 0:
            v = -mpmath.lambertw(-mpmath.exp(-g), -1 if v0 >= 1 else 0).real
        else:
            v = -mpmath.lambertw(mpmath.exp(-g)).real
        return m * (v - 1)


def assert_radius_matches(k2, M, r0, s, rel):
    got = _radius(np.asarray(k2, float), M, np.asarray(r0, float), np.asarray(s, float))
    assert got.dtype == np.float64
    for rho, *row in zip(got, k2, r0, s):
        exact = exact_radius(*row[:1], M, *row[1:])
        assert abs(rho - exact) <= rel * exact, (row, rho, float(exact))


class TestFreeBallRadius:
    @pytest.mark.parametrize("ratio", [0.1, 0.5, 0.999])
    def test_matches_implicit_solution(self, ratio):
        # oracle: the implicit solution (r - r0) + rstar*ln((rstar - r)/(rstar
        # - r0)) = t - t0 solved at 50 digits for the same float inputs; the
        # bound grows like 1/r near extinction, where the time input is ill
        # conditioned
        import mpmath

        rstar = 4.0 / (2.0 * math.pi)
        r0, t0 = ratio * rstar, 0.3
        t_end = t0 - r0 - rstar * math.log1p(-r0 / rstar)
        fractions = [0.1, 0.5, 0.9, 0.99, 0.999, 0.9999, 1 - 1e-5, 1 - 1e-6, 1 - 1e-7]
        times = np.array([t0 + f * (t_end - t0) for f in fractions])
        n = len(times)
        radii = _radius(np.full(n, -2.0 * math.pi), 4.0, np.full(n, r0), times - t0)
        with mpmath.workdps(50):
            rs, r0_ = mpmath.mpf(rstar), mpmath.mpf(r0)
            for t, r in zip(times, radii):
                elapsed = mpmath.mpf(float(t)) - mpmath.mpf(t0)

                def g(x, elapsed=elapsed):
                    return (x - r0_) + rs * mpmath.log((rs - x) / (rs - r0_)) - elapsed

                exact = float(mpmath.findroot(g, (0, r0_), solver="anderson"))
                assert abs(r - exact) <= 1e-14 * rstar * max(1.0, rstar / exact)

    def test_real_and_bounded_at_extinction(self):
        # past extinction q is negative; at it, known to about an ulp
        rstar, r0 = 0.5, 0.4
        t_end = -r0 - rstar * math.log1p(-r0 / rstar)
        s = np.array([0.0, t_end, math.nextafter(t_end, math.inf), 2 * t_end])
        radii = _radius(np.full(4, -2.0 * math.pi), 2.0 * math.pi * rstar, np.full(4, r0), s)
        assert radii.dtype == np.float64 and np.all(np.isfinite(radii))
        assert radii[0] == r0
        assert np.all((radii >= 0.0) & (radii <= r0))
        assert np.all(radii[1:] <= 1e-7 * rstar)

    def test_dying_ball_matches_mpmath(self):
        # r* = 1, r0 = 1 - 2^-k, at fractions of the lifetime that keep q
        # within ten times its float error: v - ln v from 1 + 1e-17 to 1 + 36
        r0 = 1.0 - 2.0 ** -np.repeat(np.arange(1, 53), 5)
        life = -r0 - np.log(1.0 - r0)
        s = np.tile([0.1, 0.3, 0.5, 0.7, 0.9], 52) * life
        assert_radius_matches(-np.ones(len(s)), 1.0, r0, s, 5e-15)

    def test_growing_ball_matches_mpmath(self):
        # r* = 1, r0 = 1 + u0: omega(x) for x = ln u0 + u0 + s from -36 (u0
        # is at least an ulp of r*) past 1e4, where the fixed point takes over
        u0, s = np.meshgrid(np.logspace(-15, 6, 22), np.logspace(-3, 300, 41))
        assert_radius_matches(-np.ones(u0.size), 1.0, 1.0 + u0.ravel(), s.ravel(), 5e-15)

    def test_ball_at_rest(self):
        rstar = 3.0 / (2.0 * math.pi)
        radii = _radius(np.full(2, -2.0 * math.pi), 3.0, np.full(2, rstar), np.array([1.0, 1e300]))
        assert np.all(radii == rstar)


class TestLowerBranch:
    def test_matches_mpmath(self):
        # an erosion piece with r0 = 0, k2 = M = 1: v - 1 - ln v = s on the
        # side v >= 1, through the branch-point series, Newton and, past
        # s = 1e4, the fixed point
        s = np.concatenate(([0.0], np.logspace(-12, 6, 91), [1e-3, 2.0], np.logspace(6, 300, 50)))
        n = len(s)
        assert_radius_matches(np.ones(n), 1.0, np.zeros(n), s, 5e-15)


@pytest.mark.parametrize("k2", [1.7, -2.0 * math.pi])
def test_radius_past_the_float_range(k2):
    # s / m overflows on a piece and on a growing ball: the growth is
    # uncontrolled to rounding
    r0, s = np.array([0.0, 2.0, 1e10]), np.array([1e10, 1e10, 1e-5])
    if k2 < 0.0:
        r0 = r0 + 1.0
    radii = _radius(np.full(3, k2), 1e-300, r0, s)
    assert np.all(np.abs(radii - (r0 + s)) <= 4e-16 * (r0 + s))


class TestAreaRate:
    def test_square_full_area_at_start(self):
        assert area_rate(sq(), 0.0, 1.0, 4.0) == pytest.approx(0.0)

    def test_square_interior_area(self):
        rho = math.sqrt(0.1 / (4 - math.pi))
        expected = 4 - 2 * (4 - math.pi) * rho - 5.0
        assert area_rate(sq(), 0.0, 0.9, 5.0) == pytest.approx(expected, rel=1e-12)

    def test_grown_domain(self):
        # After dilation by t=0.5 the full measure of the unit square grows
        # per the quadratic Steiner law; at that full area the rate is P(t)-M.
        t = 0.5
        a = 1 + 4 * t + math.pi * t * t
        p = 4 + 2 * math.pi * t
        assert area_rate(sq(), t, a, 2.0) == pytest.approx(p - 2.0)


class TestSimulate:
    def test_stationary_ball(self):
        trace = simulate(unit_ball(), 2 * math.pi, horizon=10.0)
        assert trace.T_star is None
        assert trace.T_dagger == 0.0
        assert np.max(np.abs(trace.a - math.pi)) <= 1e-8
        assert all(r == "Ball" for r in trace.regime)

    def test_zero_budget_steiner_growth(self):
        trace = simulate(sq(), 0.0, horizon=2.0)
        exact = 1 + 4 * trace.t + math.pi * trace.t**2
        assert np.max(np.abs(trace.a - exact) / exact) <= 1e-8

    def test_extinction_against_euler_oracle(self):
        domain = sq()
        trace = simulate(domain, 4.0, horizon=5.0)
        assert trace.T_star is not None

        def euler_t_star(dt):
            t, a = 0.0, 1.0
            while a > 0:
                a += dt * area_rate(domain, t, a, 4.0)
                t += dt
            return t

        assert trace.T_star == pytest.approx(euler_t_star(1e-6), abs=1e-4)

    def test_rate_column_matches_area_rate(self):
        # the area's rate is the perimeter less the budget
        # horizon 0.2 keeps to the opening phase; M = 4 over horizon 5
        # becomes a ball at T_dagger and its rows after that are the free
        # ball's
        short = simulate(sq(), 3.0, horizon=0.2)
        tail = simulate(sq(), 4.0, horizon=5.0)
        assert tail.T_dagger < tail.T_star
        cases = [
            (short, range(0, len(short), 7)),
            (tail, np.flatnonzero(tail.t > tail.T_dagger)),
        ]
        for trace, rows in cases:
            for k in rows:
                t, a = float(trace.t[k]), float(trace.a[k])
                if a <= 0:
                    continue
                expected = area_rate(sq(), t, a, trace.M)
                assert trace.perimeter[k] - trace.M == pytest.approx(expected, rel=1e-9)

    def test_T_dagger_marks_ball_entry(self):
        trace = simulate(sq(), 4.0, horizon=5.0)
        assert trace.T_dagger is not None
        assert 0 < trace.T_dagger < trace.T_star
        ball_after = [
            r for t, r in zip(trace.t, trace.regime) if t > trace.T_dagger + 1e-9
        ]
        assert ball_after and all(r == "Ball" for r in ball_after)

    def test_regimes_never_revert_after_ball(self):
        trace = simulate(sq(0.1), 5.0, horizon=5.0)
        seen_ball = False
        for r in trace.regime:
            if r == "Ball":
                seen_ball = True
            elif seen_ball:
                pytest.fail("left the ball regime after entering it")

    def test_homothety_competitor_dominates_area(self):
        # A homothety of the growing domain has more perimeter than the
        # optimal subset of equal area, so driving the ODE with it keeps
        # the area above the simulated (optimal) one.
        M = 3.0
        trace = simulate(sq(), M, horizon=1.0)
        dt = 1e-5
        t, a = 0.0, 1.0
        grid = iter(zip(trace.t, trace.a))
        tk, ak = next(grid)
        while t < 1.0 and a > 0:
            full = 1 + 4 * t + math.pi * t * t
            p_full = 4 + 2 * math.pi * t
            a += dt * (math.sqrt(a / full) * p_full - M)
            t += dt
            while tk < t - dt / 2:
                assert ak <= a + 1e-4
                try:
                    tk, ak = next(grid)
                except StopIteration:
                    return

    def test_fourth_order_convergence(self):
        # the RK4 oracle's ball entry converges to the exact T† at order 4
        base = RoundedSet.from_polygon(SQUARE, 0.2)
        exact = simulate(base, 6.0, horizon=5.0).T_dagger
        errs = [abs(rk4_to_ball(base, 6.0, 5.0, dt)[2] - exact) for dt in (4e-3, 2e-3)]
        ratio = errs[0] / errs[1]
        assert 12 <= ratio <= 20

    def test_small_budget_stays_finite(self):
        # the opening phase's q = 2kt/M reaches 1.7e4, past Newton's range
        trace = simulate(sq(), 1e-3, horizon=10.0)
        assert trace.T_star is None and trace.T_dagger is None
        assert np.all(np.isfinite(trace.a)) and np.all(np.diff(trace.a) > 0.0)
        assert set(trace.regime) == {"Opening"}

    @pytest.mark.parametrize("radius", [1e-3, 0.3, 1.0, 7.0])
    def test_ball_at_its_critical_budget(self, radius):
        # r0 == M / 2pi up to rounding: a stationary or nearly stationary ball
        trace = simulate(unit_ball(radius), 2 * math.pi * radius, horizon=10.0 * radius)
        assert trace.T_dagger == 0.0
        assert np.all(np.isfinite(trace.a)) and np.all(np.isfinite(trace.perimeter))
        assert set(trace.regime) == {"Ball"}

    def test_rows_at_kinks(self):
        # every kink is a row: the piece end and T† of the 2x1 rectangle
        # (its locus is a segment) and T*, where the area is 0
        rect = RoundedSet.from_polygon(RECTANGLE)
        trace = simulate(rect, 6.0, horizon=5.0, dt=0.01)
        entries = [
            trace.t[i] for i in range(1, len(trace)) if trace.regime[i] != trace.regime[i - 1]
        ]
        assert trace.regime[0] == "Opening" and len(entries) == 2
        assert entries[1] == trace.T_dagger and trace.t[-1] == trace.T_star
        assert trace.a[-1] == 0.0 and trace.a[-2] > 0.0
        k = np.flatnonzero(trace.t == entries[0])[0]
        assert trace.rho[k] == pytest.approx(0.5 + entries[0], rel=1e-12)

    def test_phases(self):
        # the square's point locus has no stadium; the rectangle's segment
        # locus has one, entered at the end of its one piece
        square = simulate(sq(), 4.0, horizon=5.0)
        assert [p[:2] for p in square.phases] == [("Opening", 0), ("Ball", None)]
        assert square.phases[0][2:] == (0.0, square.T_dagger, 0.0)
        assert square.phases[1][2:4] == (square.T_dagger, square.T_star)
        rect = simulate(RoundedSet.from_polygon(RECTANGLE), 6.0, horizon=5.0)
        kinds = [p[0] for p in rect.phases]
        assert kinds == ["Opening", "Stadium", "Ball"]
        assert rect.phases[2][2:4] == (rect.T_dagger, rect.T_star)
        for before, after in zip(rect.phases, rect.phases[1:]):
            assert before[3] == after[2]
        # each row's regime is the kind of the phase that holds it
        stadium = rect.phases[1]
        assert rect.rho[list(rect.t).index(stadium[2])] == stadium[4]
        for t, regime in zip(rect.t, rect.regime):
            kind = [p[0] for p in rect.phases if p[2] <= t][-1]
            assert regime == kind

    def test_phases_up_to_the_horizon(self):
        # a growing run cut before ball entry keeps the phases it reaches
        grow = simulate(sq(0.2), 1.0, horizon=0.3)
        assert grow.T_dagger is None
        assert [p[0] for p in grow.phases] == ["Opening"]
        assert grow.phases[0][3] > 0.3
        free = simulate(sq(), 0.0, horizon=1.0)
        assert free.phases == (("Opening", 0, 0.0, math.inf, 0.0),)
        ball = simulate(unit_ball(), 1.0, horizon=1.0)
        assert [p[:3] for p in ball.phases] == [("Ball", None, 0.0)]

    @pytest.mark.parametrize("M", [3.553543661971445, 3.553543661971455])
    def test_ball_tail_entry_near_critical_budget(self, M):
        # 2*sqrt(pi*a) < M but r0/rstar rounds to 1 or above: the tail must
        # not be entered with numbers that do not admit extinction
        trace = simulate(sq(), M, 1.0)
        assert trace.T_dagger is not None
        assert np.all(np.isfinite(trace.a)) and np.all(trace.a >= 0.0)

    def test_bad_config(self):
        with pytest.raises(BadConfigError):
            simulate(sq(), -1.0, horizon=1.0)
        with pytest.raises(BadConfigError):
            simulate(sq(), 1.0, horizon=-1.0)
        with pytest.raises(BadConfigError):
            simulate(sq(), 1.0, horizon=1.0, dt=0.0)

    @pytest.mark.parametrize(
        "horizon, dt",
        # none of these sample counts gets allocated: the first two raised
        # numpy's ValueError, and np.arange wrapped 2^63 samples to none,
        # which left three rows
        [(1e300, None), (10.0, 1e-300), (float(2**63), 1.0)],
    )
    def test_sample_grid_too_large(self, horizon, dt):
        with pytest.raises(BadConfigError, match="cannot sample"):
            simulate(sq(), 1.0, horizon=horizon, dt=dt)

    def test_domain_area_overflow(self):
        # the ball's radius squares to 1e308, but pi times that is inf
        with pytest.raises(BadConfigError, match="area overflows"):
            simulate(unit_ball(1e154), 1.0, horizon=1.0)

    def test_area_past_the_float_range(self):
        # pi rho^2 overflows once rho passes 1.3e154: these rows were inf
        with pytest.raises(BadConfigError, match="float range"):
            simulate(sq(), 1.0, horizon=1e200, dt=1e198)

    @pytest.mark.parametrize("M", [5e-324, 1e-310])
    def test_subnormal_budget(self, M):
        # ln(M / 2pi) raised ValueError at 5e-324
        with pytest.raises(BadConfigError):
            simulate(sq(), M, horizon=1.0)
        with pytest.raises(BadConfigError):
            classify(sq(), M)
        with pytest.raises(BadConfigError):
            ball_time_at_critical(sq(), M)

    @pytest.mark.parametrize("M", [1e-300, 2.2250738585072014e-308])
    def test_tiny_budget_is_uncontrolled_growth(self, M):
        # a square 1e10 across: 2k s / M passes the float range, and these
        # rows read inf; the growth is rho = s to rounding
        big = RoundedSet.from_polygon(1e10 * np.array(SQUARE))
        trace = simulate(big, M, horizon=1e10)
        assert trace.T_star is None and set(trace.regime) == {"Opening"}
        assert np.all(np.abs(trace.rho - trace.t) <= 4e-16 * trace.t)
        steiner = 1e20 + 4e10 * trace.t + math.pi * trace.t**2
        assert np.all(np.abs(trace.a - steiner) <= 1e-15 * steiner)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("M", [1e3, 1e8, 1e12, 1e15, 1e100, 1e300])
    def test_ball_lifetime_at_large_budgets(self, M, scale):
        # -r0 - r* ln(1 - r0/r*) cancelled to garbage once r0/r* is small
        # (T* = -0.0052 on the unit square at M = 1e15); the lifetime is
        # about r0^2 / 2r*
        import mpmath

        def lifetime(r0):
            # digits enough for the cancellation down to r0^2 / 2r*
            with mpmath.workdps(700):
                rstar = mpmath.mpf(M) / (2 * mpmath.pi)
                return float(-r0 - rstar * mpmath.log1p(-mpmath.mpf(r0) / rstar))

        ball = unit_ball(scale)
        trace = simulate(ball, M, horizon=10.0 * scale)
        if M / (2.0 * math.pi) > scale:
            assert trace.T_dagger == 0.0 and trace.T_star is not None
            assert trace.T_star == pytest.approx(lifetime(scale), rel=1e-12, abs=1e-320)
        assert trace.t[0] == 0.0 and trace.a[0] == pytest.approx(rounded_area(ball), rel=1e-12)
        square = RoundedSet.from_polygon(scale * np.array(SQUARE))
        _, _, t_ball, t_star, r_ball = evolution._trajectory(square).phases(M)[-1]
        assert 0.0 <= t_ball <= t_star
        if t_star < math.inf:
            assert t_star - t_ball == pytest.approx(
                lifetime(r_ball), rel=1e-12, abs=4 * math.ulp(t_star)
            )
        trace = simulate(square, M, horizon=10.0 * scale)
        assert trace.t[0] == 0.0 and trace.T_star == (t_star if t_star < math.inf else None)

    @pytest.mark.parametrize("shape", [SQUARE, RECTANGLE])
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("M", [1e4, 1e8, 1e12, 1e15, 1e100, 1e300])
    def test_phase_starts_at_large_budgets(self, M, scale, shape):
        # each start was rho - (c0 + d1) and T† exp(ln R_b) - rbar, which
        # cancel once the opening lasts about 1/M: the square's T† was off by
        # 2.6e-3 at M = 1e12 and 0 at 1e15, which dropped the opening phase
        import mpmath

        s = RoundedSet.from_polygon(scale * np.array(shape))
        traj = evolution._trajectory(s)
        with mpmath.workdps(700):  # rho - (c0 + d1) cancels to about d1 / M
            m, rho, want = mpmath.mpf(M), mpmath.mpf(traj.c0), [0.0]
            for d0, d1, _, _, tan_sum in traj.pieces.T:
                k2 = 2 * (mpmath.mpf(tan_sum) - mpmath.pi)
                x = k2 * (mpmath.mpf(d1) - mpmath.mpf(d0)) / m
                rho = mpmath.exp(x) * rho + m / k2 * mpmath.expm1(x)
                want.append(rho - traj.c0 - mpmath.mpf(d1))
            # the stadium's R grows by e^(2L/M), from rbar + its start to R_b
            r_s = traj.rbar + want[-1]
            want.append(want[-1] + r_s * mpmath.expm1(2 * mpmath.mpf(traj.prof.locus_len) / m))
            want = [float(w) for w in want]
        phases = traj.phases(M)
        kinds = ["Opening", "Stadium", "Ball"] if shape is RECTANGLE else ["Opening", "Ball"]
        assert [p[0] for p in phases] == kinds
        # a subnormal start (2e-313 at M = 1e300, scale 1e-6) keeps fewer digits
        got = [p[2] for p in phases]
        assert got == pytest.approx(want[: len(got) - 1] + want[-1:], rel=1e-12, abs=1e-320)
        for before, after in zip(phases, phases[1:]):
            assert 0.0 < after[2] == before[3]
        trace = simulate(s, M, horizon=10.0 * scale)
        assert trace.regime[0] == "Opening" and trace.a[0] == rounded_area(s)


class TestRegimeColumn:
    @pytest.mark.parametrize("omega, M, horizon, kinds", [
        (sq(), 4.0, 5.0, ["Opening", "Ball"]),
        (RoundedSet.from_polygon(RECTANGLE), 4.0, 5.0, ["Opening", "Stadium", "Ball"]),
        (unit_ball(), 7.0, 5.0, ["Ball"]),
        (sq(), 0.0, 2.0, ["Opening"]),
        (sq(0.2), 1.0, 5.0, ["Opening", "Ball"]),
    ], ids=["square", "rectangle", "dying-ball", "no-control", "growing"])
    def test_rows_follow_the_phase_table(self, omega, M, horizon, kinds):
        # each row has the kind of the phase holding its time, the later
        # phase at a boundary, which is itself a row; the CSV says the same
        trace = simulate(omega, M, horizon, 0.01)
        assert [p[0] for p in trace.phases] == kinds
        assert isinstance(trace.regime, np.ndarray) and len(trace.regime) == len(trace)
        starts = [p[2] for p in trace.phases]
        assert set(starts) <= set(trace.t.tolist())
        want = [kinds[np.searchsorted(starts, t, side="right") - 1] for t in trace.t.tolist()]
        assert trace.regime.tolist() == want
        rows = trace_to_csv(trace).splitlines()[1:]
        assert [row.split(",")[3] for row in rows if not row.startswith("#")] == want


class TestReconstruct:
    def test_initial_time_returns_domain(self):
        trace = simulate(sq(), 3.0, horizon=0.5)
        assert hausdorff(reconstruct_set(trace, 0.0), sq()) <= 1e-9

    def test_equilibrium_ball(self):
        trace = simulate(unit_ball(), 2 * math.pi, horizon=2.0)
        got = reconstruct_set(trace, 1.0)
        assert hausdorff(got, unit_ball()) <= 1e-6

    def test_area_interpolates(self):
        trace = simulate(sq(), 4.0, horizon=5.0)
        for t in (0.05, 0.1, trace.T_dagger + 0.01):
            a = rounded_area(reconstruct_set(trace, t))
            k = int(np.searchsorted(trace.t, t))
            lo = min(trace.a[max(k - 1, 0)], trace.a[min(k, len(trace) - 1)])
            hi = max(trace.a[max(k - 1, 0)], trace.a[min(k, len(trace) - 1)])
            assert lo - 1e-6 <= a <= hi + 1e-6

    # one run per phase kind: opening and dying ball, opening, stadium and
    # dying ball, opening and growing ball, and the triangle just below M0
    RUNS = [
        (SQUARE, 0.0, 4.0, 5.0),
        (RECTANGLE, 0.0, 6.0, 5.0),
        (SQUARE, 0.2, 1.0, 1.0),
        (TRIANGLE, 0.0, 2.3337944316359884, 3.0),
    ]

    @pytest.mark.parametrize("vertices, radius, M, horizon", RUNS)
    def test_areas_match_rows(self, vertices, radius, M, horizon):
        trace = simulate(RoundedSet.from_polygon(vertices, radius), M, horizon, dt=0.01)
        for t, a in zip(trace.t, trace.a):
            got = rounded_area(reconstruct_set(trace, float(t)))
            assert got == pytest.approx(a, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("vertices, radius, M, horizon", RUNS)
    def test_areas_match_a_finer_run_off_rows(self, vertices, radius, M, horizon):
        # the rows of a run at a seventh of the step, less the coarse rows
        s = RoundedSet.from_polygon(vertices, radius)
        coarse = simulate(s, M, horizon, dt=0.01)
        fine = simulate(s, M, horizon, dt=0.01 / 7)
        off = ~np.isin(fine.t, coarse.t)
        for t, a in list(zip(fine.t[off], fine.a[off]))[::5]:
            got = rounded_area(reconstruct_set(coarse, float(t)))
            assert got == pytest.approx(a, rel=1e-12, abs=1e-300)

    def test_empty_at_extinction(self):
        trace = simulate(sq(), 4.0, horizon=5.0)
        assert rounded_area(reconstruct_set(trace, trace.T_star)) == 0.0
        # the same at any scale: there is no absolute time band around T*
        tiny = simulate(RoundedSet.from_polygon(1e-12 * np.array(SQUARE)), 4e-12, 5e-12)
        before = math.nextafter(tiny.T_star, 0.0)
        assert rounded_area(reconstruct_set(tiny, before)) > 0.0
        assert reconstruct_set(tiny, tiny.T_star).is_empty

    def test_out_of_range(self):
        trace = simulate(sq(), 0.0, horizon=1.0)
        with pytest.raises(OutOfRangeError):
            reconstruct_set(trace, -0.1)
        with pytest.raises(OutOfRangeError):
            reconstruct_set(trace, 1.1)

    def test_nan_time_is_refused(self):
        trace = simulate(sq(), 4.0, horizon=5.0)
        with pytest.raises(BadConfigError, match="^time must be finite"):
            reconstruct_set(trace, math.nan)

    @pytest.mark.parametrize("lam", [1e-9, 1.0, 1e6])
    def test_end_slack_scales_with_the_trace(self, lam):
        # a growing run, so that compute_cost checks its horizon too: the
        # next float past the end is read, a billionth past it is refused
        s = RoundedSet.from_polygon(lam * np.array(SQUARE, float))
        trace = simulate(s, 0.0, lam, lam / 64)
        t_end = float(trace.t[-1])
        after = math.nextafter(t_end, math.inf)
        assert rounded_area(reconstruct_set(trace, after)) > trace.a[-1]
        assert compute_cost(trace, 1.0, 1.0, after) > 0.0
        with pytest.raises(OutOfRangeError):
            reconstruct_set(trace, t_end * (1.0 + 1e-9))
        with pytest.raises(OutOfRangeError):
            compute_cost(trace, 1.0, 1.0, t_end * (1.0 + 1e-9))


class TestCost:
    def test_zero_budget_cost(self):
        trace = simulate(sq(), 0.0, horizon=1.0)
        exact = 3 + math.pi / 3  # integral of 1+4t+pi*t^2 over [0,1]
        assert compute_cost(trace, 1.0, 0.0, 1.0) == pytest.approx(exact, rel=1e-12)

    def test_stationary_ball_cost(self):
        trace = simulate(unit_ball(), 2 * math.pi, horizon=2.0)
        # running cost 0.5 * integral of pi over [0,2] plus terminal 2 * pi
        got = compute_cost(trace, 0.5, 2.0, 2.0)
        assert got == pytest.approx(0.5 * math.pi * 2.0 + 2.0 * math.pi, rel=1e-9)

    def test_zero_weights(self):
        trace = simulate(sq(), 3.0, horizon=0.5)
        assert compute_cost(trace, 0.0, 0.0, 0.5) == 0.0

    def test_out_of_range_horizon(self):
        trace = simulate(sq(), 3.0, horizon=0.5)
        with pytest.raises(OutOfRangeError):
            compute_cost(trace, 1.0, 0.0, 1.0)
        with pytest.raises(BadConfigError, match="^cost horizon must be finite"):
            compute_cost(trace, 1.0, 0.0, math.nan)

    def test_infinite_horizon_costs_the_whole_run(self):
        # from extinction on the area is 0, so T = inf costs what T = T* does
        trace = simulate(sq(), 4.0, horizon=5.0)
        whole = compute_cost(trace, 1.0, 1.0, math.inf)
        assert whole == compute_cost(trace, 1.0, 1.0, trace.T_star)
        assert whole == pytest.approx(0.5466510976061638, rel=1e-12)

    @pytest.mark.parametrize("c1, c2", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
    def test_non_finite_weights(self, c1, c2):
        # inf * 0 at extinction would give nan
        trace = simulate(sq(), 4.0, horizon=5.0)
        with pytest.raises(BadConfigError):
            compute_cost(trace, c1, c2, float(trace.t[-1]))

    def test_zero_budget_partial_last_interval(self):
        # at M = 0 the area is 1 + 4t + pi*t^2, so a horizon strictly inside
        # a sample interval has the running cost T + 2T^2 + pi*T^3/3
        trace = simulate(sq(), 0.0, horizon=1.0)
        for T in (0.3337, 0.5 + trace.dt / 3.0, 0.9999):
            k = int(np.searchsorted(trace.t, T))
            assert trace.t[k - 1] < T < trace.t[k]
            exact = T + 2.0 * T**2 + math.pi * T**3 / 3.0
            assert compute_cost(trace, 1.0, 0.0, T) == pytest.approx(exact, rel=1e-12)

    def test_partial_interval_matches_quadrature(self):
        # oracle: scipy's adaptive quadrature of the exact area, phase by
        # phase, up to a horizon inside the opening phase, inside the
        # free-ball tail and past extinction (where a(t) and the terminal
        # cost are 0)
        from scipy.integrate import quad

        trace = simulate(sq(), 4.0, horizon=5.0)
        assert trace.T_dagger < trace.T_star < 5.0
        path = _path(trace)

        def area(t):
            return float(path.at(np.array([t]))[1][0])

        bounds = [0.0, trace.T_dagger, trace.T_star]
        for T in (
            0.5 * trace.T_dagger + 1e-4 * math.pi,
            0.5 * (trace.T_dagger + trace.T_star) + 1e-4 * math.pi,
            trace.T_star + 0.5,
        ):
            running = 0.0
            for lo, hi in zip(bounds[:-1], np.minimum(bounds[1:], T)):
                if hi > lo:
                    running += quad(area, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
            want = 0.5 * running + 2.0 * area(T)
            assert compute_cost(trace, 0.5, 2.0, T) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "vertices, radius, M, kinds",
        [
            (SQUARE, 0.0, 4.0, ["Opening", "Ball"]),
            (RECTANGLE, 0.0, 6.0, ["Opening", "Stadium", "Ball"]),
            (SQUARE, 0.2, 1.0, ["Opening", "Ball"]),
        ],
    )
    def test_each_phase_matches_mpmath(self, vertices, radius, M, kinds):
        # oracle: mpmath's tanh-sinh quadrature of the exact area over each
        # half of each phase: opening, stadium, a dying ball (square and
        # rectangle) and a growing one (rounded square)
        import mpmath

        trace = simulate(RoundedSet.from_polygon(vertices, radius), M, horizon=1.0)
        assert [p[0] for p in trace.phases] == kinds
        path = _path(trace)

        def area(t):
            return float(path.at(np.array([float(t)]))[1][0])

        for _, _, t0, t1, _ in trace.phases:
            t1 = min(t1, trace.horizon)
            for lo, hi in ((t0, 0.5 * (t0 + t1)), (0.5 * (t0 + t1), t1)):
                want = float(mpmath.quad(area, [lo, hi]))
                got = compute_cost(trace, 1.0, 0.0, hi) - compute_cost(trace, 1.0, 0.0, lo)
                assert got == pytest.approx(want, rel=1e-12)

    def test_one_row_trace(self):
        # a trace cut to its first sample
        trace = simulate(sq(), 1.0, 0.5)
        trace = dataclasses.replace(
            trace,
            **{col: getattr(trace, col)[:1] for col in _COLUMNS},
        )
        assert len(trace) == 1
        assert compute_cost(trace, 3.0, 2.0, 0.0) == 2.0 * trace.a[0]


class TestAdmissibility:
    def test_extinguishing_run_is_admissible(self):
        trace = simulate(sq(), 4.0, horizon=5.0)
        assert check_admissible(trace, 1e-4, 1e-2)

    def test_run_shorter_than_delta_is_admissible(self):
        # no sample time lies a delta before the end: only the rows are checked
        assert check_admissible(simulate(sq(), 4.0, horizon=1e-5), 1e-4, 1e-2)

    def test_growing_run_is_admissible(self):
        trace = simulate(sq(0.2), 1.0, horizon=1.0)
        assert check_admissible(trace, 1e-4, 1e-2)

    def test_corrupted_trace_fails(self):
        trace = simulate(sq(), 4.0, horizon=5.0)
        bad = trace.a.copy()
        bad[len(bad) // 2:] *= 0.8
        broken = type(trace)(
            omega0=trace.omega0, M=trace.M, t=trace.t, a=bad,
            perimeter=trace.perimeter, regime=trace.regime, rho=trace.rho,
            phases=trace.phases, T_star=trace.T_star, T_dagger=trace.T_dagger,
            horizon=trace.horizon, dt=trace.dt,
        )
        assert not check_admissible(broken, 1e-4, 1e-2)

    def test_relabelled_budget_fails(self):
        # two percent of M, which the old rate bound forgave
        trace = simulate(sq(), 4.0, horizon=5.0)
        assert not check_admissible(dataclasses.replace(trace, M=4.0 * 1.02), 1e-4, 1e-2)

    def test_radius_off_the_ode_fails(self, monkeypatch):
        # rows that match the evaluator, whose opening radius is 0.1% off the
        # area ODE's: only the removal-rate test sees it
        from shrinkset import evolution

        # after each phase start only: scaling the start too moves the rows
        # and the evaluator together, and the removal rate holds
        radius = evolution._radius
        monkeypatch.setattr(
            evolution, "_radius",
            lambda k2, M, r0, s: np.where(s > 0.0, 1.001, 1.0) * radius(k2, M, r0, s),
        )
        trace = simulate(sq(0.2), 1.0, horizon=1.0)
        assert not check_admissible(trace, 1e-4, 1e-2)

    @pytest.mark.parametrize("vertices, radius, M", [(RECTANGLE, 0.0, 6.0), (SQUARE, 0.0, 0.0)])
    def test_other_phases_are_admissible(self, vertices, radius, M):
        # a stadium phase, and the uncontrolled growth of the whole domain
        trace = simulate(RoundedSet.from_polygon(vertices, radius), M, horizon=1.0)
        assert check_admissible(trace, 1e-4, 1e-2)

    def test_drifting_sets_fail(self, monkeypatch):
        # every set moved by (c/2, 0), c = t the rounding radius of the grown
        # square: its rows, areas and perimeters hold, so only the
        # containment test sees that the set at t + delta leaves the
        # delta-dilation of the set at t
        trace = simulate(sq(), 4.0, horizon=5.0)
        t = reference.check_times(trace, 1e-4)
        j, _, _, rho, straight = _path(trace).at(t)
        args = (sq().kernel, t, _path(trace).kinds[j], rho, straight, _GRID_DIRECTIONS)
        kernels = isoperimetric._subset_kernels

        def drifting(kernel, c, regime, rho, length):
            radius, center, *rest = kernels(kernel, c, regime, rho, length)
            return radius, center + np.outer(0.5 * c, [1.0, 0.0]), *rest

        still = isoperimetric._subsets(*args)
        monkeypatch.setattr(isoperimetric, "_subset_kernels", drifting)
        moved = isoperimetric._subsets(*args)
        for col in range(2):  # areas and perimeters
            assert np.array_equal(moved[col], still[col])
        assert not np.array_equal(moved[2], still[2])
        assert not check_admissible(trace, 1e-4, 1e-2)

    @pytest.mark.parametrize(
        "delta, tol",
        [(math.inf, 1e-2), (0.0, 1e-2), (-1e-4, 1e-2), (math.nan, 1e-2),
         (1e-4, math.nan), (1e-4, math.inf), (1e-4, -1e-2)],
    )
    def test_bad_delta_or_tol(self, delta, tol):
        trace = simulate(sq(), 4.0, horizon=5.0)
        with pytest.raises(BadConfigError):
            check_admissible(trace, delta, tol)


def _check_dirs(trace):
    traj = _path(trace).traj
    normals = (traj.kernel.edge_normals(), traj.prof.locus.edge_normals())
    return np.concatenate((_GRID_DIRECTIONS, *normals))


def _agrees_with_reference(trace, delta):
    """check_admissible gives the reference's bool at the trace's budget
    and at 1.5 times it, and its batched sets measure as the built ones."""
    for M in (trace.M, 1.5 * trace.M):
        checked = dataclasses.replace(trace, M=M)
        want = reference.check_admissible(checked, delta, 1e-2)
        assert check_admissible(checked, delta, 1e-2) == want
    t = reference.check_times(trace, delta)
    if not len(t):
        return
    path = _path(trace)
    j, a, _, rho, straight = path.at(t)
    dirs = _check_dirs(trace)
    area, perim, h, live = isoperimetric._subsets(
        path.traj.kernel, path.traj.c0 + t, path.kinds[j], rho, straight, dirs
    )
    sets = reference.sets_at(trace, t)
    assert (live & (a > 0.0)).tolist() == [not s.is_empty for s in sets]
    scale = trace.omega0.diameter
    for k, s in enumerate(sets):
        if not s.is_empty:
            assert abs(area[k] - rounded_area(s)) <= 1e-14 * scale * scale
            assert abs(perim[k] - rounded_perimeter(s)) <= 1e-14 * scale
            assert np.max(np.abs(h[k] - _support_values(s, dirs))) <= 1e-14 * scale


class TestAdmissibleReference:
    """The batched check against the per-set one it replaced (see
    tests/admissible_reference.py)."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(hulls(), st.one_of(st.just(0.0), st.floats(0.5, 2.0)), st.sampled_from([1e-4, 1e-2]))
    def test_random_sets(self, s, factor, delta):
        M = factor * critical_budget(s)
        _agrees_with_reference(simulate(s, M, 1.5 * s.diameter), delta)

    @pytest.mark.parametrize("delta", [1e-4, 1e-2])
    def test_stadium_run(self, delta):
        trace = simulate(RoundedSet.from_polygon(RECTANGLE), 6.0, horizon=1.0)
        assert [p[0] for p in trace.phases] == ["Opening", "Stadium", "Ball"]
        _agrees_with_reference(trace, delta)


class TestTrajectoryMemo:
    @pytest.fixture
    def built(self, monkeypatch):
        init = evolution._Trajectory.__init__
        built = []

        def counted(self, omega0):
            built.append(omega0)
            init(self, omega0)

        monkeypatch.setattr(evolution._Trajectory, "__init__", counted)
        return built

    def test_one_trajectory_per_set(self, built):
        omega0 = sq(0.1)
        trace = simulate(omega0, 4.0, horizon=5.0)
        for t in np.linspace(0.0, float(trace.t[-1]), 16):
            reconstruct_set(trace, float(t))
        compute_cost(trace, 1.0, 1.0, float(trace.t[-1]))
        assert check_admissible(trace, 1e-4, 1e-2)
        m0 = critical_budget(omega0)
        ball_time_at_critical(omega0, m0)
        classify(omega0, m0)
        assert built == [omega0]

    def test_one_path_per_trace(self):
        # the post-processing reads one path per trace; a trace made by
        # dataclasses.replace reads its own, from its own budget
        trace = simulate(sq(0.1), 4.0, horizon=5.0)
        path = _path(trace)
        reconstruct_set(trace, 0.5)
        compute_cost(trace, 1.0, 1.0, 1.0)
        assert _path(trace) is path
        relabelled = dataclasses.replace(trace, M=5.0)
        assert _path(relabelled) is not path and _path(relabelled).M == 5.0

    def test_equal_sets_build_their_own(self, built):
        first, second = sq(0.1), sq(0.1)
        assert critical_budget(first) == critical_budget(second)
        assert built == [first, second]


def _kink_times(trace):
    """Each phase start and T*, the floats on either side of them, and the
    rows: the times where a one-time read could part from the vector one."""
    kinks = [p[2] for p in trace.phases] + [trace.phases[-1][3]]
    near = [
        x for k in kinks if math.isfinite(k)
        for x in (k, math.nextafter(k, 0.0), math.nextafter(k, math.inf))
    ]
    return np.concatenate((trace.t, near))


def _assert_one_time_read_is_at(path, t):
    j, *columns = path.at(np.asarray(t, float))
    for k, tk in enumerate(t):
        got = path.at1(float(tk))
        assert type(got[0]) is int and all(type(x) is float for x in got[1:])
        want = (int(j[k]), *(float(c[k]) for c in columns))
        # the same bits: phase, a, perimeter, rho, straight
        assert got[0] == want[0], (tk, got, want)
        assert np.array(got[1:]).tobytes() == np.array(want[1:]).tobytes(), (tk, got, want)


class TestOneTimeRead:
    """_Path.at1, the one-time read of reconstruct_set and compute_cost's
    a(T), against the vector at that simulate and the row check read."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(hulls(), st.one_of(st.just(0.0), st.floats(0.3, 5.0)))
    def test_random_sets(self, s, factor):
        M = factor * critical_budget(s)
        trace = simulate(s, M, 1.5 * s.diameter, s.diameter / 64)
        _assert_one_time_read_is_at(_path(trace), _kink_times(trace))

    @pytest.mark.parametrize("omega, M, horizon", [
        (sq(), 1e-300, 2.0),  # rho past _FAR |M / k2|: _radius's fixed point
        (sq(0.1), 1e-6, 2.0),
        (unit_ball(), 3.0, 5.0),  # a growing ball, v < 0: Wright omega
        (unit_ball(), 7.0, 5.0),  # a dying ball, to T* and past it
        (RoundedSet.from_polygon(RECTANGLE), 6.0, 1.0),  # the stadium
        (RoundedSet.from_polygon(RECTANGLE), 0.0, 1.0),
    ], ids=["far", "small-budget", "growing-ball", "dying-ball", "stadium", "no-control"])
    def test_each_branch(self, omega, M, horizon):
        trace = simulate(omega, M, horizon, horizon / 200)
        t = _kink_times(trace)
        _assert_one_time_read_is_at(_path(trace), t)
        if trace.T_star is not None:  # the dead ball from T* on, as compute_cost reads it
            _assert_one_time_read_is_at(_path(trace), [2.0 * trace.T_star, math.inf])

    def test_growing_ball_reads_wright_omega(self):
        # the ball grows at M = 3 (r* = 3/2pi < 1): v = 1 + rho / m < 0
        trace = simulate(unit_ball(), 3.0, 5.0, 0.1)
        m = 3.0 / (-2.0 * math.pi)
        assert np.all(1.0 + trace.rho / m < 0.0)


class TestRowMemo:
    """check_admissible skips reading rows that equal the ones simulate read
    from the trace's path; any others are read again."""

    @pytest.fixture
    def row_reads(self, monkeypatch):
        at, lengths = evolution._Path.at, []

        def counted(self, t, j=None):
            lengths.append(len(t))
            return at(self, t, j)

        monkeypatch.setattr(evolution._Path, "at", counted)
        return lengths

    def test_rows_of_simulate_are_not_read_again(self, row_reads):
        trace = simulate(sq(), 4.0, horizon=5.0)
        row_reads.clear()
        assert check_admissible(trace, 1e-4, 1e-2)
        assert len(trace) not in row_reads

    @pytest.mark.parametrize("column", ["a", "perimeter", "t"])
    def test_row_edited_in_place_is_read_again(self, row_reads, column):
        trace = simulate(sq(), 4.0, horizon=5.0)
        k = len(trace) // 2
        getattr(trace, column)[k] += 0.1
        row_reads.clear()
        assert not check_admissible(trace, 1e-4, 1e-2)
        assert len(trace) in row_reads

    def test_nan_row_fails(self):
        trace = simulate(sq(), 4.0, horizon=5.0)
        trace.a[3] = math.nan
        assert not check_admissible(trace, 1e-4, 1e-2)

    def test_replaced_trace_reads_its_own_path(self, row_reads):
        trace = simulate(sq(), 4.0, horizon=5.0)
        copy = dataclasses.replace(trace)
        assert _path(copy) is not _path(trace) and _path(copy).rows is None
        row_reads.clear()
        assert check_admissible(copy, 1e-4, 1e-2)
        assert len(trace) in row_reads
        assert not check_admissible(dataclasses.replace(trace, M=4.0 * 1.02), 1e-4, 1e-2)

    @pytest.mark.parametrize("omega, M, horizon", [
        (sq(0.1), 4.0, 5.0),
        (RoundedSet.from_polygon(RECTANGLE), 6.0, None),
        (RoundedSet.from_polygon(RECTANGLE), 6.0, 0.3),
    ], ids=["square", "cut-before-the-ball", "cut-in-an-opening"])
    def test_attached_path_reads_as_a_fresh_one(self, omega, M, horizon):
        # the path simulate attaches is the one the trace's own phases give,
        # also where a horizon cuts the run a float before the next phase
        # starts, and a cost horizon inside the end slack reaches past it
        if horizon is None:
            horizon = math.nextafter(simulate(omega, M, 5.0).T_dagger, 0.0)
        trace = simulate(omega, M, horizon, 0.01)
        fresh = dataclasses.replace(trace)
        assert _path(fresh) is not _path(trace)
        assert all(
            np.array_equal(getattr(_path(trace), name), getattr(_path(fresh), name))
            for name in ("kinds", "t0", "t1", "rho0", "shape")
        )
        t_end = float(trace.t[-1])
        for t in [*np.linspace(0.0, t_end, 16).tolist(), t_end * (1.0 + 5e-13)]:
            got, want = reconstruct_set(trace, t), reconstruct_set(fresh, t)
            assert got.kernel.vertices.tobytes() == want.kernel.vertices.tobytes()
            assert got.radius == want.radius
        for T in (0.5 * t_end, t_end, t_end * (1.0 + 5e-13)):
            got, want = compute_cost(trace, 1.0, 1.0, T), compute_cost(fresh, 1.0, 1.0, T)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestHomothety:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(hulls(), st.floats(0.5, 2.0), st.floats(-6, 6))
    def test_rows_scale(self, s, factor, exponent):
        # simulate(lam * omega, lam * M, lam * H, lam * dt) is the trace of
        # (omega, M, H, dt) with times, lengths and the rate perimeter - M
        # times lam and areas times lam^2
        lam = 10.0**exponent
        M = factor * 2.0 * math.sqrt(math.pi * rounded_area(s))
        base = simulate(s, M, 2.0, 0.01)
        scaled = simulate(
            RoundedSet.from_polygon(lam * s.kernel.vertices, lam * s.radius),
            lam * M, lam * 2.0, lam * 0.01,
        )
        assert np.array_equal(scaled.regime, base.regime)
        columns = [(base.t, scaled.t, 1), (base.rho, scaled.rho, 1), (base.a, scaled.a, 2)]
        columns.append((base.perimeter, scaled.perimeter, 1))
        columns.append((base.perimeter - M, scaled.perimeter - lam * M, 1))
        for col, got, power in columns:
            want = lam**power * col
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        for name in ("T_star", "T_dagger"):
            want, got = getattr(base, name), getattr(scaled, name)
            assert (got is None) == (want is None)
            if want is not None:
                assert got == pytest.approx(lam * want, rel=1e-12, abs=1e-300)
