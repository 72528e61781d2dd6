import dataclasses
import math

import numpy as np
import pytest

from shrinkset import (
    BadConfigError,
    OutOfRangeError,
    RoundedSet,
    area_rate,
    check_admissible,
    compute_cost,
    hausdorff,
    reconstruct_set,
    rounded_area,
    rounded_perimeter,
    simulate,
)
from shrinkset.evolution import _free_ball_radius, _hermite

SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]
_COLUMNS = ("t", "a", "perimeter", "regime", "rho", "rate")


def sq(radius=0.0):
    return RoundedSet.from_polygon(SQUARE, radius)


def unit_ball(radius=1.0, center=(0.0, 0.0)):
    return RoundedSet.ball(center, radius)


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
        radii = _free_ball_radius(times, t0, r0, rstar)
        with mpmath.workdps(50):
            rs, r0_ = mpmath.mpf(rstar), mpmath.mpf(r0)
            for t, r in zip(times, radii):
                elapsed = mpmath.mpf(float(t)) - mpmath.mpf(t0)

                def g(x, elapsed=elapsed):
                    return (x - r0_) + rs * mpmath.log((rs - x) / (rs - r0_)) - elapsed

                exact = float(mpmath.findroot(g, (0, r0_), solver="anderson"))
                assert abs(r - exact) <= 1e-14 * rstar * max(1.0, rstar / exact)

    def test_real_and_bounded_at_extinction(self):
        # the float nearest -1/e lies past the branch point of W0
        rstar, r0, t0 = 0.5, 0.4, 0.0
        t_end = t0 - r0 - rstar * math.log1p(-r0 / rstar)
        times = np.array([t0, t_end, math.nextafter(t_end, math.inf), 2 * t_end])
        radii = _free_ball_radius(times, t0, r0, rstar)
        assert radii.dtype == np.float64 and np.all(np.isfinite(radii))
        assert radii[0] == pytest.approx(r0, rel=1e-15)
        assert np.all((radii >= 0.0) & (radii <= r0))
        assert np.all(radii[1:] <= 1e-7 * rstar)


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
        # horizon 0.2 keeps to RK4 rows; M = 4 over horizon 5 becomes a ball
        # at T_dagger and its rows after that are the closed-form ball tail
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
                assert trace.rate[k] == pytest.approx(expected, rel=1e-9)

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
        base = RoundedSet.from_polygon(SQUARE, 0.2)
        ref = simulate(base, 6.0, horizon=5.0, dt=1e-4 / 8).T_star
        errs = [
            abs(simulate(base, 6.0, horizon=5.0, dt=dt).T_star - ref)
            for dt in (4e-3, 2e-3)
        ]
        ratio = errs[0] / errs[1]
        assert 12 <= ratio <= 20

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

    def test_empty_at_extinction(self):
        trace = simulate(sq(), 4.0, horizon=5.0)
        assert rounded_area(reconstruct_set(trace, trace.T_star)) == 0.0

    def test_out_of_range(self):
        trace = simulate(sq(), 0.0, horizon=1.0)
        with pytest.raises(OutOfRangeError):
            reconstruct_set(trace, -0.1)
        with pytest.raises(OutOfRangeError):
            reconstruct_set(trace, 1.1)


class TestCost:
    def test_zero_budget_cost(self):
        trace = simulate(sq(), 0.0, horizon=1.0)
        exact = 3 + math.pi / 3  # integral of 1+4t+pi*t^2 over [0,1]
        assert compute_cost(trace, 1.0, 0.0, 1.0) == pytest.approx(exact, rel=1e-8)

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
        with pytest.raises(OutOfRangeError):
            compute_cost(trace, 1.0, 0.0, math.nan)

    def test_zero_budget_partial_last_interval(self):
        # at M = 0 the area 1 + 4t + pi*t^2 is a quadratic, which the Hermite
        # interpolant reproduces, so a horizon strictly inside a sample
        # interval has the exact running cost T + 2T^2 + pi*T^3/3
        trace = simulate(sq(), 0.0, horizon=1.0)
        for T in (0.3337, 0.5 + trace.dt / 3.0, 0.9999):
            k = int(np.searchsorted(trace.t, T))
            assert trace.t[k - 1] < T < trace.t[k]
            exact = T + 2.0 * T**2 + math.pi * T**3 / 3.0
            assert compute_cost(trace, 1.0, 0.0, T) == pytest.approx(exact, rel=1e-12)

    def test_partial_interval_matches_quadrature(self):
        # oracle: scipy's adaptive quadrature of the interpolant, interval by
        # interval, up to a horizon inside the RK4 rows, inside the free-ball
        # tail and past extinction (where a(t) and the terminal cost are 0)
        from scipy.integrate import quad

        trace = simulate(sq(), 4.0, horizon=5.0)
        assert trace.T_dagger < trace.T_star < 5.0
        for T in (
            0.5 * trace.T_dagger + 1e-4 * math.pi,
            0.5 * (trace.T_dagger + trace.T_star) + 1e-4 * math.pi,
            trace.T_star + 0.5,
        ):
            running = 0.0
            for lo, hi in zip(trace.t[:-1], np.minimum(trace.t[1:], T)):
                if hi > lo:
                    running += quad(lambda t: _hermite(trace, t), lo, hi)[0]
            terminal = _hermite(trace, T) if T < trace.T_star else 0.0
            want = 0.5 * running + 2.0 * terminal
            assert compute_cost(trace, 0.5, 2.0, T) == pytest.approx(want, rel=1e-12)

    def test_one_row_trace(self):
        # a trace cut to its first sample
        trace = simulate(sq(), 1.0, 0.5)
        trace = dataclasses.replace(
            trace,
            **{col: getattr(trace, col)[:1] for col in _COLUMNS},
        )
        assert len(trace) == 1
        assert compute_cost(trace, 3.0, 2.0, 0.0) == 2.0 * trace.a[0]

    def test_hermite_array_matches_scalar_reference(self):
        # reference: the interpolant one time at a time, same arithmetic
        def hermite(tr, t):
            if t <= tr.t[0]:
                return tr.a[0]
            if t >= tr.t[-1]:
                return tr.a[-1]
            i = int(np.searchsorted(tr.t, t, side="right")) - 1
            h = tr.t[i + 1] - tr.t[i]
            s = (t - tr.t[i]) / h
            return (
                (1 + 2 * s) * (1 - s) ** 2 * tr.a[i]
                + s * (1 - s) ** 2 * h * tr.rate[i]
                + s * s * (3 - 2 * s) * tr.a[i + 1]
                + s * s * (s - 1) * h * tr.rate[i + 1]
            )

        trace = simulate(sq(), 4.0, horizon=5.0)
        mids = 0.5 * (trace.t[:-1] + trace.t[1:])
        times = np.concatenate(([-1.0], trace.t, mids, [trace.t[-1] + 1.0]))
        want = np.array([hermite(trace, t) for t in times])
        assert _hermite(trace, times).tobytes() == want.tobytes()
        assert [_hermite(trace, t) for t in times] == want.tolist()


class TestAdmissibility:
    def test_extinguishing_run_is_admissible(self):
        trace = simulate(sq(), 4.0, horizon=5.0)
        assert check_admissible(trace, 1e-4, 1e-2)

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
            rate=trace.rate, T_star=trace.T_star, T_dagger=trace.T_dagger,
            horizon=trace.horizon, dt=trace.dt,
        )
        assert not check_admissible(broken, 1e-4, 1e-2)
