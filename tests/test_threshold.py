import math

import numpy as np
import pytest

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
    rounded_area,
    simulate,
)

SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]
RECT = [(0, 0), (2, 0), (2, 1), (0, 1)]


def sq(radius=0.0):
    return RoundedSet.from_polygon(SQUARE, radius)


class TestClassify:
    def test_ball_above_critical_dies(self):
        out = classify(RoundedSet.ball((0, 0), 1.0), 7.0, horizon=10.0)
        assert out.kind == EXTINCT
        assert out.time is not None and out.time > 0

    def test_ball_below_critical_grows(self):
        out = classify(RoundedSet.ball((0, 0), 1.0), 6.0, horizon=10.0)
        assert out.kind == GROWS
        assert out.time is not None

    def test_square_at_isoperimetric_budget_grows(self):
        # The unit square survives budgets well above 2*sqrt(pi*area):
        # early growth raises the sustainable rate before shrinking bites.
        out = classify(sq(), 2 * math.sqrt(math.pi), horizon=10.0)
        assert out.kind == GROWS

    def test_extinction_time_matches_simulation(self):
        out = classify(sq(), 4.0, horizon=10.0)
        trace = simulate(sq(), 4.0, horizon=10.0)
        assert out.kind == EXTINCT
        assert out.time == pytest.approx(trace.T_star, abs=1e-10)


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
        m0, (lo, hi), iterations = critical_budget(sq(), tol=1e-3, full_output=True)
        assert lo <= m0 <= hi
        assert hi - lo <= 2e-3
        assert iterations > 0
        assert classify(sq(), lo - 1e-3, horizon=50.0).kind == GROWS
        assert classify(sq(), hi + 1e-3, horizon=50.0).kind == EXTINCT

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
        with pytest.raises(DegenerateDomainError):
            critical_budget(RoundedSet.ball((0, 0), 5e-8), tol=1e-4)


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
        rect = RoundedSet.from_polygon(RECT)
        _, (_, hi), _ = critical_budget(rect, tol=1e-4, full_output=True)
        t1 = ball_time_at_critical(rect, hi, dt=2e-3)
        t2 = ball_time_at_critical(rect, hi, dt=1e-3)
        assert t1 > 0
        assert t1 == pytest.approx(t2, abs=1e-4)

    def test_subcritical_budget_rejected(self):
        with pytest.raises(NotCriticalError):
            ball_time_at_critical(sq(), 1.0)
