"""Optimal-strategy area ODE: a'(t) = perimeter(best subset of the grown
domain at area a) - M.

The domain grows at unit speed (dilation), the controlled set is at every
instant the least-perimeter subset of the grown domain with the current
area.  Integration is classical RK4 with a fixed base step; the step is
split exactly at regime-boundary crossings (where the rate has a kink) so
the order-4 accuracy survives, and the extinction time T_star / first
ball time T_dagger are localized by bisection on the final step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# perfbench/run.py traces the former tail root-finder under this name; the
# closed-form tail no longer calls it
from scipy.optimize import brentq  # noqa: F401
from scipy.special import lambertw

from .errors import BadConfigError, OutOfRangeError
from .geometry import RoundedSet, contains, rounded_area
from .isoperimetric import optimal_subset, perimeter_of_area
from .morphology import BALL, _profile, dilate

_EVENT_TIME_TOL = 1e-10
# largest number of sample times check_admissible tests
_ADMISSIBLE_CHECKS = 40
# least float argument of the principal Lambert W: the float nearest -1/e
# lies just past the branch point, where scipy's lambertw returns nan
_W_BRANCH = float(np.nextafter(-math.exp(-1.0), 0.0))


@dataclass(frozen=True)
class EvolutionTrace:
    omega0: RoundedSet
    M: float
    t: np.ndarray
    a: np.ndarray
    perimeter: np.ndarray
    regime: tuple[str, ...]
    rho: np.ndarray
    rate: np.ndarray
    T_star: float | None
    T_dagger: float | None
    horizon: float
    dt: float

    def __len__(self) -> int:
        return len(self.t)


def area_rate(omega0: RoundedSet, t: float, a: float, M: float) -> float:
    """Instantaneous growth rate of the controlled area at time t."""
    return perimeter_of_area(dilate(omega0, t), a) - M


def _free_ball_radius(
    t: np.ndarray, t0: float, r0: float, rstar: float
) -> np.ndarray:
    """Radius at times t >= t0 of a free ball, r' = 1 - rstar/r, of radius
    r0 < rstar at t0.

    Closed form r = rstar*(1 + W0(-(u0/rstar)*exp((t - t0 - u0)/rstar))) with
    u0 = rstar - r0 (Corless et al., "On the Lambert W function", 1996).  The
    argument is negative and reaches the branch point -1/e at extinction;
    clamping it to the branch and the radius to [0, r0] keeps a time at or
    past extinction real and finite (there the radius is at most ~1.3e-8
    rstar, the float resolution of W at its branch point).
    """
    u0 = rstar - r0
    z = -(u0 / rstar) * np.exp((np.asarray(t, dtype=float) - t0 - u0) / rstar)
    w = lambertw(np.maximum(z, _W_BRANCH)).real
    return np.clip(rstar * (1.0 + w), 0.0, r0)


def default_step(omega0: RoundedSet) -> float:
    return 1e-3 * max(1.0, omega0.diameter)


def simulate(
    omega0: RoundedSet,
    M: float,
    horizon: float,
    dt: float | None = None,
) -> EvolutionTrace:
    """Integrate the area ODE from the full initial area until the horizon
    or extinction, whichever comes first."""
    if M < 0 or not math.isfinite(M):
        raise BadConfigError(f"budget M must be finite and nonnegative, got {M}")
    if not (horizon > 0 and math.isfinite(horizon)):
        raise BadConfigError(f"horizon must be positive and finite, got {horizon}")
    if dt is None:
        dt = default_step(omega0)
    if not (dt > 0 and math.isfinite(dt)):
        raise BadConfigError(f"dt must be positive and finite, got {dt}")

    prof = _profile(omega0.kernel)
    c0 = omega0.radius
    a0 = rounded_area(omega0)
    band = 1e-11 * max(1.0, a0)

    # RK4 stage values sit O(dt^2) below the full-area plateau even when the
    # exact trajectory rides it; for sharp kernels dP/da blows up there, so
    # snap a dt^2-band onto the plateau (error O(dt^4), order preserved).
    snap = 4.0 * math.pi * dt * dt

    def rate(t: float, a: float) -> float:
        if a <= 0.0:
            return -M
        c = c0 + t
        if a >= prof.area_full(c) - snap:
            return prof.perim0 + 2.0 * math.pi * c - M
        return prof.query(c, a)[0] - M

    def rk4(t: float, a: float, h: float) -> float:
        k1 = rate(t, a)
        k2 = rate(t + 0.5 * h, a + 0.5 * h * k1)
        k3 = rate(t + 0.5 * h, a + 0.5 * h * k2)
        k4 = rate(t + h, a + h * k3)
        return a + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    # signed distances to the two regime boundaries (kinks of the rate)
    def psi_ball(t: float, a: float) -> float:
        r = prof.rbar(c0 + t)
        return a - math.pi * r * r

    def psi_hat(t: float, a: float) -> float:
        return a - prof.area_hat(c0 + t)

    def bisect(t: float, a: float, h: float, fun, f0: float) -> float:
        lo, hi = 0.0, h
        while hi - lo > _EVENT_TIME_TOL:
            mid = 0.5 * (lo + hi)
            if (fun(t + mid, rk4(t, a, mid)) > 0.0) == (f0 > 0.0):
                lo = mid
            else:
                hi = mid
        return hi

    ts, areas, perims, regimes, rhos, rates = [], [], [], [], [], []
    T_star = None
    T_dagger = 0.0 if psi_ball(0.0, a0) <= 0.0 else None

    def record(t: float, a: float) -> None:
        if a <= 0.0:
            perim, regime, rho, r = 0.0, BALL, 0.0, -M
        else:
            a = min(a, prof.area_full(c0 + t))
            perim, regime, rho, _ = prof.query(c0 + t, a)
            r = perim - M
        ts.append(t)
        areas.append(max(a, 0.0))
        perims.append(perim)
        regimes.append(regime)
        rhos.append(rho)
        rates.append(r)

    def ball_tail(t0: float, r0: float) -> tuple[np.ndarray, ...]:
        # inside the ball regime with r0 < rstar the set is a shrinking free
        # ball whose radius has a closed form, so the rest of the trace is
        # written in bulk instead of chasing the sqrt(T-t) tail with RK4.
        # Sample times are summed in sequence (t0 + dt + dt + ...), like the
        # RK4 grid, with two spare steps for the rounding of the sum; the rows
        # repeat the ball branch of ErosionProfile.query.
        nonlocal T_star
        t_end = t0 - r0 - rstar * math.log1p(-r0 / rstar)
        stop = min(t_end, horizon) - 1e-15
        steps = np.full(int((stop - t0) / dt) + 2, dt)
        steps[0] = t0 + dt
        tk = np.add.accumulate(steps)
        tk = np.append(tk[tk < stop], min(t_end, horizon))
        r = _free_ball_radius(tk, t0, r0, rstar)
        if t_end <= horizon:
            T_star = t_end
            r[-1] = 0.0
        area = math.pi * r * r
        perim = 2.0 * np.sqrt(math.pi * area)
        return tk, area, perim, np.sqrt(area / math.pi), perim - M

    rstar = M / (2.0 * math.pi)
    tail = ((),) * 5  # columns t, a, perimeter, rho, rate of the ball tail
    t, a = 0.0, a0
    record(t, a)
    while t < horizon - 1e-15:
        if psi_ball(t, a) <= 0.0 and rstar > 0.0:
            # the tail's own numbers must admit extinction: log1p(-r0/rstar)
            r0 = math.sqrt(a / math.pi)
            if r0 / rstar < 1.0:
                tail = ball_tail(t, r0)
                break
        h = min(dt, horizon - t)
        a1 = rk4(t, a, h)
        events = []  # (time offset, kind)
        if a1 <= 0.0:
            events.append((bisect(t, a, h, lambda tt, aa: aa, a), "extinct"))
        for psi in (psi_ball, psi_hat):
            f0, f1 = psi(t, a), psi(t + h, a1)
            if abs(f0) > band and (f0 > 0.0) != (f1 > 0.0):
                events.append((bisect(t, a, h, psi, f0), "kink"))
        kind = None
        if events:
            h, kind = min(events)
            a1 = rk4(t, a, h)
        t, a = t + h, a1
        if kind == "extinct" or a <= 0.0:
            T_star = t
            record(t, 0.0)
            break
        record(t, a)
        if T_dagger is None and psi_ball(t, a) <= 0.0:
            T_dagger = t

    regime = tuple(regimes) + (BALL,) * len(tail[0])
    ts, areas, perims, rhos, rates = (
        np.concatenate((rows, bulk))
        for rows, bulk in zip((ts, areas, perims, rhos, rates), tail)
    )
    return EvolutionTrace(
        omega0=omega0,
        M=M,
        t=ts,
        a=areas,
        perimeter=perims,
        regime=regime,
        rho=rhos,
        rate=rates,
        T_star=T_star,
        T_dagger=T_dagger,
        horizon=horizon,
        dt=dt,
    )


def _hermite(trace: EvolutionTrace, t: float | np.ndarray) -> float | np.ndarray:
    """Cubic Hermite interpolation of a(t) on the sample grid, held at the
    first and last sample outside it; t is a time or an array of times."""
    ts = trace.t
    t = np.asarray(t, dtype=float)
    a = np.where(t <= ts[0], trace.a[0], trace.a[-1])
    inside = (t > ts[0]) & (t < ts[-1])
    ti = t[inside]
    i = np.searchsorted(ts, ti, side="right") - 1
    h = ts[i + 1] - ts[i]
    s = (ti - ts[i]) / h
    a0, a1 = trace.a[i], trace.a[i + 1]
    f0, f1 = trace.rate[i], trace.rate[i + 1]
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    a[inside] = h00 * a0 + h10 * h * f0 + h01 * a1 + h11 * h * f1
    return a if a.ndim else float(a)


def reconstruct_set(trace: EvolutionTrace, t: float) -> RoundedSet:
    """The controlled set at time t, from the interpolated area."""
    t_end = float(trace.t[-1])
    if t < 0.0 or t > t_end + 1e-12:
        raise OutOfRangeError(f"time {t} outside the trace range [0, {t_end}]")
    if trace.T_star is not None and t >= trace.T_star - _EVENT_TIME_TOL:
        return RoundedSet.empty()
    a = _hermite(trace, t)
    domain = dilate(trace.omega0, t)
    a = min(max(a, 0.0), rounded_area(domain))
    if a <= 0.0:
        return RoundedSet.empty()
    return optimal_subset(domain, a).set


def compute_cost(trace: EvolutionTrace, c1: float, c2: float, T: float) -> float:
    """Running cost c1*integral of a(t) over [0,T] plus terminal c2*a(T).

    a(t) is the trace's cubic Hermite interpolant (held at its last sample,
    zero after extinction) and the integral is exact: on each sample
    interval [t_i, t_i + h_i] it is h_i times the Hermite basis
    antiderivatives at s_i = clip((T - t_i)/h_i, 0, 1)."""
    t_end = float(trace.t[-1])
    if not (T >= 0.0 and (T <= t_end + 1e-12 or trace.T_star is not None)):
        raise OutOfRangeError(f"cost horizon {T} beyond the trace range")
    t0, h = trace.t[:-1], np.diff(trace.t)
    # a zero-width interval gets s = 0 or 1 and contributes h*(...) = 0
    s = np.clip((T - t0) / np.where(h > 0.0, h, 1.0), 0.0, 1.0)
    s3 = s**3
    integral = h * (
        s * (1.0 + s * s * (0.5 * s - 1.0)) * trace.a[:-1]
        + s * s * (0.5 + s * (0.25 * s - 2.0 / 3.0)) * h * trace.rate[:-1]
        + s3 * (1.0 - 0.5 * s) * trace.a[1:]
        + s3 * (0.25 * s - 1.0 / 3.0) * h * trace.rate[1:]
    )
    return c1 * float(integral.sum()) + c2 * _hermite(trace, T)


def check_admissible(trace: EvolutionTrace, delta: float, tol: float) -> bool:
    """Discrete admissibility: the set at t+delta fits in the delta-dilation
    of the set at t, and the area removed per unit time is the budget M."""
    t_end = float(trace.t[-1])
    if trace.T_star is not None:
        t_end = min(t_end, trace.T_star - 10.0 * delta)
    if t_end <= delta:
        return True
    # budget-rate second-order error constant, from the trace itself
    dp = np.abs(np.diff(trace.perimeter))
    dtm = np.maximum(np.diff(trace.t), 1e-300)
    big_c = math.pi + float((dp / dtm).max(initial=0.0))
    times = np.linspace(0.0, t_end - delta, min(_ADMISSIBLE_CHECKS, len(trace.t)))
    for t in times:
        here = reconstruct_set(trace, float(t))
        if here.is_empty:
            continue
        grown = dilate(here, delta)
        nxt = reconstruct_set(trace, float(t) + delta)
        if not nxt.is_empty and not contains(grown, nxt, tol * delta):
            return False
        removed = (rounded_area(grown) - _hermite(trace, float(t) + delta)) / delta
        if abs(removed - trace.M) > tol + big_c * delta:
            return False
    return True
