"""Optimal-strategy area ODE, a'(t) = perimeter(best subset of the grown
domain at area a) - M, and its closed-form solution.

The domain grows at unit speed (dilation) and the controlled set is at every
instant the opening of the grown domain at radius rho = c0 + t + d, d the
erosion depth of the kernel.  Its trajectory has three phases:

- opening: on a piece of the erosion profile, with k = tan_sum - pi > 0, the
  ODE is d rho / dt = 1 + M / (2k rho).  With v = (2k rho + M) / M it
  solves v - ln v = v_s - ln v_s + 2k (t - t_s) / M, so v = -W_-1(-e^(-y))
  on the lower branch of Lambert W (Corless et al., "On the Lambert W
  function", 1996).  In depth, the piece maps rho affinely:
  rho_end = e^x rho_start + (M/2k) expm1(x), x = 2k (d1 - d0) / M;
- stadium, on a segment locus of length L: R = c0 + t + d_max and the
  straight part shrinks as L - (M/2) ln(R / R_s), so the set becomes a ball
  at R_b = R_s e^(2L/M), at the time T† = R_b - c0 - d_max;
- ball: r' = 1 - r*/r with r* = M / 2pi, so the set dies iff R_b < r*.

simulate samples this trajectory and threshold reads R_b from it.  Logs
carry the piece maps: e^x overflows at small M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# perfbench/run.py traces the former tail root-finder under this name; the
# closed-form tail no longer calls it
from scipy.optimize import brentq  # noqa: F401
from scipy.special import lambertw, wrightomega

from .errors import BadConfigError, DegenerateDomainError, OutOfRangeError
from .geometry import RoundedSet, contains, rounded_area
from .isoperimetric import optimal_subset, perimeter_of_area
from .morphology import BALL, OPENING, STADIUM, _profile, dilate

# largest number of sample times check_admissible tests
_ADMISSIBLE_CHECKS = 40
# least float argument of the principal Lambert W: the float nearest -1/e
# lies just past the branch point, where scipy's lambertw returns nan
_W_BRANCH = float(np.nextafter(-math.exp(-1.0), 0.0))
# coefficients, highest first, of (v - 1) / p as a power series in
# p = sqrt(2q) at the branch point q = 0 of v - ln v = 1 + q (the reversion
# of w - ln(1 + w) = p^2 / 2)
_BRANCH_SERIES = (1 / 204120, -139 / 5443200, 1 / 17010, 1 / 4320, -1 / 270, 1 / 36, 1 / 3, 1.0)


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


def _lower_branch(q: np.ndarray) -> np.ndarray:
    """v - 1 for the root v >= 1 of v - ln v = 1 + q, q >= 0, which is
    -W_-1(-e^(-1-q)) - 1.

    scipy's lambertw loses the argument's distance to the branch point -1/e
    at small q and underflows past q ~ 745, and wrightomega(-1 - q - i pi)
    returns the other branch below q ~ 1.  So: the branch-point series below
    q = 1e-3 (its next term is below 1e-16 relative there), lambertw up to
    q = 2 and the Wright omega function past it.
    """
    v = np.empty_like(q)
    near, far = q < 1e-3, q >= 2.0
    mid = ~(near | far)
    p = np.sqrt(2.0 * q[near])
    v[near] = p * np.polyval(_BRANCH_SERIES, p)
    v[mid] = -lambertw(-np.exp(-1.0 - q[mid]), -1).real - 1.0
    v[far] = -wrightomega(-1.0 - q[far] - 1j * math.pi).real - 1.0
    return v


def _free_ball_radius(
    t: np.ndarray, t0: float, r0: float, rstar: float
) -> np.ndarray:
    """Radius at times t >= t0 of a free ball, r' = 1 - rstar/r, of radius
    r0 at t0 (rstar > 0).

    With u0 = r0 - rstar, a dying ball (u0 < 0) has r = rstar*(1 +
    W0((u0/rstar)*exp((t - t0 + u0)/rstar))) (Corless et al. 1996).  The
    argument reaches the branch point -1/e at extinction; clamping it to the
    branch and the radius to [0, r0] keeps a time at or past extinction real
    and finite (there the radius is at most ~1.3e-8 rstar, the float
    resolution of W at its branch point).  A growing ball (u0 > 0) has r =
    rstar*(1 + omega(ln(u0/rstar) + (u0 + t - t0)/rstar)), omega the Wright
    omega function; at u0 = 0 the ball is stationary.
    """
    s = np.asarray(t, dtype=float) - t0
    u0 = r0 - rstar
    if u0 < 0.0:
        z = (u0 / rstar) * np.exp((s + u0) / rstar)
        return np.clip(rstar * (1.0 + lambertw(np.maximum(z, _W_BRANCH)).real), 0.0, r0)
    if u0 == 0.0:
        return np.full_like(s, r0)
    return rstar * (1.0 + wrightomega(math.log(u0 / rstar) + (u0 + s) / rstar))


class _Trajectory:
    """The budget-M evolution of one initial set, in closed form."""

    def __init__(self, omega0: RoundedSet):
        area = 0.0 if omega0.is_empty else rounded_area(omega0)
        if not area > 0.0:
            raise DegenerateDomainError("domain has zero area")
        self.prof = prof = _profile(omega0.kernel)
        pc, self.c0 = prof.pieces, omega0.radius
        # rows d0, d1, area0, perim0, tan_sum; columns the pieces
        self.pieces = np.array([pc.d0, pc.d1, pc.area0, pc.perim0, pc.tan_sum])
        d0, d1, _, _, tan_sum = self.pieces
        self.k2 = 2.0 * (tan_sum - math.pi)
        self._log_k2 = np.log(self.k2)
        self._growth = self.k2 * (d1 - d0)  # x * M per piece
        self._log_c0 = math.log(self.c0) if self.c0 > 0.0 else -math.inf
        self._two_l = 2.0 * prof.locus_len
        self.rbar = prof.rbar(self.c0)  # c0 + d_max
        self._log_rbar = math.log(self.rbar)
        # isoperimetric floor: below it the area grows at all times
        self.floor = 2.0 * math.sqrt(math.pi * area)
        # here each phase's exponents sum to at most 1/2, so by Gronwall
        # R_b <= e * rbar <= M / 2pi: the set dies
        self.cap = 2.0 * max(self._two_l, float(self._growth.sum()), math.pi * math.e * self.rbar)

    def log_radii(self, M: float) -> np.ndarray:
        """ln rho at the start of the first piece and at the end of each;
        the last is the radius at stadium entry."""
        x = self._growth / M
        before = np.concatenate(([0.0], np.cumsum(x)))  # exponent up to each end
        # ln of what each piece adds at its end, (M/2k) expm1(x), over
        # e^before; a zero-length piece adds 0
        with np.errstate(divide="ignore"):
            terms = math.log(M) - self._log_k2 + np.log(-np.expm1(-x)) - before[:-1]
        return before + np.logaddexp.accumulate(np.concatenate(([self._log_c0], terms)))

    def log_ball_radius(self, M: float) -> float:
        return float(self.log_radii(M)[-1]) + self._two_l / M

    def excess(self, M: float) -> float:
        """ln R_b - ln(M / 2pi): negative iff the budget-M evolution dies."""
        return self.log_ball_radius(M) - math.log(M / (2.0 * math.pi))

    def time_at(self, log_r: float) -> float:
        """The time t >= 0 with c0 + t + d_max = e^log_r after the opening
        phase: 0 for a ball, inf past the float range."""
        if log_r <= self._log_rbar:
            return 0.0
        try:
            return max(math.exp(log_r) - self.rbar, 0.0)
        except OverflowError:
            return math.inf

    def times(self, M: float) -> tuple[float, float, float | None]:
        """(excess, T†, T*), T* None if the set grows; T† is inf past the
        float range and 0 for a ball."""
        log_rb = self.log_ball_radius(M)
        gap = log_rb - math.log(M / (2.0 * math.pi))
        t_ball = self.time_at(log_rb)
        if gap >= 0.0:
            return gap, t_ball, None
        # the free ball's lifetime -r0 - r* ln(1 - r0/r*), with r0/r* = e^gap
        # and 1 - r0/r* = -expm1(gap) in full precision
        life = -M / (2.0 * math.pi) * (math.exp(gap) + math.log(-math.expm1(gap)))
        return gap, t_ball, t_ball + life


def default_step(omega0: RoundedSet) -> float:
    return 1e-3 * max(1.0, omega0.diameter)


def _sample_times(end: float, dt: float, kinks: np.ndarray) -> np.ndarray:
    # the multiples of dt before the end, less one within a billionth of a
    # step of it, then the kinks up to the end and the end itself
    grid = dt * np.arange(max(math.ceil(end / dt - 1e-9), 1))
    return np.unique(np.concatenate((grid, kinks[kinks <= end], [end])))


def simulate(
    omega0: RoundedSet,
    M: float,
    horizon: float,
    dt: float | None = None,
) -> EvolutionTrace:
    """The exact evolution from the full initial area until the horizon or
    extinction, whichever comes first, sampled at the multiples of dt and at
    every kink: each piece end, stadium entry, T† and T*."""
    if M < 0 or not math.isfinite(M):
        raise BadConfigError(f"budget M must be finite and nonnegative, got {M}")
    if not (horizon > 0 and math.isfinite(horizon)):
        raise BadConfigError(f"horizon must be positive and finite, got {horizon}")
    if dt is None:
        dt = default_step(omega0)
    if not (dt > 0 and math.isfinite(dt)):
        raise BadConfigError(f"dt must be positive and finite, got {dt}")

    traj = _Trajectory(omega0)
    prof, c0, n = traj.prof, traj.c0, traj.pieces.shape[1]
    labels = (OPENING,) * n + (STADIUM, BALL)
    if M == 0.0:
        # no control: the set is the whole grown domain
        t = _sample_times(horizon, dt, np.empty(0))
        c = c0 + t
        perim = prof.perim0 + 2.0 * math.pi * c
        regime = OPENING if n else STADIUM if prof.locus_len > 0.0 else BALL
        t_ball = 0.0 if regime == BALL else None
        return EvolutionTrace(
            omega0, M, t, prof.area_full(c), perim, (regime,) * len(t), c, perim,
            None, t_ball, horizon, dt,
        )

    gap, t_ball, t_star = traj.times(M)
    end = horizon if t_star is None else min(horizon, t_star)
    # rho and time at each piece start and at stadium entry, which is T†
    # itself on a point locus
    log_rho = traj.log_radii(M)
    with np.errstate(over="ignore"):  # inf past the float range
        rho_k = np.exp(log_rho)
    rho_k[0] = c0
    t_k = rho_k - (c0 + np.concatenate(([0.0], traj.pieces[1])))
    t_k[-1] = traj.time_at(float(log_rho[-1]))
    t_k = np.maximum.accumulate(np.maximum(t_k, 0.0))
    bounds = np.append(t_k[1:], t_ball)  # where each phase but the last ends
    t = _sample_times(end, dt, np.append(bounds, math.inf if t_star is None else t_star))
    phase = np.searchsorted(bounds, t, side="right")
    a, perim, rho = np.empty_like(t), np.empty_like(t), np.empty_like(t)

    rows = phase < n
    p, ts = phase[rows], t[rows]
    d0, d1, area0, perim0, tan_sum = traj.pieces[:, p]
    k2 = traj.k2[p]
    w = k2 * rho_k[p] / M  # v - 1 at the piece start
    q = np.maximum(w - np.log1p(w) + k2 * (ts - t_k[p]) / M, 0.0)
    r = np.where(ts == t_k[p], rho_k[p], M / k2 * _lower_branch(q))
    x = np.clip(r - (c0 + ts) - d0, 0.0, d1 - d0)
    edge = perim0 - 2.0 * tan_sum * x  # perimeter of the eroded kernel
    a[rows] = area0 - (perim0 - tan_sum * x) * x + edge * r + math.pi * r * r
    perim[rows] = edge + 2.0 * math.pi * r
    rho[rows] = r

    rows = phase == n
    big = traj.rbar + t[rows]
    length = prof.locus_len
    straight = np.clip(length - 0.5 * M * np.log(big / rho_k[-1]), 0.0, length)
    a[rows] = math.pi * big * big + 2.0 * big * straight
    perim[rows] = 2.0 * math.pi * big + 2.0 * straight
    rho[rows] = big

    rows = phase > n
    if rows.any():
        rstar = M / (2.0 * math.pi)
        # r0 = R_b from the excess, so it lies on the side of r* that T* says
        r = _free_ball_radius(t[rows], t_ball, rstar * math.exp(gap), rstar)
        a[rows] = math.pi * r * r
        perim[rows] = 2.0 * math.pi * r
        rho[rows] = r
    if t_star is not None and t_star <= horizon:
        a[-1] = perim[-1] = rho[-1] = 0.0
    else:
        t_star = None
    return EvolutionTrace(
        omega0=omega0,
        M=M,
        t=t,
        a=a,
        perimeter=perim,
        regime=tuple(labels[i] for i in phase.tolist()),
        rho=rho,
        rate=perim - M,
        T_star=t_star,
        T_dagger=t_ball if t_ball <= horizon else None,
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
    if trace.T_star is not None and t >= trace.T_star:
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
