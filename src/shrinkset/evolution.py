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

_Trajectory lists the phases of this trajectory, built once per set (see
_trajectory), and _Path gives its exact state at any time: simulate samples
it, the trace post-processing reads it and threshold reads R_b.  Logs carry
the piece maps: e^x overflows at small M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import lambertw, wrightomega

from .errors import BadConfigError, DegenerateDomainError, OutOfRangeError
from .geometry import RoundedSet, contains, rounded_area, rounded_perimeter
from .isoperimetric import _subset
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
# phase kinds as the evaluator numbers them
_CODES = {OPENING: 0, STADIUM: 1, BALL: 2}


def __getattr__(name: str):
    # perfbench/run.py traces the former tail root-finder under this name;
    # the closed-form tail never calls it, so it is imported on first lookup
    if name == "brentq":
        from scipy.optimize import brentq

        return brentq
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class EvolutionTrace:
    """Rows of the exact evolution, and its phases (kind, piece, t_start,
    t_end, rho_start) up to the last row: piece is the erosion-profile piece
    of an opening phase and None for the stadium and the ball."""

    omega0: RoundedSet
    M: float
    t: np.ndarray
    a: np.ndarray
    perimeter: np.ndarray
    regime: tuple[str, ...]
    rho: np.ndarray
    phases: tuple[tuple[str, int | None, float, float, float], ...]
    T_star: float | None
    T_dagger: float | None
    horizon: float
    dt: float

    def __len__(self) -> int:
        return len(self.t)


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
        # not the set, which holds this trajectory: a cycle outlives its last use
        self.kernel = omega0.kernel
        self.prof = prof = _profile(omega0.kernel)
        pc, self.c0 = prof.pieces, omega0.radius
        # rows d0, d1, area0, perim0, tan_sum; columns the pieces
        self.pieces = np.array([pc.d0, pc.d1, pc.area0, pc.perim0, pc.tan_sum])
        d0, d1, _, _, tan_sum = self.pieces
        k2 = 2.0 * (tan_sum - math.pi)
        self._log_k2 = np.log(k2)
        self._growth = k2 * (d1 - d0)  # x * M per piece
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

    def excess(self, M: float) -> float:
        """ln R_b - ln(M / 2pi): negative iff the budget-M evolution dies."""
        return float(self.log_radii(M)[-1]) + self._two_l / M - math.log(M / (2.0 * math.pi))

    def time_at(self, log_r: float) -> float:
        """The time t >= 0 with c0 + t + d_max = e^log_r after the opening
        phase: 0 for a ball, inf past the float range."""
        if log_r <= self._log_rbar:
            return 0.0
        try:
            return max(math.exp(log_r) - self.rbar, 0.0)
        except OverflowError:
            return math.inf

    def phases(self, M: float) -> tuple[tuple[str, int | None, float, float, float], ...]:
        """The budget-M evolution's phases (kind, piece, t_start, t_end,
        rho_start) in time order, less the empty ones: the opening pieces,
        the stadium and the ball, which starts at T† (inf past the float
        range, 0 for a ball) and ends at T* (inf if the set grows)."""
        n = self.pieces.shape[1]
        if M == 0.0:
            # no control: the set is the whole grown domain, of radius c0 + t
            kind = OPENING if n else STADIUM if self._two_l > 0.0 else BALL
            return ((kind, 0 if n else None, 0.0, math.inf, self.c0),)
        # rho and time at each piece start and at stadium entry, which is T†
        # itself on a point locus
        log_rho = self.log_radii(M)
        with np.errstate(over="ignore"):  # inf past the float range
            rho = np.exp(log_rho)
        rho[0] = self.c0
        start = rho - (self.c0 + np.concatenate(([0.0], self.pieces[1])))
        start[-1] = self.time_at(float(log_rho[-1]))
        start = np.maximum.accumulate(np.maximum(start, 0.0)).tolist()
        log_rb = float(log_rho[-1]) + self._two_l / M
        gap = log_rb - math.log(M / (2.0 * math.pi))
        t_ball = t_star = self.time_at(log_rb)
        if gap < 0.0:
            # the free ball's lifetime -r0 - r* ln(1 - r0/r*), with r0/r* =
            # e^gap and 1 - r0/r* = -expm1(gap) in full precision
            t_star += -M / (2.0 * math.pi) * (math.exp(gap) + math.log(-math.expm1(gap)))
        else:
            t_star = math.inf
        try:
            # R_b from the excess, so it lies on the side of r* that T* says
            r_ball = M / (2.0 * math.pi) * math.exp(gap)
        except OverflowError:  # past the float range, as is T†
            r_ball = math.inf
        kinds = (OPENING,) * n + (STADIUM, BALL)
        starts, ends = [*start, t_ball], [*start[1:], t_ball, t_star]
        radii = [*rho.tolist(), r_ball]
        return tuple(
            (kind, p if p < n else None, t0, t1, r0)
            for p, (kind, t0, t1, r0) in enumerate(zip(kinds, starts, ends, radii))
            if t1 > t0 or p > n
        )


def _trajectory(omega0: RoundedSet) -> _Trajectory:
    if omega0._trajectory is None:
        omega0._trajectory = _Trajectory(omega0)
    return omega0._trajectory


class _Path:
    """The trajectory given by its phases (see _Trajectory.phases): its
    exact state at any time, and the set itself."""

    def __init__(self, traj: _Trajectory, M: float, phases):
        self.traj, self.M = traj, M
        self.kinds, piece, t0, t1, rho0 = zip(*phases)
        self.code = np.array([_CODES[k] for k in self.kinds])
        self.t0, self.t1, self.rho0 = np.array(t0), np.array(t1), np.array(rho0)
        # rows d0, d1, area0, perim0, tan_sum of each phase's piece: a point
        # (all 0) outside the opening
        self.shape = np.zeros((5, len(phases)))
        self.shape[:, self.code == 0] = traj.pieces[:, [p for p in piece if p is not None]]

    def at(self, t: np.ndarray, j: np.ndarray | None = None):
        """(phase, a, perimeter, rho, straight) at the times t, each in its
        phase j (by default the one holding it, the later one at a phase
        boundary); straight is the stadium's straight length, 0 elsewhere."""
        traj, M = self.traj, self.M
        if j is None:
            j = np.searchsorted(self.t1[:-1], t, side="right")
        code, t_s, r_s = self.code[j], self.t0[j], self.rho0[j]
        d0, d1, area0, perim0, tan_sum = self.shape[:, j]
        # without control every radius grows at unit speed
        rho = r_s + (t - t_s)
        if M > 0.0:
            rows = code == 0
            k2 = 2.0 * (tan_sum[rows] - math.pi)
            w = k2 * r_s[rows] / M  # v - 1 at the piece start
            q = np.maximum(w - np.log1p(w) + k2 * (t[rows] - t_s[rows]) / M, 0.0)
            rho[rows] = np.where(t[rows] == t_s[rows], r_s[rows], M / k2 * _lower_branch(q))
            rows = code == 2
            if rows.any():
                rstar = M / (2.0 * math.pi)
                rho[rows] = _free_ball_radius(t[rows], self.t0[-1], self.rho0[-1], rstar)
        # the opening at rho of the kernel eroded to depth d0 + x
        x = np.clip(rho - (traj.c0 + t) - d0, 0.0, d1 - d0)
        edge = perim0 - 2.0 * tan_sum * x  # perimeter of the eroded kernel
        a = area0 - (perim0 - tan_sum * x) * x + edge * rho + math.pi * rho * rho
        perim = edge + 2.0 * math.pi * rho

        rows, straight = code == 1, np.zeros_like(t)
        big = traj.rbar + t[rows]
        length = traj.prof.locus_len
        line = np.clip(length - 0.5 * M * np.log(big / r_s[rows]), 0.0, length)
        a[rows] = math.pi * big * big + 2.0 * big * line
        perim[rows] = 2.0 * math.pi * big + 2.0 * line
        rho[rows], straight[rows] = big, line
        # extinct from T* on
        dead = (code == 2) & (t >= self.t1[j])
        a[dead] = perim[dead] = rho[dead] = 0.0
        return j, a, perim, rho, straight

    def sets(self, t: np.ndarray) -> list[RoundedSet]:
        """The sets at the times t, each built in its phase: the opening of
        the grown domain, the stadium on the locus or the ball."""
        kernel, c0 = self.traj.kernel, self.traj.c0
        state = zip(t.tolist(), *(col.tolist() for col in self.at(t)))
        return [
            _subset(RoundedSet(kernel, c0 + time), self.kinds[j], rho, straight)
            if a > 0.0 else RoundedSet.empty()
            for time, j, a, _, rho, straight in state
        ]


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
    every kink: each phase start and T*."""
    if M < 0 or not math.isfinite(M):
        raise BadConfigError(f"budget M must be finite and nonnegative, got {M}")
    if not (horizon > 0 and math.isfinite(horizon)):
        raise BadConfigError(f"horizon must be positive and finite, got {horizon}")
    if dt is None:
        dt = default_step(omega0)
    if not (dt > 0 and math.isfinite(dt)):
        raise BadConfigError(f"dt must be positive and finite, got {dt}")

    traj = _trajectory(omega0)
    phases = traj.phases(M)
    kind, _, t_ball, t_star, _ = phases[-1]
    end = min(horizon, t_star)
    t = _sample_times(end, dt, np.array([p[2] for p in phases] + [t_star]))
    path = _Path(traj, M, phases)
    j, a, perim, rho, _ = path.at(t)
    regime = tuple(map(path.kinds.__getitem__, j.tolist()))
    return EvolutionTrace(
        omega0, M, t, a, perim, regime, rho,
        phases[: np.searchsorted(path.t0, end, side="right")],
        t_star if t_star <= horizon else None,
        t_ball if kind == BALL and t_ball <= horizon else None,
        horizon, dt,
    )


def _path(trace: EvolutionTrace) -> _Path:
    return _Path(_trajectory(trace.omega0), trace.M, trace.phases)


def reconstruct_set(trace: EvolutionTrace, t: float) -> RoundedSet:
    """The controlled set at time t, exact at every t (see _Path.sets)."""
    t_end = float(trace.t[-1])
    if not 0.0 <= t <= t_end + 1e-12:
        raise OutOfRangeError(f"time {t} outside the trace range [0, {t_end}]")
    return _path(trace).sets(np.array([t], dtype=float))[0]


def compute_cost(trace: EvolutionTrace, c1: float, c2: float, T: float) -> float:
    """Running cost c1*integral of a(t) over [0,T] plus terminal c2*a(T), for
    the exact a(t), which is zero from extinction on.

    The integral is elementary in every phase.  On an opening piece, with
    b = c0 + t + d0, k = tan_sum - pi and m = M / 2k, the area is
    area0 + perim0*b + tan_sum*b^2 - k*rho^2 and rho' = 1 + m/rho, so
    k*rho^2 integrates to k*(rho^3/3 - m*rho^2/2 + m^2*t).  The ball is that
    with a point for the piece: k = -pi and m = -M/2pi.  On the stadium the
    area is pi*R^2 + 2*R*l with R' = 1 and l' = -M/2R, which integrates to
    pi*R^3/3 + R^2*l + M*R^2/4."""
    if not (math.isfinite(c1) and math.isfinite(c2)):
        raise BadConfigError(f"cost weights must be finite, got c1={c1}, c2={c2}")
    t_end = float(trace.t[-1])
    if not (T >= 0.0 and (T <= t_end + 1e-12 or trace.T_star is not None)):
        raise OutOfRangeError(f"cost horizon {T} beyond the trace range")
    path = _path(trace)
    # every phase that starts before T, from its start to its end or T
    j = np.flatnonzero(path.t0 < T)
    n, t0 = len(j), path.t0[j]
    t1 = np.minimum(path.t1[j], T)
    _, _, _, rho, straight = path.at(np.concatenate((t0, t1)), np.concatenate((j, j)))
    r0, r1, l0, l1 = rho[:n], rho[n:], straight[:n], straight[n:]
    cubes = (r1 - r0) * (r1 * r1 + r1 * r0 + r0 * r0) / 3.0
    squares = 0.5 * (r1 - r0) * (r1 + r0)
    d0, _, area0, perim0, tan_sum = path.shape[:, j]
    k = tan_sum - math.pi
    m = path.M / (2.0 * k)
    b0, b1 = path.traj.c0 + t0 + d0, path.traj.c0 + t1 + d0
    span = t1 - t0
    pieces = span * (
        area0 + 0.5 * perim0 * (b0 + b1) + tan_sum * (b1 * b1 + b1 * b0 + b0 * b0) / 3.0
    ) - k * (cubes - m * squares + m * m * span)
    stadium = math.pi * cubes + r1 * r1 * l1 - r0 * r0 * l0 + 0.5 * path.M * squares
    integral = float(np.where(path.code[j] == 1, stadium, pieces).sum())
    return c1 * integral + c2 * float(path.at(np.array([T], dtype=float))[1][0])


def check_admissible(trace: EvolutionTrace, delta: float, tol: float) -> bool:
    """Discrete admissibility: the rows are those of the trajectory, the set
    at t+delta fits in the delta-dilation of the set at t, and the area
    removed per unit time is the budget M."""
    if not (delta > 0.0 and math.isfinite(delta)):
        raise BadConfigError(f"delta must be positive and finite, got {delta}")
    if not (tol >= 0.0 and math.isfinite(tol)):
        raise BadConfigError(f"tol must be finite and nonnegative, got {tol}")
    path = _path(trace)
    _, a, perim, _, _ = path.at(trace.t)
    # an area row off by e moves the removal rate below by e / delta
    if not (
        np.all(np.abs(trace.a - a) <= tol * delta)
        and np.all(np.abs(trace.perimeter - perim) <= tol)
    ):
        return False
    t_end = float(trace.t[-1])
    if trace.T_star is not None:
        t_end = min(t_end, trace.T_star - 10.0 * delta)
    if t_end <= delta:
        return True
    times = np.linspace(0.0, t_end - delta, min(_ADMISSIBLE_CHECKS, len(trace.t)))
    sets = path.sets(np.concatenate((times, times + delta)))
    n = len(times)
    a = np.array([rounded_area(s) for s in sets])
    perim = np.array([rounded_perimeter(s) for s in sets])
    # by Steiner's formula the delta-dilation of the set at t, of area a and
    # perimeter P, has area a + delta*P + pi*delta^2; at budget M it loses
    # M + pi*delta per unit time by t + delta, plus the step's mean of
    # P(t) - P(s), which is at most |P(t + delta) - P(t)| in size:
    # P' = 2pi - M/rho changes sign at most once, where P' = 0
    removed = (a[:n] + delta * perim[:n] + math.pi * delta * delta - a[n:]) / delta
    if not np.all(
        np.abs(removed - trace.M - math.pi * delta) <= tol + np.abs(perim[n:] - perim[:n])
    ):
        return False
    return all(
        here.is_empty or contains(dilate(here, delta), nxt, tol * delta)
        for here, nxt in zip(sets[:n], sets[n:])
    )
