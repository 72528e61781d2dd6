"""Optimal-strategy area ODE, a'(t) = perimeter(best subset of the grown
domain at area a) - M, and its closed-form solution.

The domain grows at unit speed (dilation) and the controlled set is at every
instant the opening of the grown domain at radius rho = c0 + t + d, d the
erosion depth of the kernel.  Its trajectory has three phases:

- opening: on a piece of the erosion profile, with k = tan_sum - pi > 0, the
  ODE is d rho / dt = 1 + M / (2k rho).  With v = (2k rho + M) / M it
  solves v - ln v = v_s - ln v_s + 2k (t - t_s) / M, a branch of Lambert W
  (Corless et al., "On the Lambert W function", 1996), which _radius finds
  by Newton's method.  In depth, the piece maps rho affinely:
  rho_end = e^x rho_start + (M/2k) expm1(x), x = 2k (d1 - d0) / M;
- stadium, on a segment locus of length L: R = c0 + t + d_max and the
  straight part shrinks as L - (M/2) ln(R / R_s), so the set becomes a ball
  at R_b = R_s e^(2L/M), at the time T† = R_b - c0 - d_max;
- ball: the opening ODE on the point kernel, k = -pi, so r' = 1 - r*/r with
  r* = M / 2pi, and the set dies iff R_b < r*.

_Trajectory lists the phases of this trajectory, built once per set (see
_trajectory), and _Path gives its exact state at any time: simulate samples
it, the trace post-processing reads it and threshold reads R_b.  Logs carry
the piece maps: e^x overflows at small M.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import BadConfigError, DegenerateDomainError, OutOfRangeError, require_finite
from .geometry import _GRID_DIRECTIONS, RoundedSet, rounded_area
from .isoperimetric import _subset, _subsets
from .morphology import _ULP, BALL, OPENING, STADIUM, _profile

# largest number of sample times check_admissible tests
_ADMISSIBLE_CHECKS = 40
# how far past its last row a trace is read, relative to that row's time
_END_SLACK = 1e-12
# coefficients, highest first, of (v - 1) / p as a power series in
# p = +-sqrt(2q) at the branch point q = 0 of v - ln v = 1 + q (the reversion
# of w - ln(1 + w) = p^2 / 2), + on the side v >= 1 and - on the side v <= 1
_BRANCH_SERIES = (1 / 204120, -139 / 5443200, 1 / 17010, 1 / 4320, -1 / 270, 1 / 36, 1 / 3, 1.0)
# 1/16!, ..., 1/2!: (expm1(x) - x) / x^2 to an ulp on 0 <= x < 1/2
_EXPM1_SERIES = tuple(1.0 / math.factorial(n) for n in range(16, 1, -1))
# past r0 + s = _FAR |M / k2|, |v| > 9900 on a live row of _radius: each step
# of its fixed point gains four digits
_FAR = 1e4


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
    of an opening phase and None for the stadium and the ball.  The
    post-processing reads one _Path per trace (see _path): simulate attaches
    the one it sampled, which is the one these fields give, and a trace
    made by dataclasses.replace builds its own on first use."""

    omega0: RoundedSet
    M: float
    t: np.ndarray
    a: np.ndarray
    perimeter: np.ndarray
    regime: np.ndarray
    rho: np.ndarray
    phases: tuple[tuple[str, int | None, float, float, float], ...]
    T_star: float | None
    T_dagger: float | None
    horizon: float
    dt: float
    _path: _Path | None = field(default=None, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.t)


def _radius(k2: np.ndarray, M: float, r0: np.ndarray, s: np.ndarray) -> np.ndarray:
    """rho at s >= 0 into each row's phase, of radius r0 at its start, on the
    ODE rho' = 1 + M / (k2 rho), M > 0: an erosion piece, k2 = 2 tan_sum -
    2pi > 0, or the ball, whose point kernel has k2 = -2pi.  With m = M / k2
    and v = 1 + rho / m, v - 1 - ln|v| - s/m is constant: the branch-point
    series gives v near v = 1, Newton in ln|v| elsewhere (Wright omega for a
    growing ball, v < 0), and past _FAR |m| the fixed point of
    rho = r0 + s + m ln((rho + m) / (r0 + m)), which stays in the float range.
    """
    m = M / k2
    c, lim = r0 + m, _FAR * np.abs(m)  # c = m v0
    rho = r0.copy()  # at the phase start, and for a ball at rest at r*
    fix = (r0 + s > lim) & (c > 0.0)
    if fix.any():
        top, base, mf = r0[fix] + s[fix], np.log(c[fix]), m[fix]
        for _ in range(5):  # the first step gives r0 + s
            rho[fix] = top + mf * (np.log(rho[fix] + mf) - base)
    go = (s > 0.0) & (c != 0.0) & ~fix
    m, r0, s, c, lim = m[go], r0[go], s[go], c[go], lim[go]
    # ln|v0| from v0 - 1 near v0 = 1, and from c in full precision near a
    # ball's r0 = r*
    w, v0 = r0 / m, c / m
    ln_v0 = np.where(np.abs(w) < 0.5, np.log1p(np.clip(w, -0.5, 0.5)), np.log(np.abs(v0)))
    g = (r0 + np.minimum(s, lim)) / m - ln_v0  # v - 1 - ln|v|
    # near extinction a dying ball's g is known to about an ulp of its start
    # value: the floor keeps its radius above 0 before T*
    up = v0 > 0.0
    g[up] = np.maximum(g[up], _ULP * (w[up] - ln_v0[up]))
    h = np.empty_like(g)  # v - 1
    series = up & (g < 1e-3)
    if series.any():
        p = np.sign(m[series]) * np.sqrt(2.0 * g[series])
        h[series] = p * np.polyval(_BRANCH_SERIES, p)
    # each Newton start lies past the root on the side where Newton is monotone
    rows = up & ~series
    if rows.any():  # expm1(y) - y = q, on v0's side of 0
        q, rise = g[rows], m[rows] > 0.0
        p = np.sqrt(2.0 * q)
        y = np.where(rise, np.minimum(p, np.log(2.0 + 2.0 * q)), np.maximum(-1.0 - q, -p - q))
        for _ in range(5):
            e = np.expm1(y)
            y -= (e - y - q) / e
        h[rows] = np.expm1(y)
    if not up.all():  # e^y + y = x: -v = e^y is Wright omega
        x = -1.0 - g[~up]
        y = np.minimum(x, np.log(np.maximum(x, 1.0)))
        for _ in range(5):
            e = np.exp(y)
            y -= (e + y - x) / (e + 1.0)
        h[~up] = -1.0 - np.exp(y)
    rho[go] = m * h
    return rho


def _clip(v: float, lo: float, hi: float) -> float:
    return lo if v < lo else hi if v > hi else v  # np.clip's signed zeros


def _radius1(k2: float, M: float, r0: float, s: float) -> float:
    """_radius on one row, in Python floats: the same branches, with numpy's
    ufuncs wherever _radius calls one and np.minimum's and np.maximum's
    choice between equal zeros, so the same bits."""
    m = M / k2
    c, lim = r0 + m, _FAR * abs(m)
    if r0 + s > lim and c > 0.0:
        top, base, rho = r0 + s, float(np.log(c)), r0
        for _ in range(5):
            rho = top + m * (float(np.log(rho + m)) - base)
        return rho
    if not (s > 0.0 and c != 0.0):
        return r0
    w, v0 = r0 / m, c / m
    ln_v0 = float(np.log1p(w) if abs(w) < 0.5 else np.log(abs(v0)))
    g = (r0 + (s if s < lim else lim)) / m - ln_v0
    if not v0 > 0.0:  # Wright omega
        x = -1.0 - g
        y = float(np.log(x if x > 1.0 else 1.0))
        y = x if x < y else y
        for _ in range(5):
            e = float(np.exp(y))
            y -= (e + y - x) / (e + 1.0)
        return m * (-1.0 - float(np.exp(y)))
    floor = _ULP * (w - ln_v0)
    g = g if g > floor else floor
    if g < 1e-3:
        p = (1.0 if m > 0.0 else -1.0) * float(np.sqrt(2.0 * g))
        return m * (p * float(np.polyval(_BRANCH_SERIES, p)))
    q, p = g, float(np.sqrt(2.0 * g))
    if m > 0.0:
        y = float(np.log(2.0 + 2.0 * q))
        y = p if p < y else y
    else:
        y = -1.0 - q if -1.0 - q > -p - q else -p - q
    for _ in range(5):
        e = float(np.expm1(y))
        y -= (e - y - q) / e
    return m * float(np.expm1(y))


class _Trajectory:
    """The budget-M evolution of one initial set, in closed form."""

    def __init__(self, omega0: RoundedSet):
        area = rounded_area(omega0)  # 0 for an empty set
        if not area > 0.0:
            raise DegenerateDomainError("domain has zero area")
        # not the set, which holds this trajectory: a cycle outlives its last use
        self.kernel = omega0.kernel
        self.prof = prof = _profile(omega0.kernel)
        pc, self.c0 = prof.pieces, omega0.radius
        # rows d0, d1, area0, perim0, tan_sum; columns the pieces
        self.pieces = np.array([pc.d0, pc.d1, pc.area0, pc.perim0, pc.tan_sum])
        d0, d1, _, _, tan_sum = self.pieces
        self._k2 = k2 = 2.0 * (tan_sum - math.pi)
        self._log_k2 = np.log(k2)
        self._growth = k2 * (d1 - d0)  # x * M per piece
        self._log_c0 = math.log(self.c0) if self.c0 > 0.0 else -math.inf
        self._two_l = 2.0 * prof.locus_len
        self.rbar = prof.rbar(self.c0)  # c0 + d_max
        # isoperimetric floor: below it the area grows at all times
        self.floor = 2.0 * math.sqrt(math.pi * area)
        # here each phase's exponents sum to at most 1/2, so by Gronwall
        # R_b <= e * rbar <= M / 2pi: the set dies
        self.cap = 2.0 * max(self._two_l, float(self._growth.sum()), math.pi * math.e * self.rbar)

    def log_radii(self, M: float) -> np.ndarray:
        """ln rho at the start of the first piece and at the end of each;
        the last is the radius at stadium entry."""
        with np.errstate(over="ignore"):  # at a tiny M, an infinite exponent is the limit
            x = self._growth / M
        before = np.concatenate(([0.0], np.cumsum(x)))  # exponent up to each end
        # ln of what each piece adds at its end, (M/2k) expm1(x), over
        # e^before; a zero-length piece adds 0
        with np.errstate(divide="ignore"):
            terms = math.log(M) - self._log_k2 + np.log(-np.expm1(-x)) - before[:-1]
        return before + np.logaddexp.accumulate(np.concatenate(([self._log_c0], terms)))

    def excess(self, M: float, log_rho: np.ndarray | None = None) -> float:
        """ln R_b - ln(M / 2pi), from log_radii(M) if given: negative iff the
        budget-M evolution dies."""
        log_rho = self.log_radii(M) if log_rho is None else log_rho
        gap = float(log_rho[-1]) + self._two_l / M - math.log(M / (2.0 * math.pi))
        if math.isnan(gap):
            raise DegenerateDomainError(f"the excess at budget {M} is NaN")
        return gap

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
        log_rho = self.log_radii(M)
        with np.errstate(over="ignore", invalid="ignore"):  # inf past the float range
            rho = np.exp(log_rho[:-1])  # at each piece start
            rho[:1] = self.c0
            # a piece lasts expm1(x) rho_start + (M/k2)(expm1(x) - x), where
            # expm1(x) - x = x^2 (1/2! + x/3! + ...) cancels at small x
            x = self._growth / M
            e = np.expm1(x)
            dd = self.pieces[1] - self.pieces[0]  # each piece's depth
            lasts = np.where(x < 0.5, dd * x * np.polyval(_EXPM1_SERIES, x), M / self._k2 * e - dd)
            # e * rho is 0 at rho = 0, even where e is inf
            lasts += np.where(rho > 0.0, e * rho, 0.0)
            # each piece start, then stadium entry, where R = rbar + t
            start = np.concatenate(([0.0], np.cumsum(lasts))).tolist()
            r_stadium = self.rbar + start[-1]
            # R grows by the factor e^(2L/M) on the stadium, and T† ends it
            t_ball = t_star = start[-1] + (
                float(r_stadium * np.expm1(self._two_l / M)) if self._two_l > 0.0 else 0.0
            )
        gap = self.excess(M, log_rho)
        try:
            # R_b from the excess, so it lies on the side of r* that T* says
            r_ball = M / (2.0 * math.pi) * math.exp(gap)
        except OverflowError:  # past the float range, as is T†
            r_ball = math.inf
        if gap < -4.0:
            # the free ball's lifetime -r0 - r* ln(1 - x), x = r0/r* = e^gap,
            # is the series r0 (x/2 + x^2/3 + ...): the closed form cancels
            x = math.exp(gap)
            t_star += r_ball * sum(x ** (i - 1) / i for i in range(2, 13))
        elif gap < 0.0:
            # the lifetime, with 1 - r0/r* = -expm1(gap) in full precision
            t_star += -M / (2.0 * math.pi) * (math.exp(gap) + math.log(-math.expm1(gap)))
        else:
            t_star = math.inf
        kinds = (OPENING,) * n + (STADIUM, BALL)
        starts, ends = [*start, t_ball], [*start[1:], t_ball, t_star]
        radii = [*rho.tolist(), r_stadium, r_ball]
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
    exact state at any time.  simulate keeps copies of the rows (t, a,
    perimeter) it read from it in `rows`."""

    def __init__(self, traj: _Trajectory, M: float, phases):
        self.traj, self.M = traj, M
        self.kinds, piece, self.t0, self.t1, self.rho0 = map(np.array, zip(*phases))
        self.stadium, self.ball = self.kinds == STADIUM, self.kinds == BALL
        # rows d0, d1, area0, perim0, tan_sum of each phase's piece: a point
        # (all 0) outside the opening
        self.shape = np.zeros((5, len(phases)))
        self.shape[:, self.kinds == OPENING] = traj.pieces[:, [p for p in piece if p is not None]]
        self.rows: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @functools.cached_property
    def _table(self):
        # at1's phase ends, less the last, and each phase as Python floats
        columns = (self.kinds, self.t0, self.t1, self.rho0, *self.shape)
        return self.t1[:-1].tolist(), list(zip(*(c.tolist() for c in columns)))

    def at(self, t: np.ndarray, j: np.ndarray | None = None):
        """(phase, a, perimeter, rho, straight) at the times t, each in its
        phase j (by default the one holding it, the later one at a phase
        boundary); straight is the stadium's straight length, 0 elsewhere."""
        traj, M = self.traj, self.M
        if j is None:
            j = np.searchsorted(self.t1[:-1], t, side="right")
        stadium, t_s, r_s = self.stadium[j], self.t0[j], self.rho0[j]
        d0, d1, area0, perim0, tan_sum = self.shape[:, j]
        # without control every radius grows at unit speed
        rho = r_s + (t - t_s)
        if M > 0.0:
            # the ball is the opening of its point kernel, tan_sum = 0
            rows = ~stadium
            rho[rows] = _radius(2.0 * (tan_sum[rows] - math.pi), M, r_s[rows], t[rows] - t_s[rows])
        # the opening at rho of the kernel eroded to depth d0 + x
        x = np.clip(rho - (traj.c0 + t) - d0, 0.0, d1 - d0)
        edge = perim0 - 2.0 * tan_sum * x  # perimeter of the eroded kernel
        a = area0 - (perim0 - tan_sum * x) * x + edge * rho + math.pi * rho * rho
        perim = edge + 2.0 * math.pi * rho

        straight = np.zeros_like(t)
        big = traj.rbar + t[stadium]
        length = traj.prof.locus_len
        line = np.clip(length - 0.5 * M * np.log(big / r_s[stadium]), 0.0, length)
        a[stadium] = math.pi * big * big + 2.0 * big * line
        perim[stadium] = 2.0 * math.pi * big + 2.0 * line
        rho[stadium], straight[stadium] = big, line
        # extinct from T* on
        dead = self.ball[j] & (t >= self.t1[j])
        a[dead] = perim[dead] = rho[dead] = 0.0
        return j, a, perim, rho, straight

    def at1(self, t: float):
        """at for the one time t, in Python floats and with the same bits:
        numpy's cost per call on one-element arrays is most of at's there."""
        traj, M = self.traj, self.M
        ends, table = self._table
        j = bisect.bisect_right(ends, t)
        kind, t_s, t_e, r_s, d0, d1, area0, perim0, tan_sum = table[j]
        if kind == STADIUM:
            big, length = traj.rbar + t, traj.prof.locus_len
            line = _clip(length - 0.5 * M * float(np.log(big / r_s)), 0.0, length)
            area = math.pi * big * big + 2.0 * big * line
            return j, area, 2.0 * math.pi * big + 2.0 * line, big, line
        if kind == BALL and t >= t_e:  # extinct from T* on
            return j, 0.0, 0.0, 0.0, 0.0
        rho = r_s + (t - t_s)
        if M > 0.0:
            rho = _radius1(2.0 * (tan_sum - math.pi), M, r_s, t - t_s)
        x = _clip(rho - (traj.c0 + t) - d0, 0.0, d1 - d0)
        edge = perim0 - 2.0 * tan_sum * x
        a = area0 - (perim0 - tan_sum * x) * x + edge * rho + math.pi * rho * rho
        return j, a, edge + 2.0 * math.pi * rho, rho, 0.0


def default_step(omega0: RoundedSet) -> float:
    return 1e-3 * max(1.0, omega0.diameter)


def _sample_times(end: float, dt: float, kinks: np.ndarray) -> np.ndarray:
    # the multiples of dt before the end, less one within a billionth of a
    # step of it, then the kinks up to the end and the end itself
    try:
        count = max(math.ceil(end / dt - 1e-9), 1)
        grid = dt * np.arange(count)
        if len(grid) < count:  # numpy's arange wraps some counts past 2^63
            raise ValueError("too many samples")
    except (OverflowError, ValueError, MemoryError) as exc:
        raise BadConfigError(f"cannot sample {end} in steps of dt = {dt}: {exc}") from exc
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
    if M != 0.0:
        require_finite("budget M", M, sys.float_info.min)
    require_finite("horizon", horizon, 0.0, strict=True)
    if dt is None:
        dt = default_step(omega0)
    require_finite("dt", dt, 0.0, strict=True)

    traj = _trajectory(omega0)
    phases = traj.phases(M)
    kind, _, t_ball, t_star, _ = phases[-1]
    end = min(horizon, t_star)
    starts = np.array([p[2] for p in phases])
    t = _sample_times(end, dt, np.append(starts, t_star))
    # the phases up to the end: the trace's, so that its path is the one
    # _path would build from them
    phases = phases[: np.searchsorted(starts, end, side="right")]
    path = _Path(traj, M, phases)
    with np.errstate(over="ignore"):  # an area past the float range is refused below
        j, a, perim, rho, _ = path.at(t)
    if not np.isfinite(a).all():
        raise BadConfigError(f"the area passes the float range before the horizon {horizon}")
    path.rows = t.copy(), a.copy(), perim.copy()
    trace = EvolutionTrace(
        omega0, M, t, a, perim, path.kinds[j], rho, phases,
        t_star if t_star <= horizon else None,
        t_ball if kind == BALL and t_ball <= horizon else None,
        horizon, dt,
    )
    object.__setattr__(trace, "_path", path)
    return trace


def _path(trace: EvolutionTrace) -> _Path:
    if trace._path is None:
        object.__setattr__(trace, "_path", _Path(_trajectory(trace.omega0), trace.M, trace.phases))
    return trace._path


def reconstruct_set(trace: EvolutionTrace, t: float) -> RoundedSet:
    """The controlled set at time t, exact at every t: the opening of the
    grown domain, the stadium on the locus or the ball of t's phase (see
    isoperimetric._subset)."""
    t_end = float(trace.t[-1])
    if not 0.0 <= t <= t_end + _END_SLACK * t_end:
        require_finite("time", t)
        raise OutOfRangeError(f"time {t} outside the trace range [0, {t_end}]")
    path = _path(trace)
    j, a, _, rho, straight = path.at1(t)
    if not a > 0.0:
        return RoundedSet.empty()
    traj = path.traj
    return _subset(traj.kernel, traj.c0 + t, path.kinds[j], rho, straight)


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
    require_finite("cost weight c1", c1)
    require_finite("cost weight c2", c2)
    t_end = float(trace.t[-1])
    if not (T >= 0.0 and (T <= t_end + _END_SLACK * t_end or trace.T_star is not None)):
        require_finite("cost horizon", T)
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
    integral = float(np.where(path.stadium[j], stadium, pieces).sum())
    return c1 * integral + c2 * path.at1(T)[1]


def check_admissible(trace: EvolutionTrace, delta: float, tol: float) -> bool:
    """Discrete admissibility: the rows are those of the trajectory (rows
    equal to the ones simulate read are, others are read again), and at
    up to 40 times t the area removed per unit time by t + delta is the
    budget M and the set at t + delta fits in the delta-dilation of the set
    at t.  The sets are read once per trace, as arrays (isoperimetric's
    _subsets): their areas and perimeters from their kernels' vertices, and
    the fit, a support-number test since the sets are convex, in the
    1024-direction grid plus the normals of the kernel's and the locus's
    edges, which hold every set's kernel normals."""
    require_finite("delta", delta, 0.0, strict=True)
    require_finite("tol", tol, 0.0)
    path = _path(trace)
    rows = trace.t, trace.a, trace.perimeter
    # rows equal to the ones simulate read from this path are its rows;
    # any others are read again
    if path.rows is None or not all(map(np.array_equal, rows, path.rows)):
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
    n, t = len(times), np.concatenate((times, times + delta))
    j, a, _, rho, straight = path.at(t)
    kernel, prof = path.traj.kernel, path.traj.prof
    dirs = np.concatenate((_GRID_DIRECTIONS, kernel.edge_normals(), prof.locus.edge_normals()))
    area, perim, h, live = _subsets(kernel, path.traj.c0 + t, path.kinds[j], rho, straight, dirs)
    live &= a > 0.0
    if not live.all():
        # an empty set fits anywhere, and anything fits around it: no
        # support number compares with nan
        area[~live] = perim[~live] = 0.0
        h[~live] = np.nan
    # by Steiner's formula the delta-dilation of the set at t, of area a and
    # perimeter P, has area a + delta*P + pi*delta^2; at budget M it loses
    # M + pi*delta per unit time by t + delta, plus the step's mean of
    # P(t) - P(s), which is at most |P(t + delta) - P(t)| in size:
    # P' = 2pi - M/rho changes sign at most once, where P' = 0
    removed = (area[:n] + delta * perim[:n] + math.pi * delta * delta - area[n:]) / delta
    if not np.all(
        np.abs(removed - trace.M - math.pi * delta) <= tol + np.abs(perim[n:] - perim[:n])
    ):
        return False
    return not np.any(h[n:] - h[:n] > delta + tol * delta)
