"""Reference for evolution.check_admissible: the per-set check it replaced.

Every set is built as a RoundedSet through isoperimetric._subset, measured
by rounded_area and rounded_perimeter, and each pair is tested by
contains(dilate(here, delta), next), whose directions are the grid plus the
two kernels' edge normals.
"""

from __future__ import annotations

import math

import numpy as np

from shrinkset.evolution import _ADMISSIBLE_CHECKS, EvolutionTrace
from shrinkset.geometry import RoundedSet, contains, rounded_area, rounded_perimeter
from shrinkset.isoperimetric import _subset
from shrinkset.morphology import dilate


def check_times(trace: EvolutionTrace, delta: float) -> np.ndarray:
    """The times t check_admissible reads the sets at, then each t + delta;
    empty when it reads only the rows."""
    t_end = float(trace.t[-1])
    if trace.T_star is not None:
        t_end = min(t_end, trace.T_star - 10.0 * delta)
    if t_end <= delta:
        return np.zeros(0)
    times = np.linspace(0.0, t_end - delta, min(_ADMISSIBLE_CHECKS, len(trace.t)))
    return np.concatenate((times, times + delta))


def sets_at(trace: EvolutionTrace, t: np.ndarray) -> list[RoundedSet]:
    """The sets at the times t, built one at a time."""
    path = trace._path
    kernel, c0 = path.traj.kernel, path.traj.c0
    state = zip(t.tolist(), *(col.tolist() for col in path.at(t)))
    return [
        _subset(kernel, c0 + time, path.kinds[j], rho, straight)
        if a > 0.0 else RoundedSet.empty()
        for time, j, a, _, rho, straight in state
    ]


def check_admissible(trace: EvolutionTrace, delta: float, tol: float) -> bool:
    path = trace._path
    _, a, perim, _, _ = path.at(trace.t)
    if not (
        np.all(np.abs(trace.a - a) <= tol * delta)
        and np.all(np.abs(trace.perimeter - perim) <= tol)
    ):
        return False
    t = check_times(trace, delta)
    if not len(t):
        return True
    sets = sets_at(trace, t)
    n = len(t) // 2
    a = np.array([rounded_area(s) for s in sets])
    perim = np.array([rounded_perimeter(s) for s in sets])
    removed = (a[:n] + delta * perim[:n] + math.pi * delta * delta - a[n:]) / delta
    if not np.all(
        np.abs(removed - trace.M - math.pi * delta) <= tol + np.abs(perim[n:] - perim[:n])
    ):
        return False
    return all(
        here.is_empty or contains(dilate(here, delta), nxt, tol * delta)
        for here, nxt in zip(sets[:n], sets[n:])
    )
