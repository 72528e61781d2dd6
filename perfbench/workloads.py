"""The benchmark's workloads and the references they are checked against.

Each workload turns a seed into inputs (the set-up) and returns a list of
operations.  An operation runs the library on one input and checks its
output, returning True when the output is correct; an exception counts as
a failure.  References are computed here, independently of the library:
areas and perimeters from the Steiner formulas, and the critical budget of
tangential polygons from its closed form 2r(T - pi)/ln(T/pi).

With perturb set, every reference is shifted by PERTURBATION, which must
make the checks fail (the self-check relies on it).
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
from scipy.spatial import ConvexHull

from shrinkset import cli, evolution, isoperimetric, morphology, raster, serialize
from shrinkset import threshold as thresh
from shrinkset.geometry import RoundedSet

PERTURBATION = 0.5

SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
TRIANGLE = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)]
HEXAGON = [(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]
RIGHT_TRIANGLE = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
RECTANGLE = [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0)]
TANGENTIAL = {
    "square": SQUARE,
    "triangle": TRIANGLE,
    "hexagon": HEXAGON,
    "right-triangle": RIGHT_TRIANGLE,
}
SCALES = (1e-3, 1e-6, 1e6)
# Random hulls in the threshold workload.  Their cost varies by a factor of
# three from hull to hull; with six of them the median operation time
# spread by 10% between seeds.
HULLS = 12
# The scale defect (the critical budget is not homogeneous in the set's
# size) is reported by m0_scale_max_rel_err, so these sets' error is not
# an operation failure.  Unit-scale tangential sets must match the closed
# form within this relative tolerance (bisection tol 1e-3 plus ODE error).
M0_REL_TOL = 2e-3
AREA_REL_TOL = 1e-9
ADMISSIBLE_DELTA, ADMISSIBLE_TOL = 1e-4, 1e-2


class Op(NamedTuple):
    name: str
    run: Callable[[], bool]


# -- references, computed without the library ---------------------------


def _shoelace(v: np.ndarray) -> float:
    nxt = np.roll(v, -1, axis=0)
    return 0.5 * float((v[:, 0] * nxt[:, 1] - v[:, 1] * nxt[:, 0]).sum())


def _kernel_perimeter(v: np.ndarray) -> float:
    if len(v) < 2:
        return 0.0
    if len(v) == 2:
        return 2.0 * float(np.hypot(*(v[1] - v[0])))
    return float(np.hypot(*(np.roll(v, -1, axis=0) - v).T).sum())


def steiner_area(s: RoundedSet) -> float:
    v = np.asarray(s.kernel.vertices, float)
    if len(v) == 0:
        return 0.0
    kernel = _shoelace(v) if len(v) >= 3 else 0.0
    return kernel + s.radius * _kernel_perimeter(v) + math.pi * s.radius**2


def steiner_perimeter(s: RoundedSet) -> float:
    v = np.asarray(s.kernel.vertices, float)
    if len(v) == 0:
        return 0.0
    return _kernel_perimeter(v) + 2.0 * math.pi * s.radius


def tangential_m0(vertices) -> float:
    """Closed-form critical budget of a polygon whose edges all touch its
    incircle: inradius r = 2A/P and T = sum of tan(theta_i/2) over the
    exterior angles."""
    v = np.asarray(vertices, float)
    r = 2.0 * _shoelace(v) / _kernel_perimeter(v)
    e = np.roll(v, -1, axis=0) - v
    ep = np.roll(e, 1, axis=0)
    theta = np.arctan2(ep[:, 0] * e[:, 1] - ep[:, 1] * e[:, 0], (ep * e).sum(axis=1))
    t = float(np.tan(0.5 * theta).sum())
    return 2.0 * r * (t - math.pi) / math.log(t / math.pi)


def random_rounded_set(rng, max_radius=0.5, scale=2.0) -> RoundedSet:
    """Random convex hull of a handful of points, with a random rounding
    (the generator of the test suite)."""
    while True:
        pts = rng.random((int(rng.integers(4, 10)), 2)) * scale
        try:
            hull = ConvexHull(pts)
        except Exception:
            continue
        radius = float(rng.random() * max_radius)
        return RoundedSet.from_polygon(pts[hull.vertices], radius)


def _finite(*xs) -> bool:
    return all(math.isfinite(float(x)) for x in xs)


# -- threshold: the CLI's headline command ------------------------------


def _write_geometry(path: Path, vertices, radius: float) -> None:
    doc = {"kernel": [[float(x), float(y)] for x, y in vertices], "radius": radius}
    path.write_text(json.dumps(doc))


def threshold_cli(workdir: Path, name: str, tol: float) -> dict:
    """Run `shrinkset threshold` in process on workdir/<name>.json and
    read its JSON report back."""
    out = workdir / f"{name}.report.json"
    argv = ["threshold", "--geometry", str(workdir / f"{name}.json")]
    rc = cli.main(argv + ["--tol", repr(tol), "--out", str(out)])
    if rc != 0:
        raise RuntimeError(f"shrinkset threshold exited with {rc}")
    return json.loads(out.read_text())


def _threshold_ok(report: dict, area: float) -> bool:
    m0 = report["M0"]
    lo, hi = report["bracket"]
    return _finite(m0, lo, hi) and lo < hi and lo <= m0 <= hi and (
        m0 > 2.0 * math.sqrt(math.pi * area)
    )


def threshold_setup(seed, workdir, small=False, perturb=False) -> list[Op]:
    """One `shrinkset threshold` call per set: the fixed shapes, seeded
    random hulls and the unit square at extreme scales."""
    rng = np.random.default_rng(seed)
    shift = 1.0 + PERTURBATION if perturb else 1.0
    # (name, set, tol, reference M0 or None)
    cases = []
    for name, v in TANGENTIAL.items():
        cases.append((name, RoundedSet.from_polygon(v), 1e-3, tangential_m0(v)))
    cases.append(("rectangle", RoundedSet.from_polygon(RECTANGLE), 1e-3, None))
    cases.append(("rounded-square", RoundedSet.from_polygon(SQUARE, 0.2), 1e-3, None))
    for i in range(HULLS):
        cases.append((f"hull-{i}", random_rounded_set(rng), 1e-3, None))
    for lam in SCALES:
        scaled = np.asarray(SQUARE) * lam
        cases.append((f"square-x{lam:g}", RoundedSet.from_polygon(scaled), 1e-3 * lam, None))
    if small:
        cases = [cases[1], cases[-3]]

    ops = []
    for name, s, tol, ref in cases:
        _write_geometry(workdir / f"{name}.json", s.kernel.vertices, s.radius)
        area = steiner_area(s)
        ref = None if ref is None else ref * shift

        def run(name=name, tol=tol, area=area, ref=ref) -> bool:
            report = threshold_cli(workdir, name, tol)
            ok = _threshold_ok(report, area)
            if ref is not None:
                ok = ok and abs(report["M0"] - ref) <= M0_REL_TOL * ref
            return ok

        ops.append(Op(name, run))
    return ops


# -- trace: full-trace simulation and its post-processing ---------------


def trace_setup(seed, workdir, small=False, perturb=False) -> list[Op]:
    """simulate with full traces at fixed fractions of the reference
    critical budget, at the default step and a tenth of it, then every
    post-processing entry point on the trace."""
    rng = np.random.default_rng(seed)
    shapes = [
        ("square", RoundedSet.from_polygon(SQUARE), tangential_m0(SQUARE)),
        ("triangle", RoundedSet.from_polygon(TRIANGLE), tangential_m0(TRIANGLE)),
    ]
    for i in range(2):
        s = random_rounded_set(rng)
        # no closed form for a general hull: take the library's own
        # bisection, coarse, as the reference budget
        shapes.append((f"hull-{i}", s, thresh.critical_budget(s, tol=1e-2)))
    fractions = (0.8, 0.99, 1.01, 1.5)
    refines = (1, 10)
    if small:
        shapes, fractions, refines = shapes[1:2], (0.99, 1.5), (1,)

    ops = []
    for name, s, m0 in shapes:
        horizon = 1.5 * s.diameter
        for frac in fractions:
            for refine in refines:
                dt = evolution.default_step(s) / refine
                op = _trace_op(s, frac * m0, horizon, dt, perturb)
                ops.append(Op(f"{name}-M{frac:g}-dt/{refine}", op))
    return ops


def _trace_op(s, M, horizon, dt, perturb):
    def run() -> bool:
        trace = evolution.simulate(s, M, horizon, dt)
        csv = serialize.trace_to_csv(trace)
        t_end = float(trace.t[-1])
        cost = evolution.compute_cost(trace, 1.0, 1.0, t_end)
        areas = [
            steiner_area(evolution.reconstruct_set(trace, float(t)))
            for t in np.linspace(0.0, t_end, 16)
        ]
        checked = trace
        if perturb:
            # a wrong budget must break the area-removal rate check
            checked = dataclasses.replace(trace, M=M * (1.0 + PERTURBATION))
        ok = evolution.check_admissible(checked, ADMISSIBLE_DELTA, ADMISSIBLE_TOL)
        rows = sum(1 for line in csv.splitlines() if not line.startswith("#"))
        return (
            ok
            and rows == len(trace) + 1
            and _finite(cost, *trace.a, *areas)
            and abs(areas[0] - steiner_area(s)) <= AREA_REL_TOL * steiner_area(s)
        )

    return run


# -- large-kernel: erosion profile of many-vertex polygons ---------------


def _ellipse(n: int) -> np.ndarray:
    # half-step angles put an edge at each end of the minor axis, so the
    # inscribed-ball locus is a short segment and all three regimes occur
    t = 2.0 * math.pi * (np.arange(n) + 0.5) / n
    return np.stack([1.5 * np.cos(t), np.sin(t)], axis=1)


def _regular(n: int) -> np.ndarray:
    t = 2.0 * math.pi * np.arange(n) / n
    return np.stack([np.cos(t), np.sin(t)], axis=1)


def large_kernel_setup(seed, workdir, small=False, perturb=False) -> list[Op]:
    """Cold many-vertex polygons (a fresh polygon per operation, so the
    cached erosion profile is rebuilt); the seed draws the target areas."""
    rng = np.random.default_rng(seed)
    shapes = [(f"ellipse-{n}", _ellipse(n)) for n in (100, 400, 800)]
    shapes.append(("regular-512", _regular(512)))
    if small:
        shapes = shapes[:1]
    ops = []
    for name, v in shapes:
        v.setflags(write=False)
        # fractions of each regime's area range, and of the full area
        fractions = np.sort(rng.uniform(0.05, 0.999, size=(3, 4)), axis=1)
        sweep = np.sort(rng.uniform(0.01, 1.0, size=400))
        ops.append(Op(name, _large_kernel_op(v, fractions, sweep, perturb)))
    return ops


def _large_kernel_op(vertices, fractions, sweep, perturb):
    shift = 1.0 + PERTURBATION if perturb else 1.0

    def run() -> bool:
        s = RoundedSet.from_polygon(vertices)
        area = steiner_area(s)
        rbar, locus = morphology.inner_radius(s)
        a_ball = math.pi * rbar * rbar
        a_hat = a_ball + 4.0 * rbar * locus.half_length
        ball, stadium, opened = fractions
        targets = [f * a_ball for f in ball]
        targets += [a_ball + f * (a_hat - a_ball) for f in stadium if a_hat > a_ball]
        targets += [a_hat + f * (area - a_hat) for f in opened]
        ok = True
        for a in targets:
            sol = isoperimetric.optimal_subset(s, a)
            got = steiner_area(sol.set)
            ok &= _finite(sol.perimeter, got) and abs(got - a * shift) <= AREA_REL_TOL * a
        perimeters = [isoperimetric.perimeter_of_area(s, f * area) for f in sweep]
        ok &= _finite(*perimeters) and all(
            q >= p * (1.0 - 1e-12) for p, q in zip(perimeters, perimeters[1:])
        )
        trace = evolution.simulate(s, steiner_perimeter(s), 0.05 * s.diameter)
        return ok and _finite(*trace.a, *trace.perimeter)

    return run


# -- raster: the pixel-grid oracle ----------------------------------------

# Raster cost follows the grid size.  The set's shape moves it by half from
# set to set, and many sets average that out.  The dilation pads the grid
# by r/h cells a side, so a random radius (as in the test suite) would move
# the cost by up to 2.5 times; the radius is a fixed share of the diameter.
RASTER_SETS = 24
RASTER_RADIUS = 0.15
RASTER_OPS = (
    ("raster_dilate", "dilate"),
    ("raster_erode", "erode"),
    ("raster_opening", "opening"),
)


def raster_gap(s: RoundedSet, r: float, h: float, shift: float = 1.0) -> float:
    """Largest |raster area - exact area| / (5 h perimeter) over dilate,
    erode and opening of s by r, on a grid of pitch h."""
    grid = raster.rasterize(s, h)
    gap = 0.0
    for raster_op, exact_op in RASTER_OPS:
        got = raster.raster_area(getattr(raster, raster_op)(grid, r))
        exact = getattr(morphology, exact_op)(s, r)
        tol = 5.0 * h * max(steiner_perimeter(exact), steiner_perimeter(s))
        gap = max(gap, abs(got - steiner_area(exact) * shift) / max(tol, h * h))
    return gap


def raster_setup(seed, workdir, small=False, perturb=False) -> list[Op]:
    """Seeded random rounded sets through rasterize and the raster
    dilate / erode / opening by 0.15 of the diameter, compared with the
    exact morphology."""
    rng = np.random.default_rng(seed)
    shift = 1.0 + PERTURBATION if perturb else 1.0
    ops = []
    for i in range(1 if small else RASTER_SETS):
        s = random_rounded_set(rng)
        r = RASTER_RADIUS * s.diameter
        h = (5e-3 if small else 1e-3) * s.diameter
        ops.append(Op(f"set-{i}", lambda s=s, r=r, h=h: raster_gap(s, r, h, shift) <= 1.0))
    return ops


# name -> (set-up, calibration kernel that resembles the workload's work)
WORKLOADS = {
    "threshold": (threshold_setup, "python"),
    "trace": (trace_setup, "python"),
    "large-kernel": (large_kernel_setup, "python"),
    "raster": (raster_setup, "memory"),
}


# -- accuracy: fixed sets, identical in every workload ---------------------


def accuracy(workdir: Path, small: bool = False) -> dict[str, float]:
    """The three accuracy metrics, on fixed sets that no seed changes."""
    tangential = dict(list(TANGENTIAL.items())[1:2]) if small else TANGENTIAL
    m0_err = 0.0
    for name, v in tangential.items():
        _write_geometry(workdir / f"ref-{name}.json", v, 0.0)
        m0 = threshold_cli(workdir, f"ref-{name}", 1e-3)["M0"]
        ref = tangential_m0(v)
        m0_err = max(m0_err, abs(m0 - ref) / ref)
    ref = tangential_m0(SQUARE)
    scale_err = 0.0
    for lam in SCALES[:1] if small else SCALES:
        _write_geometry(workdir / f"ref-x{lam:g}.json", np.asarray(SQUARE) * lam, 0.0)
        m0 = threshold_cli(workdir, f"ref-x{lam:g}", 1e-3 * lam)["M0"]
        scale_err = max(scale_err, abs(m0 / lam - ref) / ref)
    gap = 0.0
    refs = [
        (RoundedSet.from_polygon(SQUARE, 0.2), 0.3),
        (RoundedSet.from_polygon(RIGHT_TRIANGLE, 0.1), 0.15),
    ]
    for s, r in refs[:1] if small else refs:
        h = (5e-3 if small else 1e-3) * s.diameter
        gap = max(gap, raster_gap(s, r, h))
    return {
        "m0_max_rel_err": m0_err,
        "m0_scale_max_rel_err": scale_err,
        "raster_max_gap": gap,
    }
