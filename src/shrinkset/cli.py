"""Command-line front end: simulate / threshold / one-step / validate.

Configuration comes from a JSON file (--config) with per-field command-line
overrides, and every output is deterministic for a fixed config and seed.

Exit codes: 0 success, 1 usage or config error (a non-finite number
included), 2 an input outside the problem's domain, such as a one-step
area a <= 0 or above the set's area, 3 validation failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from pathlib import Path

import numpy as np

from . import raster as ras
from .errors import BadConfigError, ShrinksetError, require_finite
from .evolution import compute_cost, reconstruct_set, simulate
from .geometry import (
    RoundedSet,
    random_rounded_set,
    rounded_area,
    rounded_perimeter,
)
from .isoperimetric import free_arc_turning, optimal_subset, perimeter_of_area
from .morphology import dilate, erode, opening
from .serialize import (
    dump_geometry,
    fmt,
    phase_log,
    render_svg,
    set_from_dict,
    threshold_report,
    trace_to_csv,
)
from .threshold import ball_time_at_critical, critical_budget

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_VALIDATION = 3

# values that a config file or a command's own option may give, and the
# converter that types them from either source
_OPTION_TYPES = {
    "M": float, "dt": float, "horizon": float, "tol": float, "a": float,
    "seed": int, "c1": float, "c2": float, "svg_every": float,
}


def _option(cmd: argparse.ArgumentParser, key: str, text: str) -> None:
    flag = "--" + key.replace("_", "-")
    cmd.add_argument(flag, type=_OPTION_TYPES[key], help=text)


# built on the first main() call, not at import, and reused: parse_args
# leaves the parser unchanged
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="shrinkset",
        description="Controlled shrinking of convex sets: simulation and analysis.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    # each command declares only the options it reads
    s = sub.add_parser("simulate", help="sample the exact area trajectory")
    t = sub.add_parser("threshold", help="locate the critical budget")
    o = sub.add_parser("one-step", help="solve the one-step problem")
    v = sub.add_parser("validate", help="self-check suites")
    for cmd in (s, t, o, v):
        cmd.add_argument("--config", type=Path, help="JSON config file")
    for cmd in (s, t, o):
        cmd.add_argument("--geometry", type=Path, help="geometry JSON file")
    _option(s, "M", "control budget")
    _option(s, "dt", "sample spacing")
    _option(s, "horizon", "time horizon")
    _option(t, "tol", "tolerance")
    _option(o, "a", "target area")
    _option(v, "seed", "RNG seed for randomized suites")
    _option(s, "c1", "running cost weight")
    _option(s, "c2", "terminal cost weight")
    _option(s, "svg_every", "SVG snapshot period")
    s.add_argument("--stats", action="store_true", help="also write the phase log")
    t.add_argument("--stats", action="store_true", help="also write the root log")
    for cmd in (s, t, o, v):
        cmd.add_argument("--out", type=Path, help="output file (default stdout)")
    v.add_argument(
        "--suite",
        action="append",
        choices=["raster", "invariants", "none"],
        help="suite selection (repeatable; 'none' runs nothing)",
    )
    v.add_argument(
        "--inject-perturbation",
        action="store_true",
        help="test hook: add twice their tolerance to the Steiner and raster "
        "checks' errors, so the suite must fail",
    )
    return p


def _load_config(args: argparse.Namespace) -> dict:
    cfg: dict = {}
    if args.config is not None:
        try:
            cfg = json.loads(args.config.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise BadConfigError(f"cannot read config: {exc}") from exc
        if not isinstance(cfg, dict):
            raise BadConfigError("config must be a JSON object")
        for key, val in cfg.items():
            # a command reads "geometry" iff it declares --geometry
            if key not in (*_OPTION_TYPES, "geometry") or not hasattr(args, key):
                raise BadConfigError(f"config key {key!r} is not read by {args.command}")
            if key != "geometry":
                # the option's converter reads the value's text, as argparse
                # does, so 1.7 is no int and true, null or a list no number
                convert = _OPTION_TYPES[key]
                try:
                    cfg[key] = convert(str(val))
                except ValueError as exc:
                    raise BadConfigError(
                        f"config key {key!r} must be {convert.__name__}, got {val!r}"
                    ) from exc
    geometry = getattr(args, "geometry", None)
    if geometry is not None:
        try:
            cfg["geometry"] = json.loads(geometry.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise BadConfigError(f"cannot read geometry: {exc}") from exc
    for key in _OPTION_TYPES:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _geometry(cfg: dict) -> RoundedSet:
    if "geometry" not in cfg:
        raise BadConfigError("no geometry given (config key 'geometry' or --geometry)")
    s = set_from_dict(cfg["geometry"])
    if rounded_area(s) <= 0.0:  # 0 for an empty set
        raise BadConfigError("geometry has zero area")
    return s


def _write(path: Path, text: str) -> None:
    # rewrite in place: truncating an existing file to zero makes ext4 flush
    # it to disk on close; a device such as /dev/null cannot be truncated
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as f:
            f.write(text)
            if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
                f.truncate()
    except OSError as exc:
        raise BadConfigError(f"cannot write output: {exc}") from exc


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out is not None:
        _write(args.out, text)
    else:
        sys.stdout.write(text)


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    omega0 = _geometry(cfg)
    if "M" not in cfg:
        raise BadConfigError("simulate needs a budget M")
    period = cfg.get("svg_every")
    if period is not None:
        require_finite("svg_every", period, 0.0, strict=True)
    trace = simulate(
        omega0, cfg["M"], cfg.get("horizon", 10.0), cfg.get("dt")
    )
    out = trace_to_csv(trace)
    if args.stats:
        out += phase_log(trace)
    c1, c2 = cfg.get("c1"), cfg.get("c2")
    if c1 is not None or c2 is not None:
        cost = compute_cost(trace, c1 or 0.0, c2 or 0.0, trace.t[-1])
        out += f"# J={fmt(cost)}\n"
    _emit(args, out)
    if period is not None:
        stem = args.out if args.out is not None else Path("snapshot.svg")
        t = 0.0
        while t <= trace.t[-1] + 1e-12:
            snap = reconstruct_set(trace, min(t, float(trace.t[-1])))
            path = stem.with_suffix(f".t{fmt(t)}.svg")
            _write(path, render_svg([snap]))
            t += period
    return EXIT_OK


def cmd_threshold(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    omega0 = _geometry(cfg)
    m0, bracket, roots = critical_budget(omega0, cfg.get("tol", 1e-3), full_output=True)
    t_dagger = ball_time_at_critical(omega0, m0)
    _emit(args, threshold_report(m0, bracket, roots, t_dagger, args.stats))
    return EXIT_OK


def cmd_one_step(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    omega0 = _geometry(cfg)
    if "a" not in cfg:
        raise BadConfigError("one-step needs a target area a")
    sol = optimal_subset(omega0, cfg["a"])
    _emit(
        args,
        dump_geometry(
            sol.set,
            extra={
                "regime": sol.regime,
                "perimeter": sol.perimeter,
                "max_curvature": sol.max_curvature if math.isfinite(sol.max_curvature) else None,
                "rho": sol.rho,
            },
        ),
    )
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    suites = args.suite or ["raster", "invariants"]
    if "none" in suites:
        _emit(args, "no checks selected: PASS\n")
        return EXIT_OK
    seed = cfg.get("seed", 0)
    if seed < 0:
        raise BadConfigError(f"'seed' must be a nonnegative integer, got {seed}")
    rng = np.random.default_rng(seed)
    # twice each row's tolerance: a perturbed row fails at any scale
    bias = 2.0 if args.inject_perturbation else 0.0
    rows: list[tuple[str, bool]] = []

    if "invariants" in suites:
        sets = [random_rounded_set(rng) for _ in range(10)]
        for i, s in enumerate(sets):
            r = float(rng.random() + 0.1)
            grown = dilate(s, r)
            want = rounded_area(s) + r * rounded_perimeter(s) + math.pi * r * r
            tolerance = 1e-9 * want
            err = abs(rounded_area(grown) - want) + bias * tolerance
            rows.append((f"steiner-growth-{i}", err <= tolerance))
        sq = RoundedSet.from_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        for a in (0.3, 0.6, 0.95):
            da = 1e-6
            fd = (perimeter_of_area(sq, a + da) - perimeter_of_area(sq, a - da)) / (
                2 * da
            )
            kappa = optimal_subset(sq, a).max_curvature
            rows.append((f"curvature-law-a={a}", abs(fd / kappa - 1.0) <= 1e-3))
        rows.append(
            (
                "free-arc-square",
                abs(free_arc_turning(sq, 0.3) - (8 - 2 * math.pi)) <= 1e-12,
            )
        )

    if "raster" in suites:
        sets = [random_rounded_set(rng) for _ in range(5)]
        for i, s in enumerate(sets):
            h = 2e-3 * s.diameter
            r = float(rng.random() * 0.4 * s.diameter + h)
            grid = ras.rasterize(s, h)
            for name, exact, approx in (
                ("dilate", dilate(s, r), ras.raster_dilate(grid, r)),
                ("erode", erode(s, r), ras.raster_erode(grid, r)),
                ("opening", opening(s, r), ras.raster_opening(grid, r)),
            ):
                tolerance = 5.0 * h * max(rounded_perimeter(exact), rounded_perimeter(s))
                err = abs(ras.raster_area(approx) - rounded_area(exact)) + bias * tolerance
                rows.append((f"raster-{name}-{i}", err <= tolerance))

    width = max(len(name) for name, _ in rows)
    ok = all(passed for _, passed in rows)
    report = "".join(
        f"{name:<{width}}  {'PASS' if passed else 'FAIL'}\n"
        for name, passed in rows + [("overall", ok)]
    )
    _emit(args, report)
    return EXIT_OK if ok else EXIT_VALIDATION


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2, with the message on stderr,
        # on a usage error; 2 is this program's code for an input outside
        # the problem's domain
        return EXIT_OK if not exc.code else EXIT_USAGE
    handlers = {
        "simulate": cmd_simulate,
        "threshold": cmd_threshold,
        "one-step": cmd_one_step,
        "validate": cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except BadConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ShrinksetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
