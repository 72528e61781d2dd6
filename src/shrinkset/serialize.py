"""Wire formats: geometry JSON, CSV traces, threshold reports, SVG outlines.

Geometry JSON is {"kernel": [[x, y], ...], "radius": s} with
counterclockwise vertices.  Floats are written with 17 significant digits
so output is byte-identical across platforms and round-trips exactly.
"""

from __future__ import annotations

import json
import math
from typing import Iterable

from .errors import BadConfigError
from .evolution import EvolutionTrace
from .geometry import ConvexPolygon, RoundedSet, boundary_pieces

# SVG outline width as a fraction of the drawing's larger side
_STROKE_WIDTH = 0.005
# one CSV row, formatted as fmt formats each float; rows are formatted a
# block at a time, so the Python floats of a long trace never all exist
_ROW = "%.17g,%.17g,%.17g,%s,%.17g\n"
_BLOCK = 4096


def fmt(x: float) -> str:
    return f"{x:.17g}"


def set_to_dict(s: RoundedSet) -> dict:
    return {
        "kernel": [[float(x), float(y)] for x, y in s.kernel.vertices],
        "radius": float(s.radius),
    }


def set_from_dict(d: dict) -> RoundedSet:
    try:
        kernel = d["kernel"]
        radius = float(d.get("radius", 0.0))
        return RoundedSet(ConvexPolygon(kernel), radius)
    except BadConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise BadConfigError(f"invalid geometry JSON: {exc}") from exc


def dump_geometry(s: RoundedSet, extra: dict | None = None) -> str:
    doc = set_to_dict(s)
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2) + "\n"


def trace_to_csv(trace: EvolutionTrace) -> str:
    parts = ["t,a,perimeter,regime,rho\n"]
    columns = (trace.t, trace.a, trace.perimeter, trace.rho)
    for k in range(0, len(trace), _BLOCK):
        t, a, p, rho = (c[k : k + _BLOCK].tolist() for c in columns)
        rows = zip(t, a, p, trace.regime[k : k + _BLOCK], rho)
        parts.append("".join(map(_ROW.__mod__, rows)))
    if trace.T_star is not None:
        parts.append(f"# T_star={fmt(trace.T_star)}\n")
    if trace.T_dagger is not None:
        parts.append(f"# T_dagger={fmt(trace.T_dagger)}\n")
    return "".join(parts)


def phase_log(trace: EvolutionTrace) -> str:
    """The trace's phases as comment lines: kind, piece (empty outside an
    opening phase), t_start, t_end, rho_start."""
    return "".join(
        f"# phase={kind},{'' if piece is None else piece},{fmt(t0)},{fmt(t1)},{fmt(r0)}\n"
        for kind, piece, t0, t1, r0 in trace.phases
    )


def threshold_report(
    m0: float,
    bracket: tuple[float, float],
    roots: list[tuple[float, float, float]],
    t_dagger: float,
    stats: bool = False,
) -> str:
    """critical_budget's answer as JSON: M0, its final bracket, the number
    of excess evaluations and T_dagger; with stats, also the root log, one
    {M, excess, seconds} per evaluation."""
    doc = {
        "M0": m0,
        "bracket": [bracket[0], bracket[1]],
        "iterations": len(roots),
        "T_dagger": t_dagger,
    }
    if stats:
        doc["roots"] = [{"M": M, "excess": f, "seconds": s} for M, f, s in roots]
    return json.dumps(doc, indent=2) + "\n"


def _svg_path(s: RoundedSet) -> str:
    pieces = boundary_pieces(s)
    cmds = []
    for kind, *rest in pieces:
        if kind == "seg":
            p0, p1 = rest
            if not cmds:
                cmds.append(f"M {fmt(p0[0])} {fmt(p0[1])}")
            cmds.append(f"L {fmt(p1[0])} {fmt(p1[1])}")
        else:
            center, r, a0, a1 = rest
            start = (center[0] + r * math.cos(a0), center[1] + r * math.sin(a0))
            if not cmds:
                cmds.append(f"M {fmt(start[0])} {fmt(start[1])}")
            span = (a1 - a0) % (2.0 * math.pi)
            if span == 0.0:
                span = 2.0 * math.pi
            # SVG arcs cannot span a full turn; split one past pi and its rounding
            stops = [a0 + span] if span <= math.pi * (1.0 + 1e-12) else [a0 + span / 2, a0 + span]
            for stop in stops:
                end = (center[0] + r * math.cos(stop), center[1] + r * math.sin(stop))
                cmds.append(f"A {fmt(r)} {fmt(r)} 0 0 1 {fmt(end[0])} {fmt(end[1])}")
    cmds.append("Z")
    return " ".join(cmds)


def render_svg(sets: Iterable[RoundedSet]) -> str:
    """Outline drawing of one or more sets, in their own coordinates."""
    sets = [s for s in sets if not s.is_empty]
    if not sets:
        return '<svg xmlns="http://www.w3.org/2000/svg"/>\n'
    lo_x = min(s.kernel.vertices[:, 0].min() - s.radius for s in sets)
    hi_x = max(s.kernel.vertices[:, 0].max() + s.radius for s in sets)
    lo_y = min(s.kernel.vertices[:, 1].min() - s.radius for s in sets)
    hi_y = max(s.kernel.vertices[:, 1].max() + s.radius for s in sets)
    pad = 0.05 * max(hi_x - lo_x, hi_y - lo_y, 1e-9)
    w = hi_x - lo_x + 2 * pad
    h = hi_y - lo_y + 2 * pad
    paths = "\n".join(
        f'  <path d="{_svg_path(s)}" fill="none" stroke="black" '
        f'stroke-width="{fmt(_STROKE_WIDTH * max(w, h))}"/>'
        for s in sets
    )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{fmt(lo_x - pad)} {fmt(-hi_y - pad)} {fmt(w)} {fmt(h)}">\n'
        f'<g transform="scale(1,-1)">\n{paths}\n</g>\n</svg>\n'
    )
