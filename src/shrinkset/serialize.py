"""Wire formats: geometry JSON, CSV traces, threshold reports, SVG outlines.

Geometry JSON is {"kernel": [[x, y], ...], "radius": s} with
counterclockwise vertices.  Floats are written with 17 significant digits
so output is byte-identical across platforms and round-trips exactly.

CSV traces are formatted a column at a time, with the bytes of '%.17g'.
For 1e-4 <= |x| < 1e16, %g writes fixed notation, and with
e = floor(log10 |x|) the scale 10**(16 - e) is an exact double.  Dekker's
two-product (Dekker 1971; Veltkamp's split, since numpy has no fused
multiply-add) gives x * 10**(16 - e) exactly as hi + lo, and hi >= 2**53 is
an even integer, so hi + rint(lo) is the product rounded to an integer with
ties to even: the 17 digits that correctly rounded dtoa writes (Gay 1990).
Zero, inf, nan and every other value are written with '%.17g' one at a
time.
"""

from __future__ import annotations

import json
import math
from typing import Iterable

import numpy as np

from .errors import BadConfigError
from .evolution import EvolutionTrace
from .geometry import ConvexPolygon, RoundedSet, boundary_pieces

# SVG outline width as a fraction of the drawing's larger side
_STROKE_WIDTH = 0.005
# rows per block of a CSV trace: a block's buffers take a few hundred KB
_BLOCK = 2048
# Each float of a CSV row fills a slot of four little-endian 64-bit words,
# padded with NUL bytes that one translate per block deletes.  Word 0 holds
# the sign, and "0." and the leading zeros, ending at its top byte.  Words
# 1-3 hold the 17 digits, seven to a word (three in word 3), with the top
# byte spare: inserting the decimal point moves the digits after it in its
# word up a byte.  The separator is the top byte of word 3.  The regime is
# one word: the kind's code points, at most 7, then NULs and the comma.
_WORD = np.dtype("<u8")
_SEPARATORS = np.array([ord(","), ord(","), ord(","), ord("\n")], _WORD) << np.uint64(56)
_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp's split of a double
# 10**k, k = 0 ... 21, all exact doubles, and their Veltkamp halves
_POW10 = np.array([10**k for k in range(22)], float)
_POW10_HI = _POW10 * _SPLITTER - (_POW10 * _SPLITTER - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The ASCII of each 4-digit group, its first digit in the lowest byte,
    and the position of the group's last nonzero digit (-64 for 0000)."""
    ascii = np.arange(48, 58, dtype=np.uint64)
    pair = (ascii[:, None] | ascii << np.uint64(8)).ravel()
    tens, ones = np.ogrid[:10, :10]
    pair_last = np.where(ones > 0, 1, np.where(tens > 0, 0, -64)).astype(np.int8).ravel()
    high, low = np.ogrid[:100, :100]
    last = np.where(low > 0, pair_last[low] + 2, pair_last[high]).ravel()
    return (pair[:, None] | pair << np.uint64(16)).ravel(), last


def _layout_table() -> np.ndarray:
    """Ten words for each sign, last digit kept (0-16) and decimal exponent
    e (-4 ... 15), as a (10, 680) table: word 0 of the slot, then for each
    digit word the mask of digits that stay, the mask of digits that move
    up past the point, and the point."""
    neg, keep, e = (x[..., None] for x in np.ix_(np.arange(2), np.arange(17), np.arange(-4, 16)))
    byte = np.arange(24)
    digit = byte % 8 < 7
    p = byte // 8 * 7 + byte % 8  # the digit in each byte of words 1-3
    point = (e >= 0) & (e < keep)
    moved = point & digit & (p > e) & (p <= keep) & (byte // 8 == e // 7)
    stays = digit & (p <= keep) & ~moved
    dot = point & (byte == e // 7 * 8 + e % 7 + 1)
    # i indexes the prefix: '-' if negative, then "0." and -e - 1 zeros
    i = np.arange(8) - 8 + neg + np.where(e < 0, 1 - e, 0)
    prefix = np.select([i < 0, i < neg, i == neg + 1], [0, ord("-"), ord(".")], ord("0"))
    parts = (prefix, stays * 255, moved * 255, dot * ord("."))
    parts = [np.broadcast_to(x.astype(np.uint8), (2, 17, 20, x.shape[-1])) for x in parts]
    return np.concatenate(parts, -1).view(_WORD).reshape(-1, 10).T.copy()


_QUAD, _LAST_QUAD = _digit_tables()
# the same for 3-digit groups: a 4-digit group's last three digits
_TRIO = _QUAD[:1000] >> np.uint64(8)
_TRIO_HIGH = _TRIO << np.uint64(32)
_LAST_TRIO = np.maximum(_LAST_QUAD[:1000] - 1, -64)
_LAYOUT = _layout_table()


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


def _two_product(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi = fl(a * 10**(16 - e)) and lo, with hi + lo the exact product
    (Dekker's mul12)."""
    k = 16 - e
    c = a * _SPLITTER
    a_hi = c - (c - a)
    a_lo = a - a_hi
    s_hi, s_lo = _POW10_HI[k], _POW10_LO[k]
    hi = a * _POW10[k]
    lo = a_hi * s_hi
    lo -= hi
    lo += a_hi * s_lo
    lo += a_lo * s_hi
    lo += a_lo * s_lo
    return hi, lo


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Which |x| are in 1e-4 <= |x| < 1e16, and for those, the 17-digit
    integer d in [1e16, 1e17) and exponent e with |x| = d * 10**(e - 16)
    correctly rounded, ties to even."""
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    np.copyto(a, 1.0, where=~fast)
    # floor(log10 a) can be one off next to a power of ten; hi + lo shows it
    e = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _two_product(a, e)
    edge = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))
    if edge.size:
        h, l = hi[edge], lo[edge]
        up = (h > 1e17) | ((h == 1e17) & (l >= 0))
        down = (h < 1e16) | ((h == 1e16) & (l < 0))
        e[edge] += up.astype(np.intp) - down
        hi[edge], lo[edge] = _two_product(a[edge], e[edge])
    # hi >= 2**53 is an even integer, so this rounds the product half to even.
    # It never rounds up to 1e17: below each power of ten in the range, the
    # nearest double is more than 8e-17 of it away, not within 5e-18.
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    return fast, d, e


def _split(n: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    # n // k and n % k, in about two thirds of np.divmod's time
    q = n // k
    return q, n - q * k


def _digit_words(d: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The 17 digits of d as slot words 1-3 (digits 0-6, 7-13, 14-16), and
    the position of the last nonzero digit."""
    t, c = _split(d, 1000)
    q, m = _split(t, 10**7)
    qa, qb = _split(q, 1000)
    ma, mb = _split(m, 1000)
    last = np.maximum(_LAST_QUAD[qa], _LAST_TRIO[qb] + 4)
    for at, group, table in ((7, ma, _LAST_QUAD), (11, mb, _LAST_TRIO), (14, c, _LAST_TRIO)):
        np.maximum(last, table[group] + at, out=last)
    return [_QUAD[qa] | _TRIO_HIGH[qb], _QUAD[ma] | _TRIO_HIGH[mb], _TRIO[c]], last


def _float_words(x: np.ndarray) -> np.ndarray:
    """The (4, len(x)) slot words of '%.17g' % v for each v of x, without
    the separator."""
    fast, d, e = _decimal(x)
    digits, last = _digit_words(d)
    # trailing zeros go, but not those left of the point
    row = (np.signbit(x) * 17 + np.maximum(last, e)) * 20 + (e + 4)
    words = np.empty((4, len(x)), _WORD)
    _LAYOUT[0].take(row, out=words[0])
    for k, s in enumerate(digits, 1):
        moved = s & _LAYOUT[3 + k].take(row)
        moved <<= np.uint64(8)
        moved |= _LAYOUT[6 + k].take(row)
        s &= _LAYOUT[k].take(row)
        np.bitwise_or(s, moved, out=words[k])

    slow = np.flatnonzero(~fast)
    if slow.size:
        text = b"".join(("%.17g" % v).encode().ljust(24, b"\0") for v in x[slow].tolist())
        words[:3, slow] = np.frombuffer(text, _WORD).reshape(-1, 3).T
        words[3, slow] = 0
    return words


def trace_to_csv(trace: EvolutionTrace) -> str:
    parts = ["t,a,perimeter,regime,rho\n"]
    kinds = np.ascontiguousarray(trace.regime, "U7").view(np.uint32).reshape(-1, 7)
    columns = (trace.t, trace.a, trace.perimeter, trace.rho)
    for k in range(0, len(trace), _BLOCK):
        x = np.concatenate([c[k : k + _BLOCK] for c in columns], dtype=float)
        n = len(x) // 4
        words = _float_words(x).reshape(4, 4, n)
        words[3] |= _SEPARATORS[:, None]
        buf = bytearray(8 * 17 * n)
        row = np.frombuffer(buf, _WORD).reshape(n, 17)
        for col, at in enumerate((0, 4, 8, 13)):
            row[:, at : at + 4] = words[:, col].T
        regime = np.frombuffer(buf, np.uint8).reshape(n, 17, 8)[:, 12]
        regime[:, :7] = kinds[k : k + n]
        regime[:, 7] = ord(",")
        parts.append(buf.translate(None, b"\0").decode())
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
