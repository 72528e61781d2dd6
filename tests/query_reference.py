"""Reference for morphology.ErosionProfile.query: the one-step answer with
its opening piece found by a Python bisection over the piece table, which
evaluates each probed piece's start area where it probes it.

The functions take a built profile, so the library's answers can be
compared with these bit for bit.
"""

from __future__ import annotations

import math

from shrinkset.errors import AreaExceedsDomainError, NonpositiveAreaError, require_finite
from shrinkset.morphology import _AREA_REL_TOL, BALL, OPENING, STADIUM, ErosionProfile


def opening_depth(prof: ErosionProfile, c: float, a: float) -> tuple[float, float]:
    """Erosion depth d with area(opening at rho=c+d) == a, and that area's
    perimeter.  Valid for area_hat <= a <= area_full."""
    pieces = prof.pieces
    if not pieces:
        # degenerate kernel: opening is the whole set at every depth
        return 0.0, prof.perim0 + 2.0 * math.pi * c
    # the opening area falls with depth: bisect for the first piece whose
    # end, the next piece's start, has an area of at most a (or the last),
    # keeping f0, the area where it starts (the whole set's for the first)
    lo, hi, f0 = 0, len(pieces) - 1, prof.area_full(c)
    while lo < hi:
        p = (lo + hi) // 2
        d0, _, area0, perim0, _ = pieces[p + 1]
        b = c + d0
        f = area0 + b * perim0 + math.pi * b * b
        if a >= f:
            hi = p
        else:
            lo, f0 = p + 1, f
    d0, d1, _, perim0, tan_sum = pieces[lo]
    t = tan_sum - math.pi  # > 0: opening area strictly decreases
    b = c + d0
    x = -b + math.sqrt(max(b * b + (f0 - a) / t, 0.0))
    x = min(max(x, 0.0), d1 - d0)
    d = d0 + x
    perim = perim0 - 2.0 * tan_sum * x + 2.0 * math.pi * (c + d)
    return d, perim


def query(prof: ErosionProfile, c: float, a: float) -> tuple[float, str, float, float]:
    """(perimeter, regime, rho, straight length) of the least-perimeter
    subset with area a of the kernel rounded by c."""
    a_full = prof.area_full(c)
    tol = _AREA_REL_TOL * a_full
    if not a > 0.0:
        require_finite("target area", a)
        raise NonpositiveAreaError(f"target area {a} is not positive")
    if a > a_full + tol:
        require_finite("target area", a)
        raise AreaExceedsDomainError(f"target area {a} exceeds domain area {a_full}")
    rbar = prof.rbar(c)
    a_ball = math.pi * rbar * rbar
    if a >= a_full - tol:
        regime = OPENING if prof.pieces or prof.locus_len > 0.0 else BALL
        return prof.perim0 + 2.0 * math.pi * c, regime, c, 0.0
    if a >= prof.area_hat(c) - tol:
        d, perim = opening_depth(prof, c, a)
        return perim, OPENING, c + d, 0.0
    if a >= a_ball - tol and prof.locus_len > 0.0:
        length = max((a - a_ball) / (2.0 * rbar), 0.0)
        return 2.0 * length + 2.0 * math.pi * rbar, STADIUM, rbar, length
    r = math.sqrt(a / math.pi)
    return 2.0 * math.sqrt(math.pi * a), BALL, r, 0.0
