"""Pixel-grid brute force for validating the exact geometry.

A grid is its row runs: the operations take runs in and give runs out,
and the bool mask is painted on first read.  `rasterize` walks the set's
sides in O(rows + vertices), with exact distances only within rounding
of a row's ends.  Dilation and erosion by r widen each row's runs by the
disk's half-width on every row offset; touching runs in consecutive rows
form pieces, and the work follows the pieces: a convex set is one, pixel
noise, a piece for every few cells, is the slow case.  The disk is the
union of about 0.59 r/h rectangles, one per corner of its half-widths,
and each costs three passes over the pieces' rows.  Accuracy is a
boundary band of width O(h), so agreement within a small multiple of
h * perimeter certifies the closed-form results independently.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import BadConfigError, require_finite
from .geometry import Point2, RoundedSet, _dot_rows, cycled


def __getattr__(name: str):
    # perfbench/run.py traces the former distance transform under this name;
    # the run-length disk pass never calls it, so it is imported on first lookup
    if name == "distance_transform_edt":
        from scipy.ndimage import distance_transform_edt

        return distance_transform_edt
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class RasterGrid:
    """A cell grid of pitch h whose cell [0, 0] is centred on origin, held
    as its row runs: `_lo` and `_hi` are the runs' first and past-the-last
    cells y * (nx + 1) + x, sorted and merged.  `occupancy`, a read-only
    bool mask [iy, ix], is painted from them on first read; a grid made
    from a 2-D array of 0s and 1s keeps a read-only bool copy of it.
    Erosions are memoized on the grid, so no field can be assigned."""

    def __init__(self, origin, h: float, occupancy):
        occ = np.asarray(occupancy)
        if occ.ndim != 2 or (occ.dtype != bool and not ((occ == 0) | (occ == 1)).all()):
            raise BadConfigError(
                f"occupancy must be a 2-D array of 0s and 1s, got {occ.ndim}-D {occ.dtype}"
            )
        occ = occ.astype(bool, order="C")
        occ.flags.writeable = False
        # edges alternate start, end within a row of nx + 1 slots
        at = np.flatnonzero(np.diff(occ, axis=1, prepend=False, append=False))
        vars(self).update(vars(_grid(origin, h, occ.shape, at[0::2], at[1::2])), occupancy=occ)

    def __setattr__(self, name, value):
        raise AttributeError(f"RasterGrid.{name} cannot be assigned")

    @cached_property
    def occupancy(self) -> np.ndarray:
        ny, nx = self.shape
        y = self._lo // (nx + 1)
        # the edges in the mask's flat order, where a run may end as the next row's begins
        edges = np.column_stack((self._lo - y, self._hi - y)).ravel()
        runs = np.diff(edges, prepend=0, append=ny * nx)
        occ = np.repeat(np.arange(len(runs)) % 2 == 1, runs).reshape(ny, nx)
        occ.flags.writeable = False
        return occ


def _grid(origin, h: float, shape: tuple[int, int], lo, hi) -> RasterGrid:
    """The grid of runs [lo, hi) (see RasterGrid); its mask is not painted."""
    grid = object.__new__(RasterGrid)
    x, y = origin
    # _erosions maps a radius to the eroded grid, which erode and opening share
    vars(grid).update(
        origin=Point2(float(x), float(y)), h=h, shape=shape, _lo=lo, _hi=hi, _erosions={}
    )
    return grid


def _union(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The union of nonempty intervals [lo, hi) as sorted maximal runs."""
    lo, hi = np.sort(lo), np.sort(hi)
    # the union starts anew where a start passes every earlier end
    gap = lo[1:] > hi[:-1]
    return np.concatenate((lo[:1], lo[1:][gap])), np.concatenate((hi[:-1][gap], hi[-1:]))


def _dist_to_kernel(px: np.ndarray, py: np.ndarray, kernel) -> np.ndarray:
    """Euclidean distance from grid points to a convex polygon (0 inside)."""
    v = kernel.vertices
    n = len(v)
    if not px.size:
        return np.zeros_like(px)
    if n == 1:
        return np.hypot(px - v[0, 0], py - v[0, 1])
    dist = np.full(px.shape, np.inf)
    inside = np.ones(px.shape, dtype=bool) if n >= 3 else np.zeros(px.shape, bool)
    for a, b in list(zip(v, cycled(v)))[: n if n >= 3 else 1]:
        ex, ey = b[0] - a[0], b[1] - a[1]
        qx, qy = px - a[0], py - a[1]
        t = np.clip((qx * ex + qy * ey) / (ex * ex + ey * ey), 0.0, 1.0)
        dist = np.minimum(dist, np.hypot(qx - t * ex, qy - t * ey))
        if n >= 3:
            inside &= ex * qy - ey * qx >= 0.0
    return np.where(inside, 0.0, dist)


def _right_ends(pts, nrm, rho, ys: np.ndarray, tol: float) -> np.ndarray:
    """Per row y, the right chord ends at radii rho = (outer, inner) about
    the kernels pts (NaN: none) of edge normals nrm, or -inf.  Piece 2j of
    the right chain, lowest vertex first, is vertex j's arc, 2j + 1 edge j.
    A row's piece comes from the outer bounds, off by under tol: a row
    within tol of one takes the whole outer row, and within tol plus the
    inner bounds' largest shift, no inner one."""
    right = nrm[:, 0] > 0.0
    # a point or level segment: one arc
    first = np.argmax(right & ~cycled(right, -1)) if right.any() else np.argmax(pts[0, :, 0])
    chain = (first + np.arange(np.count_nonzero(right) + 1)) % pts.shape[1]
    k, edge, p = len(chain) - 1, nrm[chain[:-1]], pts[:, chain]
    r, ny = np.array(rho)[:, None], np.concatenate(([-1], edge[:, 1], [1]))
    b = p[:, :, 1].repeat(2, axis=1) + r * ny.repeat(2)[1:-1]
    bound = np.maximum.accumulate(b[0])
    # column q + 1: piece q's arc centre or edge offset and normal; bounds
    t = np.full((8, 2 * k + 3), np.nan)
    t[0:2, 1::2], t[2:4, 1::2], t[4:6, 2:-1:2] = p[:, :, 0], p[:, :, 1], edge.T
    t[0:2, 2:-1:2] = edge[:, 0] * p[:, :-1, 0] + edge[:, 1] * p[:, :-1, 1] + r
    t[6], t[7] = np.concatenate(([-np.inf], bound)), np.concatenate((bound, [np.inf]))
    g = np.take(t, np.searchsorted(bound, ys, side="right"), axis=1)
    dy = ys - g[2:4]
    end = np.fmax(g[0:2] + np.sqrt(r - dy) * np.sqrt(r + dy), (g[0:2] - g[5] * ys) / g[4])
    tol = np.array([[tol], [tol + np.abs(b[1] - b[0]).max()]])
    near = (ys - g[6] < tol) | (g[7] - ys <= tol)
    return np.where(near, [[np.inf], [-np.inf]], np.fmax(end, -np.inf))


def rasterize(s: RoundedSet, h: float) -> RasterGrid:
    """The cells of pitch h, with a 2h margin, whose centres lie within the
    radius r of s's kernel.  A row's cells between its chords at r + m and
    r - m get their centre's distance.  M = |x0| + |y0| + |x1| + |y1| bounds
    every coordinate, and m = 64 eps M tops a distance's rounding, 16 eps M,
    plus a chord end's with its cell's, 12 eps M.  Inside tests pass points
    6 eps M |w| from the kernel at a vertex of velocity w, so the outer chord
    is at r + m max |w|; for r < m the inner one is the kernel eroded by
    m - r, none if an edge collapses.  The grid's area is within a small
    multiple of h * perimeter of the set's only when h exceeds the rounding
    step of the coordinates: below it the centres x0 + h * ix round onto
    fewer distinct values, and each cell is still marked by its own."""
    require_finite("cell size", h, 0.0, strict=True)
    if s.is_empty:
        return RasterGrid(Point2(0.0, 0.0), h, np.zeros((0, 0), dtype=bool))
    v, nrm, radius = s.kernel.vertices, s.kernel.edge_normals(), s.radius
    margin = radius + 2.5 * h
    x0, y0 = v[:, 0].min() - margin, v[:, 1].min() - margin
    x1, y1 = v[:, 0].max() + margin, v[:, 1].max() + margin
    nx = int(math.ceil((x1 - x0) / h)) + 1
    ny = int(math.ceil((y1 - y0) / h)) + 1
    m = 64 * np.finfo(float).eps * (abs(x0) + abs(y0) + abs(x1) + abs(y1))
    ys = y0 + h * np.arange(ny)
    grow, inner, w = 1.0, v, v * np.nan
    # turns of nearly pi and nearly level lines overflow
    with np.errstate(all="ignore"):
        if len(v) >= 3:
            prev = cycled(nrm, -1)
            w = (prev + nrm) / (1.0 + _dot_rows(prev, nrm))[:, None]
            grow = np.sqrt(_dot_rows(w, w).max())
        if radius < m:
            inner = v + (radius - m) * w
            if not (_dot_rows(cycled(inner) - inner, cycled(v) - v) > 0).all():
                inner = v * np.nan
        # no distance in the grid exceeds its width plus height
        rho = (radius + np.fmin(m * grow, x1 - x0 + y1 - y0), max(radius - m, 0.0))
        pts = np.stack((v, inner))
        hi = _right_ends(pts, nrm, rho, ys, m / 8)
        # the left chain is the right chain of the mirrored kernels
        lo = -_right_ends(pts[:, ::-1] * [-1, 1], cycled(nrm[::-1]) * [-1, 1], rho, ys, m / 8)
        out0, in0 = np.clip(np.ceil((lo - x0) / h), 0, nx).astype(np.intp)
        out1, in1 = np.clip(np.floor((hi - x0) / h) + 1.0, 0, nx).astype(np.intp)
    full = in0 < in1
    in0[~full] = in1[~full] = out1[~full]
    # the cells between the chords: [out0, in0) and [in1, out1) on each row
    start = np.concatenate((out0, in1))
    count = np.maximum(np.concatenate((in0 - out0, out1 - in1)), 0)
    row = np.repeat(np.tile(np.arange(ny), 2), count)
    ix = np.arange(len(row)) - np.repeat(np.cumsum(count) - count - start, count)
    hit = _dist_to_kernel(x0 + h * ix, y0 + h * row, s.kernel) <= radius
    cell = row[hit] * (nx + 1) + ix[hit]
    base = np.flatnonzero(full) * (nx + 1)
    lo = np.concatenate((base + in0[full], cell))
    lo, hi = _union(lo, np.concatenate((base + in1[full], cell + 1)))
    return _grid(Point2(x0, y0), h, (ny, nx), lo, hi)


def _half_widths(r: float, h: float, strict: bool, shape: tuple[int, int]) -> np.ndarray:
    """W[dy] for dy = 0, 1, ...: the largest dx with sqrt((dy h)^2 + (dx h)^2)
    at most r (below r if strict), evaluated as the float expression of
    scipy's distance transform, so that the masks are the thresholded
    transform's bit for bit.  The expression grows with |dx| and |dy|, so
    every row offset keeps one interval, W does not increase with |dy|,
    and the offsets stop at the first row with none, or at the grid's
    height, which no two of its cells are apart."""
    rows, cols = shape
    if r > h * (rows + cols):
        # every two cells of the grid are nearer than r
        return np.full(rows, cols, dtype=np.intp)

    def inside(dy, dx):
        d = np.sqrt((dy * h) ** 2 + (dx * h) ** 2)
        return d < r if strict else d <= r

    dy = np.arange(min(int(r / h) + 3, rows), dtype=float)
    w = np.floor(np.sqrt(np.maximum((r / h) ** 2 - dy**2, 0.0)))
    # the estimate is off by at most a rounding step; settle it exactly
    while (up := inside(dy, w + 1.0)).any():
        w += up
    while (down := (w >= 0.0) & ~inside(dy, w)).any():
        w -= down
    return w[: np.count_nonzero(w >= 0.0)].astype(np.intp)


def _cover(grid: RasterGrid, w: np.ndarray) -> RasterGrid:
    """The cells (y, x) of grid's frame with an occupied cell at (y + dy,
    x + dx), |dx| <= w[|dy|], for |dy| <= K = len(w) - 1.

    In the order of (index of the run within its row, row), a run continues
    the previous run's piece when it lies in the next row and the two touch
    as 8-neighbours (any chain of touching runs in consecutive rows is a
    piece).  Widened by half-widths >= 0 they still meet, so on every target
    row a piece's widened runs form one interval, [min(start - w[|dy|]),
    max(end + w[|dy|])), taken on a buffer where each piece is followed by
    2K empty slots; a slot holds a start and a negated end, and one
    np.minimum serves both.  As w does not increase with |dy|, the disk is
    the union of the rectangles |dy| <= e, |dx| <= w[e] at its corners, each
    e with w[e + 1] < w[e] and e = K: a slot's envelope is the least, over
    the corners, of its window of 2e + 1 slots less w[e], two reads of a
    table of least values over 2^l slots, doubled in place as e grows.
    The table and envelopes hold values in [-(nx + w[0]), max], so they
    take int32 lanes when nx + w[0] fits in them and intp otherwise.
    """
    ny, nx = grid.shape
    lane = np.int32 if nx + int(w[0]) <= 2**31 else np.intp
    w = w.astype(lane)
    k = len(w) - 1
    y, start = np.divmod(grid._lo, nx + 1)
    end = grid._hi - y * (nx + 1)
    # the runs come by row, so a stable sort by index keeps each index's rows in order
    order = np.argsort(np.arange(len(y)) - np.searchsorted(y, y), kind="stable")
    y, start, end = y[order], start[order], end[order]
    new = np.ones(len(y), dtype=bool)
    new[1:] = ~((y[1:] == y[:-1] + 1) & (start[1:] <= end[:-1]) & (start[:-1] <= end[1:]))
    # piece p's slots start at base[p] = first[p] + 2K p with its first run,
    # and slot base[p] + j is row y[first[p]] - K + j
    first = np.flatnonzero(new)
    base = first + 2 * k * np.arange(len(first))
    size = len(y) + 2 * k * len(first)
    row = np.arange(size) + np.repeat(y[first] - k - base, np.diff(base, append=size))
    # every slot has a run within K rows, so the empty slots' value never
    # wins; slot s of the buffer is src slot 2K + s, after 2K empty slots
    src = np.full((2 * k + size, 2), np.iinfo(lane).max, dtype=lane)
    slot = 2 * k + np.arange(len(y)) + 2 * k * (np.cumsum(new) - 1)
    src[slot] = np.column_stack((start, -end))
    # t becomes the table: t slot i holds the least src slot i ... i + span - 1
    t, span = src.ravel(), 1
    env, part = np.full(2 * size, np.iinfo(lane).max, lane), np.empty(2 * size, lane)
    for e in np.flatnonzero(np.diff(w, append=-1) < 0).tolist():
        # slot s's window, src slots s + K - e ... s + K + e, is two spans
        while 2 * span <= 2 * e + 1:
            np.minimum(t[: -2 * span], t[2 * span :], out=t[: -2 * span])
            span *= 2
        a, b = 2 * (k - e), 2 * (k + e + 1 - span)
        np.minimum(t[a : a + 2 * size], t[b : b + 2 * size], out=part)
        part -= w[e]
        np.minimum(env, part, out=env)
    del src, t, part  # free the table: the merge below reads env alone
    keep = (row >= 0) & (row < ny)
    # each interval holds its piece's cells on a source row, so it is not empty
    cell0 = row[keep] * (nx + 1)
    lo = cell0 + np.maximum(env[0::2][keep], 0)
    lo, hi = _union(lo, cell0 - np.maximum(env[1::2][keep], -nx))
    return _grid(grid.origin, grid.h, grid.shape, lo, hi)


def _complement(grid: RasterGrid) -> RasterGrid:
    """The empty cells of grid, as runs of the same frame."""
    ny, nx = grid.shape
    rows = np.arange(ny) * (nx + 1)
    # each row reads row start, its runs' edges, row end: the gaps pair up
    edges = np.sort(np.concatenate((rows, grid._lo, grid._hi, rows + nx)))
    lo, hi = edges[0::2], edges[1::2]
    gap = lo < hi
    return _grid(grid.origin, grid.h, grid.shape, lo[gap], hi[gap])


def _padded(grid: RasterGrid, d: int, origin: Point2) -> RasterGrid:
    """grid's runs in its frame grown by d cells on every side (cut for
    d < 0) at the given origin; the runs must stay inside the frame."""
    ny, nx = grid.shape
    shift = grid._lo // (nx + 1) * 2 * d + d * (nx + 2 * d + 2)
    return _grid(origin, grid.h, (ny + 2 * d, nx + 2 * d), grid._lo + shift, grid._hi + shift)


def raster_dilate(grid: RasterGrid, r: float) -> RasterGrid:
    """Mark every cell within distance r of an occupied cell."""
    require_finite("dilation radius", r, 0.0)
    if not len(grid._lo):  # also a grid without cells
        return grid
    cells = int(math.ceil(r / grid.h)) + 2
    x, y = grid.origin
    padded = _padded(grid, cells, Point2(x - cells * grid.h, y - cells * grid.h))
    return _cover(padded, _half_widths(r, grid.h, False, padded.shape))


def raster_erode(grid: RasterGrid, r: float) -> RasterGrid:
    """Keep occupied cells at distance at least r from every empty cell,
    counting the cells beyond the grid's edge as empty.

    The eroded grid is memoized per radius on the grid, so an erosion and
    an opening by the same r share one pass.
    """
    require_finite("erosion radius", r, 0.0)
    if not len(grid._lo) or r == 0.0:  # no cell is nearer than 0 to another
        return grid
    eroded = grid._erosions.get(r)
    if eroded is None:
        # one empty cell around the grid is as near as any beyond its edge
        x, y = grid.origin
        empty = _complement(_padded(grid, 1, Point2(x - grid.h, y - grid.h)))
        near = _cover(empty, _half_widths(r, grid.h, True, empty.shape))
        # near holds every padding cell, so what it leaves lies in the grid
        eroded = grid._erosions[r] = _padded(_complement(near), -1, grid.origin)
    return eroded


def raster_opening(grid: RasterGrid, rho: float) -> RasterGrid:
    require_finite("opening radius", rho, 0.0, strict=True)
    return raster_dilate(raster_erode(grid, rho), rho)


def raster_area(grid: RasterGrid) -> float:
    return float((grid._hi - grid._lo).sum()) * grid.h * grid.h
