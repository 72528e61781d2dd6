"""Pixel-grid brute force for validating the exact geometry.

Sets become boolean occupancy masks.  Dilation and erosion by r mark the
cells within Euclidean distance r of an occupied (or empty) cell, by
widening each row's runs of cells by the disk's half-width on every row
offset; no distance transform is computed.  Runs in consecutive rows
that touch are chained into pieces, and a piece's widened runs cover one
interval on each row, so the work follows the pieces, not the cells: a
convex set is one piece and its erosion's padded complement two, while
pixel noise, a piece for every few cells, is the slow case.  Accuracy is
a boundary band of width O(h), so agreement within a small multiple of
h * perimeter certifies the closed-form results independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadConfigError, require_finite
from .geometry import Point2, RoundedSet

# rasterize decides whole BLOCK x BLOCK tiles of cells from one distance at
# the tile centre, and evaluates cells one by one only in tiles near the boundary
BLOCK = 8


def __getattr__(name: str):
    # perfbench/run.py traces the former distance transform under this name;
    # the run-length disk pass never calls it, so it is imported on first lookup
    if name == "distance_transform_edt":
        from scipy.ndimage import distance_transform_edt

        return distance_transform_edt
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class RasterGrid:
    """A cell grid.  It keeps a read-only bool copy of any 2-D array of 0s
    and 1s as its occupancy, since erosions are memoized on the grid."""

    origin: Point2  # center of cell [0, 0]
    h: float
    occupancy: np.ndarray  # bool, indexed [iy, ix]

    def __post_init__(self):
        x, y = self.origin
        object.__setattr__(self, "origin", Point2(float(x), float(y)))
        occ = np.asarray(self.occupancy)
        if occ.ndim != 2 or (occ.dtype != bool and not ((occ == 0) | (occ == 1)).all()):
            raise BadConfigError(
                f"occupancy must be a 2-D array of 0s and 1s, got {occ.ndim}-D {occ.dtype}"
            )
        occ = occ.astype(bool, order="C")
        occ.flags.writeable = False
        object.__setattr__(self, "occupancy", occ)

    @property
    def shape(self) -> tuple[int, int]:
        return self.occupancy.shape

    @cached_property
    def _erosions(self) -> dict[float, RasterGrid]:
        # radius -> eroded grid, shared by erode and opening
        return {}


def _dist_to_kernel(px: np.ndarray, py: np.ndarray, kernel) -> np.ndarray:
    """Euclidean distance from grid points to a convex polygon (0 inside)."""
    v = kernel.vertices
    n = len(v)
    if n == 1:
        return np.hypot(px - v[0, 0], py - v[0, 1])
    dist = np.full(px.shape, np.inf)
    inside = np.ones(px.shape, dtype=bool) if n >= 3 else np.zeros(px.shape, bool)
    for i in range(n if n >= 3 else n - 1):
        a = v[i]
        b = v[(i + 1) % n]
        ex, ey = b[0] - a[0], b[1] - a[1]
        qx, qy = px - a[0], py - a[1]
        t = np.clip((qx * ex + qy * ey) / (ex * ex + ey * ey), 0.0, 1.0)
        dist = np.minimum(dist, np.hypot(qx - t * ex, qy - t * ey))
        if n >= 3:
            inside &= ex * qy - ey * qx >= 0.0
    return np.where(inside, 0.0, dist)


def rasterize(s: RoundedSet, h: float) -> RasterGrid:
    """Occupancy mask of s on a cell grid of pitch h with a 2h margin.

    The distance to a convex set is 1-Lipschitz, so a tile whose centre
    lies deeper than `reach` inside or outside the set is decided whole;
    `reach` is the tile's half-diagonal plus one cell and a rounding term
    for the coordinates' magnitude.  Every other cell gets the distance
    from its own centre, so the mask equals the cell-by-cell one.
    """
    require_finite("cell size", h, 0.0, strict=True)
    if s.is_empty:
        return RasterGrid(Point2(0.0, 0.0), h, np.zeros((0, 0), dtype=bool))
    v = s.kernel.vertices
    margin = s.radius + 2.5 * h
    x0, y0 = v[:, 0].min() - margin, v[:, 1].min() - margin
    x1, y1 = v[:, 0].max() + margin, v[:, 1].max() + margin
    nx = int(math.ceil((x1 - x0) / h)) + 1
    ny = int(math.ceil((y1 - y0) / h)) + 1
    bx, by = -(-nx // BLOCK), -(-ny // BLOCK)
    # cell centres over whole tiles (the first nx and ny are the grid's)
    xs = (x0 + h * np.arange(bx * BLOCK)).reshape(bx, BLOCK)
    ys = (y0 + h * np.arange(by * BLOCK)).reshape(by, BLOCK)
    mid = (BLOCK - 1) / 2
    cx, cy = np.meshgrid(
        x0 + h * (BLOCK * np.arange(bx) + mid), y0 + h * (BLOCK * np.arange(by) + mid)
    )
    dc = _dist_to_kernel(cx, cy, s.kernel)
    reach = (
        h * (BLOCK - 1) / math.sqrt(2) + h
        + 64 * np.finfo(float).eps * (abs(x0) + abs(y0) + abs(x1) + abs(y1))
    )
    tiles = np.zeros((by, bx, BLOCK, BLOCK), dtype=bool)
    tiles[dc + reach < s.radius] = True
    iy, ix = np.nonzero((dc + reach >= s.radius) & (dc - reach <= s.radius))
    px, py = np.broadcast_arrays(xs[ix][:, None, :], ys[iy][:, :, None])
    tiles[iy, ix] = _dist_to_kernel(px, py, s.kernel) <= s.radius
    occ = tiles.transpose(0, 2, 1, 3).reshape(by * BLOCK, bx * BLOCK)[:ny, :nx]
    return RasterGrid(Point2(x0, y0), h, occ)


def _half_widths(r: float, h: float, strict: bool, shape: tuple[int, int]) -> np.ndarray:
    """W[dy] for dy = 0, 1, ...: the largest dx with sqrt((dy h)^2 + (dx h)^2)
    at most r (below r if strict), evaluated as the float expression of
    scipy's distance transform, so that the masks are the thresholded
    transform's bit for bit.  The expression grows with |dx| and |dy|, so
    every row offset keeps one interval and the offsets stop at the first
    row with none, or at the grid's height, which no two of its cells are
    apart."""
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


def _cover(mask: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Cells (y, x) with a True cell of mask at (y + dy, x + dx), |dx| <=
    w[|dy|], for |dy| <= K = len(w) - 1.

    Each row's runs [start, end) are chained into pieces.  In the order of
    (index of the run within its row, row), a run continues the previous
    run's piece when it lies in the next row and the two touch as
    8-neighbours: start <= prev_end and prev_start <= end.  (The index
    only brings one shape's runs together; any chain of touching runs in
    consecutive rows is a piece.)  Touching runs widened by half-widths
    >= 0 still meet, so on every target row a piece's widened runs form
    one interval, [min(start - w[|dy|]), max(end + w[|dy|])).  One loop
    over the 2K + 1 row offsets takes these envelopes on a buffer where
    each piece is followed by 2K empty slots, so no two pieces share a
    slot; a slot holds a start and a negated end, and one np.minimum per
    offset serves both.  The pieces' intervals are merged and painted one
    byte per cell.

    The cost is (2K + 1)(R + 2K P) slot steps for R runs in P pieces, a
    sort of the intervals and one byte per cell.  A rasterized convex set
    and its dilation are one piece, an eroded grid's padded complement
    two.  Pixel noise, thousands of pieces of a few runs each, pays the 2K
    padding slots for every piece: 200 x 200 to 300 x 300 noise masks run
    5 to 13 times slower than a difference array over the grid would.  No
    caller makes such masks.
    """
    ny, nx = mask.shape
    k = len(w) - 1
    if k < 0:  # a strict radius of 0 reaches no cell
        return np.zeros_like(mask)
    # edges alternate start, end within a row: runs are [start, end)
    at = np.flatnonzero(np.diff(mask, axis=1, prepend=False, append=False))
    y, start = np.divmod(at[0::2], nx + 1)
    end = at[1::2] - y * (nx + 1)
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
    # every slot has a run within K rows, so the empty slots' value never wins
    src = np.full((size, 2), np.iinfo(np.intp).max, dtype=np.intp)
    src[np.arange(len(y)) + 2 * k * (np.cumsum(new) - 1)] = np.column_stack((start, -end))
    src = src.ravel()
    env = src - w[k]
    for d in range(1, 2 * k + 1):
        np.minimum(env[2 * d :], src[: 2 * (size - d)] - w[abs(d - k)], out=env[2 * d :])
    keep = (row >= 0) & (row < ny)
    cell0 = row[keep] * nx
    lo = np.sort(cell0 + np.maximum(env[0::2][keep], 0))
    hi = np.sort(cell0 - np.maximum(env[1::2][keep], -nx))
    # the union starts anew where a start passes every earlier end
    gap = lo[1:] > hi[:-1]
    edges = np.column_stack(
        (np.concatenate((lo[:1], lo[1:][gap])), np.concatenate((hi[:-1][gap], hi[-1:])))
    )
    runs = np.diff(edges.ravel(), prepend=0, append=mask.size)
    return np.repeat(np.arange(len(runs)) % 2 == 1, runs).reshape(ny, nx)


def raster_dilate(grid: RasterGrid, r: float) -> RasterGrid:
    """Mark every cell within distance r of an occupied cell."""
    require_finite("dilation radius", r, 0.0)
    if not grid.occupancy.any():  # also a grid without cells
        return grid
    cells = int(math.ceil(r / grid.h)) + 2
    occ = np.pad(grid.occupancy, cells)
    mask = _cover(occ, _half_widths(r, grid.h, False, occ.shape))
    x, y = grid.origin
    return RasterGrid(Point2(x - cells * grid.h, y - cells * grid.h), grid.h, mask)


def raster_erode(grid: RasterGrid, r: float) -> RasterGrid:
    """Keep occupied cells at distance at least r from every empty cell,
    counting the cells beyond the grid's edge as empty.

    The eroded grid is memoized per radius on the grid, so an erosion and
    an opening by the same r share one pass.
    """
    require_finite("erosion radius", r, 0.0)
    if not grid.occupancy.any():  # also a grid without cells
        return grid
    eroded = grid._erosions.get(r)
    if eroded is None:
        # one empty cell around the grid is as near as any beyond its edge
        empty = np.pad(~grid.occupancy, 1, constant_values=True)
        near = _cover(empty, _half_widths(r, grid.h, True, empty.shape))[1:-1, 1:-1]
        eroded = grid._erosions[r] = RasterGrid(grid.origin, grid.h, grid.occupancy & ~near)
    return eroded


def raster_opening(grid: RasterGrid, rho: float) -> RasterGrid:
    require_finite("opening radius", rho, 0.0, strict=True)
    return raster_dilate(raster_erode(grid, rho), rho)


def raster_area(grid: RasterGrid) -> float:
    return float(grid.occupancy.sum()) * grid.h * grid.h
