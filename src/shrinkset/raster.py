"""Pixel-grid brute force for validating the exact geometry.

Sets become boolean occupancy masks.  Dilation and erosion by r mark the
cells within Euclidean distance r of an occupied (or empty) cell, by
widening each row's runs of cells by the disk's half-width on every row
offset; no distance transform is computed.  Accuracy is a boundary band
of width O(h), so agreement within a small multiple of h * perimeter
certifies the closed-form results independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
    """A cell grid; occupancy is never mutated after construction, since
    erosion masks are memoized on the grid."""

    origin: Point2  # center of cell [0, 0]
    h: float
    occupancy: np.ndarray  # bool, indexed [iy, ix]

    def __post_init__(self):
        x, y = self.origin
        object.__setattr__(self, "origin", Point2(float(x), float(y)))

    @property
    def shape(self) -> tuple[int, int]:
        return self.occupancy.shape

    @cached_property
    def _erosions(self) -> dict[float, np.ndarray]:
        # radius -> read-only erosion mask, shared by erode and opening
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
    if not (h > 0 and math.isfinite(h)):
        raise ValueError("cell size must be finite and positive")
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
    return RasterGrid(Point2(x0, y0), h, np.ascontiguousarray(occ))


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
    w[|dy|]: each row's runs, widened on every row offset, painted into a
    difference array with +1 at each start and -1 past each end, then
    summed.  A run never leaves its row, so one running sum over the
    flattened rows serves them all."""
    ny, nx = mask.shape
    # edges alternate start, end within a row: runs are [start, end)
    at = np.flatnonzero(np.diff(mask, axis=1, prepend=False, append=False))
    y, start = np.divmod(at[0::2], nx + 1)
    end = at[1::2] - y * (nx + 1)
    dy = np.arange(1 - len(w), len(w))
    reach = w[np.abs(dy)]
    # rows beyond the grid paint the spare rows -1 and ny, dropped below
    row = (np.clip(y[:, None] + dy, -1, ny) + 1) * (nx + 1)
    size = (ny + 2) * (nx + 1)
    lo = row + np.maximum(start[:, None] - reach, 0)
    hi = row + np.minimum(end[:, None] + reach, nx)
    paint = np.bincount(lo.ravel(), minlength=size)
    paint -= np.bincount(hi.ravel(), minlength=size)
    np.cumsum(paint, out=paint)
    return paint.reshape(ny + 2, nx + 1)[1:-1, :nx] > 0


def raster_dilate(grid: RasterGrid, r: float) -> RasterGrid:
    """Mark every cell within distance r of an occupied cell."""
    if not (r >= 0.0 and math.isfinite(r)):
        raise ValueError("dilation radius must be finite and nonnegative")
    if grid.occupancy.size == 0 or not grid.occupancy.any():
        return grid
    cells = int(math.ceil(r / grid.h)) + 2
    occ = np.pad(grid.occupancy, cells)
    mask = _cover(occ, _half_widths(r, grid.h, False, occ.shape))
    x, y = grid.origin
    return RasterGrid(Point2(x - cells * grid.h, y - cells * grid.h), grid.h, mask)


def raster_erode(grid: RasterGrid, r: float) -> RasterGrid:
    """Keep occupied cells at distance at least r from every empty cell,
    counting the cells beyond the grid's edge as empty.

    The mask is read-only and memoized per radius on the grid, so an
    erosion and an opening by the same r share one pass.
    """
    if not (r >= 0.0 and math.isfinite(r)):
        raise ValueError("erosion radius must be finite and nonnegative")
    if grid.occupancy.size == 0 or not grid.occupancy.any():
        return grid
    mask = grid._erosions.get(r)
    if mask is None:
        # one empty cell around the grid is as near as any beyond its edge
        empty = np.pad(~grid.occupancy, 1, constant_values=True)
        near = _cover(empty, _half_widths(r, grid.h, True, empty.shape))[1:-1, 1:-1]
        mask = grid.occupancy & ~near
        mask.flags.writeable = False
        grid._erosions[r] = mask
    return RasterGrid(grid.origin, grid.h, mask)


def raster_opening(grid: RasterGrid, rho: float) -> RasterGrid:
    if not rho > 0:
        raise ValueError("opening radius must be positive")
    return raster_dilate(raster_erode(grid, rho), rho)


def raster_area(grid: RasterGrid) -> float:
    return float(grid.occupancy.sum()) * grid.h * grid.h
