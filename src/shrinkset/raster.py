"""Pixel-grid brute force for validating the exact geometry.

Sets become boolean occupancy masks; dilation and erosion become
thresholded exact Euclidean distance transforms.  Accuracy is a boundary
band of width O(h), so agreement within a small multiple of
h * perimeter certifies the closed-form results independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.ndimage import distance_transform_edt

from .geometry import Point2, RoundedSet

# rasterize decides whole BLOCK x BLOCK tiles of cells from one distance at
# the tile centre, and evaluates cells one by one only in tiles near the boundary
BLOCK = 8


@dataclass(frozen=True)
class RasterGrid:
    """A cell grid; occupancy is never mutated after construction, since
    erosion masks are memoized on the grid."""

    origin: Point2  # center of cell [0, 0]
    h: float
    occupancy: np.ndarray  # bool, indexed [iy, ix]

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


def _pad(grid: RasterGrid, cells: int) -> RasterGrid:
    occ = np.pad(grid.occupancy, cells)
    origin = Point2(
        grid.origin.x - cells * grid.h, grid.origin.y - cells * grid.h
    )
    return RasterGrid(origin, grid.h, occ)


def raster_dilate(grid: RasterGrid, r: float) -> RasterGrid:
    """Mark every cell within distance r of an occupied cell."""
    if not (r >= 0.0 and math.isfinite(r)):
        raise ValueError("dilation radius must be finite and nonnegative")
    if grid.occupancy.size == 0 or not grid.occupancy.any():
        return grid
    g = _pad(grid, int(math.ceil(r / grid.h)) + 2)
    dist = distance_transform_edt(~g.occupancy, sampling=g.h)
    return RasterGrid(g.origin, g.h, dist <= r)


def raster_erode(grid: RasterGrid, r: float) -> RasterGrid:
    """Keep occupied cells at depth at least r.

    The mask is read-only and memoized per radius on the grid, so an
    erosion and an opening by the same r share one distance transform.
    """
    if not (r >= 0.0 and math.isfinite(r)):
        raise ValueError("erosion radius must be finite and nonnegative")
    if grid.occupancy.size == 0 or not grid.occupancy.any():
        return grid
    mask = grid._erosions.get(r)
    if mask is None:
        depth = distance_transform_edt(grid.occupancy, sampling=grid.h)
        mask = grid.occupancy & (depth >= r)
        mask.flags.writeable = False
        grid._erosions[r] = mask
    return RasterGrid(grid.origin, grid.h, mask)


def raster_opening(grid: RasterGrid, rho: float) -> RasterGrid:
    if not rho > 0:
        raise ValueError("opening radius must be positive")
    return raster_dilate(raster_erode(grid, rho), rho)


def raster_area(grid: RasterGrid) -> float:
    return float(grid.occupancy.sum()) * grid.h * grid.h
