"""Pixel-grid brute force for validating the exact geometry.

Sets become boolean occupancy masks; dilation and erosion become
thresholded exact Euclidean distance transforms.  Accuracy is a boundary
band of width O(h), so agreement within a small multiple of
h * perimeter certifies the closed-form results independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import distance_transform_edt

from .geometry import Point2, RoundedSet


@dataclass(frozen=True)
class RasterGrid:
    origin: Point2  # center of cell [0, 0]
    h: float
    occupancy: np.ndarray  # bool, indexed [iy, ix]

    @property
    def shape(self) -> tuple[int, int]:
        return self.occupancy.shape


def _cell_centers(grid: RasterGrid) -> tuple[np.ndarray, np.ndarray]:
    ny, nx = grid.occupancy.shape
    xs = grid.origin.x + grid.h * np.arange(nx)
    ys = grid.origin.y + grid.h * np.arange(ny)
    return np.meshgrid(xs, ys)


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
    """Occupancy mask of s on a cell grid of pitch h with a 2h margin."""
    if h <= 0:
        raise ValueError("cell size must be positive")
    if s.is_empty:
        return RasterGrid(Point2(0.0, 0.0), h, np.zeros((0, 0), dtype=bool))
    v = s.kernel.vertices
    margin = s.radius + 2.5 * h
    x0, y0 = v[:, 0].min() - margin, v[:, 1].min() - margin
    x1, y1 = v[:, 0].max() + margin, v[:, 1].max() + margin
    nx = int(math.ceil((x1 - x0) / h)) + 1
    ny = int(math.ceil((y1 - y0) / h)) + 1
    grid = RasterGrid(Point2(x0, y0), h, np.zeros((ny, nx), dtype=bool))
    px, py = _cell_centers(grid)
    occ = _dist_to_kernel(px, py, s.kernel) <= s.radius
    return RasterGrid(grid.origin, h, occ)


def _pad(grid: RasterGrid, cells: int) -> RasterGrid:
    occ = np.pad(grid.occupancy, cells)
    origin = Point2(
        grid.origin.x - cells * grid.h, grid.origin.y - cells * grid.h
    )
    return RasterGrid(origin, grid.h, occ)


def raster_dilate(grid: RasterGrid, r: float) -> RasterGrid:
    """Mark every cell within distance r of an occupied cell."""
    if grid.occupancy.size == 0 or not grid.occupancy.any():
        return grid
    g = _pad(grid, int(math.ceil(r / grid.h)) + 2)
    dist = distance_transform_edt(~g.occupancy, sampling=g.h)
    return RasterGrid(g.origin, g.h, dist <= r)


def raster_erode(grid: RasterGrid, r: float) -> RasterGrid:
    """Keep cells at depth at least r inside the occupied region."""
    if grid.occupancy.size == 0 or not grid.occupancy.any():
        return grid
    dist = distance_transform_edt(grid.occupancy, sampling=grid.h)
    return RasterGrid(grid.origin, grid.h, dist >= r)


def raster_opening(grid: RasterGrid, rho: float) -> RasterGrid:
    return raster_dilate(raster_erode(grid, rho), rho)


def raster_area(grid: RasterGrid) -> float:
    return float(grid.occupancy.sum()) * grid.h * grid.h

