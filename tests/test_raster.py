import math

import numpy as np
import pytest

from shrinkset import (
    RasterGrid,
    RoundedSet,
    dilate,
    erode,
    opening,
    random_rounded_set,
    raster_area,
    raster_dilate,
    raster_erode,
    raster_opening,
    rasterize,
    rounded_area,

    rounded_perimeter,
)

SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


def sq(radius=0.0):
    return RoundedSet.from_polygon(SQUARE, radius)


def _embed(src, frame):
    """src occupancy re-indexed onto frame's grid (clipped to its extent)."""
    h = frame.h
    out = np.zeros(frame.shape, dtype=bool)
    oy = round((src.origin[1] - frame.origin[1]) / h)
    ox = round((src.origin[0] - frame.origin[0]) / h)
    sy0, sx0 = max(0, -oy), max(0, -ox)
    fy0, fx0 = max(0, oy), max(0, ox)
    ny = min(src.shape[0] - sy0, frame.shape[0] - fy0)
    nx = min(src.shape[1] - sx0, frame.shape[1] - fx0)
    if ny > 0 and nx > 0:
        out[fy0 : fy0 + ny, fx0 : fx0 + nx] = src.occupancy[
            sy0 : sy0 + ny, sx0 : sx0 + nx
        ]
    return out


class TestRasterize:
    def test_square_area(self):
        h = 1e-3
        grid = rasterize(sq(), h)
        assert raster_area(grid) == pytest.approx(1.0, abs=5 * h * 4.0)

    def test_ball_area(self):
        h = 2e-3
        grid = rasterize(RoundedSet.ball((0.3, -0.2), 0.7), h)
        assert raster_area(grid) == pytest.approx(
            math.pi * 0.49, abs=5 * h * 2 * math.pi * 0.7
        )

    def test_membership_is_exact_at_cell_centers(self):
        h = 0.01
        s = sq(0.1)
        grid = rasterize(s, h)
        ny, nx = grid.shape
        iy, ix = np.mgrid[0:ny, 0:nx]
        xs = grid.origin[0] + ix * h
        ys = grid.origin[1] + iy * h
        # signed distance to the rounded square via the kernel box
        dx = np.maximum(np.maximum(-xs, xs - 1.0), 0.0)
        dy = np.maximum(np.maximum(-ys, ys - 1.0), 0.0)
        inside = np.hypot(dx, dy) <= 0.1
        margin = np.abs(np.hypot(dx, dy) - 0.1) > 1e-9
        assert np.array_equal(grid.occupancy[margin], inside[margin])

    def test_direct_grid_area(self):
        occ = np.zeros((10, 10), dtype=bool)
        occ[2:5, 3:9] = True
        grid = RasterGrid(origin=(0.0, 0.0), h=0.5, occupancy=occ)
        assert raster_area(grid) == pytest.approx(18 * 0.25)


class TestRasterOps:
    def test_dilate_matches_exact(self):
        h = 1e-3
        s = sq()
        got = raster_dilate(rasterize(s, h), 0.2)
        want = dilate(s, 0.2)
        assert raster_area(got) == pytest.approx(
            rounded_area(want), abs=5 * h * rounded_perimeter(want)
        )

    def test_erode_matches_exact(self):
        h = 1e-3
        s = sq(0.1)
        got = raster_erode(rasterize(s, h), 0.15)
        want = erode(s, 0.15)
        assert raster_area(got) == pytest.approx(
            rounded_area(want), abs=5 * h * rounded_perimeter(want)
        )

    def test_erode_to_nothing(self):
        grid = raster_erode(rasterize(sq(), 0.01), 0.6)
        assert raster_area(grid) == 0.0

    def test_opening_matches_exact(self):
        h = 1e-3
        s = sq()
        got = raster_opening(rasterize(s, h), 0.25)
        want = opening(s, 0.25)
        assert raster_area(got) == pytest.approx(
            rounded_area(want), abs=5 * h * rounded_perimeter(want)
        )

    def test_opening_is_contained(self):
        # the opening never reaches outside the original occupancy by
        # more than a one-cell discretization band
        grid = rasterize(sq(), 5e-3)
        opened = raster_opening(grid, 0.2)
        halo = _embed(raster_dilate(grid, 2 * grid.h), opened)
        assert not (_embed(opened, opened) & ~halo).any()

    def test_random_sets_agree_with_exact(self, rng):
        for _ in range(8):
            s = random_rounded_set(rng)
            h = 2e-3 * s.diameter
            grid = rasterize(s, h)
            r = 0.2 * s.diameter
            for op_d, op_e, label in (
                (raster_dilate, dilate, "dilate"),
                (raster_erode, erode, "erode"),
                (raster_opening, opening, "opening"),
            ):
                got = raster_area(op_d(grid, r))
                want = op_e(s, r)
                tol = 5 * h * max(rounded_perimeter(want), rounded_perimeter(s))
                assert got == pytest.approx(rounded_area(want), abs=max(tol, h * h)), label

    def test_erode_dilate_duality_band(self, rng):
        # discrete erosion of a dilation recovers the original up to a
        # band of width ~2h around the boundary
        for _ in range(5):
            s = random_rounded_set(rng)
            h = 2e-3 * s.diameter
            r = 0.15 * s.diameter
            grid = rasterize(s, h)
            back = raster_erode(raster_dilate(grid, r), r + 2 * h)
            assert not (_embed(back, back) & ~_embed(grid, back)).any()
