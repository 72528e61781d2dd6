import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from shrinkset import (
    BadConfigError,
    Point2,
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
from shrinkset import cli, raster
from cover_reference import cover as reference_cover
from edt_reference import edt_dilate, edt_erode, edt_opening

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

    def test_empty_set_has_no_cells(self):
        grid = rasterize(RoundedSet.empty(), 0.01)
        assert grid.shape == (0, 0) and raster_area(grid) == 0.0

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

    def test_direct_grid_takes_a_tuple_origin(self):
        occ = np.zeros((10, 10), dtype=bool)
        occ[2:5, 3:9] = True
        grid = RasterGrid(origin=(1, -2), h=0.5, occupancy=occ)
        assert grid.origin == Point2(1.0, -2.0) and type(grid.origin.x) is float
        # by 1.5 cells: the 3 x 3 neighbourhood, padded by ceil(1.5) + 2 cells
        dilated = raster_dilate(grid, 0.75)
        assert dilated.origin == Point2(1.0 - 4 * 0.5, -2.0 - 4 * 0.5)
        assert raster_area(dilated) == pytest.approx(5 * 8 * 0.25)
        assert raster_area(raster_opening(grid, 0.75)) == pytest.approx(18 * 0.25)

    @pytest.mark.parametrize("dtype", [bool, np.int64, np.uint8, np.float64])
    def test_direct_grid_keeps_a_bool_copy(self, dtype):
        occ = np.zeros((10, 10), dtype=dtype)
        occ[1:9, 1:9] = 1
        grid = RasterGrid((0.0, 0.0), 1.0, occ)
        assert grid.occupancy.dtype == bool and not grid.occupancy.flags.writeable
        # the 8 x 8 block less the cells nearer than 2 to an empty cell
        assert raster_area(raster_erode(grid, 2.0)) == 36.0
        occ[:] = 0
        assert raster_area(grid) == 64.0
        assert raster_area(raster_erode(grid, 2.0)) == 36.0

    @pytest.mark.parametrize("name", ["origin", "h", "shape", "occupancy"])
    def test_direct_grid_refuses_assignment(self, name):
        grid = RasterGrid((0.0, 0.0), 1.0, np.ones((3, 3), dtype=bool))
        with pytest.raises(AttributeError, match=f"RasterGrid.{name} cannot be assigned"):
            setattr(grid, name, None)
        assert grid.h == 1.0 and raster_area(grid) == 9.0

    @pytest.mark.parametrize(
        "occ",
        [
            np.full((3, 3), 2),
            np.array([[0.0, 0.5]]),
            np.array([[1.0, math.nan]]),
            np.ones(4, dtype=bool),
            np.ones((2, 2, 2), dtype=bool),
            np.array([["1"]]),
        ],
    )
    def test_direct_grid_refuses_other_arrays(self, occ):
        with pytest.raises(BadConfigError, match="occupancy must be a 2-D array of 0s and 1s"):
            RasterGrid((0.0, 0.0), 1.0, occ)


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


def _full_grid(s, h):
    """rasterize by the distance from every cell centre: the reference for
    the chord evaluation, with the same grid set-up."""
    v = s.kernel.vertices
    margin = s.radius + 2.5 * h
    x0, y0 = v[:, 0].min() - margin, v[:, 1].min() - margin
    x1, y1 = v[:, 0].max() + margin, v[:, 1].max() + margin
    nx = int(math.ceil((x1 - x0) / h)) + 1
    ny = int(math.ceil((y1 - y0) / h)) + 1
    px, py = np.meshgrid(x0 + h * np.arange(nx), y0 + h * np.arange(ny))
    return (x0, y0), raster._dist_to_kernel(px, py, s.kernel) <= s.radius


@st.composite
def sets_and_pitches(draw):
    """Random hulls, and points and segments taken from them, at radius 0
    or up to the kernel's size, moved by up to 1e9 and scaled by 1e-6..1e6."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = random_rounded_set(rng).kernel.vertices
    v = v[: draw(st.sampled_from([1, 2, len(v)]))]
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    offset = draw(st.sampled_from([0.0, 1.0, -1e3, 1e6, -1e9, 1e9]))
    radius = scale * draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    try:
        s = RoundedSet.from_polygon(offset + scale * v, radius)
    except ValueError:  # rounding at a large offset bent the hull
        assume(False)
    assume(s.diameter > 0)
    return s, 10.0 ** draw(st.floats(-3.0, math.log10(5e-2))) * s.diameter


HULL = [(0.0, 0.0), (1.3, 0.2), (1.6, 1.1), (0.7, 1.5), (-0.2, 0.8)]
HULL_H = 1e-3 * RoundedSet.from_polygon(HULL).diameter
# at h = 1e-3 diameter: the sharp square, and a hull rounded by 0.3 cell,
# where the distance is 0 inside the kernel and below the radius nowhere else
SHARP_SQUARE = (sq(), 1e-3 * sq().diameter)
THIN_HULL = (RoundedSet.from_polygon(HULL, 0.3 * HULL_H), HULL_H)


class TestTiledRasterize:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(sets_and_pitches())
    @example(SHARP_SQUARE)
    @example(THIN_HULL)
    @example((RoundedSet.from_polygon(SQUARE, 0.0), 1e-3))
    @example((RoundedSet.ball((0.3, -0.2), 0.7), 2e-3))
    @example((RoundedSet.from_polygon(1e9 + 1e-6 * np.array(SQUARE), 1e-7), 1e-8))
    @example((RoundedSet.from_polygon(1e6 + 1e6 * np.array(SQUARE), 2e5), 5e3))
    # an edge 5e-300 from level: its chord ends on far rows overflow to inf
    @example((RoundedSet.from_polygon([(0, 0), (2e9, 1e-290), (0, 1e9)]), 2e7))
    def test_matches_every_cell_evaluation(self, case):
        s, h = case
        grid = rasterize(s, h)
        origin, occ = _full_grid(s, h)
        assert tuple(grid.origin) == origin and grid.h == h
        assert grid.occupancy.dtype == bool and grid.occupancy.flags.c_contiguous
        assert np.array_equal(_mask_of(grid), occ)

    @pytest.mark.parametrize("case", [SHARP_SQUARE, THIN_HULL], ids=["square", "thin-hull"])
    def test_exact_distances_only_near_the_boundary(self, case, monkeypatch):
        s, h = case
        points = _exact_points(monkeypatch)
        rasterize(s, h)
        # a centre gets its own distance only within rounding of a chord end,
        # and no centre of these grids lies that near one
        assert sum(points) == 0

    def test_exact_distances_decide_ties(self, monkeypatch):
        # the unit square rounded by 1.25 cells of 2^-6: the centres of column
        # 69 and of row 69 lie on its right and top sides, exactly at the
        # radius, and only their own distances can place them
        h = 2.0**-6
        s = sq(1.25 * h)
        points = _exact_points(monkeypatch)
        grid = rasterize(s, h)
        assert sum(points) > 0
        assert np.array_equal(_mask_of(grid), _full_grid(s, h)[1])
        occ = grid.occupancy
        assert occ[4:68, 69].all() and occ[69, 4:68].all() and not occ[:, 70].any()

    def test_one_cover_pass_per_grid_and_radius(self, rng, monkeypatch):
        cover = raster._cover
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return cover(*args, **kwargs)

        s = random_rounded_set(rng)
        h, r = 5e-3 * s.diameter, 0.15 * s.diameter
        ops = (raster_dilate, raster_erode, raster_opening)
        fresh = [op(rasterize(s, h), r) for op in ops]
        monkeypatch.setattr(raster, "_cover", counted)
        grid = rasterize(s, h)
        shared = [op(grid, r) for op in ops]
        # dilate, erode, and the opening's dilation: its erosion is shared
        assert len(calls) == 3
        for a, b in zip(shared, fresh):
            assert a.origin == b.origin and np.array_equal(a.occupancy, b.occupancy)

    def test_erode_mask_is_read_only(self):
        grid = rasterize(sq(0.1), 0.01)
        mask = raster_erode(grid, 0.15).occupancy
        with pytest.raises(ValueError):
            mask[0, 0] = True
        # the opening by the same radius reads the memoized mask
        assert raster_area(raster_opening(grid, 0.15)) == pytest.approx(
            rounded_area(opening(sq(0.1), 0.15)), abs=5 * 0.01 * 4.0
        )


def _exact_points(monkeypatch):
    """The sizes of the point sets rasterize passes to _dist_to_kernel from
    now on."""
    dist = raster._dist_to_kernel
    points = []

    def counted(px, py, kernel):
        points.append(px.size)
        return dist(px, py, kernel)

    monkeypatch.setattr(raster, "_dist_to_kernel", counted)
    return points


def _mask_of(grid):
    """grid's mask, once its runs are checked against the runs a grid made
    from that mask holds: sorted and merged, with none empty."""
    again = RasterGrid(grid.origin, grid.h, grid.occupancy)
    assert np.array_equal(again._lo, grid._lo) and np.array_equal(again._hi, grid._hi)
    return grid.occupancy


def _assert_ops_match(grid, r, want_dilate, want_erode, want_opening):
    got = _mask_of(raster_dilate(grid, r))
    assert got.shape == want_dilate.shape and np.array_equal(got, want_dilate)
    assert np.array_equal(_mask_of(raster_erode(grid, r)), want_erode)
    if r > 0:
        assert np.array_equal(_mask_of(raster_opening(grid, r)), want_opening)


# radii in cells: tie shells (150 holds 90^2 + 120^2 = 150^2, 5 holds
# 3^2 + 4^2), whole and half cells, the diagonal, zero and below one cell
CELL_RADII = [150, 5, 7, 12.5, math.sqrt(2), 0, 0.4]


@st.composite
def radii(draw, h, size):
    """A radius of CELL_RADII cells of pitch h, or up to 0.6 of size."""
    cells = draw(st.sampled_from(CELL_RADII + [None]))
    return cells * h if cells is not None else draw(st.floats(0.0, 0.6)) * size


@st.composite
def rasterized_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = random_rounded_set(rng)
    h = s.diameter / draw(st.sampled_from([6, 20, 45]))
    return s, h, draw(radii(h, s.diameter))


@st.composite
def masks(draw):
    """Unions of rectangles less some holes, often touching the border:
    several runs per row, and holes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ny, nx = draw(st.integers(8, 40)), draw(st.integers(8, 60))
    occ = np.zeros((ny, nx), dtype=bool)
    for fill in [True] * draw(st.integers(1, 8)) + [False] * draw(st.integers(0, 4)):
        y0, x0 = rng.integers(0, ny), rng.integers(0, nx)
        y1, x1 = y0 + rng.integers(1, ny // 2 + 2), x0 + rng.integers(1, nx // 2 + 2)
        occ[y0:y1, x0:x1] = fill
    return occ


def _y_mask():
    """Two arms that merge into a stem: the runs per row go from 2 to 1."""
    occ = np.zeros((30, 31), dtype=bool)
    for y in range(15):
        occ[y, y : y + 4] = occ[y, 27 - y : 31 - y] = True
    occ[15:, 13:18] = True
    return occ


# masks for the cover's piece rules: runs that touch only at their corners,
# single cells, noise, a run count that changes, and an empty row between
STAIRCASE = np.kron(np.eye(8, dtype=bool), np.ones((1, 3), dtype=bool))
CHECKERBOARD = np.indices((20, 30)).sum(axis=0) % 2 == 0
NOISE = np.random.default_rng(23).random((40, 60)) < 0.1
SPARSE_NOISE = np.random.default_rng(29).random((200, 180)) < 1e-3
Y_MASK = _y_mask()
TWO_BLOBS = np.zeros((16, 14), dtype=bool)
TWO_BLOBS[2:8, 3:10] = TWO_BLOBS[9:15, 5:12] = True


class TestRunLengthCover:
    """The run-length disk pass against scipy's exact distance transform:
    the same masks bit for bit, tie shells included."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(rasterized_cases())
    # tie shells in an erosion that keeps cells
    @example((sq(0.1), 3e-3, 150 * 3e-3))
    @example((sq(0.1), 0.03, 5 * 0.03))
    @example((sq(), 0.01, 0.0))
    @example((sq(), 0.01, 0.004))
    # K = e at the cover table's level edges: windows 2e + 1 of 2^l - 1 and 2^l + 1
    @example((sq(0.1), 0.01, 7.5 * 0.01))
    @example((sq(0.1), 0.01, 8.5 * 0.01))
    @example((sq(0.1), 0.01, 31.5 * 0.01))
    @example((sq(0.1), 0.01, 32.5 * 0.01))
    def test_matches_edt_on_rasterized_grids(self, case):
        s, h, r = case
        grid = rasterize(s, h)
        occ = grid.occupancy
        # rasterize leaves an empty border, so no cell beyond the edge counts
        assert not (occ[0].any() or occ[-1].any() or occ[:, 0].any() or occ[:, -1].any())
        _assert_ops_match(
            grid, r, edt_dilate(occ, h, r), edt_erode(occ, h, r), edt_opening(occ, h, r)
        )

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(masks(), st.sampled_from([1.0, 0.37, 1e-3]), st.data())
    @example(np.zeros((5, 7), dtype=bool), 1.0, 5)
    @example(np.ones((5, 7), dtype=bool), 1.0, 5)
    @example(np.ones((12, 30), dtype=bool), 0.37, 5)
    @example(np.ones((1, 1), dtype=bool), 0.37, 5)
    @example(STAIRCASE, 1.0, 5)
    @example(CHECKERBOARD, 0.37, 5)
    @example(NOISE, 1e-3, 5)
    @example(Y_MASK, 1.0, 5)
    @example(TWO_BLOBS, 0.37, 5)
    # noise at K = 64, a window of 2K + 1 = 2^7 + 1 slots: each cell a piece
    @example(SPARSE_NOISE, 1.0, 64.5)
    @example(CHECKERBOARD, 1e-3, 64)
    def test_matches_padded_edt_on_any_mask(self, occ, h, data):
        # an example gives its radius in cells
        r = data * h if isinstance(data, (int, float)) else data.draw(radii(h, h * max(occ.shape)))
        # cells beyond the edge are empty: the reference erodes a padded mask
        eroded = edt_erode(np.pad(occ, 1), h, r)[1:-1, 1:-1]
        _assert_ops_match(
            RasterGrid((0.0, 0.0), h, occ),
            r,
            edt_dilate(occ, h, r),
            eroded,
            edt_dilate(eroded, h, r),
        )

    @pytest.mark.parametrize("r", [2.0, 1e3, 1e300, 1.7e308])
    def test_offsets_stop_at_the_grid(self, r, monkeypatch):
        # a radius far beyond the grid costs no more than the grid's height
        cover = raster._cover
        widths = []

        def spied(frame, w):
            widths.append((frame.shape[0], len(w)))
            return cover(frame, w)

        monkeypatch.setattr(raster, "_cover", spied)
        grid = rasterize(sq(0.1), 0.01)
        assert raster_area(raster_erode(grid, r)) == 0.0
        assert widths == [(grid.shape[0] + 2, grid.shape[0] + 2)]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.one_of(st.floats(0.0, 400.0), st.integers(0, 400).map(float)),
        st.floats(-6.0, 6.0).map(lambda x: 10.0**x),
        st.booleans(),
        st.tuples(st.integers(1, 600), st.integers(1, 600)),
    )
    # tie shells, and radii beyond the grid, which take its every cell
    @example(150.0, 1.0, False, (400, 400))
    @example(5.0, 0.37, True, (400, 400))
    @example(400.0, 1e-3, False, (150, 200))
    @example(400.0, 1.0, True, (1, 1))
    # no offset is below 0: erode returns before the cover
    @example(0.0, 1.0, True, (5, 5))
    def test_half_widths_are_exact_and_do_not_grow(self, cells, h, strict, shape):
        # the cover's corner rectangles make the disk only if w does not
        # grow with |dy|, and its masks are the EDT's only if w is exact
        r, (rows, cols) = cells * h, shape
        w = raster._half_widths(r, h, strict, shape)

        def inside(dy, dx):
            d = np.sqrt((np.float64(dy) * h) ** 2 + (np.float64(dx) * h) ** 2)
            return d < r if strict else d <= r

        assert w.dtype == np.intp and len(w) <= rows and (np.diff(w) <= 0).all()
        e = np.arange(len(w))
        if r > h * (rows + cols):
            # every offset within the grid is inside
            assert len(w) == rows and (w == cols).all() and inside(e, w).all()
        else:
            assert (w >= 0).all() and inside(e, w).all() and not inside(e, w + 1).any()
            # the offsets stop at the grid's height or at the first row with none
            assert len(w) == rows or not inside(len(w), 0)

    @pytest.mark.parametrize(
        "nx, lane",
        [
            (2**31 - 5, np.int32),  # -(nx + w[0]) is int32's least value
            (2**31 - 4, np.intp),
            (3 * 2**31, np.intp),
        ],
    )
    @pytest.mark.parametrize("strict", [False, True])
    def test_wide_frames_match_the_intp_cover(self, nx, lane, strict, monkeypatch):
        # runs only, from _grid, so no mask of nx columns is painted: runs at
        # both edges and in the middle, in two pieces, widened by w[0] = 5
        runs = [(3, 0, 3), (3, nx - 10, nx), (4, nx - 2, nx), (5, 2**30, 2**30 + 7)]
        runs += [(20, nx - 1, nx), (21, 1, 2), (22, nx // 2, nx // 2 + 1)]
        y, x0, x1 = (np.array(col, dtype=np.intp) for col in zip(*runs))
        grid = raster._grid((0.0, 0.0), 1.0, (30, nx), y * (nx + 1) + x0, y * (nx + 1) + x1)
        w = raster._half_widths(5.5, 1.0, strict, grid.shape)
        assert w[0] == 5
        full = np.full
        lanes = []

        def spied(shape, value, dtype=None):
            lanes.append(np.dtype(dtype))
            return full(shape, value, dtype)

        monkeypatch.setattr(raster.np, "full", spied)
        got = raster._cover(grid, w)
        monkeypatch.undo()
        assert lanes == [np.dtype(lane)] * 2
        want = reference_cover(grid, w)
        assert got.shape == want.shape
        assert np.array_equal(got._lo, want._lo) and np.array_equal(got._hi, want._hi)
        # the runs at the right edge widen up to it
        assert (got._hi % (nx + 1) == nx).any()

    def test_full_grid_erodes_from_its_edge(self):
        grid = RasterGrid((0.0, 0.0), 1.0, np.ones((10, 10), dtype=bool))
        kept = raster_erode(grid, 3.0).occupancy
        assert kept.sum() == 36 and kept[2:8, 2:8].all()

    def test_half_plane_erodes_from_both_sides(self):
        occ = np.zeros((10, 10), dtype=bool)
        occ[:, :6] = True
        kept = raster_erode(RasterGrid((0.0, 0.0), 1.0, occ), 3.0).occupancy
        # the grid's other three edges bound it as well
        assert kept.sum() == 12 and kept[2:8, 2:4].all()


def _digest(grids):
    """sha256 of the grids' runs: each origin, shape, _lo and _hi."""
    d = hashlib.sha256()
    for g in grids:
        d.update(np.array(g.origin, dtype=np.float64).tobytes())
        for part in (g.shape, g._lo, g._hi):
            d.update(np.asarray(part, dtype=np.int64).tobytes())
    return d.hexdigest()


class TestPinnedMasks:
    """The runs of rasterize and of the three raster operations, pinned:
    validate prints only PASS or FAIL, which a mask that moves within the
    area tolerance leaves as it is."""

    def test_validate_grids(self, tmp_path, monkeypatch):
        # validate's five raster sets at seed 0: their grids and the grids of
        # their dilation, erosion and opening, which it measures by area
        grids = []
        for name in ("rasterize", "raster_area"):
            call = getattr(raster, name)
            monkeypatch.setattr(raster, name, lambda *a, call=call: _kept(grids, call, a))
        assert cli.main(["validate", "--out", str(tmp_path / "report.txt")]) == 0
        assert len(grids) == 20
        assert _digest(grids) == VALIDATE_GRIDS_DIGEST

    def test_seeded_sets(self):
        rng = np.random.default_rng(1)
        grids = []
        for _ in range(3):
            s = random_rounded_set(rng)
            grid, r = rasterize(s, 5e-3 * s.diameter), 0.15 * s.diameter
            grids += [grid, raster_dilate(grid, r), raster_erode(grid, r), raster_opening(grid, r)]
        assert _digest(grids) == SEEDED_GRIDS_DIGEST


def _kept(grids, call, args):
    """call(*args), keeping the grid it takes or gives in grids."""
    out = call(*args)
    grids.append(out if isinstance(out, RasterGrid) else args[0])
    return out


VALIDATE_GRIDS_DIGEST = "4f08429c193bd071897d2e3df825d96b8e7ec4c6b41cdf47ec39b7201862abfe"
SEEDED_GRIDS_DIGEST = "f3dfa19bb2250cde4a15b6bf74f1655c4e7e52915aaf218eb59e6c067e802b5a"


NAN, INF = float("nan"), float("inf")


class TestRadiusChecks:
    @pytest.mark.parametrize(
        "raster_op, exact_op, r, message",
        [
            (raster_dilate, dilate, -0.1, "finite and nonnegative"),
            (raster_dilate, dilate, NAN, "finite and nonnegative"),
            (raster_dilate, dilate, INF, "finite and nonnegative"),
            (raster_erode, erode, -0.1, "finite and nonnegative"),
            (raster_erode, erode, NAN, "finite and nonnegative"),
            (raster_erode, erode, INF, "finite and nonnegative"),
            (raster_opening, opening, 0.0, "positive"),
            (raster_opening, opening, -0.1, "positive"),
            (raster_opening, opening, NAN, "positive"),
            (raster_opening, opening, INF, "finite and positive"),
        ],
    )
    def test_rejected_like_the_exact_layer(self, raster_op, exact_op, r, message):
        s = sq(0.1)
        with pytest.raises(ValueError) as exact:
            exact_op(s, r)
        with pytest.raises(ValueError, match=message) as raised:
            raster_op(rasterize(s, 0.01), r)
        # both layers name the radius in the same words
        assert str(raised.value) == str(exact.value)
        assert "radius must be" in str(raised.value)

    @pytest.mark.parametrize("h", [0.0, -0.01, NAN, INF])
    def test_bad_cell_size(self, h):
        with pytest.raises(ValueError, match="finite and positive"):
            rasterize(sq(0.1), h)

    def test_erode_by_zero_keeps_the_occupancy(self):
        grid = rasterize(sq(0.1), 0.01)
        assert grid.occupancy.size == 15876 and grid.occupancy.sum() == 14316
        assert np.array_equal(raster_erode(grid, 0.0).occupancy, grid.occupancy)
