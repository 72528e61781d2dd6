import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from shrinkset import (
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
from shrinkset import raster
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
    the tiled evaluation, with the same grid set-up."""
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


class TestTiledRasterize:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(sets_and_pitches())
    @example((RoundedSet.from_polygon(SQUARE, 0.0), 1e-3))
    @example((RoundedSet.ball((0.3, -0.2), 0.7), 2e-3))
    @example((RoundedSet.from_polygon(1e9 + 1e-6 * np.array(SQUARE), 1e-7), 1e-8))
    @example((RoundedSet.from_polygon(1e6 + 1e6 * np.array(SQUARE), 2e5), 5e3))
    def test_matches_every_cell_evaluation(self, case):
        s, h = case
        grid = rasterize(s, h)
        origin, occ = _full_grid(s, h)
        assert tuple(grid.origin) == origin and grid.h == h
        assert grid.occupancy.dtype == bool and grid.occupancy.flags.c_contiguous
        assert np.array_equal(grid.occupancy, occ)

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


def _assert_ops_match(grid, r, want_dilate, want_erode, want_opening):
    got = raster_dilate(grid, r).occupancy
    assert got.shape == want_dilate.shape and np.array_equal(got, want_dilate)
    assert np.array_equal(raster_erode(grid, r).occupancy, want_erode)
    if r > 0:
        assert np.array_equal(raster_opening(grid, r).occupancy, want_opening)


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
    @example(np.zeros((5, 7), dtype=bool), 1.0, None)
    @example(np.ones((5, 7), dtype=bool), 1.0, None)
    @example(np.ones((12, 30), dtype=bool), 0.37, None)
    @example(np.ones((1, 1), dtype=bool), 0.37, None)
    def test_matches_padded_edt_on_any_mask(self, occ, h, data):
        r = 5 * h if data is None else data.draw(radii(h, h * max(occ.shape)))
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

        def spied(mask, w):
            widths.append((len(mask), len(w)))
            return cover(mask, w)

        monkeypatch.setattr(raster, "_cover", spied)
        grid = rasterize(sq(0.1), 0.01)
        assert raster_area(raster_erode(grid, r)) == 0.0
        assert widths == [(grid.shape[0] + 2, grid.shape[0] + 2)]

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
            (raster_opening, opening, INF, "finite and nonnegative"),
        ],
    )
    def test_rejected_like_the_exact_layer(self, raster_op, exact_op, r, message):
        s = sq(0.1)
        with pytest.raises(ValueError):
            exact_op(s, r)
        with pytest.raises(ValueError, match=message):
            raster_op(rasterize(s, 0.01), r)

    @pytest.mark.parametrize("h", [0.0, -0.01, NAN, INF])
    def test_bad_cell_size(self, h):
        with pytest.raises(ValueError, match="finite and positive"):
            rasterize(sq(0.1), h)

    def test_erode_by_zero_keeps_the_occupancy(self):
        grid = rasterize(sq(0.1), 0.01)
        assert grid.occupancy.size == 15876 and grid.occupancy.sum() == 14316
        assert np.array_equal(raster_erode(grid, 0.0).occupancy, grid.occupancy)
