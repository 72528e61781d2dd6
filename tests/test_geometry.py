import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from shrinkset import (
    BadConfigError,
    ConvexPolygon,
    EmptySetError,
    RoundedSet,
    boundary_length_in_disk,
    boundary_pieces,
    contains,
    critical_budget,
    dilate,
    hausdorff,
    random_rounded_set,
    rounded_area,
    rounded_centroid,
    rounded_perimeter,
    support,
)
from shrinkset import geometry, morphology
from shrinkset.geometry import (
    COLLINEAR_REL_TOL,
    _dot_rows,
    _hull,
    _merge_close,
    cross2,
    cycled,
    polygon_area,
    polygon_centroid,
    polygon_perimeter,
)
from shrinkset.morphology import ErosionProfile

SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


def sq(radius=0.0):
    return RoundedSet.from_polygon(SQUARE, radius)


def _ellipse(n):
    t = 2.0 * math.pi * (np.arange(n) + 0.5) / n
    return np.stack([1.5 * np.cos(t), np.sin(t)], axis=1)


def _all_pairs_diameter(v):
    best = 0.0
    for i in range(0, len(v), 256):  # row blocks bound the memory
        d = v[i : i + 256, None, :] - v[None, :, :]
        best = max(best, float(np.sqrt((d * d).sum(-1)).max()))
    return best


class TestPolygonMeasures:
    def test_area(self):
        assert polygon_area(ConvexPolygon(SQUARE)) == 1.0
        assert polygon_area(ConvexPolygon.segment((0, 0), (1, 0))) == 0.0
        assert polygon_area(ConvexPolygon([(0, 0), (2, 0), (0, 2)])) == 2.0

    def test_area_far_from_origin(self):
        # at absolute coordinates the shoelace sum cancels to noise here
        tiny = ConvexPolygon(1e3 + 1e-6 * np.array(SQUARE, float))
        assert polygon_area(tiny) == pytest.approx(1e-12, rel=1e-8)

    def test_perimeter(self):
        assert polygon_perimeter(ConvexPolygon(SQUARE)) == 4.0
        # a segment's boundary is traversed on both sides
        assert polygon_perimeter(ConvexPolygon.segment((0, 0), (1, 0))) == 2.0
        assert polygon_perimeter(ConvexPolygon.point((3, 4))) == 0.0

    def test_diameter_matches_all_pairs(self, rng):
        # the antipodal-pair search gives the bits of the O(n^2) maximum,
        # once per polygon
        polys = [random_rounded_set(rng).kernel for _ in range(50)]
        polys += [ConvexPolygon(_ellipse(n)) for n in (100, 400, 800, 3200)]
        polys += [ConvexPolygon(_ellipse(n) * 1e-6 + 1e3) for n in (7, 512)]
        for n in (3, 4, 6, 64, 512, 4096):
            t = 2.0 * math.pi * np.arange(n) / n + 0.7142223654075871
            polys.append(ConvexPolygon(np.stack([np.cos(t), np.sin(t)], axis=1)))
        polys += [ConvexPolygon.segment((0, 0), (3, 4)), ConvexPolygon.point((1, 2))]
        for p in polys:
            assert p.diameter == _all_pairs_diameter(p.vertices)
            assert p.diameter is p.diameter

    def test_segment_is_a_two_gon(self, rng):
        # the polygon formulas measure v0 -> v1 -> v0: opposite normals, each
        # side once, a half turn at each end
        for p, q in rng.random((50, 2, 2)) * 10.0 - 5.0:
            k = ConvexPolygon.segment(p, q)
            d = k.vertices[1] - k.vertices[0]
            n = k.edge_normals()
            assert np.array_equal(n[1], -n[0])
            assert n[0] @ d == pytest.approx(0.0, abs=1e-15)
            assert cross2(n[0], d) > 0.0  # outward of the side v0 -> v1
            assert k.diameter == pytest.approx(math.hypot(*d), rel=1e-15)
            assert polygon_perimeter(k) == 2.0 * k.diameter
            assert np.array_equal(k.exterior_angles(), [math.pi, math.pi])


class TestCanonicalization:
    def test_duplicates_merged(self):
        p = ConvexPolygon([(0, 0), (0, 0), (1, 0), (1, 1), (0, 1)])
        assert len(p) == 4

    def test_collinear_dropped(self):
        p = ConvexPolygon([(0, 0), (0.5, 0), (1, 0), (1, 1), (0, 1)])
        assert len(p) == 4

    def test_clockwise_input_reoriented(self):
        p = ConvexPolygon(list(reversed(SQUARE)))
        assert polygon_area(p) == 1.0

    def test_nonconvex_rejected(self):
        with pytest.raises(ValueError):
            ConvexPolygon([(0, 0), (2, 0), (1, 0.1), (0, 2)])

    @pytest.mark.parametrize(
        "n, turns, flat", [(5, 2, 1.0), (7, 3, 1e-4)], ids=["pentagram", "zig-zag"]
    )
    def test_boundary_winding_more_than_once_rejected(self, n, turns, flat):
        # every turn is to the left, but the boundary winds more than once:
        # a star, or a flat heptagram whose reversals turn by nearly pi
        t = 2.0 * math.pi * turns * np.arange(n) / n
        with pytest.raises(BadConfigError, match="convex"):
            ConvexPolygon(np.stack([np.cos(t), flat * np.sin(t)], axis=1))

    def test_collinear_points_become_segment(self):
        p = ConvexPolygon([(0, 0), (1, 1), (2, 2)])
        assert len(p) == 2

    def test_fine_polygon_keeps_its_corners(self):
        # each vertex turns by 6e-5 between edges 1e-4 long: far above the
        # collinear tolerance relative to those edges
        assert len(ConvexPolygon(_ellipse(100_000))) == 100_000

    def test_coincident_vertices_become_a_point(self):
        assert np.array_equal(ConvexPolygon([(1, 2), (1, 2), (1, 2)]).vertices, [(1, 2)])

    @pytest.mark.parametrize("scale", [1e160, 1.2e154])
    def test_squared_extent_overflow_rejected(self, scale):
        # at 1e160 the cross products overflowed and the square collapsed to
        # a segment; at 1.2e154 its area was inf
        with pytest.raises(BadConfigError, match="overflows"):
            ConvexPolygon(scale * np.array(SQUARE, float))

    def test_tiny_polygon_far_from_origin(self):
        # a triangle 4e-10 across at distance 1.4 from the origin
        v = [
            (0.8958193437258442, 1.0645000558282154),
            (0.8958193433292115, 1.064500056001219),
            (0.8958193433992416, 1.064500055845674),
        ]
        assert np.array_equal(ConvexPolygon(v).vertices, v)
        assert np.array_equal(ConvexPolygon(v[::-1]).vertices, v)


def _unscaled_collinear_rule(v):
    """The collinear-vertex loop of ConvexPolygon._canonicalize as it was
    before it measured edges in units of the scale, where its product of
    two squared lengths overflowed past 2^256."""
    while len(v) >= 3:
        before = v - cycled(v, -1)
        cr = cross2(before, cycled(before))
        sq = (before * before).sum(axis=1)
        keep = cr > COLLINEAR_REL_TOL * np.sqrt(sq * cycled(sq))
        if keep.all():
            break
        v = v[keep]
    return v


@st.composite
def _nearly_collinear_polygons(draw):
    # a convex n-gon on the 1.5:1 ellipse with a point pushed out of each
    # edge's midpoint by a turn around the 1e-12 collinear tolerance
    n = draw(st.integers(3, 12))
    jitter = draw(st.lists(st.floats(0.0, 0.4), min_size=n, max_size=n))
    bulge = draw(st.lists(st.sampled_from([0.0, 1e-13, 4e-13, 5e-13, 6e-13, 1e-12, 1e-9]),
                          min_size=n, max_size=n))
    t = 2.0 * math.pi * (np.arange(n) + np.array(jitter)) / n
    v = np.stack([1.5 * np.cos(t), np.sin(t)], axis=1)
    edge = np.roll(v, -1, axis=0) - v
    mid = v + 0.5 * edge + np.array(bulge)[:, None] * np.stack([edge[:, 1], -edge[:, 0]], axis=1)
    return np.stack([v, mid], axis=1).reshape(-1, 2)


class TestCanonicalizationAtScale:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(_nearly_collinear_polygons(), st.integers(-250, 250))
    def test_kept_vertices_as_before(self, v, k):
        # measuring in units of the scale is exact: wherever the unscaled
        # products stay in the float range, the same vertices are kept
        scaled = np.ldexp(v, k)
        want = _unscaled_collinear_rule(scaled)
        assert ConvexPolygon(scaled).vertices.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(_nearly_collinear_polygons(), st.integers(-300, -251))
    def test_tiny_scales_keep_the_unit_vertices(self, v, k):
        # below about 2^-268 the old rule's product of squared lengths
        # underflowed to 0; measured in units of the scale, the kept
        # vertices are the unit polygon's times 2^k
        want = np.ldexp(ConvexPolygon(v).vertices, k)
        assert ConvexPolygon(np.ldexp(v, k)).vertices.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [256, 257, 300, 500])
    def test_huge_square_keeps_its_corners(self, k):
        # the squared edge lengths' product overflowed, no vertex passed,
        # and the square collapsed to two vertices
        v = np.ldexp(np.array(SQUARE, float), k)
        assert np.array_equal(ConvexPolygon(v).vertices, v)
        assert len(ConvexPolygon(np.insert(v, 1, np.ldexp([0.5, 0.0], k), axis=0))) == 4


def _sequential_merge(v, tol):
    """_merge_close as a loop over the vertices: each one is compared with
    the last vertex kept, and then the last kept with the first."""
    kept = []
    for p in v:
        if not kept or math.hypot(p[0] - kept[-1][0], p[1] - kept[-1][1]) > tol:
            kept.append(p)
    while len(kept) > 1 and math.hypot(
        kept[0][0] - kept[-1][0], kept[0][1] - kept[-1][1]
    ) <= tol:
        kept.pop()
    return np.array(kept, float).reshape(-1, 2)


def _assert_same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


_TOLS = st.floats(1e-6, 1e6)
# a gap of tol times (1 + k ulps), around tol itself and around the
# bound a billionth above it, past which one numpy pass decides
_GAPS = st.builds(
    lambda base, k: base * (1.0 + k * np.finfo(float).eps),
    st.sampled_from([1.0, 1.0 + 1e-9]),
    st.integers(-8, 8),
)


@st.composite
def _ladders(draw):
    """A closed ladder: out along y = 0 by steps of about tol and back along
    y = h through the same x, so every cyclic gap, the wraparound's too, is
    tol within a few ulps.  Returns (vertices, tol)."""
    tol = draw(_TOLS)
    steps = draw(st.lists(_GAPS, min_size=0, max_size=6))
    x = np.cumsum([draw(st.floats(-10.0, 10.0)) * tol] + [g * tol for g in steps])
    h = draw(_GAPS) * tol
    out, back = np.stack([x, np.zeros_like(x)], 1), np.stack([x[::-1], np.full_like(x, h)], 1)
    v = np.concatenate([out, back])
    return np.roll(v, draw(st.integers(0, len(v) - 1)), axis=0), tol


@st.composite
def _chains(draw):
    """A walk of chains of 3 to 6 points, each within tol of the one before
    (a chain may span more than tol), and of single steps of about tol or
    longer, each step turned by a random angle, rolled so that a chain may
    straddle the wraparound.  Returns (vertices, tol)."""
    tol = draw(_TOLS)
    chain = st.lists(st.floats(0.05, 0.999), min_size=2, max_size=5)
    single = st.one_of(st.floats(2.0, 10.0), _GAPS).map(lambda g: [g])
    blocks = draw(st.lists(st.one_of(chain, single), min_size=1, max_size=5))
    lengths = [g for block in blocks for g in block]
    n = len(lengths)
    angles = draw(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=n, max_size=n))
    steps = tol * np.array(lengths)[:, None] * np.stack([np.cos(angles), np.sin(angles)], 1)
    v = np.cumsum(np.concatenate([[(3.0 * tol, -7.0 * tol)], steps]), axis=0)
    return np.roll(v, draw(st.integers(0, len(v) - 1)), axis=0), tol


@st.composite
def _one_or_two(draw):
    """One or two points, the second at a gap of about tol from the first."""
    tol = draw(_TOLS)
    p = np.array([draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0))]) * tol
    if draw(st.booleans()):
        return p[None, :], tol
    angle = draw(st.sampled_from([0.0, 0.5 * math.pi, 1.0]))
    return np.stack([p, p + draw(_GAPS) * tol * np.array([math.cos(angle), math.sin(angle)])]), tol


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 12).flatmap(
        lambda n: hnp.arrays(float, (2, n, 2), elements=st.floats(-1e150, 1e150))
    )
)
def test_dot_rows_are_the_axis_sum(ab):
    # the column form that canonicalization, the edge normals and the
    # perimeter use gives numpy's sum over rows of two, bit for bit but for
    # the sign of a zero sum
    a, b = ab
    got, want = _dot_rows(a, b), (a * b).sum(axis=1)
    assert np.array_equal(got, want)
    assert got[want != 0].tobytes() == want[want != 0].tobytes()


def _benchmark_kernels():
    t = 2.0 * math.pi * np.arange(512) / 512
    shapes = [pytest.param(_ellipse(n), id=f"ellipse-{n}") for n in (100, 400, 800)]
    return shapes + [pytest.param(np.stack([np.cos(t), np.sin(t)], axis=1), id="regular-512")]


class TestMergeClose:
    """_merge_close decides with one numpy pass when nothing merges, and
    runs the sequential merge otherwise: its bytes are the loop's."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_ladders())
    def test_gaps_within_ulps_of_tol(self, case):
        v, tol = case
        _assert_same_bytes(_merge_close(v, tol), _sequential_merge(v, tol))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_chains())
    def test_chains_and_wraparound_clusters(self, case):
        v, tol = case
        _assert_same_bytes(_merge_close(v, tol), _sequential_merge(v, tol))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(_one_or_two())
    def test_one_and_two_points(self, case):
        v, tol = case
        _assert_same_bytes(_merge_close(v, tol), _sequential_merge(v, tol))

    def test_merge_is_a_copy(self):
        v = np.array(SQUARE, float)
        got = _merge_close(v, 1e-12)
        assert np.array_equal(got, v) and not np.shares_memory(got, v)

    @pytest.mark.parametrize("moved", [False, True], ids=["unmoved", "moved"])
    @pytest.mark.parametrize("v", _benchmark_kernels())
    def test_profile_bytes_as_with_the_sequential_merge(self, monkeypatch, v, moved):
        # the benchmark's kernels, canonicalized and built once with the
        # loop in both modules that call it and once as they are: no byte
        # of the kernel, the profile, its locus or an eroded polygon moves
        if moved:
            v = v + (1e4, 3.7e3)

        def build():
            k = ConvexPolygon(v)
            prof = ErosionProfile(k)
            mids = [0.5 * (d0 + d1) for d0, d1, *_ in prof.pieces]
            return k, prof, [prof.polygon_at(d).vertices for d in mids]

        with monkeypatch.context() as m:
            m.setattr(geometry, "_merge_close", _sequential_merge)
            m.setattr(morphology, "_merge_close", _sequential_merge)
            want_kernel, want, want_eroded = build()
        got_kernel, got, got_eroded = build()
        _assert_same_bytes(got_kernel.vertices, want_kernel.vertices)
        _assert_same_bytes(got.pieces, want.pieces)
        for field in ("d_max", "death", "_rows", "_start"):
            _assert_same_bytes(getattr(got, field), getattr(want, field))
        _assert_same_bytes(got.locus.vertices, want.locus.vertices)
        assert len(got_eroded) == len(want_eroded) > 0
        for a, b in zip(got_eroded, want_eroded):
            _assert_same_bytes(a, b)


def _same_cycle(got, want):
    """Equal sequences up to a rotation."""
    got, want = list(got), list(want)
    return len(got) == len(want) and any(got[k:] + got[:k] == want for k in range(len(got)))


class TestHull:
    def test_matches_scipy(self):
        # the hull's vertex cycle is Qhull's, counterclockwise, up to where
        # it starts; 4 to 9 points, as random_rounded_set draws them
        from scipy.spatial import ConvexHull

        rng = np.random.default_rng(18)
        for _ in range(20_000):
            pts = rng.random((int(rng.integers(4, 10)), 2)) * 2.0
            assert _same_cycle(_hull(pts), ConvexHull(pts).vertices.tolist()), pts

    @pytest.mark.parametrize(
        "pts",
        [[(0, 0), (1, 1), (2, 2), (0.5, 0.5)], [(1, 2)] * 4, [(0, 0), (0, 0), (3, 0), (3, 0)],
         [(0, 0), (1, 0)], [(0.5, 0.5)]],
    )
    def test_collinear_or_coincident_points_have_no_area(self, pts):
        assert len(_hull(np.array(pts, float).reshape(-1, 2))) < 3

    def test_random_sets_are_the_scipy_hull_sets(self):
        # each seed draws the same points, hull and radius as with Qhull's
        # hull: only the vertex the kernel starts at may differ
        from scipy.spatial import ConvexHull

        for seed in range(10):
            rng = np.random.default_rng(seed)
            pts = rng.random((int(rng.integers(4, 10)), 2)) * 2.0
            want = RoundedSet.from_polygon(pts[ConvexHull(pts).vertices], rng.random() * 0.5)
            got = random_rounded_set(np.random.default_rng(seed))
            assert got.radius == want.radius
            assert _same_cycle(map(tuple, got.kernel.vertices), map(tuple, want.kernel.vertices))


class TestRoundedMeasures:
    def test_area(self):
        assert rounded_area(sq(1.0)) == pytest.approx(5 + math.pi, rel=1e-15)
        assert rounded_area(RoundedSet.ball((2, 3), 0.7)) == pytest.approx(
            math.pi * 0.49, rel=1e-15
        )
        stadium = RoundedSet.stadium((0, 0), (1, 0), 0.5)
        assert rounded_area(stadium) == pytest.approx(1 + math.pi / 4, rel=1e-15)

    def test_perimeter(self):
        assert rounded_perimeter(sq(1.0)) == pytest.approx(4 + 2 * math.pi)
        assert rounded_perimeter(RoundedSet.ball((0, 0), 0.7)) == pytest.approx(
            2 * math.pi * 0.7
        )
        stadium = RoundedSet.stadium((0, 0), (1, 0), 0.5)
        assert rounded_perimeter(stadium) == pytest.approx(2 + math.pi)

    def test_empty(self):
        assert rounded_area(RoundedSet.empty()) == 0.0
        assert rounded_perimeter(RoundedSet.empty()) == 0.0
        assert RoundedSet.empty().diameter == 0.0

    # a radius whose square overflows made rounded_area raise OverflowError
    @pytest.mark.parametrize("radius", [math.nan, math.inf, -1.0, 1e160, np.float64(1e160)])
    def test_nonfinite_or_negative_radius_rejected(self, radius):
        with pytest.raises(BadConfigError):
            RoundedSet(ConvexPolygon(SQUARE), radius)

    def test_area_overflow_raises(self):
        # a ball of radius 1e154 builds, but pi times its squared radius is inf
        assert rounded_area(RoundedSet.ball((0, 0), 1e153)) == math.pi * 1e153**2
        with pytest.raises(BadConfigError, match="set area overflows"):
            rounded_area(RoundedSet.ball((0, 0), 1e154))


class TestCentroid:
    def test_square_any_radius(self):
        for r in (0.0, 0.3, 2.0):
            c = rounded_centroid(sq(r))
            assert (c.x, c.y) == pytest.approx((0.5, 0.5), abs=1e-14)

    def test_ball(self):
        c = rounded_centroid(RoundedSet.ball((2, -1), 0.4))
        assert (c.x, c.y) == pytest.approx((2, -1), abs=1e-14)

    def test_stadium(self):
        c = rounded_centroid(RoundedSet.stadium((0, 0), (2, 0), 0.5))
        assert (c.x, c.y) == pytest.approx((1, 0), abs=1e-14)

    def test_matches_polygon_centroid_at_zero_radius(self, rng):
        for _ in range(20):
            s = RoundedSet(random_rounded_set(rng).kernel, 0.0)
            c = rounded_centroid(s)
            assert np.allclose(c, polygon_centroid(s.kernel), atol=1e-12)

    def test_empty_raises(self):
        with pytest.raises(EmptySetError):
            rounded_centroid(RoundedSet.empty())
        with pytest.raises(EmptySetError):
            polygon_centroid(ConvexPolygon.empty())

    def test_zero_area_stadium_is_its_midpoint(self):
        c = rounded_centroid(RoundedSet.stadium((1, 2), (3, 6), 0.0))
        assert (c.x, c.y) == (2.0, 4.0)

    def test_tiny_set_far_from_origin(self):
        # at absolute coordinates the cross products cancel: this square's
        # centroid came out 3e8 times its size away
        k = ConvexPolygon(1e3 + 1e-6 * np.array(SQUARE, float))
        for c in (polygon_centroid(k), rounded_centroid(RoundedSet(k, 1e-7))):
            assert np.abs(np.subtract(c, 1e3 + 5e-7)).max() <= 1e-12

    def test_matches_dense_boundary_polygon(self, rng):
        # an independent oracle: the centroid of the polygon through the
        # boundary's segment ends and 4096 points on every arc; its error is
        # below 1e-9 of the diameter and falls 16-fold per 4-fold more points
        sets = [random_rounded_set(rng) for _ in range(12)]
        sets += [
            RoundedSet.from_polygon([(0.2, -0.4), (2.9, 0.3), (0.7, 1.6)], 0.45),
            RoundedSet.stadium((0.3, -0.2), (2.1, 1.4), 0.35),
            RoundedSet.ball((1.7, -2.3), 0.8),
        ]
        for s in sets:
            pts = []
            for piece in boundary_pieces(s):
                if piece[0] == "seg":
                    pts += [piece[1], piece[2]]
                else:
                    _, c, rho, a0, a1 = piece
                    t = np.linspace(a0, a1, 4096)
                    pts += list(c + rho * np.stack([np.cos(t), np.sin(t)], axis=1))
            want = polygon_centroid(ConvexPolygon(pts))
            got = rounded_centroid(s)
            assert np.abs(np.subtract(got, want)).max() <= 1e-8 * s.diameter


class TestFrozenFields:
    def test_assignment_refused_and_memo_kept(self):
        # rounding the square in place after critical_budget gave the
        # unrounded square's M0 from the memoized trajectory
        s = sq()
        m0 = critical_budget(s)
        with pytest.raises(AttributeError):
            s.radius = 0.5
        with pytest.raises(AttributeError):
            s.kernel = ConvexPolygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        with pytest.raises(AttributeError):
            s.kernel.vertices = np.zeros((3, 2))
        assert s.radius == 0.0 and np.array_equal(s.kernel.vertices, SQUARE)
        assert critical_budget(s) == m0
        assert critical_budget(sq(0.5)) > 1.9 * m0

    def test_copy_and_pickle_keep_the_set(self):
        s = sq(0.2)
        for t in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert t.radius == 0.2 and np.array_equal(t.kernel.vertices, SQUARE)
            with pytest.raises(AttributeError):
                t.radius = 0.5


class TestSupport:
    def test_unit_ball(self):
        b = RoundedSet.ball((0, 0), 1.0)
        for theta in np.linspace(0, 2 * math.pi, 17):
            assert support(b, theta) == pytest.approx(1.0)

    def test_square(self):
        assert support(sq(), 0.0) == pytest.approx(1.0)
        assert support(sq(0.5), math.pi / 4) == pytest.approx(math.sqrt(2) + 0.5)

    def test_empty_raises(self):
        with pytest.raises(EmptySetError):
            support(RoundedSet.empty(), 0.0)


class TestContainsHausdorff:
    def test_concentric_balls(self):
        assert contains(RoundedSet.ball((0, 0), 1), RoundedSet.ball((0, 0), 0.5), 0.0)

    def test_dilation_contains(self):
        assert contains(dilate(sq(), 0.1), sq(), 0.0)
        assert not contains(sq(), dilate(sq(), 0.1), 1e-9)

    def test_empty_contains_only_empty(self):
        assert not contains(RoundedSet.empty(), RoundedSet.ball((0, 0), 1), 1.0)
        assert contains(RoundedSet.empty(), RoundedSet.empty(), 0.0)

    def test_hausdorff_of_empty_raises(self):
        with pytest.raises(EmptySetError):
            hausdorff(sq(), RoundedSet.empty())

    def test_disjoint_balls(self):
        assert not contains(
            RoundedSet.ball((0, 0), 1), RoundedSet.ball((3, 0), 1), 1e-9
        )

    def test_hausdorff_identical(self):
        assert hausdorff(sq(0.2), sq(0.2)) == 0.0

    def test_hausdorff_balls(self):
        assert hausdorff(
            RoundedSet.ball((0, 0), 1), RoundedSet.ball((0, 0), 2)
        ) == pytest.approx(1.0)

    def test_hausdorff_dilation(self):
        assert hausdorff(sq(), dilate(sq(), 0.3)) == pytest.approx(0.3)


class TestProperties:
    def test_steiner_consistency(self, rng):
        for _ in range(200):
            s = random_rounded_set(rng)
            r = float(rng.random() * 2)
            want = (
                rounded_area(s)
                + r * rounded_perimeter(s)
                + math.pi * r * r
            )
            assert rounded_area(dilate(s, r)) == pytest.approx(want, rel=1e-12)

    def test_isoperimetric_inequality(self, rng):
        for _ in range(200):
            s = random_rounded_set(rng)
            assert rounded_perimeter(s) >= 2 * math.sqrt(
                math.pi * rounded_area(s)
            ) * (1 - 1e-12)
        ball = RoundedSet.ball((1, 1), 0.77)
        assert rounded_perimeter(ball) == pytest.approx(
            2 * math.sqrt(math.pi * rounded_area(ball)), rel=1e-14
        )

    def test_local_perimeter_bound(self, rng):
        for _ in range(20):
            s = random_rounded_set(rng)
            for _ in range(50):
                center = rng.random(2) * 4 - 1
                r = float(rng.random() * s.diameter + 1e-3)
                assert boundary_length_in_disk(s, center, r) <= 2 * math.pi * r + 1e-9

    def test_clipping_recovers_full_perimeter(self, rng):
        # a stadium has two straight sides, and two half-turn arcs if rounded
        sets = [random_rounded_set(rng) for _ in range(20)]
        sets += [RoundedSet.stadium((0.3, -0.2), (2.1, 1.4), r) for r in (0.0, 0.35)]
        for s in sets:
            big = 10.0 * s.diameter
            got = boundary_length_in_disk(s, (0.0, 0.0), big)
            assert got == pytest.approx(rounded_perimeter(s), rel=1e-12)

    def test_edge_offset_to_a_point(self):
        # a triangle with 1e-9 sides rounded by 1e9: two offset edges round
        # to points, and the clipped length is the arcs' full turn
        s = RoundedSet.from_polygon(
            [(0, 0), (1e-9, 0), (0.5e-9, math.sqrt(3) / 2 * 1e-9)], 1e9
        )
        sides = [p for p in boundary_pieces(s) if p[0] == "seg"]
        assert any(np.array_equal(p[1], p[2]) for p in sides)
        got = boundary_length_in_disk(s, (0.0, 0.0), 2e9)
        assert got == pytest.approx(rounded_perimeter(s), rel=1e-12)

    def test_concentric_disk_clips_a_ball(self):
        ball = RoundedSet.ball((1, -1), 1.0)
        assert boundary_length_in_disk(ball, (1, -1), 2.0) == 2.0 * math.pi
        assert boundary_length_in_disk(ball, (1, -1), 0.5) == 0.0

    def test_stadium_pieces_join_up(self):
        # two sides and two half-turn arcs, each side joined to the next
        p, q, r = np.array([0.3, -0.2]), np.array([2.1, 1.4]), 0.35
        pieces = boundary_pieces(RoundedSet.stadium(p, q, r))
        assert [piece[0] for piece in pieces] == ["seg", "arc", "seg", "arc"]
        for (_, _, end), (_, c, rho, a0, a1) in zip(pieces[::2], pieces[1::2]):
            assert a1 - a0 == pytest.approx(math.pi, abs=1e-15)
            assert np.allclose(c + rho * np.array([math.cos(a0), math.sin(a0)]), end)
        assert np.allclose(pieces[0][1] + pieces[2][2], 2.0 * p)
        assert boundary_pieces(RoundedSet.empty()) == []

    @pytest.mark.parametrize(
        "center, r",
        [((0.5, 0.5), -10.0), ((0.5, 0.5), math.nan), ((0.5, 0.5), math.inf),
         ((math.nan, 0.5), 1.0), ((0.5, -math.inf), 1.0)],
    )
    def test_clipping_rejects_bad_disk(self, center, r):
        # a negative radius gave the whole perimeter, a nan centre more than it
        with pytest.raises(BadConfigError):
            boundary_length_in_disk(sq(0.2), center, r)

    def test_centroid_invariant_under_dilation_when_symmetric(self):
        for s in (
            RoundedSet.ball((1, 2), 0.5),
            RoundedSet.stadium((0, 0), (2, 1), 0.3),
            RoundedSet.from_polygon([(0, 0), (3, 0), (3, 1), (0, 1)]),
        ):
            c0 = rounded_centroid(s)
            c1 = rounded_centroid(dilate(s, 0.7))
            assert (c1.x, c1.y) == pytest.approx((c0.x, c0.y), abs=1e-12)
