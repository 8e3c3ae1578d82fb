"""The Delaunay kernel: exact predicates, triangulation invariants, and
differential tests of the encirclement functions against the enumeration
oracles in oracles.py."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskdraw import (
    DissectionSpec,
    Point,
    StageParams,
    chessboard_stages,
    constrained_largest_empty_circle,
    dissection_stages,
    encircles,
    escape_radius,
)
from diskdraw.delaunay import Delaunay, circumcenter, incircle, orient

from helpers import DIFF
from oracles import (
    encircles_enumerated,
    escape_radius_enumerated,
    hull_distance,
    lec_enumerated,
)

EPS = 2.0**-53


class TestPredicates:
    def test_orient_signs(self):
        assert orient((0, 0), (1, 0), (0, 1)) == 1
        assert orient((0, 0), (0, 1), (1, 0)) == -1
        assert orient((0, 0), (1, 1), (2, 2)) == 0

    def test_orient_beyond_the_float_filter(self):
        # c is one ulp off the line y = x at 0.5; the float determinant of
        # the translated points cannot see it, the exact fallback does
        c = (0.5, math.nextafter(0.5, 1.0))
        assert orient((0.0, 0.0), (1.0, 1.0), c) == 1
        assert orient((0.0, 0.0), (1.0, 1.0), (0.5, 0.5)) == 0
        assert orient((12.0, 12.0), (24.0, 24.0), (0.5, math.nextafter(0.5, 0.0))) == -1

    def test_incircle_cocircular_is_zero(self):
        sq = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)]
        assert incircle(*sq, (0.0, -1.0)) == 0
        assert incircle(*sq, (0.0, 0.0)) == 1
        assert incircle(*sq, (0.0, math.nextafter(-1.0, -2.0))) == -1
        assert incircle(*sq, (0.0, math.nextafter(-1.0, 0.0))) == 1

    def test_circumcenter(self):
        assert circumcenter((0.0, 0.0), (2.0, 0.0), (0.0, 2.0)) == (1.0, 1.0)
        assert circumcenter((0.0, 0.0), (1.0, 1.0), (3.0, 3.0)) is None


def _check_triangulation(dt: Delaunay) -> None:
    pts = dt.points
    tris = dt.triangles()
    for a, b, c in tris:
        assert orient(pts[a], pts[b], pts[c]) == 1
        for p in pts:
            assert incircle(pts[a], pts[b], pts[c], p) <= 0
    if tris:
        # Euler: 2n - 2 - h triangles, h counting every point on the hull,
        # which are the points with unbounded Voronoi cells
        on_hull = sum(dt.cell_fan(p) is None for p in pts)
        assert len(tris) == 2 * len(pts) - 2 - on_hull


grid_xy = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(lambda p: (float(p[0]), float(p[1])))


class TestTriangulation:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(grid_xy, min_size=1, max_size=25), st.sampled_from([1e-6, 1.0, 0.1, 1e6]))
    def test_empty_circles_on_degenerate_grids(self, xys, scale):
        _check_triangulation(Delaunay([(scale * x, scale * y) for x, y in xys]))

    def test_collinear_points_have_no_triangles(self):
        dt = Delaunay([(2.0, 2.0), (0.0, 0.0), (1.0, 1.0), (1.0, 1.0)])
        assert dt.triangles() == []
        assert sorted(tuple(sorted(e)) for e in dt.edges()) == [(0, 2), (1, 2)]
        assert dt.cell_fan((1.0, 1.0)) is None
        assert dt.cell_fan((0.5, 0.7)) is None

    @pytest.mark.parametrize("extent", [1e-6, 1.0, 1e6])
    def test_hull_edge_is_exact_at_every_scale(self, extent):
        # a super-triangle at 1e6 times the extent misclassifies points within
        # about 1e-7 * extent of a hull edge; ghost triangles do not
        dt = Delaunay([(0.0, 0.0), (extent, 0.0), (extent, extent), (0.0, extent)])
        gap = 1e-12 * extent
        assert dt.cell_fan((0.5 * extent, gap)) is not None
        assert dt.cell_fan((0.5 * extent, 0.0)) is None
        assert dt.cell_fan((0.5 * extent, -gap)) is None

    def test_vertex_link_equals_insertion_cavity(self):
        square = [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]
        cavity = Delaunay(square).cell_fan((1.0, 1.0))
        link = Delaunay(square + [(1.0, 1.0)]).cell_fan((1.0, 1.0))
        assert sorted(cavity) == sorted(link) == [(0, 1), (1, 2), (2, 3), (3, 0)]
        assert Delaunay(square).cell_fan((0.0, 0.0)) is None


# ---------------------------------------------------------------------------
# Differential tests against the enumeration oracles
# ---------------------------------------------------------------------------

scales = st.sampled_from([1e-6, 1e-3, 0.3, 1.0, 3.0, 1e3, 1e6])


@st.composite
def grid_family(draw):
    """Small-integer grid points: coincident, collinear and cocircular."""
    s = draw(st.lists(grid_xy, min_size=1, max_size=9))
    t = draw(st.lists(grid_xy, min_size=1, max_size=3))
    return s, t, 0.25


@st.composite
def polygon_family(draw):
    """A regular k-gon, maybe with its center, and targets at the center."""
    k = draw(st.integers(3, 12))
    phase = draw(st.sampled_from([0.0, math.pi / k, 0.3]))
    s = [(math.cos(phase + 2 * math.pi * i / k), math.sin(phase + 2 * math.pi * i / k)) for i in range(k)]
    if draw(st.booleans()):
        s.append((0.0, 0.0))
    t = [(0.0, 0.0)] + draw(st.lists(st.sampled_from(s + [(0.5, 0.0), (0.0, -0.25)]), max_size=2))
    return s, t, 1.0


@st.composite
def chessboard_family(draw):
    r = draw(st.floats(0.05, 0.5))
    theta = math.radians(draw(st.floats(0.1, 40.0)))
    s1, s2 = chessboard_stages(r, theta, 2)
    outer, inner = draw(st.sampled_from([(s1.blacks, s2.whites), (s1.whites, s2.blacks), (s1.blacks, s1.whites)]))
    return [(p.x, p.y) for p in outer], [(p.x, p.y) for p in inner], r


@st.composite
def mirror_family(draw):
    """Mirror-symmetric sets: random points and their reflections, and a
    dissection stage pair, which is mirror-symmetric about its rays."""
    if draw(st.booleans()):
        half = draw(st.lists(st.tuples(st.integers(0, 8), st.integers(-8, 8)), min_size=1, max_size=5))
        s = [(x / 8.0, y / 8.0) for x, y in half] + [(-x / 8.0, y / 8.0) for x, y in half]
        t = draw(st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)), min_size=1, max_size=3))
        return s, [(x / 8.0, y / 8.0) for x, y in t], 1.0
    n = draw(st.sampled_from([4, 6]))
    spec = DissectionSpec(Point(0, 0), n, a=0.0, b=1.0, d=1.0, phase=0.0)
    stages = dissection_stages(StageParams(n=n, L=draw(st.floats(0.3, 0.6)), s=0.05), spec, 1)
    s, t = (stages[0].blacks, stages[1].whites) if draw(st.booleans()) else (stages[0].whites, stages[1].blacks)
    return [(p.x, p.y) for p in s], [(p.x, p.y) for p in t], 1.0


@st.composite
def point_sets(draw):
    """(S, T, scale): a family from any generator, scaled; scale also sets the
    LEC constraint radii, and unit-radius queries run at every scale."""
    s, t, size = draw(st.one_of(grid_family(), polygon_family(), chessboard_family(), mirror_family()))
    k = draw(scales)
    to_points = lambda xys: [Point(k * x, k * y) for x, y in xys]
    return to_points(s), to_points(t), k * size


def _ulps(S, t) -> float:
    """A few ulps of the largest coordinate: the rounding floor of any
    point computed from S and t."""
    return 64 * EPS * max(max(abs(p.x), abs(p.y)) for p in list(S) + [t])


def _close(a: float, b: float, S, t) -> bool:
    """Equal within 1e-9 relative, plus the rounding floor."""
    return abs(a - b) <= 1e-9 * abs(b) + _ulps(S, t)


class TestDifferential:
    @settings(DIFF, max_examples=200)
    @given(point_sets(), st.sampled_from([0.5, 1.0, 2.0]))
    def test_lec_matches_enumeration(self, case, k):
        S, T, size = case
        for t in T:
            for rho in (1.0, 1.0 - 2e-9, k * size):
                center, clearance = constrained_largest_empty_circle(S, t, rho)
                _, oracle = lec_enumerated(S, t, rho)
                assert _close(clearance, oracle, S, t), (t, rho, clearance, oracle)
                assert center.distance_to(t) <= rho * (1 + 1e-12) + _ulps(S, t)
                assert clearance == min(center.distance_to(p) for p in S)

    @settings(DIFF, max_examples=200)
    @given(point_sets())
    def test_encircles_matches_enumeration(self, case):
        S, T, _ = case
        assert encircles(S, T) is encircles_enumerated(S, T)

    @settings(DIFF, max_examples=200)
    @given(point_sets())
    def test_escape_radius_matches_enumeration(self, case):
        S, T, _ = case
        extent = max(max(abs(p.x), abs(p.y)) for p in S)
        for t in T:
            got, oracle = escape_radius(S, [t]), escape_radius_enumerated(S, [t])
            if math.isinf(got) != math.isinf(oracle):
                # only inside the band the oracle's hull margin leaves open
                assert hull_distance(S, t) <= 1e-9 * extent, (t, got, oracle)
            elif not math.isinf(got):
                assert _close(got, oracle, S, t), (t, got, oracle)
