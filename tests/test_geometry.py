import copy
import dataclasses
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diskdraw import (
    Arc,
    CollinearPoints,
    EmptyObstacleSet,
    InvalidTrapezoid,
    Point,
    Segment,
    SinglePoint,
    WholePlane,
    build_snake,
    circumcircle3,
    constrained_largest_empty_circle,
    halfplane_center_set,
    piece_distance,
    trapezoid_circumradius,
)
from diskdraw import curvature
from diskdraw.geometry import TWO_PI, OffsetHalfPlane, piece_intersections, piece_rect_distance, unit

from helpers import DIFF, grid_max_min_dist, random_point, random_primitive, rigid_motion
from oracles import (convex_hull, piece_distance_by_points, piece_intersections_by_points, piece_rect_distance_by_edges,
                     strictly_inside_hull)


class TestDistToPrimitive:
    def test_single_point_pythagorean(self):
        assert SinglePoint(Point(3, 4)).dist(Point(0, 0)) == 5.0

    def test_whole_plane(self):
        assert WholePlane().dist(Point(0, 0)) == 0.0

    def test_arc_above_semicircle(self):
        # brute-force oracle: minimize over 1e6 samples of the upper unit semicircle
        arc = Arc(Point(0, 0), 1.0, 0.0, math.pi, ccw=True)
        ts = np.linspace(0.0, math.pi, 1_000_000)
        oracle = float(np.hypot(np.cos(ts) - 0.0, np.sin(ts) - 2.0).min())
        exact = arc.dist(Point(0, 2))
        assert abs(exact - 1.0) < 1e-12
        assert abs(exact - oracle) < 1e-9

    def test_arc_outside_angular_range_uses_endpoints(self):
        arc = Arc(Point(0, 0), 1.0, 0.0, math.pi / 2, ccw=True)
        # query below the x axis: nearest arc point is the endpoint (1, 0)
        d = arc.dist(Point(1, -1))
        assert abs(d - 1.0) < 1e-12

    def test_arc_center_query(self):
        arc = Arc(Point(1, 1), 0.5, 0.3, 2.0)
        assert arc.dist(Point(1, 1)) == 0.5

    def test_cw_arc_matches_sampled(self):
        arc = Arc(Point(0.5, -0.2), 1.3, 2.0, 0.5, ccw=False)  # sweep 1.5 rad clockwise
        rng = random.Random(7)
        ts = np.linspace(0.0, 1.0, 200_001)
        angs = 2.0 - 1.5 * ts
        px = 0.5 + 1.3 * np.cos(angs)
        py = -0.2 + 1.3 * np.sin(angs)
        for _ in range(50):
            q = random_point(rng)
            oracle = float(np.hypot(px - q.x, py - q.y).min())
            assert arc.dist(q) <= oracle + 1e-9
            assert arc.dist(q) >= oracle - 1e-6

    def test_segment_distance(self):
        seg = Segment(Point(0, 0), Point(2, 0))
        assert abs(seg.dist(Point(1, 1)) - 1.0) < 1e-15
        assert abs(seg.dist(Point(3, 0)) - 1.0) < 1e-15
        assert abs(seg.dist(Point(-3, 4)) - 5.0) < 1e-15

    def test_segment_needs_a_positive_squared_length(self):
        # 1e-300 squared underflows to 0: dist_to_segment would divide by it
        with pytest.raises(ValueError):
            Segment(Point(0, 0), Point(1e-300, 0))
        # 1e308 squared overflows to inf: the distance to (1, -1), on the
        # segment, would be NaN
        with pytest.raises(ValueError):
            Segment(Point(0, 0), Point(1e308, -1e308))
        with pytest.raises(ValueError):
            Segment(Point(1, 1), Point(1, 1))
        assert Segment(Point(0, 0), Point(1e-150, 0)).dist(Point(0, 1)) == 1.0

    def test_halfplane_distance(self):
        hp = OffsetHalfPlane(Point(0, 1), 0.0)
        assert hp.dist(Point(0, 0.5)) == 0.5
        assert hp.dist(Point(5, 3.0)) == 0.0
        assert hp.dist(Point(0, -0.1)) == pytest.approx(1.1)

    @pytest.mark.parametrize("offset", [math.nan, math.inf, -math.inf])
    def test_halfplane_offset_must_be_finite(self, offset):
        # no distance to such a half-plane means anything: with a nan offset max(0.0, nan) is 0.0 everywhere
        for build in (OffsetHalfPlane, halfplane_center_set):
            with pytest.raises(ValueError, match=r"^half-plane offset must be finite, got -?(nan|inf)$"):
                build(Point(1, 0), offset)

    @settings(DIFF, max_examples=500)
    @given(st.data())
    def test_one_float_kernel_per_primitive(self, data):
        # dist(x) is dist_xy(x.x, x.y) bit for bit, and for a point and a
        # half-plane also the Point form that dist_xy replaced; signed zeros,
        # unit circles about the primitive and magnitudes from 1e-6 to 1e6
        coord = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6))
        xy = lambda: Point(data.draw(coord), data.draw(coord))
        kind = data.draw(st.sampled_from(["point", "segment", "arc", "halfplane", "plane"]))
        if kind == "point":
            prim = SinglePoint(xy())
            anchor, old = prim.p, lambda x: x.distance_to(prim.p)
        elif kind == "segment":
            a, b = xy(), xy()
            assume(a != b)
            prim, anchor, old = Segment(a, b), a, None
        elif kind == "arc":
            prim = Arc(xy(), data.draw(st.floats(1e-6, 1e6)), data.draw(ANGLE), data.draw(ANGLE),
                       data.draw(st.booleans()))
            anchor, old = prim.start_point, None
        elif kind == "halfplane":
            prim = OffsetHalfPlane(unit(data.draw(ANGLE)), data.draw(coord))
            anchor = prim.normal.scaled(prim.offset + 1.0)
            old = lambda x: max(0.0, -(x.dot(prim.normal) - (prim.offset + 1.0)))
        else:
            prim, anchor, old = WholePlane(), Point(0, 0), lambda x: 0.0
        x = anchor + unit(data.draw(ANGLE)) if data.draw(st.booleans()) else xy()
        want = prim.dist(x).hex()
        assert prim.dist_xy(x.x, x.y).hex() == want
        if old is not None:
            assert old(x).hex() == want

    def test_lipschitz(self):
        rng = random.Random(42)
        for _ in range(500):
            prim = random_primitive(rng)
            x, y = random_point(rng, 5.0), random_point(rng, 5.0)
            lhs = abs(prim.dist(x) - prim.dist(y))
            assert lhs <= x.distance_to(y) + 1e-12



class TestArcDerivedFields:
    """sweep, start_point and end_point are computed once per Arc; they take
    no part in ==, hash or repr, and every way of making an Arc sets them."""

    ARC = Arc(Point(0.5, -0.2), 1.3, 2.0, 0.5, ccw=False)

    def assert_derived(self, a):
        turn = (a.end_angle - a.start_angle if a.ccw else a.start_angle - a.end_angle) % TWO_PI
        assert a.sweep == (turn or TWO_PI)
        assert a.start_point == a.point_at(0.0)
        assert a.end_point == a.point_at(1.0)

    def test_eq_hash_repr_read_only_the_five_fields(self):
        a = self.ARC
        assert repr(a) == "Arc(center=Point(x=0.5, y=-0.2), radius=1.3, start_angle=2.0, end_angle=0.5, ccw=False)"
        assert a == Arc(Point(0.5, -0.2), 1.3, 2.0, 0.5, False)
        assert hash(a) == hash((a.center, a.radius, a.start_angle, a.end_angle, a.ccw))
        # equal sweeps and ends do not make arcs equal
        assert Arc(Point(0, 0), 1.0, 0.0, 0.0) != Arc(Point(0, 0), 1.0, 0.0, TWO_PI)
        assert Arc(Point(0, 0), 1.0, 0.0, 0.0).sweep == Arc(Point(0, 0), 1.0, 0.0, TWO_PI).sweep == TWO_PI

    def test_sweep_values(self):
        assert self.ARC.sweep == pytest.approx(1.5)
        assert Arc(Point(0, 0), 1.0, 0.5, 2.0, ccw=False).sweep == pytest.approx(TWO_PI - 1.5)
        self.assert_derived(self.ARC)

    def test_replace_copy_and_pickle_recompute(self):
        a = self.ARC
        moved = dataclasses.replace(a, end_angle=-1.0)
        assert moved.end_point == moved.point_at(1.0) != a.end_point
        assert moved.sweep == pytest.approx(3.0)
        with pytest.raises(ValueError):
            dataclasses.replace(a, sweep=1.0)
        for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert b == a
            assert (b.sweep, b.start_point, b.end_point) == (a.sweep, a.start_point, a.end_point)
            self.assert_derived(b)

    def test_angles_must_be_finite(self):
        # the ends are computed at construction, so a bad angle fails there
        for a0, a1 in ((math.inf, 1.0), (0.0, math.nan)):
            with pytest.raises(ValueError, match="angles must be finite"):
                Arc(Point(0, 0), 1.0, a0, a1)

    def test_rotated_ends(self):
        a = self.ARC
        for b in (a.rotated(Point(1.0, 2.0), 0.7), a.rotated(Point(-3, 0), -2.0)):
            self.assert_derived(b)


# ---------------------------------------------------------------------------
# piece_distance against dense sampling
# ---------------------------------------------------------------------------

SCALES = [1e-3, 2.0**-5, 0.25, 1.0, 4.0, 2.0**5, 1e3]
ANGLE = st.floats(0.0, 2.0 * math.pi)
SWEEP = st.floats(0.1, 2.0 * math.pi - 0.1)
UNIT = st.floats(0.2, 2.0)


def arc(center, radius, a0, sweep, ccw):
    return Arc(center, radius, a0, a0 + sweep if ccw else a0 - sweep, ccw)


@st.composite
def piece_pairs(draw):
    """(p, q) in the unit scale: concentric arcs, tangent circles, collinear
    overlapping segments, pieces that share an end, the offset of a piece
    against the tangent next piece, or two random pieces."""
    kind = draw(st.sampled_from(["concentric", "tangent", "collinear", "shared", "g1", "random"]))
    c = Point(draw(st.floats(-2, 2)), draw(st.floats(-2, 2)))
    if kind == "concentric":
        return (arc(c, draw(UNIT), draw(ANGLE), draw(SWEEP), draw(st.booleans())),
                arc(c, draw(UNIT), draw(ANGLE), draw(SWEEP), draw(st.booleans())))
    if kind == "tangent":
        r1, r2, alpha = draw(UNIT), draw(UNIT), draw(ANGLE)
        gap = r1 + r2 if draw(st.booleans()) else abs(r1 - r2)
        c2 = c + unit(alpha).scaled(gap)
        # half the time both arcs hold the tangent point
        a1 = alpha - 0.5 if draw(st.booleans()) else draw(ANGLE)
        return (arc(c, r1, a1, draw(SWEEP), True),
                arc(c2, r2, alpha + (math.pi if gap == r1 + r2 else 0.0) - 0.5, draw(SWEEP), True))
    if kind == "collinear":
        u = unit(draw(ANGLE))
        ends = draw(st.lists(st.integers(-20, 20), min_size=4, max_size=4, unique=True))
        order = [0.1 * t for t in ends]
        return Segment(c + u.scaled(order[0]), c + u.scaled(order[1])), \
            Segment(c + u.scaled(order[2]), c + u.scaled(order[3]))
    first = draw(st.sampled_from(["segment", "arc"]))
    if first == "segment":
        p = Segment(c, c + unit(draw(ANGLE)).scaled(draw(UNIT)))
    else:
        p = arc(c, draw(UNIT), draw(ANGLE), draw(SWEEP), draw(st.booleans()))
    if kind == "random":
        c2 = Point(draw(st.floats(-2, 2)), draw(st.floats(-2, 2)))
        if draw(st.booleans()):
            return p, Segment(c2, c2 + unit(draw(ANGLE)).scaled(draw(UNIT)))
        return p, arc(c2, draw(UNIT), draw(ANGLE), draw(SWEEP), draw(st.booleans()))
    end, tangent = p.end_point, p.tangent_at(1.0)
    if kind == "shared":
        if draw(st.booleans()):
            return p, Segment(end, end + unit(draw(ANGLE)).scaled(draw(UNIT)))
        r, beta = draw(UNIT), draw(ANGLE)
        return p, arc(end + unit(beta).scaled(r), r, beta + math.pi, draw(SWEEP), draw(st.booleans()))
    # g1: the next piece leaves p's end along its tangent; p moves to its
    # offset at distance 1 on one side, as the rolling-disk centres do
    side = draw(st.sampled_from([1, -1]))
    if isinstance(p, Segment):
        normal = tangent.rot90().scaled(side)
        offset = Segment(p.a + normal, p.b + normal)
    else:
        ends = [q + p.tangent_at(f).rot90().scaled(side) - p.center
                for q, f in ((p.start_point, 0.0), (p.end_point, 1.0))]
        rho = ends[0].norm()  # R -+ 1; a radius near 0 collapses to the centre
        offset = (SinglePoint(p.center) if rho < 0.05
                  else Arc(p.center, rho, *(math.atan2(e.y, e.x) for e in ends), p.ccw))
    if draw(st.booleans()):
        return offset, Segment(end, end + tangent.scaled(draw(UNIT)))
    r = draw(UNIT)
    turn = draw(st.sampled_from([1, -1]))
    center = end + tangent.rot90().scaled(turn * r)
    start = math.atan2(end.y - center.y, end.x - center.x)
    return offset, arc(center, r, start, draw(st.floats(0.1, 3.0)), turn > 0)


def scaled_piece(piece, k):
    if isinstance(piece, SinglePoint):
        return SinglePoint(piece.p.scaled(k))
    if isinstance(piece, Segment):
        return Segment(piece.a.scaled(k), piece.b.scaled(k))
    return Arc(piece.center.scaled(k), k * piece.radius, piece.start_angle, piece.end_angle, piece.ccw)


def sampled_distance(p, q, n=1000):
    """(min over n + 1 points of p, and of q, of the exact distance to the
    other piece; the spacing of those points).  Every sample is a point of
    its piece, so the minimum bounds the distance from above, by at most
    half the spacing."""
    def points(piece):
        if isinstance(piece, SinglePoint):
            return [piece.p]
        return [piece.point_at(k / n) for k in range(n + 1)]

    def length(piece):
        return 0.0 if isinstance(piece, SinglePoint) else piece.length

    best = min(min(q.dist(x) for x in points(p)),
               min(p.dist(y) for y in points(q)))
    return best, max(length(p), length(q)) / n


class TestPieceDistance:
    @DIFF
    @given(pair=piece_pairs(), k=st.sampled_from(SCALES))
    def test_matches_dense_sampling(self, pair, k):
        p, q = (scaled_piece(piece, k) for piece in pair)
        d = piece_distance(p, q)
        brute, spacing = sampled_distance(p, q)
        slack = 1e-9 * k
        assert brute - spacing - slack <= d <= brute + slack
        assert piece_distance(q, p) == pytest.approx(d, rel=1e-12, abs=slack)

    @DIFF
    @given(pair=piece_pairs(), k=st.sampled_from(SCALES))
    def test_zero_exactly_on_intersection(self, pair, k):
        p, q = (scaled_piece(piece, k) for piece in pair)
        if isinstance(p, SinglePoint) or isinstance(q, SinglePoint):
            return
        hits = piece_intersections(p, q, 1e-12 * max(p.extent(), q.extent()))
        assert (piece_distance(p, q) == 0.0) == bool(hits)

    def test_concentric_arcs(self):
        c = Point(1.0, -2.0)
        # overlapping angular ranges: the radial gap
        assert piece_distance(Arc(c, 1.0, 0.0, 2.0), Arc(c, 3.0, 1.0, 4.0)) == 2.0
        # disjoint ranges: the nearest ends
        d = piece_distance(Arc(c, 1.0, 0.0, 1.0), Arc(c, 1.0, 2.0, 3.0))
        assert d == pytest.approx(Arc(c, 1.0, 0.0, 1.0).end_point.distance_to(Arc(c, 1.0, 2.0, 3.0).start_point))

    def test_overlapping_concentric_arcs_intersect(self):
        c = Point(0.5, 0.5)
        assert piece_intersections(Arc(c, 1.0, 0.0, 2.0), Arc(c, 1.0, 1.0, 3.0), 1e-12)
        assert not piece_intersections(Arc(c, 1.0, 0.0, 1.0), Arc(c, 1.0, 2.0, 3.0), 1e-12)
        assert not piece_intersections(Arc(c, 1.0, 0.0, 2.0), Arc(c, 1.5, 1.0, 3.0), 1e-12)

    def test_tangent_circles_touch(self):
        outer = Arc(Point(0, 0), 2.0, 0.0, 0.0)
        assert piece_distance(outer, Arc(Point(3, 0), 1.0, 0.0, 0.0)) == 0.0  # externally
        assert piece_distance(outer, Arc(Point(1, 0), 1.0, 0.0, 0.0)) == 0.0  # internally
        assert piece_distance(outer, Arc(Point(0.5, 0), 1.0, 0.0, 0.0)) == pytest.approx(0.5)

    @DIFF
    @given(pair=piece_pairs(), k=st.sampled_from(SCALES))
    def test_bbox_is_tight(self, pair, k):
        # the box holds 2001 points of the piece, and each of its sides
        # comes within 1e-5 of the scale of one of them
        for piece in (scaled_piece(p, k) for p in pair):
            x0, y0, x1, y1 = piece.bbox()
            if isinstance(piece, SinglePoint):
                assert (x0, y0) == (x1, y1) == (piece.p.x, piece.p.y)
                continue
            pts = [piece.point_at(i / 2000) for i in range(2001)]
            slack = 1e-12 * piece.extent()
            assert all(x0 - slack <= q.x <= x1 + slack and y0 - slack <= q.y <= y1 + slack for q in pts)
            near = 1e-5 * k
            assert min(q.x for q in pts) <= x0 + near and max(q.x for q in pts) >= x1 - near
            assert min(q.y for q in pts) <= y0 + near and max(q.y for q in pts) >= y1 - near

    def test_near_parallel_segments_beside_each_other_do_not_meet(self):
        # a short segment 5e-7 beside a long one that is nearly parallel to
        # it: the long one's start is within tol of the short one's line,
        # but neither segment comes within tol of the other
        short = Segment(Point(0, 0), Point(1e-6, 0))
        assert piece_intersections(short, Segment(Point(-5, 5e-8), Point(5, 5e-8 + 9e-7)), 1e-7) == []
        long = Segment(Point(-5, 1e-12), Point(5, 1e-12 + 9e-7))
        assert piece_distance(short, long) == piece_distance(long, short) == pytest.approx(4.5e-7, rel=1e-4)

    def test_near_parallel_segments_that_cross_meet(self):
        # the long segment crosses the short one at the origin, though its
        # start is 4e-7 off the short one's line
        short, long = Segment(Point(0, 0), Point(1e-6, 0)), Segment(Point(-5, -4e-7), Point(5, 4e-7))
        for p, q in ((short, long), (long, short)):
            (hit,) = piece_intersections(p, q, 1e-7)
            assert short.dist(hit) <= 1e-7 and long.dist(hit) <= 1e-7
        assert piece_distance(short, long) == piece_distance(long, short) == 0.0

    def test_collinear_segments_end_to_end_meet(self):
        # 1e-8 apart on one line, under tol: each reports its own near end
        right, left = Segment(Point(0, 0), Point(1, 0)), Segment(Point(-5, 0), Point(-1e-8, 0))
        assert piece_intersections(right, left, 1e-7) == [Point(0, 0)]
        (hit,) = piece_intersections(left, right, 1e-7)
        assert hit.distance_to(Point(-1e-8, 0)) < 1e-15
        # piece_distance asks within 1e-12 of the scale, so the gap stays
        assert piece_distance(right, left) == piece_distance(left, right) == pytest.approx(1e-8, rel=1e-6)

    def test_short_segment_stopping_short_of_a_long_one_meets_it(self):
        # (0, 0)-(1, 0) stops 5e-8 short of the vertical x = 1 + 5e-8 of
        # length 100: each parameter may overshoot by tol of its own length,
        # so the pair meets, either way round, at the short one's end
        short, long = Segment(Point(0, 0), Point(1, 0)), Segment(Point(1 + 5e-8, -50), Point(1 + 5e-8, 50))
        assert piece_intersections(short, long, 1e-7) == [Point(1, 0)]
        (hit,) = piece_intersections(long, short, 1e-7)
        assert hit.distance_to(Point(1, 0)) <= 1e-7 and long.dist(hit) == 0.0

    def test_segment_and_arc_interior_pair(self):
        # the closest pair joins the top of the arc to the foot on the segment
        d = piece_distance(Arc(Point(0, 0), 1.0, 0.2, math.pi - 0.2), Segment(Point(-5, 3), Point(5, 3)))
        assert d == pytest.approx(2.0, rel=1e-15)


def assert_same_kernel(p, q):
    """piece_distance and piece_intersections (at tol 1e-7 and at 1e-12 of
    the pieces' extent) equal the Point kernel of tests/oracles.py bit for
    bit, either way round."""
    for a, b in ((p, q), (q, p)):
        assert piece_distance(a, b).hex() == piece_distance_by_points(a, b).hex()
        if isinstance(a, SinglePoint) or isinstance(b, SinglePoint):
            continue
        for tol in (1e-7, 1e-12 * max(a.extent(), b.extent())):
            hits = [(h.x.hex(), h.y.hex()) for h in piece_intersections(a, b, tol)]
            assert hits == [(h.x.hex(), h.y.hex()) for h in piece_intersections_by_points(a, b, tol)]


@pytest.fixture(scope="module")
def snake_pieces():
    return build_snake(1.001).boundary.pieces


@pytest.fixture(scope="module")
def rolling_pairs():
    """(offset curve, window part) of every piece_distance call the
    rolling-disk proof of the snake makes at eps 0.5 and 4 (the latter
    bisects down to MAX_DEPTH)."""
    pairs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curvature, "piece_distance", lambda p, q: pairs.append((p, q)) or piece_distance(p, q))
        for eps in (0.5, 4.0):
            curvature.rolling_disk_check(build_snake(1.001).boundary, eps)
    return pairs


class TestFloatKernel:
    """The kernels compute in floats and build a Point only for a hit; the
    Point kernel they replaced is the oracle."""

    @DIFF
    @given(pair=piece_pairs(), k=st.sampled_from(SCALES + [1e-6, 1e6]))
    def test_equals_the_point_kernel(self, pair, k):
        assert_same_kernel(*(scaled_piece(piece, k) for piece in pair))

    def test_snake_pairs_equal_the_point_kernel(self, snake_pieces):
        for p in snake_pieces:
            for q in snake_pieces:
                assert_same_kernel(p, q)

    def test_rolling_offsets_equal_the_point_kernel(self, rolling_pairs):
        assert len(rolling_pairs) > 84
        for p, q in rolling_pairs:
            assert_same_kernel(p, q)

    def test_no_point_is_built_for_pieces_that_do_not_meet(self, monkeypatch, snake_pieces, rolling_pairs):
        pairs = [(p, q) for p in snake_pieces for q in snake_pieces] + rolling_pairs
        apart = [(p, q) for p, q in pairs if piece_distance(p, q) > 0.0]
        kinds = {(type(p), type(q), isinstance(p, Arc) and isinstance(q, Arc) and p.center == q.center)
                 for p, q in apart}
        assert kinds >= {(Segment, Segment, False), (Segment, Arc, False), (Arc, Segment, False),
                         (Arc, Arc, False), (Arc, Arc, True)}
        built = []
        monkeypatch.setattr(Point, "__post_init__", lambda self: built.append(self))
        for p, q in apart:
            piece_distance(p, q)
        assert built == []
        # the count sees the Points hits are built as: pieces 0 and 1 meet
        assert piece_distance(snake_pieces[0], snake_pieces[1]) == 0.0 and built

    @pytest.mark.parametrize("k", [1e-15, 1e-9])
    def test_nearly_concentric_circles_cross_at_every_scale(self, k):
        # radii 1 and 1.05, centres 0.1 apart: the circles cross twice.  At
        # k = 1e-15 the centres are 1e-16 apart, which a concentric test
        # not relative to the radii took for one centre
        a, b = Arc(Point(0, 0), k, 0.0, 0.0), Arc(Point(0.1 * k, 0), 1.05 * k, 0.0, 0.0)
        tol = 1e-12 * b.extent()
        for kernel in (piece_intersections, piece_intersections_by_points):
            hits = kernel(a, b, tol)
            assert len(hits) == 2 and all(a.dist(h) <= tol and b.dist(h) <= tol for h in hits)
        assert piece_distance(a, b) == piece_distance_by_points(a, b) == 0.0


# ---------------------------------------------------------------------------
# piece_rect_distance against the four-edge form
# ---------------------------------------------------------------------------

# (s, h) of corner k of the rectangle, edge k running from corner k to
# corner k + 1, and edge k's outward normal in the frame
CORNERS = ((0, 0), (1, 0), (1, 1), (0, 1))
NORMALS = ((0.0, -1.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0))


@st.composite
def rect_cases(draw):
    """(piece, frame, s, h) in the unit scale, on either side of the ray: a
    random point, segment, arc or full circle; a segment or arc through a
    corner; a segment on an edge's line overlapping it, end to end with it
    or a tiny gap apart; an arc tangent to an edge from outside or inside;
    an arc whose circle crosses an edge outside its sweep; or an arc of
    radius 1e-3 near an edge, as the snake's offsets are."""
    apex = Point(draw(st.floats(-2, 2)), draw(st.floats(-2, 2)))
    u = unit(draw(ANGLE))
    v = u.rot90().scaled(draw(st.sampled_from([1, -1])))
    s0, h0 = draw(st.floats(0.0, 2.0)), draw(st.floats(0.0, 1.0))
    s, h = (s0, s0 + draw(st.floats(0.05, 2.0))), (h0, h0 + draw(st.floats(0.05, 2.0)))

    def at(a, b):  # the point of frame coordinates (a, b)
        return Point(apex.x + a * u.x + b * v.x, apex.y + a * u.y + b * v.y)

    def angle(ds, dh):  # the world angle of the frame direction (ds, dh)
        return math.atan2(ds * u.y + dh * v.y, ds * u.x + dh * v.x)

    def on_edge(k, f):  # frame coordinates of the point at fraction f of edge k
        (a0, b0), (a1, b1) = CORNERS[k], CORNERS[(k + 1) % 4]
        return s[0] + (a0 + f * (a1 - a0)) * (s[1] - s[0]), h[0] + (b0 + f * (b1 - b0)) * (h[1] - h[0])

    kind = draw(st.sampled_from(["point", "segment", "arc", "circle", "corner", "collinear", "tangent",
                                 "outside sweep", "small"]))
    k, r, ccw = draw(st.integers(0, 3)), draw(UNIT), draw(st.booleans())
    nx, ny = NORMALS[k]

    def rand():  # frame coordinates of a point within 1.5 of the rectangle's box
        return draw(st.floats(s[0] - 1.5, s[1] + 1.5)), draw(st.floats(h[0] - 1.5, h[1] + 1.5))

    if kind == "point":
        piece = SinglePoint(at(*rand()))
    elif kind == "segment":
        a, b = at(*rand()), at(*rand())
        assume(a != b)
        piece = Segment(a, b)
    elif kind in ("arc", "circle"):
        a0 = draw(ANGLE)
        piece = arc(at(*rand()), r, a0, draw(SWEEP), ccw) if kind == "arc" else Arc(at(*rand()), r, a0, a0, ccw)
    elif kind == "corner":
        c, beta = at(*on_edge(k, 0.0)), draw(ANGLE)
        if draw(st.booleans()):
            d = unit(beta)
            piece = Segment(c + d.scaled(draw(UNIT)), c - d.scaled(draw(UNIT)))
        else:
            piece = arc(c + unit(beta).scaled(r), r, beta + math.pi - 0.5, draw(SWEEP), True)
    elif kind == "collinear":
        # from a fraction of the edge that overlaps it, or from its end, or
        # a tiny gap past it
        if draw(st.booleans()):
            t0 = draw(st.floats(-0.5, 0.9))
        else:
            t0 = 1.0 + draw(st.sampled_from([0.0, 1e-13, 1e-9, 1e-6]))
        ends = [at(*on_edge(k, t0)), at(*on_edge(k, t0 + draw(st.floats(0.1, 1.5))))]
        piece = Segment(*(ends if draw(st.booleans()) else ends[::-1]))
    elif kind == "tangent":
        ps, ph = on_edge(k, draw(st.floats(0.0, 1.0)))
        out = draw(st.sampled_from([1, -1]))  # the centre outside the rectangle or inside
        touch = angle(-out * nx, -out * ny)
        a0 = touch - 0.5 if draw(st.booleans()) else draw(ANGLE)
        piece = arc(at(ps + out * r * nx, ph + out * r * ny), r, a0, draw(SWEEP), True)
    elif kind == "outside sweep":
        # the circle crosses the edge's line; the arc, within 1 of the
        # direction of the normal about a centre r/2 out, stays outside
        ps, ph = on_edge(k, draw(st.floats(0.0, 1.0)))
        half = draw(st.floats(0.05, 1.0))
        piece = arc(at(ps + 0.5 * r * nx, ph + 0.5 * r * ny), r, angle(nx, ny) - half, 2.0 * half, ccw=True)
    else:
        ps, ph = on_edge(k, draw(st.floats(-0.1, 1.1)))
        off = draw(st.floats(-2e-3, 2e-3))
        piece = arc(at(ps + off * nx, ph + off * ny), 1e-3, draw(ANGLE), draw(SWEEP), ccw)
    return piece, (apex, u, v), s, h


def scaled_rect_case(piece, frame, s, h, k):
    apex, u, v = frame
    return scaled_piece(piece, k), (apex.scaled(k), u, v), (k * s[0], k * s[1]), (k * h[0], k * h[1])


class TestPieceRectDistance:
    """piece_rect_distance against the four-edge form it replaced in
    dissection_check (tests/oracles.py)."""

    @settings(DIFF, max_examples=400)
    @given(case=rect_cases(), k=st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]))
    def test_equals_the_four_edge_form(self, case, k):
        piece, frame, s, h = scaled_rect_case(*case, k)
        apex, u, v = frame
        corners = [apex + u.scaled(a) + v.scaled(b) for a in s for b in h]
        extent = max(piece.extent(), *(max(abs(c.x), abs(c.y)) for c in corners))
        got, want = piece_rect_distance(piece, frame, s, h), piece_rect_distance_by_edges(piece, frame, s, h)
        assert abs(got - want) <= 2e-12 * extent, (got, want)

    @pytest.mark.parametrize("side", [1, -1])
    def test_closed_forms(self, side):
        # the rectangle [1, 3] x [1, 2] of a frame turned by 0.3
        u = unit(0.3)
        frame, s, h = (Point(0.5, -0.25), u, u.rot90().scaled(side)), (1.0, 3.0), (1.0, 2.0)

        def at(a, b):
            return frame[0] + u.scaled(a) + frame[2].scaled(b)

        def rect_angle(ds, dh):
            d = u.scaled(ds) + frame[2].scaled(dh)
            return math.atan2(d.y, d.x)

        assert piece_rect_distance(SinglePoint(at(2.0, 1.5)), frame, s, h) == 0.0
        assert piece_rect_distance(SinglePoint(at(4.0, 2.0 + 1.0)), frame, s, h) == pytest.approx(math.sqrt(2.0))
        # a segment crossing the rectangle with both ends outside
        assert piece_rect_distance(Segment(at(0.0, 1.5), at(4.0, 1.5)), frame, s, h) == 0.0
        assert piece_rect_distance(Segment(at(0.0, 2.5), at(4.0, 2.5)), frame, s, h) == pytest.approx(0.5)
        # a full circle around the rectangle: its nearest points are the corners'
        c, r = at(2.0, 1.5), 2.0
        assert piece_rect_distance(Arc(c, r, 0.0, 0.0), frame, s, h) == pytest.approx(r - math.hypot(1.0, 0.5))
        # an arc bulging towards the top edge is nearest at its lowest point,
        # c - v, an interior point; the arc away from it, at its ends
        top = rect_angle(0.0, 1.0)
        c = at(2.0, 4.0)
        assert piece_rect_distance(Arc(c, 1.0, top + math.pi - 0.5, top + math.pi + 0.5), frame, s, h) == \
            pytest.approx(1.0)
        assert piece_rect_distance(Arc(c, 1.0, top - 0.5, top + 0.5), frame, s, h) == pytest.approx(2.0 + math.cos(0.5))
        # a circle crossing the top edge, met only within its sweep
        c = at(2.0, 2.5)
        assert piece_rect_distance(Arc(c, 1.0, top + math.pi - 0.2, top + math.pi + 0.2), frame, s, h) == 0.0
        assert piece_rect_distance(Arc(c, 1.0, top - 0.2, top + 0.2), frame, s, h) == pytest.approx(0.5 + math.cos(0.2))

    def test_builds_no_point(self, monkeypatch):
        u = unit(1.0)
        frame = (Point(0.0, 0.0), u, u.rot90())
        pieces = [SinglePoint(Point(5, 5)), Segment(Point(5, 5), Point(6, 4)), Arc(Point(5, 5), 1.0, 0.0, 2.0)]
        built = []
        monkeypatch.setattr(Point, "__post_init__", lambda self: built.append(self))
        assert all(piece_rect_distance(p, frame, (0.0, 1.0), (0.0, 1.0)) > 0.0 for p in pieces)
        assert built == []


class TestCircumcircle:
    def test_equilateral(self):
        h = math.sqrt(3.0) / 2.0
        c = circumcircle3(Point(0, 0), Point(1, 0), Point(0.5, h))
        assert c.radius == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)

    def test_collinear_raises(self):
        with pytest.raises(CollinearPoints):
            circumcircle3(Point(0, 0), Point(1, 0), Point(2, 0))

    def test_coincident_raises(self):
        with pytest.raises(CollinearPoints):
            circumcircle3(Point(0, 0), Point(0, 0), Point(2, 0))

    def test_scale_relative_threshold(self):
        # same shape far from the origin must still be accepted
        base = [Point(0, 0), Point(1, 0), Point(0.5, 0.5)]
        shifted = [Point(p.x + 1e6, p.y + 1e6) for p in base]
        c = circumcircle3(*shifted)
        assert math.isfinite(c.radius)

    def test_random_equidistance(self):
        rng = random.Random(3)
        done = 0
        while done < 200:
            p, q, r = (random_point(rng) for _ in range(3))
            try:
                c = circumcircle3(p, q, r)
            except CollinearPoints:
                continue
            ds = [c.center.distance_to(v) for v in (p, q, r)]
            assert max(ds) - min(ds) < 1e-10 * max(1.0, max(ds))
            done += 1


class TestTrapezoidCircumradius:
    def test_degenerate_base_is_isosceles_triangle(self):
        # one base of length 0: R = u^2 / (2 t) with u the leg length
        s, t = 0.37, 0.11
        u = math.hypot(s, t)
        assert trapezoid_circumradius(0.0, 2 * s, t) == pytest.approx(u * u / (2 * t), rel=1e-14)

    def test_near_rectangle_half_diagonal(self):
        r = trapezoid_circumradius(1.999999, 2.0, 2.0)
        assert abs(r - math.sqrt(2.0)) < 1e-3

    def test_invalid(self):
        with pytest.raises(InvalidTrapezoid):
            trapezoid_circumradius(2.0, 1.0, 1.0)
        with pytest.raises(InvalidTrapezoid):
            trapezoid_circumradius(-0.1, 1.0, 1.0)
        with pytest.raises(InvalidTrapezoid):
            trapezoid_circumradius(0.5, 1.0, 0.0)

    def test_matches_vertex_circumcircle(self):
        rng = random.Random(11)
        for _ in range(1000):
            a = rng.uniform(0.0, 4.0)
            b = a + rng.uniform(1e-3, 4.0)
            h = rng.uniform(1e-3, 4.0)
            formula = trapezoid_circumradius(a, b, h)
            oracle = circumcircle3(Point(-b / 2, 0), Point(b / 2, 0), Point(a / 2, h)).radius
            assert abs(formula - oracle) < 1e-9 * max(1.0, oracle)


class TestConstrainedLEC:
    def test_single_obstacle_antipodal(self):
        center, clearance = constrained_largest_empty_circle([Point(2, 0)], Point(0, 0), 1.0)
        assert clearance == pytest.approx(3.0, abs=1e-12)
        assert center.distance_to(Point(-1, 0)) < 1e-9

    def test_anchor_on_the_obstacle_is_exact(self):
        # every circle point is at distance rho from the coincident obstacle
        center, clearance = constrained_largest_empty_circle([Point(0, 0)], Point(0, 0), 1.0)
        assert clearance == 1.0
        assert center.distance_to(Point(0, 0)) == 1.0

    def test_anchor_on_one_of_several_obstacles(self):
        pts = [Point(0, 0), Point(3, 0), Point(0, 3), Point(-3, -3)]
        _, clearance = constrained_largest_empty_circle(pts, Point(0, 0), 0.5)
        assert clearance == 0.5
        assert clearance >= grid_max_min_dist(pts, Point(0, 0), 0.5, 1e-3) - 1e-12

    def test_empty_raises(self):
        with pytest.raises(EmptyObstacleSet):
            constrained_largest_empty_circle([], Point(0, 0), 1.0)

    def test_chessboard_points_from_origin(self):
        # four stage-1 black points surround the anchor; the max of the
        # min-distance over the small constraint disk is at the anchor itself
        # (moving any direction approaches one of the four points), giving
        # clearance r, confirmed by the dense grid oracle.
        r, theta = 0.1, math.radians(0.5)
        pts = [
            Point(r * math.cos(theta), r * math.sin(theta)),
            Point(r * math.sin(theta), r * math.cos(theta)),
            Point(-r * math.cos(theta), -r * math.sin(theta)),
            Point(-r * math.sin(theta), -r * math.cos(theta)),
        ]
        center, clearance = constrained_largest_empty_circle(pts, Point(0, 0), 0.08)
        assert clearance == pytest.approx(r, abs=1e-12)
        assert center.distance_to(Point(0, 0)) < 1e-9
        oracle = grid_max_min_dist(pts, Point(0, 0), 0.08, 1e-4)
        assert clearance >= oracle - 1e-9
        assert clearance <= oracle + 1e-3

    def test_unit_square_center(self):
        pts = [Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)]
        t = Point(0.5, 0.5)
        center, clearance = constrained_largest_empty_circle(pts, t, 0.4)
        assert clearance == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-9)
        assert center.distance_to(t) < 1e-9
        oracle = grid_max_min_dist(pts, t, 0.4, 2e-4)
        assert clearance >= oracle - 1e-9

    def test_soundness_vs_grid(self):
        rng = random.Random(5)
        for _ in range(12):
            pts = [random_point(rng, 1.0) for _ in range(rng.randint(3, 8))]
            t = random_point(rng, 0.5)
            rho = rng.uniform(0.2, 1.0)
            _, clearance = constrained_largest_empty_circle(pts, t, rho)
            oracle = grid_max_min_dist(pts, t, rho, rho / 400.0)
            assert clearance >= oracle - 1e-9
            # and the reported clearance is attainable (within grid slack)
            assert clearance <= oracle + 1e-2

    def test_clearance_at_least_anchor_value(self):
        rng = random.Random(9)
        for _ in range(50):
            pts = [random_point(rng) for _ in range(rng.randint(1, 6))]
            t = random_point(rng)
            _, clearance = constrained_largest_empty_circle(pts, t, 0.7)
            f_t = min(t.distance_to(p) for p in pts)
            assert clearance >= f_t - 1e-12

    def test_rigid_motion_equivariance(self):
        rng = random.Random(13)
        for _ in range(20):
            pts = [random_point(rng) for _ in range(rng.randint(2, 7))]
            t = random_point(rng)
            center, clearance = constrained_largest_empty_circle(pts, t, 0.8)
            move = rigid_motion(rng.uniform(0, 2 * math.pi), random_point(rng, 10.0))
            mcenter, mclearance = constrained_largest_empty_circle(
                [move(p) for p in pts], move(t), 0.8
            )
            assert mclearance == pytest.approx(clearance, abs=1e-9)
            assert mcenter.distance_to(move(center)) < 1e-6


class TestHullHelpers:
    def test_hull_and_interior(self):
        pts = [Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2), Point(1, 1)]
        hull = convex_hull(pts)
        assert len(hull) == 4
        assert strictly_inside_hull(hull, Point(1, 1))
        assert not strictly_inside_hull(hull, Point(2, 1))  # on an edge
        assert not strictly_inside_hull(hull, Point(3, 1))
