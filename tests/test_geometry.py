import math
import random

import numpy as np
import pytest
from hypothesis import given
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
    circumcircle3,
    constrained_largest_empty_circle,
    dist_to_primitive,
    piece_distance,
    trapezoid_circumradius,
)
from diskdraw.geometry import OffsetHalfPlane, _extent, piece_bbox, piece_intersections, unit

from helpers import DIFF, grid_max_min_dist, random_point, random_primitive, rigid_motion
from oracles import convex_hull, strictly_inside_hull


class TestDistToPrimitive:
    def test_single_point_pythagorean(self):
        assert dist_to_primitive(Point(0, 0), SinglePoint(Point(3, 4))) == 5.0

    def test_whole_plane(self):
        assert dist_to_primitive(Point(0, 0), WholePlane()) == 0.0

    def test_arc_above_semicircle(self):
        # brute-force oracle: minimize over 1e6 samples of the upper unit semicircle
        arc = Arc(Point(0, 0), 1.0, 0.0, math.pi, ccw=True)
        ts = np.linspace(0.0, math.pi, 1_000_000)
        oracle = float(np.hypot(np.cos(ts) - 0.0, np.sin(ts) - 2.0).min())
        exact = dist_to_primitive(Point(0, 2), arc)
        assert abs(exact - 1.0) < 1e-12
        assert abs(exact - oracle) < 1e-9

    def test_arc_outside_angular_range_uses_endpoints(self):
        arc = Arc(Point(0, 0), 1.0, 0.0, math.pi / 2, ccw=True)
        # query below the x axis: nearest arc point is the endpoint (1, 0)
        d = dist_to_primitive(Point(1, -1), arc)
        assert abs(d - 1.0) < 1e-12

    def test_arc_center_query(self):
        arc = Arc(Point(1, 1), 0.5, 0.3, 2.0)
        assert dist_to_primitive(Point(1, 1), arc) == 0.5

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
            assert dist_to_primitive(q, arc) <= oracle + 1e-9
            assert dist_to_primitive(q, arc) >= oracle - 1e-6

    def test_segment_distance(self):
        seg = Segment(Point(0, 0), Point(2, 0))
        assert abs(dist_to_primitive(Point(1, 1), seg) - 1.0) < 1e-15
        assert abs(dist_to_primitive(Point(3, 0), seg) - 1.0) < 1e-15
        assert abs(dist_to_primitive(Point(-3, 4), seg) - 5.0) < 1e-15

    def test_segment_needs_a_positive_squared_length(self):
        # 1e-300 squared underflows to 0: dist_to_segment would divide by it
        with pytest.raises(ValueError):
            Segment(Point(0, 0), Point(1e-300, 0))
        with pytest.raises(ValueError):
            Segment(Point(1, 1), Point(1, 1))
        assert dist_to_primitive(Point(0, 1), Segment(Point(0, 0), Point(1e-150, 0))) == 1.0

    def test_halfplane_distance(self):
        hp = OffsetHalfPlane(Point(0, 1), 0.0, margin=1.0)
        assert dist_to_primitive(Point(0, 0.5), hp) == 0.5
        assert dist_to_primitive(Point(5, 3.0), hp) == 0.0
        assert dist_to_primitive(Point(0, -0.1), hp) == pytest.approx(1.1)

    def test_lipschitz(self):
        rng = random.Random(42)
        for _ in range(500):
            prim = random_primitive(rng)
            x, y = random_point(rng, 5.0), random_point(rng, 5.0)
            lhs = abs(dist_to_primitive(x, prim) - dist_to_primitive(y, prim))
            assert lhs <= x.distance_to(y) + 1e-12



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

    best = min(min(dist_to_primitive(x, q) for x in points(p)),
               min(dist_to_primitive(y, p) for y in points(q)))
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
        hits = piece_intersections(p, q, 1e-12 * max(_extent(p), _extent(q)))
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
            x0, y0, x1, y1 = piece_bbox(piece)
            if isinstance(piece, SinglePoint):
                assert (x0, y0) == (x1, y1) == (piece.p.x, piece.p.y)
                continue
            pts = [piece.point_at(i / 2000) for i in range(2001)]
            slack = 1e-12 * _extent(piece)
            assert all(x0 - slack <= q.x <= x1 + slack and y0 - slack <= q.y <= y1 + slack for q in pts)
            near = 1e-5 * k
            assert min(q.x for q in pts) <= x0 + near and max(q.x for q in pts) >= x1 - near
            assert min(q.y for q in pts) <= y0 + near and max(q.y for q in pts) >= y1 - near

    def test_segment_and_arc_interior_pair(self):
        # the closest pair joins the top of the arc to the foot on the segment
        d = piece_distance(Arc(Point(0, 0), 1.0, 0.2, math.pi - 0.2), Segment(Point(-5, 3), Point(5, 3)))
        assert d == pytest.approx(2.0, rel=1e-15)


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
