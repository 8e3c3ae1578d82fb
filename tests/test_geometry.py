import math
import random

import numpy as np
import pytest

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
    trapezoid_circumradius,
)
from diskdraw.geometry import OffsetHalfPlane

from helpers import grid_max_min_dist, random_point, random_primitive, rigid_motion
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
