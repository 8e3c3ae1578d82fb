import math
import random

import pytest

from diskdraw import (
    DEFAULT_TAU,
    Arc,
    InvalidN,
    Point,
    Segment,
    Shade,
    Tool,
    build_snake,
    chessboard_coloring,
    chessboard_stages,
    classify_against_path,
    dissection_sample_check,
    eval_script,
    rounded_chessboard_coloring,
    script_coloring,
    sharp_ndissected_script,
    snake_coloring,
    snake_dissection_spec,
    undrawability_bound,
)
from diskdraw.constructions import PiecewisePath, crossing_parity
from diskdraw.geometry import rotate_about, unit

from helpers import random_point
from oracles import chessboard_classify, rounded_chessboard_classify, sharp_ndissected_strokes


@pytest.fixture(scope="module")
def snake():
    return build_snake(1.001)


@pytest.fixture(scope="module")
def snake_col(snake):
    return snake_coloring(snake)


class TestChessboardColoring:
    def test_examples(self):
        col = chessboard_coloring(1.0)
        assert col.classify(Point(0.5, 0.5)) is Shade.BLACK
        assert col.classify(Point(-0.5, 0.5)) is Shade.WHITE
        assert col.classify(Point(0.5, 0.0)) is Shade.BOUNDARY
        assert col.classify(Point(-0.5, -0.5)) is Shade.BLACK
        assert col.classify(Point(2.0, 2.0)) is Shade.WHITE


class TestRoundedChessboard:
    def test_examples(self):
        col = rounded_chessboard_coloring(0.35)
        assert col.classify(Point(0.5, 0.5)) is Shade.BLACK
        # the origin sits in the cut corner square outside both fillet disks
        assert col.classify(Point(0.0, 0.0)) is Shade.WHITE
        assert col.classify(Point(0.35, 0.35)) is Shade.BLACK

    def test_fillet_separates_the_squares(self):
        col = rounded_chessboard_coloring(0.35)
        # walking the diagonal from one black region to the other passes white
        n_white = sum(
            1
            for k in range(-20, 21)
            if col.classify(Point(k * 0.01, k * 0.01)) is Shade.WHITE
        )
        assert n_white > 0

    def test_boundary_on_fillet_arc(self):
        rho = 0.35
        col = rounded_chessboard_coloring(rho)
        ang = math.radians(225.0)
        p = Point(rho + rho * math.cos(ang), rho + rho * math.sin(ang))
        assert col.classify(p) is Shade.BOUNDARY


class TestChessboardRegions:
    """The two-loop chessboards give the verdicts of the hand-written
    classifiers they replaced."""

    @pytest.mark.parametrize("make, oracle", [
        (lambda: chessboard_coloring(1.0), chessboard_classify(1.0)),
        (lambda: rounded_chessboard_coloring(0.35), rounded_chessboard_classify(0.35)),
    ], ids=["chessboard", "rounded"])
    def test_random_points(self, make, oracle):
        col = make()
        rng = random.Random(20)
        for scale in (1e-9, 1e-7, 1e-4, 0.1, 1.0, 3.0):
            for _ in range(300):
                p = random_point(rng, scale)
                assert col.classify(p) is oracle(p), p

    def test_stage_points_to_depth_20(self):
        col, oracle = chessboard_coloring(1.0), chessboard_classify(1.0)
        stages = chessboard_stages(0.1, math.radians(0.5), 20)
        points = [p for fam in stages for p in fam.blacks + fam.whites]
        assert len(points) == 160
        for p in points:
            assert col.classify(p) is oracle(p) is not Shade.BOUNDARY, p
        # across the benchmark's r and theta ranges, where the deepest stages
        # reach into the tau collar
        for r in (0.08, 0.12):
            for theta in (0.3, 0.7):
                c, s = r * math.cos(math.radians(theta)), r * math.sin(math.radians(theta))
                for i in range(20):
                    for p in (Point(c, s), Point(s, c), Point(c, -s), Point(-s, -c)):
                        for q in (p.scaled(0.5**i), p.scaled(-(0.5**i))):
                            assert col.classify(q) is oracle(q), q


class TestBuildSnake:
    def test_printed_anchors(self, snake):
        assert snake.ae_len == pytest.approx(0.793, abs=0.002)
        assert snake.oe_len == pytest.approx(2.963, abs=0.002)
        assert snake.oe_prime_len == pytest.approx(3.735, abs=0.002)

    def test_anchor_closed_forms(self, snake):
        r = snake.r
        ae = (4.0 * math.sqrt(3.0) - math.sqrt(6.0) - math.sqrt(2.0)) / (
            math.sqrt(6.0) + math.sqrt(2.0)
        ) * r
        assert snake.ae_len == pytest.approx(ae, rel=1e-12)
        cot15 = 1.0 / math.tan(math.radians(15.0))
        assert snake.oe_len == pytest.approx(ae * cot15, rel=1e-12)
        assert snake.oe_prime_len == pytest.approx(r * cot15, rel=1e-12)

    def test_kite_side_lengths(self, snake):
        pts = snake.points
        assert pts["B"].distance_to(pts["D"]) == pytest.approx(2 * snake.r, rel=1e-12)
        assert pts["B"].distance_to(pts["C"]) == pytest.approx(
            2 * math.sqrt(3.0) * snake.r, rel=1e-12
        )

    def test_boundary_is_half_turn_symmetric(self, snake):
        path = snake.boundary
        O = snake.apex
        for piece in path.pieces:
            for f in (0.0, 0.33, 0.77, 1.0):
                q = rotate_about(piece.point_at(f), O, math.pi)
                assert path.distance_to(q) < 1e-9

    def test_every_arc_radius_at_least_r(self, snake):
        arcs = [p for p in snake.boundary.pieces if isinstance(p, Arc)]
        assert arcs
        assert min(a.radius for a in arcs) >= snake.r - 1e-12

    def test_boundary_simple_and_closed(self, snake):
        snake.boundary.validate_simple()
        assert snake.boundary.signed_area() > 0

    def test_bad_radius_rejected(self):
        with pytest.raises(ValueError):
            build_snake(0.99)
        with pytest.raises(ValueError):
            build_snake(1.2)


class TestSnakeColoring:
    def test_apex_regression(self, snake, snake_col):
        # not claimed anywhere in print; frozen from the crossing-number
        # oracle, which must agree at four independent ray angles
        O = snake.apex
        parities = []
        for ang in (0.7, 1.9, 3.1, 5.2):
            parities.append(crossing_parity(snake.boundary, O, ang) % 2)
        assert len(set(parities)) == 1
        assert parities[0] == 1  # inside
        assert snake_col.classify(O) is Shade.BLACK

    def test_head_arc_inner_offset_is_black(self, snake, snake_col):
        # the long head arc wraps the kite's far circle; the region lies on
        # its outer offset (the disk side is outside, its center included)
        D = snake.points["D"]
        head = [
            p
            for p in snake.boundary.pieces
            if isinstance(p, Arc) and p.center.distance_to(D) < 1e-9
        ]
        assert len(head) == 1
        arc = head[0]
        assert math.degrees(arc.sweep) == pytest.approx(240.0, abs=1e-9)
        for f in (0.1, 0.5, 0.9):
            mid = arc.point_at(f)
            outward = (mid - arc.center).normalized()
            inside_probe = Point(mid.x + 0.01 * outward.x, mid.y + 0.01 * outward.y)
            outside_probe = Point(mid.x - 0.01 * outward.x, mid.y - 0.01 * outward.y)
            assert snake_col.classify(inside_probe) is Shade.BLACK
            assert snake_col.classify(outside_probe) is Shade.WHITE
        assert snake_col.classify(D) is Shade.WHITE

    def test_far_point_is_white(self, snake_col):
        assert snake_col.classify(Point(1e6, 0.0)) is Shade.WHITE

    def test_boundary_collar(self, snake, snake_col):
        p = snake.boundary.pieces[0].point_at(0.4)
        assert snake_col.classify(p) is Shade.BOUNDARY

    def test_half_turn_color_symmetry(self, snake, snake_col):
        rng = random.Random(8)
        O = snake.apex
        checked = 0
        for _ in range(300):
            p = Point(rng.uniform(-5, 8), rng.uniform(-9, 9))
            a = snake_col.classify(p)
            if a is Shade.BOUNDARY:
                continue
            b = snake_col.classify(rotate_about(p, O, math.pi))
            assert b is a
            checked += 1
        assert checked > 250


class TestSnakeDissection:
    def test_spec_constants(self, snake):
        spec = snake_dissection_spec(snake)
        assert spec.n == 12
        assert (spec.a, spec.b, spec.d) == (2.964, 3.735, 0.793)
        assert spec.a < undrawability_bound(12)
        assert spec.apex == snake.apex
        # rays divide the plane evenly, thirty degrees apart
        angs = [spec.ray_angle(j) for j in range(1, 13)]
        diffs = {round(b - a, 12) for a, b in zip(angs, angs[1:])}
        assert diffs == {round(math.pi / 6.0, 12)}

    def test_interval_sits_inside_the_segment_span(self, snake):
        spec = snake_dissection_spec(snake)
        assert snake.oe_len < spec.a
        assert spec.b < snake.oe_prime_len

    def test_sample_check_passes(self, snake, snake_col):
        spec = snake_dissection_spec(snake)
        assert dissection_sample_check(snake_col, spec, 200)


class TestSharpScript:
    def test_all_real_strokes_are_pencil(self):
        script = sharp_ndissected_script(12)
        assert [s.tool for s in script.strokes] == [Tool.PENCIL]
        segments = script.strokes[0].centers.primitives
        assert len(segments) == 12 and all(isinstance(p, Segment) for p in segments)

    def test_one_stroke_matches_the_stroke_per_segment_script(self):
        # where the stroke-per-segment script decides, both agree; the one
        # stroke is boundary only where that script is (it cannot be
        # overridden by a later stroke, so it may decide more points)
        for n in (4, 12):
            new, old = sharp_ndissected_script(n), sharp_ndissected_strokes(n)
            assert len(old.strokes) == 2 * n - 1
            segments = new.strokes[0].centers.primitives
            rng = random.Random(n)
            points = [random_point(rng, 8.0) for _ in range(3000)]
            for _ in range(3000):  # within 1e-7 of a collar edge at distance 1 -+ tau from a segment
                seg = rng.choice(segments)
                edge = rng.choice((1.0 - DEFAULT_TAU, 1.0 + DEFAULT_TAU))
                offset = edge + rng.uniform(-1.0, 1.0) * rng.choice((1e-7, 1e-9, 1e-10))
                normal = seg.tangent_at(0.0).rot90().scaled(rng.choice((1.0, -1.0)))
                points.append(seg.point_at(rng.random()) + normal.scaled(offset))
            boundary = 0
            for p in points:
                a, b = eval_script(p, new), eval_script(p, old)
                if b is not Shade.BOUNDARY:
                    assert a is b, p
                if a is Shade.BOUNDARY:
                    assert b is Shade.BOUNDARY, p
                boundary += b is Shade.BOUNDARY
            assert boundary > 100

    def test_tangent_distance_for_n4(self):
        script = sharp_ndissected_script(4)
        segs = script.strokes[0].centers.primitives
        # stroke centers start where the nested unit disk sits; its tangent
        # point on each ray is the foot of the start point, at cot(pi/4) = 1
        first = segs[0]
        assert isinstance(first, Segment)
        u = (first.b - first.a).normalized()
        # the start point projects onto its ray at cot(pi/4) = 1, offset 1 inward
        assert first.a.dot(u) == pytest.approx(1.0, rel=1e-12)
        assert abs(u.cross(first.a)) == pytest.approx(1.0, rel=1e-12)

    def test_invalid_n(self):
        with pytest.raises(InvalidN):
            sharp_ndissected_script(5)
        with pytest.raises(InvalidN):
            sharp_ndissected_script(2)

    def test_n12_dissection_sample_check(self):
        from diskdraw import DissectionSpec

        script = sharp_ndissected_script(12)
        bound = undrawability_bound(12)
        spec = DissectionSpec(
            apex=Point(0, 0),
            n=12,
            a=bound + 0.01,
            b=20.0,
            d=2.0 - 0.02,
            phase=0.0,
            first_orientation="ccw",
        )
        assert dissection_sample_check(script_coloring(script), spec, 64)


class TestPiecewisePath:
    def test_requires_continuity(self):
        with pytest.raises(ValueError):
            PiecewisePath(
                (
                    Segment(Point(0, 0), Point(1, 0)),
                    Segment(Point(2, 0), Point(0, 0)),
                )
            )

    def test_orientation_normalized(self):
        cw_square = (
            Segment(Point(0, 0), Point(0, 1)),
            Segment(Point(0, 1), Point(1, 1)),
            Segment(Point(1, 1), Point(1, 0)),
            Segment(Point(1, 0), Point(0, 0)),
        )
        path = PiecewisePath(cw_square)
        assert path.signed_area() > 0

    def test_crossing_classify_square(self):
        square = PiecewisePath(
            (
                Segment(Point(0, 0), Point(1, 0)),
                Segment(Point(1, 0), Point(1, 1)),
                Segment(Point(1, 1), Point(0, 1)),
                Segment(Point(0, 1), Point(0, 0)),
            )
        )
        assert classify_against_path(square, Point(0.5, 0.5)) is Shade.BLACK
        assert classify_against_path(square, Point(1.5, 0.5)) is Shade.WHITE
        assert classify_against_path(square, Point(1.0, 0.5)) is Shade.BOUNDARY

    def test_two_arc_circle(self):
        circle = PiecewisePath(
            (
                Arc(Point(0, 0), 2.0, 0.0, math.pi, ccw=True),
                Arc(Point(0, 0), 2.0, math.pi, 0.0, ccw=True),
            )
        )
        assert classify_against_path(circle, Point(0.3, -0.2)) is Shade.BLACK
        assert classify_against_path(circle, Point(2.5, 0)) is Shade.WHITE
        assert circle.total_length == pytest.approx(4.0 * math.pi, rel=1e-12)

    def test_rotate_piece_roundtrip(self):
        arc = Arc(Point(1, 2), 0.7, 0.3, 2.1, ccw=False)
        back = arc.rotated(Point(0, 0), 1.1).rotated(Point(0, 0), -1.1)
        assert back.center.distance_to(arc.center) < 1e-12
        assert back.radius == arc.radius
