import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    dissection_check,
    eval_script,
    rounded_chessboard_coloring,
    script_coloring,
    sharp_ndissected_script,
    snake_coloring,
    snake_dissection_spec,
    undrawability_bound,
)
from diskdraw.constructions import PiecewisePath
from diskdraw.geometry import rotate_about, unit

from helpers import random_point
from oracles import chessboard_classify, ray_cast_classify, rounded_chessboard_classify, sharp_ndissected_strokes
from test_render import arc_loops, convex_polygons, scaled_loop


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
        # not claimed anywhere in print; frozen from the ray-casting oracle,
        # which must agree at four independent ray angles
        O = snake.apex
        for ang in (0.7, 1.9, 3.1, 5.2):
            assert ray_cast_classify(snake.boundary, O, base_angle=ang) is Shade.BLACK
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
        assert dissection_check(snake_col, spec)


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
        assert dissection_check(script_coloring(script), spec)


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


# ---------------------------------------------------------------------------
# The half-open crossing rule against the ray-casting oracle
# ---------------------------------------------------------------------------

SNAKE_LOOPS = (build_snake(1.001).boundary,)
CHESS_LOOPS = chessboard_coloring(1.0).source
ROUNDED_LOOPS = rounded_chessboard_coloring(0.35).source


@st.composite
def roof_polygons(draw):
    """A polygon over the x-axis whose roof runs through grid heights: it has
    horizontal edges along the base and wherever two roof heights repeat."""
    heights = draw(st.lists(st.integers(1, 4).map(lambda k: k / 4.0), min_size=2, max_size=6))
    k = len(heights) - 1
    corners = [Point(0.0, 0.0), Point(k / 2.0, 0.0)] + [Point(i / 2.0, heights[i]) for i in range(k, -1, -1)]
    return PiecewisePath(tuple(Segment(corners[i], corners[(i + 1) % len(corners)]) for i in range(len(corners))))


def critical_heights(loops):
    """Heights of the rows through vertices and through the tops and bottoms of arcs."""
    heights = []
    for piece in (piece for loop in loops for piece in loop.pieces):
        heights.append(piece.start_point.y)
        if isinstance(piece, Arc):
            heights += [piece.center.y + piece.radius, piece.center.y - piece.radius]
    return heights


@st.composite
def regions_and_points(draw):
    scale = draw(st.sampled_from([1e-3, 2.0**-5, 0.3, 1.0, 4.0, 2.0**5, 1e3]))
    loops = draw(st.one_of(
        st.tuples(st.one_of(roof_polygons(), convex_polygons(), arc_loops())),
        st.sampled_from([SNAKE_LOOPS, CHESS_LOOPS, ROUNDED_LOOPS]),
    ))
    shift = Point(scale * draw(st.integers(-4, 4)) / 4.0, scale * draw(st.floats(-1.0, 1.0)))
    loops = tuple(scaled_loop(loop, scale, shift) for loop in loops)
    heights = critical_heights(loops)
    xs = [piece.start_point.x for loop in loops for piece in loop.pieces]
    x_lo, x_hi = min(xs) - scale, max(xs) + scale
    points = []
    for _ in range(draw(st.integers(4, 8))):
        y = draw(st.sampled_from(heights))
        y += draw(st.sampled_from([-1e-15, 0.0, 1e-15])) * max(1.0, abs(y))
        for _ in range(6):
            x = draw(st.one_of(
                st.floats(x_lo, x_hi),
                st.sampled_from(xs).flatmap(
                    lambda v: st.sampled_from([-0.1, -1e-6, -3e-9, 3e-9, 1e-6, 0.1]).map(lambda d: v + d * scale)
                ),
            ))
            points.append(Point(x, y))
    return loops, points


class TestHalfOpenRule:
    @settings(max_examples=80, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
    @given(regions_and_points())
    def test_matches_ray_casting(self, case):
        loops, points = case
        decided = 0
        for p in points:
            try:
                expected = ray_cast_classify(loops, p)
            except RuntimeError:  # every ray the oracle cast was degenerate
                continue
            assert classify_against_path(loops, p) is expected, p
            decided += 1
        assert decided > 0

    def test_adjacent_pieces_share_their_vertex_height(self, snake):
        # the snake's pieces meet up to ~1e-15 in y; a row in that band still
        # crosses the boundary an even number of times
        pieces = snake.boundary.pieces
        gaps = [abs(a.end_point.y - b.start_point.y) for a, b in zip(pieces, pieces[1:] + pieces[:1])]
        assert max(gaps) > 0.0
        for a, b in zip(pieces, pieces[1:] + pieces[:1]):
            for y in (a.end_point.y, b.start_point.y, 0.5 * (a.end_point.y + b.start_point.y)):
                assert len(snake.boundary.crossings(y)) % 2 == 0

    def test_crossings_clamp_to_the_piece(self):
        # the nearly horizontal first edge ends 5e-10 below the next edge's
        # start; on a row in that gap its line runs far to the right of the
        # edge, but the crossing stays on the edge
        gap = 5e-10
        path = PiecewisePath((
            Segment(Point(0, 0), Point(1, 1e-12)),
            Segment(Point(1, 1e-12 + gap), Point(0, 1)),
            Segment(Point(0, 1), Point(0, 0)),
        ))
        y = 1e-12 + gap / 2.0
        assert sorted(path.crossings(y)) == [0.0, 1.0]
        p = Point(5.0, y)
        assert classify_against_path(path, p) is Shade.WHITE
        assert ray_cast_classify(path, p) is Shade.WHITE
