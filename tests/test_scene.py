import random

import pytest

from diskdraw import (
    Arc,
    BoundaryPoint,
    CenterSet,
    DiskModel,
    DrawingScript,
    OffsetHalfPlane,
    ParseError,
    Point,
    Segment,
    Shade,
    SinglePoint,
    Stroke,
    Tool,
    WholePlane,
    eval_script,
    parse_script,
    serialize_script,
    stationary_number,
)

from helpers import random_point, random_script


class TestParse:
    def test_minimal_script(self):
        s = parse_script("model open\nstroke pencil point 0 0\n")
        assert s.model is DiskModel.OPEN
        assert len(s.strokes) == 1
        assert eval_script(Point(0.2, 0), s) is Shade.BLACK

    def test_comments_and_blank_lines(self):
        text = """
        # a comment
        model closed   # trailing comment

        stroke pencil point 1 2
        """
        s = parse_script(text)
        assert s.model is DiskModel.CLOSED
        assert len(s.strokes) == 1

    def test_missing_model(self):
        with pytest.raises(ParseError) as exc:
            parse_script("stroke pencil point 0 0")
        assert exc.value.line == 1

    def test_model_only_missing_everything_else_is_fine(self):
        s = parse_script("model open\n")
        assert len(s.strokes) == 0

    def test_every_primitive_kind(self):
        text = (
            "model open\n"
            "stroke pencil point 0 0\n"
            "stroke eraser segment 0 0 1 0\n"
            "stroke pencil arc 0 0 1.5 0 3.14159\n"
            "stroke eraser arc 0 0 1.5 3.14159 0 cw\n"
            "stroke pencil halfplane 0 1 0.25\n"
            "stroke eraser plane\n"
        )
        s = parse_script(text)
        kinds = [type(st.centers.primitives[0]) for st in s.strokes]
        assert kinds == [SinglePoint, Segment, Arc, Arc, OffsetHalfPlane, WholePlane]
        assert s.strokes[3].centers.primitives[0].ccw is False

    def test_stroke_without_primitive_is_empty(self):
        s = parse_script("model open\nstroke pencil\nstroke eraser   # padding\n")
        assert s.strokes == (Stroke(Tool.PENCIL, CenterSet(())), Stroke(Tool.ERASER, CenterSet(())))

    def test_padding_paints_nothing(self):
        s = parse_script("model open\nstroke eraser point 0 0\n")
        assert eval_script(Point(1e7, 1e7), s) is Shade.WHITE
        assert eval_script(Point(0.5, 0), s) is Shade.WHITE

    def test_multiple_primitives_per_stroke(self):
        s = parse_script("model open\nstroke pencil point 0 0 segment 1 1 2 2\n")
        assert len(s.strokes[0].centers.primitives) == 2

    def test_alternation_normalized(self):
        s = parse_script("model open\nstroke eraser point 0 0\nstroke eraser point 1 1\n")
        assert [st.tool for st in s.strokes] == [
            Tool.PENCIL,
            Tool.ERASER,
            Tool.PENCIL,
            Tool.ERASER,
        ]

    def test_error_positions(self):
        with pytest.raises(ParseError) as exc:
            parse_script("model open\nstroke pencil point 0 zero\n")
        assert exc.value.line == 2
        assert exc.value.column == 23

        with pytest.raises(ParseError) as exc:
            parse_script("model sideways\n")
        assert (exc.value.line, exc.value.column) == (1, 7)

        with pytest.raises(ParseError) as exc:
            parse_script("model open\nsquiggle pencil point 0 0\n")
        assert (exc.value.line, exc.value.column) == (2, 1)

    def test_bad_values(self):
        # the primitive's constructor rejects the value, reported at its kind
        with pytest.raises(ParseError) as err:
            parse_script("model open\nstroke pencil arc 0 0 -1 0 1\n")
        assert (err.value.line, err.value.column) == (2, 15)
        assert err.value.message == "arc radius must be positive, got -1.0"
        with pytest.raises(ParseError):
            parse_script("model open\nstroke pencil segment 1 1 1 1\n")
        with pytest.raises(ParseError) as err:
            parse_script("model open\nstroke pencil halfplane 3 4 0\n")
        assert (err.value.line, err.value.column) == (2, 15)
        assert err.value.message == "half-plane normal must have unit length (tolerance 1e-12)"
        with pytest.raises(ParseError):
            parse_script("model open\nstroke pencil point 0 inf\n")

    def test_duplicate_model(self):
        with pytest.raises(ParseError):
            parse_script("model open\nmodel closed\n")


def _scripts_equivalent(a, b, tol=1e-12) -> bool:
    if a.model is not b.model or len(a.strokes) != len(b.strokes):
        return False
    for sa, sb in zip(a.strokes, b.strokes):
        if sa.tool is not sb.tool:
            return False
        if len(sa.centers.primitives) != len(sb.centers.primitives):
            return False
        for pa, pb in zip(sa.centers.primitives, sb.centers.primitives):
            if type(pa) is not type(pb):
                return False
            if isinstance(pa, SinglePoint) and pa.p.distance_to(pb.p) > tol:
                return False
            if isinstance(pa, Segment) and (
                pa.a.distance_to(pb.a) > tol or pa.b.distance_to(pb.b) > tol
            ):
                return False
            if isinstance(pa, Arc):
                if (
                    pa.center.distance_to(pb.center) > tol
                    or abs(pa.radius - pb.radius) > tol
                    or abs(pa.start_angle - pb.start_angle) > tol
                    or abs(pa.end_angle - pb.end_angle) > tol
                    or pa.ccw is not pb.ccw
                ):
                    return False
            if isinstance(pa, OffsetHalfPlane) and (
                pa.normal.distance_to(pb.normal) > tol or abs(pa.offset - pb.offset) > tol
            ):
                return False
    return True


class TestRoundTrip:
    def test_fuzz_1000_random_scripts(self):
        rng = random.Random(555)
        for _ in range(1000):
            script = random_script(rng, max_strokes=6)
            text = serialize_script(script)
            again = parse_script(text)
            assert _scripts_equivalent(script, again)
            assert serialize_script(again) == text

    def test_serialized_form_is_normalized(self):
        text = "model open\nstroke eraser point 0 0\n"
        s = parse_script(text)
        out = serialize_script(s)
        lines = out.splitlines()
        assert lines[1] == "stroke pencil"
        assert [line.split()[1] for line in lines[1:]] == ["pencil", "eraser"]
        assert parse_script(out) == s

    def test_round_trip_keeps_stroke_indices(self):
        # random tool orders make relaxed insert padding, which must survive
        # the round trip so that every stationary number stays the same
        rng = random.Random(556)
        for _ in range(300):
            base = random_script(rng, max_strokes=6)
            tools = [rng.choice(list(Tool)) for _ in base.strokes]
            padded = DrawingScript.relaxed(base.model, [Stroke(t, st.centers) for t, st in zip(tools, base.strokes)])
            for script in (base, padded):
                again = parse_script(serialize_script(script))
                assert len(again.strokes) == len(script.strokes)
                for _ in range(20):
                    x = random_point(rng, 4.0)
                    try:
                        want = stationary_number(x, script)
                    except BoundaryPoint:
                        continue
                    assert stationary_number(x, again) == want


class TestBoundaryScenes:
    def test_snake_boundary_roundtrip(self):
        from diskdraw import build_snake, parse_boundary, serialize_boundary

        geom = build_snake(1.001)
        text = serialize_boundary(geom.boundary.pieces)
        lines = text.splitlines()
        assert lines[0] == "boundary"
        assert len(lines) == 1 + len(geom.boundary.pieces)
        again = parse_boundary(text)
        assert len(again.pieces) == len(geom.boundary.pieces)
        assert abs(again.signed_area() - geom.boundary.signed_area()) < 1e-9

    def test_boundary_errors(self):
        from diskdraw import parse_boundary

        with pytest.raises(ParseError):
            parse_boundary("segment 0 0 1 0\n")  # missing header
        with pytest.raises(ParseError):
            parse_boundary("boundary\npoint 0 0\n")  # not a path piece
        with pytest.raises(ParseError):
            parse_boundary("boundary\nsegment 0 0 1 0\nsegment 5 5 0 0\n")  # gap
