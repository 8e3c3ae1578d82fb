import copy
import math
import pickle
import random
from itertools import cycle
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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
    build_snake,
    eval_script,
    parse_boundary,
    parse_script,
    serialize_boundary,
    serialize_script,
    stationary_number,
)

from helpers import DIFF, benchmark_workloads, random_point, random_script
from oracles import (
    parse_boundary_tokenized,
    parse_script_tokenized,
    serialize_boundary_joined,
    serialize_script_joined,
)


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

        # the stroke that comes before the model declaration, where it is
        with pytest.raises(ParseError) as exc:
            parse_script("# strokes first\n   stroke pencil point 0 0\nmodel open\n")
        assert (exc.value.line, exc.value.column) == (2, 4)
        assert exc.value.message == "the model declaration must come before any stroke"

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

    def test_word_after_the_model_is_an_error(self):
        with pytest.raises(ParseError) as err:
            parse_script("model open closed\nstroke pencil point 0 0\n")
        assert (err.value.line, err.value.column) == (1, 12)
        assert err.value.message == "unexpected 'closed' after the model"

    def test_error_survives_copy_and_pickle(self):
        err = ParseError(2, 15, "m")
        assert copy.copy(err) == err
        assert pickle.loads(pickle.dumps(err)) == err
        assert str(pickle.loads(pickle.dumps(err))) == "line 2, column 15: m"

    def test_readme_scene_example_round_trips(self):
        # the DSL block under "### Scene files" in README.md is a script
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("### Scene files", 1)[1].split("```", 2)[1]
        script = parse_script(block)
        assert script.strokes
        assert parse_script(serialize_script(script)) == script


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
        assert again.pieces == geom.boundary.pieces

    def test_boundary_errors(self):
        from diskdraw import parse_boundary

        with pytest.raises(ParseError):
            parse_boundary("segment 0 0 1 0\n")  # missing header
        with pytest.raises(ParseError):
            parse_boundary("boundary\npoint 0 0\n")  # not a path piece
        with pytest.raises(ParseError):
            parse_boundary("boundary\nsegment 0 0 1 0\nsegment 5 5 0 0\n")  # gap

    def test_word_after_the_header_is_an_error(self):
        square = "segment 0 0 1 0\nsegment 1 0 1 1\nsegment 1 1 0 1\nsegment 0 1 0 0\n"
        assert len(parse_boundary("boundary  # a square\n" + square).pieces) == 4
        with pytest.raises(ParseError) as err:
            parse_boundary("boundary junk\n" + square)
        assert (err.value.line, err.value.column, err.value.message) == (
            1, 10, "unexpected 'junk' after the boundary header")


def _membership_texts(seeds):
    bench = benchmark_workloads()
    return [scene.text for seed in seeds for scene in bench.membership_inputs(seed)]


class TestJoinedSerializerOracle:
    """serialize_script and serialize_boundary write the bytes of the
    serializers that joined each primitive's numbers with map(repr)."""

    def test_benchmark_scripts(self):
        for text in _membership_texts((1, 2, 3)):
            script = parse_script(text)
            assert serialize_script(script) == serialize_script_joined(script), text

    def test_random_scripts(self):
        rng = random.Random(559)
        for _ in range(3000):
            base = random_script(rng, max_strokes=6)
            tools = [rng.choice(list(Tool)) for _ in base.strokes]
            script = DrawingScript.relaxed(rng.choice(list(DiskModel)),
                                           [Stroke(t, s.centers) for t, s in zip(tools, base.strokes)])
            assert serialize_script(script) == serialize_script_joined(script)

    def test_snake_boundary(self):
        pieces = build_snake().boundary.pieces
        assert serialize_boundary(pieces) == serialize_boundary_joined(pieces)

    def test_unknown_primitive(self):
        script = DrawingScript(DiskModel.OPEN, (Stroke(Tool.PENCIL, CenterSet((Point(0.0, 0.0),))),))
        for serialize in (serialize_script, serialize_script_joined):
            with pytest.raises(TypeError, match=r"cannot serialize Point\(x=0.0, y=0.0\)"):
                serialize(script)


def _hex(p: Point):
    return p.x.hex(), p.y.hex()


def _assert_arc_ends(arc: Arc):
    """The derived fields of arc, bit for bit: its sweep and its two ends as
    point_at gives them."""
    s = ((arc.end_angle - arc.start_angle) if arc.ccw else (arc.start_angle - arc.end_angle)) % (2.0 * math.pi)
    assert arc.sweep.hex() == (2.0 * math.pi if s == 0.0 else s).hex()
    assert _hex(arc.start_point) == _hex(arc.point_at(0.0))
    assert _hex(arc.end_point) == _hex(arc.point_at(1.0))


class TestStrokeLineRead:
    """Stroke and boundary lines go through the package's one primitive
    reader; what parse_script and parse_boundary read, and where they refuse a
    line, is what the tokenized oracle parsers read, arc ends included."""

    def test_benchmark_scripts(self):
        arcs = 0
        for text in _membership_texts((1,)):
            for source in (text, serialize_script(parse_script(text))):
                script = parse_script(source)
                assert script == parse_script_tokenized(source), source
                for stroke in script.strokes:
                    for prim in stroke.centers.primitives:
                        if isinstance(prim, Arc):
                            _assert_arc_ends(prim)
                            arcs += 1
        assert arcs > 1000

    @pytest.mark.parametrize("prim", ["point 0 0", "segment 0 0 1 0", "arc 0 0 1 0 1 cw",
                                      "halfplane 0.6 0.8 0.25", "plane"])
    def test_words_that_do_not_fit(self, prim):
        # each number's place holding a non-finite word, a non-number or the
        # line's end, and a cw after the primitive: each is the tokenized
        # parser's error, on a stroke line with a primitive before or after it
        # and on a boundary line alone, before a primitive or after one
        words = prim.split()
        n = len(words) - (words[-1] == "cw")
        bad = [words[:i] for i in range(1, n)] + [words + ["cw"]]
        bad += [words[:i] + [w] + words[i + 1:] for i in range(1, n) for w in ("inf", "-inf", "nan", "1e400", "zero")]
        for line in map(" ".join, bad):
            for parse, oracle, text in (
                    (parse_script, parse_script_tokenized, f"model open\nstroke pencil point 5 5 {line}\n"),
                    (parse_script, parse_script_tokenized, f"model open\nstroke pencil {line} plane\n"),
                    (parse_boundary, parse_boundary_tokenized, f"boundary\n{line}\n"),
                    (parse_boundary, parse_boundary_tokenized, f"boundary\n{line} plane\n"),
                    (parse_boundary, parse_boundary_tokenized, f"boundary\nsegment 5 5 6 6 {line}\n")):
                got = _outcome(parse, text)
                assert isinstance(got, tuple) and got == _outcome(oracle, text), text

    @DIFF
    @given(cx=st.sampled_from([0.0, -0.0, 2.5]) | st.floats(-50, 50),
           cy=st.sampled_from([0.0, -0.0, -1.75]) | st.floats(-50, 50),
           radius=st.sampled_from([1.0, 0.5]) | st.floats(1e-3, 50),
           a0=st.sampled_from([0.0, -0.0, math.pi, -math.pi / 2]) | st.floats(-10, 10),
           a1=st.sampled_from([0.0, -0.0, math.pi]) | st.floats(-10, 10) | st.none(),
           ccw=st.booleans())
    @example(cx=0.0, cy=-0.0, radius=1.0, a0=-0.0, a1=None, ccw=True)
    @example(cx=-0.0, cy=-0.0, radius=1.0, a0=-0.0, a1=-0.0, ccw=False)
    def test_arc_ends(self, cx, cy, radius, a0, a1, ccw):
        arc = Arc(Point(cx, cy), radius, a0, a0 if a1 is None else a1, ccw)
        _assert_arc_ends(arc)
        text = serialize_script(DrawingScript(DiskModel.OPEN, (Stroke(Tool.PENCIL, CenterSet((arc,))),)))
        again = parse_script(text).strokes[0].centers.primitives[0]
        assert again == arc == parse_script_tokenized(text).strokes[0].centers.primitives[0]
        assert (_hex(again.start_point), _hex(again.end_point)) == (_hex(arc.start_point), _hex(arc.end_point))


# Words that mutate a scene text: every directive, choice and kind, numbers
# the parser must reject, and comment starts.
_WORDS = ("model", "open", "closed", "stroke", "pencil", "eraser", "boundary", "point",
          "segment", "arc", "halfplane", "plane", "cw", "0", "1", "-1", "0.5", "0.6", "0.8",
          "3.14159", "1e308", "-1e308", "inf", "-inf", "nan", "1e400", "1e-300", "zero",
          "#", "#note")
# Separators around words; "\x0b", "\x1c", "\x85" and "\r\n" also break lines.
_SEPS = (" ", "  ", "\t", "\x0b", "\x1c", "\x85", "\u3000", "\r\n")
_OPS = ("replace", "delete", "insert")


def _base_texts():
    rng = random.Random(557)
    texts = [serialize_boundary(build_snake(1.001).boundary.pieces),
             "boundary\nsegment 0 0 1 0\nsegment 1 0 1 1\nsegment 1 1 0 1\nsegment 0 1 0 0\n",
             "boundary  # a disk\narc 0 0 1 0 0 cw\n",
             "model closed  # all kinds\nstroke eraser point 0 0 segment 0 0 1 0\n"
             "stroke pencil arc 0 0 1.5 0 3.14159 cw halfplane 0.6 0.8 0.25 plane\n"]
    for _ in range(8):
        base = random_script(rng, max_strokes=4)
        tools = [rng.choice(list(Tool)) for _ in base.strokes]
        texts.append(serialize_script(DrawingScript.relaxed(
            rng.choice(list(DiskModel)), [Stroke(t, s.centers) for t, s in zip(tools, base.strokes)])))
    return texts


_BASES = _base_texts()


def _mutated(base: str, edits, seps) -> str:
    """base with each edit (op, line, position, word) applied to its words,
    then written with the separators seps in turn before and after words."""
    lines = [line.split() for line in base.splitlines()]
    for op, i, j, word in edits:
        words = lines[i % len(lines)]
        if op == "insert":
            words.insert(j % (len(words) + 1), word)
        elif words and op == "delete":
            del words[j % len(words)]
        elif words:
            words[j % len(words)] = word
    gaps = cycle(seps)
    return "\n".join("".join(next(gaps) + w for w in words) + next(gaps) for words in lines)


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return (exc.line, exc.column, exc.message)


def _check_against_tokenized_parser(text):
    """Both parsers give equal scripts and paths, or equal errors; the
    outcomes of parse_script and parse_boundary, in that order."""
    got = (_outcome(parse_script, text), _outcome(parse_boundary, text))
    assert got == (_outcome(parse_script_tokenized, text), _outcome(parse_boundary_tokenized, text)), text
    return got


class TestTokenizedParserOracle:
    def test_seeded_mutations(self):
        rng = random.Random(558)
        seen = set()
        for _ in range(1500):
            edits = [(rng.choice(_OPS), rng.randrange(40), rng.randrange(40), rng.choice(_WORDS))
                     for _ in range(rng.randint(0, 3))]
            seps = [" "] * 6 + rng.sample(_SEPS, rng.randint(1, 3))
            rng.shuffle(seps)
            for out in _check_against_tokenized_parser(_mutated(rng.choice(_BASES), edits, seps)):
                seen.add(out[2] if isinstance(out, tuple) else type(out).__name__)
        # scripts, paths and errors, at the end of a line too, were all met
        assert {"DrawingScript", "PiecewisePath", "unknown primitive kind 'cw'"} <= seen
        assert "expected x2, found end of line" in seen

    @DIFF
    @given(base=st.sampled_from(_BASES),
           edits=st.lists(st.tuples(st.sampled_from(_OPS), st.integers(0, 40), st.integers(0, 40),
                                    st.sampled_from(_WORDS)), max_size=4),
           seps=st.lists(st.sampled_from(_SEPS), min_size=1, max_size=6))
    def test_mutations(self, base, edits, seps):
        _check_against_tokenized_parser(_mutated(base, edits, seps))
