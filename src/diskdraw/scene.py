"""Line-oriented scene DSL: parsing and serialization of drawing scripts.

Grammar (one directive per line, `#` starts a comment):

    model open|closed
    stroke pencil|eraser [PRIMITIVE ...]

    PRIMITIVE := point X Y
               | segment X1 Y1 X2 Y2
               | arc CX CY R A0 A1 [cw]
               | halfplane NX NY OFFSET
               | plane

Angles are radians; arcs run counterclockwise from A0 to A1 unless suffixed
with `cw`, and equal angles mean the full circle.  A stroke with no
primitive is empty and paints nothing.  Stroke order is free: the parsed
script is normalized to the alternating pencil/eraser form by inserting empty
strokes, which serialize as bare `stroke pencil` or `stroke eraser` lines, so
a serialize/parse round trip keeps every stroke index.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .canvas import CenterSet, DiskModel, DrawingScript, Stroke, Tool
from .geometry import Arc, OffsetHalfPlane, Point, Segment, SinglePoint, WholePlane


@dataclass(frozen=True)
class ParseError(Exception):
    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}: {self.message}"


_TOKEN = re.compile(r"\S+")


def _tokenize(text: str):
    """Yield (line_number, [(column, token), ...]) for non-comment lines."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        tokens = [(m.start() + 1, m.group()) for m in _TOKEN.finditer(code)]
        if tokens:
            yield lineno, tokens


class _LineReader:
    def __init__(self, lineno, tokens):
        self.lineno = lineno
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][1] if self.pos < len(self.tokens) else None

    def take(self, what: str) -> str:
        if self.pos >= len(self.tokens):
            col = self.tokens[-1][0] + len(self.tokens[-1][1]) if self.tokens else 1
            raise ParseError(self.lineno, col, f"expected {what}, found end of line")
        col, tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def take_float(self, what: str) -> float:
        col = self.tokens[self.pos][0] if self.pos < len(self.tokens) else 1
        tok = self.take(what)
        try:
            value = float(tok)
        except ValueError:
            raise ParseError(self.lineno, col, f"expected {what}, got {tok!r}") from None
        if not math.isfinite(value):
            raise ParseError(self.lineno, col, f"{what} must be finite, got {tok!r}")
        return value

    def error_here(self, message: str) -> ParseError:
        col = self.tokens[self.pos][0] if self.pos < len(self.tokens) else (
            self.tokens[-1][0] + len(self.tokens[-1][1])
        )
        return ParseError(self.lineno, col, message)


def _parse_primitive(r: _LineReader):
    """One primitive; the constructor's ValueError becomes a ParseError at
    the primitive's kind."""
    kind_col = r.tokens[r.pos][0]
    kind = r.take("a primitive kind")
    try:
        if kind == "point":
            return SinglePoint(Point(r.take_float("x"), r.take_float("y")))
        if kind == "segment":
            a = Point(r.take_float("x1"), r.take_float("y1"))
            b = Point(r.take_float("x2"), r.take_float("y2"))
            return Segment(a, b)
        if kind == "arc":
            c = Point(r.take_float("cx"), r.take_float("cy"))
            radius = r.take_float("radius")
            a0 = r.take_float("start angle")
            a1 = r.take_float("end angle")
            ccw = True
            if r.peek() == "cw":
                r.take("cw")
                ccw = False
            return Arc(c, radius, a0, a1, ccw=ccw)
        if kind == "halfplane":
            n = Point(r.take_float("nx"), r.take_float("ny"))
            offset = r.take_float("offset")
            return OffsetHalfPlane(n, offset, margin=1.0)
        if kind == "plane":
            return WholePlane()
    except ValueError as exc:
        raise ParseError(r.lineno, kind_col, str(exc)) from None
    raise ParseError(r.lineno, kind_col, f"unknown primitive kind {kind!r}")


def parse_script(text: str) -> DrawingScript:
    """Parse the DSL into a drawing script (alternation normalized)."""
    model: DiskModel | None = None
    strokes: list[Stroke] = []
    for lineno, tokens in _tokenize(text):
        r = _LineReader(lineno, tokens)
        directive = r.take("a directive")
        if directive == "model":
            if model is not None:
                raise r.error_here("duplicate model declaration")
            col = r.tokens[r.pos][0] if r.pos < len(r.tokens) else 1
            word = r.take("open or closed")
            if word == "open":
                model = DiskModel.OPEN
            elif word == "closed":
                model = DiskModel.CLOSED
            else:
                raise ParseError(lineno, col, f"model must be open or closed, got {word!r}")
        elif directive == "stroke":
            if model is None:
                raise ParseError(lineno, 1, "the model declaration must come before any stroke")
            col = r.tokens[r.pos][0] if r.pos < len(r.tokens) else 1
            word = r.take("pencil or eraser")
            if word == "pencil":
                tool = Tool.PENCIL
            elif word == "eraser":
                tool = Tool.ERASER
            else:
                raise ParseError(lineno, col, f"tool must be pencil or eraser, got {word!r}")
            prims = []
            while r.peek() is not None:
                prims.append(_parse_primitive(r))
            strokes.append(Stroke(tool, CenterSet(tuple(prims))))
        else:
            raise ParseError(lineno, tokens[0][0], f"unknown directive {directive!r}")
    if model is None:
        raise ParseError(1, 1, "missing model declaration")
    return DrawingScript.relaxed(model, strokes)


def _format_primitive(prim) -> str:
    if isinstance(prim, SinglePoint):
        return f"point {prim.p.x!r} {prim.p.y!r}"
    if isinstance(prim, Segment):
        return f"segment {prim.a.x!r} {prim.a.y!r} {prim.b.x!r} {prim.b.y!r}"
    if isinstance(prim, Arc):
        out = (
            f"arc {prim.center.x!r} {prim.center.y!r} {prim.radius!r} "
            f"{prim.start_angle!r} {prim.end_angle!r}"
        )
        return out if prim.ccw else out + " cw"
    if isinstance(prim, OffsetHalfPlane):
        return f"halfplane {prim.normal.x!r} {prim.normal.y!r} {prim.offset!r}"
    if isinstance(prim, WholePlane):
        return "plane"
    raise TypeError(f"cannot serialize {prim!r}")


def serialize_script(script: DrawingScript) -> str:
    lines = [f"model {script.model.value}"]
    for stroke in script.strokes:
        prims = "".join(" " + _format_primitive(p) for p in stroke.centers.primitives)
        lines.append(f"stroke {stroke.tool.value}{prims}")
    return "\n".join(lines) + "\n"


def serialize_boundary(pieces) -> str:
    """Closed piecewise boundary as a scene: one segment/arc per line."""
    lines = ["boundary"]
    for piece in pieces:
        if not isinstance(piece, (Segment, Arc)):
            raise TypeError(f"boundary pieces must be segments or arcs, got {piece!r}")
        lines.append(_format_primitive(piece))
    return "\n".join(lines) + "\n"


def parse_boundary(text: str):
    """Parse a boundary scene into a validated closed path."""
    from .constructions import PiecewisePath

    pieces = []
    seen_header = False
    for lineno, tokens in _tokenize(text):
        r = _LineReader(lineno, tokens)
        if not seen_header:
            word = r.take("the boundary header")
            if word != "boundary":
                raise ParseError(lineno, tokens[0][0],
                                 f"boundary scene must start with 'boundary', got {word!r}")
            seen_header = True
            continue
        prim = _parse_primitive(r)
        if not isinstance(prim, (Segment, Arc)):
            raise ParseError(lineno, tokens[0][0],
                             "boundary pieces must be segments or arcs")
        if r.peek() is not None:
            raise r.error_here("one primitive per boundary line")
        pieces.append(prim)
    if not seen_header:
        raise ParseError(1, 1, "missing boundary header")
    try:
        return PiecewisePath(tuple(pieces))
    except ValueError as exc:
        raise ParseError(1, 1, f"invalid boundary: {exc}") from None
