"""Line-oriented scene DSL: parsing and serialization of drawing scripts.

Grammar (one directive per line):

    model open|closed
    stroke pencil|eraser [PRIMITIVE ...]

    PRIMITIVE := point X Y
               | segment X1 Y1 X2 Y2
               | arc CX CY R A0 A1 [cw]
               | halfplane NX NY OFFSET
               | plane

A line's words are what `str.split()` finds before its first `#` (a comment).
A line is read once, primitive by primitive, and an error sits at the first
word that does not fit, in reading order.  A ParseError's line and column are
1-based: the offending word's column, or just past the last word when a line
ends early; (1, 1) for the scene as a whole.  A word after the model or after
a boundary scene's `boundary` header is an error at that word.

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

    def __reduce__(self):
        return ParseError, (self.line, self.column, self.message)


_TOKEN = re.compile(r"\S+")
_TOOLS = {t.value: t for t in Tool}
_CHOICES = {"model": {m.value: m for m in DiskModel}, "tool": _TOOLS}


class SceneLine:
    """The words of one scene line and a cursor k over them."""

    __slots__ = ("lineno", "raw", "words", "k")

    def __init__(self, lineno: int, raw: str, words: list[str]):
        self.lineno, self.raw, self.words, self.k = lineno, raw, words, 0

    def take(self, what: str) -> str:
        k = self.k
        if k >= len(self.words):
            raise self.error(f"expected {what}, found end of line")
        self.k = k + 1
        return self.words[k]

    def number(self, what: str) -> float:
        word = self.take(what)
        try:
            value = float(word)
        except ValueError:
            raise self.error(f"expected {what}, got {word!r}", self.k - 1) from None
        if not math.isfinite(value):
            raise self.error(f"{what} must be finite, got {word!r}", self.k - 1)
        return value

    def choice(self, name: str):
        """The DiskModel (name "model") or Tool (name "tool") the next word names."""
        members = _CHOICES[name]
        what = " or ".join(members)
        word = self.take(what)
        if word not in members:
            raise self.error(f"{name} must be {what}, got {word!r}", self.k - 1)
        return members[word]

    def error(self, message: str, k: int | None = None) -> ParseError:
        """A ParseError at word k (default: the cursor), or past the last word."""
        k = self.k if k is None else k
        spans = [m.span() for m in _TOKEN.finditer(self.raw.split("#", 1)[0])]
        column = spans[k][0] + 1 if k < len(spans) else spans[-1][1] + 1
        return ParseError(self.lineno, column, message)


def scene_lines(text: str):
    """A SceneLine for each line of text that has a word."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        words = raw.split("#", 1)[0].split()
        if words:
            yield SceneLine(lineno, raw, words)


# kind: (names of its numbers, primitive from numbers)
_KINDS = {
    "point": (("x", "y"), lambda x, y: SinglePoint(Point(x, y))),
    "segment": (("x1", "y1", "x2", "y2"), lambda x1, y1, x2, y2: Segment(Point(x1, y1), Point(x2, y2))),
    "arc": (("cx", "cy", "radius", "start angle", "end angle"),
            lambda cx, cy, r, a0, a1, ccw=True: Arc(Point(cx, cy), r, a0, a1, ccw=ccw)),
    "halfplane": (("nx", "ny", "offset"), lambda nx, ny, offset: OffsetHalfPlane(Point(nx, ny), offset)),
    "plane": ((), WholePlane),
}


def _read_primitives(r: SceneLine, k: int, most: int = -1) -> tuple[tuple, int]:
    """The primitives r's words spell from word k on (at most `most`, unless negative) and the index
    past them; a ParseError at a word that does not fit, or at the kind for a constructor's ValueError."""
    words, prims, n = r.words, [], len(r.words)
    while k < n and most:
        most -= 1
        try:
            names, build = _KINDS[words[k]]
        except KeyError:
            raise r.error(f"unknown primitive kind {words[k]!r}", k) from None
        end = k + 1 + len(names)
        try:
            numbers = [*map(float, words[k + 1:end])]
            if end > n:
                raise ValueError
        except ValueError:  # r.number raises at the first number that does not fit
            r.k = k + 1
            numbers = [r.number(what) for what in names]
        if end < n and words[end] == "cw" and words[k] == "arc":
            numbers.append(False)
            end += 1
        try:
            prims.append(build(*numbers))
        except ValueError as exc:  # r.number raises at a non-finite number, else the kind's message
            r.k = k + 1
            for what in names:
                r.number(what)
            raise r.error(str(exc), k) from None
        k = end
    return tuple(prims), k


def parse_script(text: str) -> DrawingScript:
    """Parse the DSL into a drawing script (alternation normalized)."""
    model: DiskModel | None = None
    strokes: list[Stroke] = []
    for r in scene_lines(text):
        words = r.words
        r.k = 1  # past the directive
        if words[0] == "stroke":
            if model is None:
                raise r.error("the model declaration must come before any stroke", 0)
            try:
                tool = _TOOLS[words[1]]
            except LookupError:
                tool = r.choice("tool")
            strokes.append(Stroke(tool, CenterSet(_read_primitives(r, 2)[0])))
        elif words[0] == "model":
            if model is not None:
                raise r.error("duplicate model declaration")
            model = r.choice("model")
            if r.k < len(words):
                raise r.error(f"unexpected {words[r.k]!r} after the model")
        else:
            raise r.error(f"unknown directive {words[0]!r}", 0)
    if model is None:
        raise ParseError(1, 1, "missing model declaration")
    return DrawingScript.relaxed(model, strokes)


# type: its scene words, the inverse of its _KINDS entry
_FORMATS = {
    SinglePoint: lambda p: f"point {p.p.x!r} {p.p.y!r}",
    Segment: lambda s: f"segment {s.a.x!r} {s.a.y!r} {s.b.x!r} {s.b.y!r}",
    Arc: lambda a: (f"arc {a.center.x!r} {a.center.y!r} {a.radius!r} {a.start_angle!r} "
                    f"{a.end_angle!r}{'' if a.ccw else ' cw'}"),
    OffsetHalfPlane: lambda h: f"halfplane {h.normal.x!r} {h.normal.y!r} {h.offset!r}",
    WholePlane: lambda w: "plane",
}
# Keyed by member: Enum.value is a descriptor call.
_MODEL_LINES = {m: f"model {m.value}" for m in DiskModel}
_STROKE_HEADS = {t: f"stroke {t.value}" for t in Tool}


def _format_primitive(prim) -> str:
    fmt = _FORMATS.get(type(prim))
    if fmt is None:
        raise TypeError(f"cannot serialize {prim!r}")
    return fmt(prim)


def serialize_script(script: DrawingScript) -> str:
    lines = [_MODEL_LINES[script.model]]
    for stroke in script.strokes:
        lines.append(" ".join([_STROKE_HEADS[stroke.tool], *map(_format_primitive, stroke.centers.primitives)]))
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

    lines = scene_lines(text)
    head = next(lines, None)
    if head is None:
        raise ParseError(1, 1, "missing boundary header")
    if head.words[0] != "boundary":
        raise head.error(f"boundary scene must start with 'boundary', got {head.words[0]!r}", 0)
    if len(head.words) > 1:
        raise head.error(f"unexpected {head.words[1]!r} after the boundary header", 1)
    pieces = []
    for r in lines:
        (prim,), k = _read_primitives(r, 0, 1)
        if not isinstance(prim, (Segment, Arc)):
            raise r.error("boundary pieces must be segments or arcs", 0)
        if k < len(r.words):
            raise r.error("one primitive per boundary line", k)
        pieces.append(prim)
    try:
        return PiecewisePath(tuple(pieces))
    except ValueError as exc:
        raise ParseError(1, 1, f"invalid boundary: {exc}") from None
