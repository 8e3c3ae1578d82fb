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
A ParseError's line and column are 1-based: the offending word's column, or just
past the last word when a line ends early; (1, 1) for the scene as a whole.

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
_CHOICES = {"model": {m.value: m for m in DiskModel}, "tool": {t.value: t for t in Tool}}


class SceneLine:
    """The words of one scene line and a cursor k over them."""

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


# kind: (class, names of its numbers, primitive from numbers, numbers of primitive)
_KINDS = {
    "point": (SinglePoint, ("x", "y"), lambda x, y: SinglePoint(Point(x, y)),
              lambda p: (p.p.x, p.p.y)),
    "segment": (Segment, ("x1", "y1", "x2", "y2"),
                lambda x1, y1, x2, y2: Segment(Point(x1, y1), Point(x2, y2)),
                lambda s: (s.a.x, s.a.y, s.b.x, s.b.y)),
    "arc": (Arc, ("cx", "cy", "radius", "start angle", "end angle"),
            lambda cx, cy, r, a0, a1, ccw=True: Arc(Point(cx, cy), r, a0, a1, ccw=ccw),
            lambda a: (a.center.x, a.center.y, a.radius, a.start_angle, a.end_angle)),
    "halfplane": (OffsetHalfPlane, ("nx", "ny", "offset"),
                  lambda nx, ny, offset: OffsetHalfPlane(Point(nx, ny), offset),
                  lambda h: (h.normal.x, h.normal.y, h.offset)),
    "plane": (WholePlane, (), WholePlane, lambda w: ()),
}
_KIND_OF = {cls: name for name, (cls, *_) in _KINDS.items()}


def _parse_primitive(r: SceneLine):
    """One primitive; its constructor's ValueError is a ParseError at its kind."""
    at = r.k
    name = r.take("a primitive kind")
    if name not in _KINDS:
        raise r.error(f"unknown primitive kind {name!r}", at)
    _, names, build, _ = _KINDS[name]
    numbers = [r.number(what) for what in names]
    if name == "arc" and r.words[r.k:r.k + 1] == ["cw"]:
        r.k += 1
        numbers.append(False)
    try:
        return build(*numbers)
    except ValueError as exc:
        raise r.error(str(exc), at) from None


def parse_script(text: str) -> DrawingScript:
    """Parse the DSL into a drawing script (alternation normalized)."""
    model: DiskModel | None = None
    strokes: list[Stroke] = []
    for r in scene_lines(text):
        directive = r.take("a directive")
        if directive == "stroke":
            if model is None:
                raise r.error("the model declaration must come before any stroke", 0)
            tool = r.choice("tool")
            prims = []
            while r.k < len(r.words):
                prims.append(_parse_primitive(r))
            strokes.append(Stroke(tool, CenterSet(tuple(prims))))
        elif directive == "model":
            if model is not None:
                raise r.error("duplicate model declaration")
            model = r.choice("model")
        else:
            raise r.error(f"unknown directive {directive!r}", 0)
    if model is None:
        raise ParseError(1, 1, "missing model declaration")
    return DrawingScript.relaxed(model, strokes)


def _format_primitive(prim) -> str:
    name = _KIND_OF.get(type(prim))
    if name is None:
        raise TypeError(f"cannot serialize {prim!r}")
    out = " ".join([name, *map(repr, _KINDS[name][3](prim))])
    return out + " cw" if name == "arc" and not prim.ccw else out


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

    lines = scene_lines(text)
    head = next(lines, None)
    if head is None:
        raise ParseError(1, 1, "missing boundary header")
    if head.words[0] != "boundary":
        raise head.error(f"boundary scene must start with 'boundary', got {head.words[0]!r}", 0)
    pieces = []
    for r in lines:
        prim = _parse_primitive(r)
        if not isinstance(prim, (Segment, Arc)):
            raise r.error("boundary pieces must be segments or arcs", 0)
        if r.k < len(r.words):
            raise r.error("one primitive per boundary line")
        pieces.append(prim)
    try:
        return PiecewisePath(tuple(pieces))
    except ValueError as exc:
        raise ParseError(1, 1, f"invalid boundary: {exc}") from None
