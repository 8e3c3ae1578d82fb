"""Raster rendering of colorings and scripts to binary PGM, plus SVG outlines.

Pixels are sampled at their centers with no antialiasing; the three-valued
semantics map to 0 (black), 255 (white) and a mid-gray for boundary, so a
render is a faithful picture of the verdicts.  Identical inputs produce
byte-identical output.

Scripts and regions are filled a row at a time, as in scanline polygon fill
(Foley et al., Computer Graphics: Principles and Practice, ch. 3): the line
through a row's pixel centers meets each stroke primitive or boundary piece
in closed-form intervals, whole runs between them are filled at once, and
only the pixels in a conservative collar window go to the exact per-pixel
classifier.  The bytes are those of classifying every pixel.

The same reference's active edge table is all a row reads: each primitive
or piece is listed, with its closed-form constants, under the rows whose
center lies within its y-range widened by the radius of its closed forms,
and each y-monotone part of a region's loops under those within its own.
A table may hold a superset, since a closed form or the crossing rule adds
nothing on a row its item misses; so each reach is widened by one more
collar margin, which dominates the rounding of the closed forms' own tests
and of the reach's ends, and no row an item reaches is left out.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Union

from .canvas import (
    DrawingScript,
    Shade,
    eval_script,  # noqa: F401  (never called here; perfbench's tracer looks the name up in this module)
)
from .geometry import Arc, OffsetHalfPlane, Point, Segment, SinglePoint, WholePlane, covering_box
from .obstruction import Coloring, script_coloring


@dataclass(frozen=True)
class RasterSpec:
    xmin: float
    ymin: float
    xmax: float
    ymax: float
    resolution: float  # pixels per unit

    def __post_init__(self):
        if not all(map(math.isfinite, (self.xmin, self.ymin, self.xmax, self.ymax, self.resolution))):
            raise ValueError("raster bbox and resolution must be finite")
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise ValueError("raster bbox must have positive extent")
        if self.resolution < 1.0:
            raise ValueError(f"resolution must be >= 1 pixel per unit, got {self.resolution}")
        if not math.isfinite(max(self.xmax - self.xmin, self.ymax - self.ymin) * self.resolution):
            raise ValueError("raster width or height overflows")

    @property
    def width(self) -> int:
        return max(1, round((self.xmax - self.xmin) * self.resolution))

    @property
    def height(self) -> int:
        return max(1, round((self.ymax - self.ymin) * self.resolution))


RenderSource = Union[DrawingScript, Coloring]

_SHADE_BYTE = {Shade.BLACK: 0, Shade.WHITE: 255, Shade.BOUNDARY: 128}
_BLACK, _WHITE = 0, 255

logger = logging.getLogger("diskdraw")


def render(source: RenderSource, spec: RasterSpec) -> bytes:
    """Classify every pixel center; returns raw row-major bytes.

    A bare DrawingScript is classified at DEFAULT_TAU; wrap it with
    script_coloring for another margin.  A Coloring is filled a row at a
    time from the closed forms of the script or region it records (see
    _script_rows and _region_rows) with its own tau; the pixels those cannot
    settle are classified one by one.  A row computes the closed forms only
    of the items its active table lists, those whose reach holds the row's
    center; an item listed on a row it misses adds nothing, so the table may
    list more than it must, never less.  Each byte is the verdict the
    classifier gives at that pixel center; the pixel buffer is allocated
    before the tables.  The numbers of pixels classified exactly, of (row,
    item) pairs the active table hands to the closed forms and of (row,
    part) pairs a region's crossing table lists are logged at DEBUG on the
    "diskdraw" logger.
    """
    if isinstance(source, DrawingScript):
        source = script_coloring(source)
    if not isinstance(source, Coloring):
        raise TypeError(f"cannot render {source!r}")
    classify, shape = source.classify, source.source
    grid = _Grid(spec)
    w, h = grid.w, grid.h
    pixels = bytearray(b"\xff") * (w * h)
    if isinstance(shape, DrawingScript):
        rows, pairs, parts = _script_rows(shape, source.tau, grid)
    else:
        rows, pairs, parts = _region_rows(shape, source.tau, grid)
    exact = 0
    for i in range(h):
        y = grid.y(i)
        base = i * w
        cols = rows(i, y, pixels, base)
        exact += len(cols)
        for j in cols:
            pixels[base + j] = _SHADE_BYTE[classify(Point(grid.x(j), y))]
    logger.debug("render %dx%d: %d pixels classified exactly, %d active row items, %d active row parts",
                 w, h, exact, pairs, parts)
    return bytes(pixels)


# ---------------------------------------------------------------------------
# Row spans
# ---------------------------------------------------------------------------


class _Grid:
    """Pixel-center coordinates, computed exactly as the per-pixel loop does."""

    def __init__(self, spec: RasterSpec):
        self.w, self.h = spec.width, spec.height
        self.xmin, self.ymax = spec.xmin, spec.ymax
        self.sx = (spec.xmax - spec.xmin) / self.w
        self.sy = (spec.ymax - spec.ymin) / self.h
        self.scale = max(1.0, abs(spec.xmin), abs(spec.xmax), abs(spec.ymin), abs(spec.ymax))
        self.black = memoryview(bytes(self.w))
        self.white = memoryview(b"\xff" * self.w)

    def y(self, i: int) -> float:
        return self.ymax - (i + 0.5) * self.sy

    def x(self, j: int) -> float:
        return self.xmin + (j + 0.5) * self.sx

    def first(self, v: float) -> int:
        """Smallest column j in [0, w] whose center x_j >= v.

        The estimate is corrected against the computed centers, so the answer
        is exact for the floating-point centers the pixels are classified at.
        """
        t = (v - self.xmin) / self.sx - 0.5
        j = 0 if not t > 0.0 else self.w if t >= self.w else math.ceil(t)
        while j > 0 and self.x(j - 1) >= v:
            j -= 1
        while j < self.w and self.x(j) < v:
            j += 1
        return j

    def row(self, v: float) -> int:
        """Smallest row i in [0, h] whose center y_i <= v (centers descend
        with i), corrected against the computed centers as first is."""
        t = (self.ymax - v) / self.sy - 0.5
        i = 0 if not t > 0.0 else self.h if t >= self.h else math.ceil(t)
        while i > 0 and self.y(i - 1) <= v:
            i -= 1
        while i < self.h and self.y(i) > v:
            i += 1
        return i

    def cols(self, lo: float, hi: float) -> range:
        """Columns whose centers x_j satisfy lo <= x_j < hi.

        Spans meet at shared ends, and a center exactly on one lies a margin
        away from any verdict change, so half-open ranges lose nothing.  A
        window holding no center costs one search.
        """
        j0 = self.first(lo)
        return range(j0, j0 if j0 == self.w or self.x(j0) >= hi else self.first(hi))

    def fill(self, pixels: bytearray, base: int, lo: float, hi: float, value: int) -> None:
        cols = self.cols(lo, hi)
        if cols:
            pixels[base + cols.start : base + cols.stop] = (self.black if value == _BLACK else self.white)[: len(cols)]


def _margin(grid: _Grid, piece) -> float:
    """Collar margin m for a stroke primitive or a boundary piece.

    m = 1e-7 * M, M the largest coordinate magnitude of the raster and the
    piece (at least 1).  A row's closed forms take a few roundings of
    coordinates of size at most M, so their absolute error is of order
    1e-15 * M; the classifier's own distances carry the same order.  Near
    tangency a square root turns an error e in R^2 - d^2 into an x error of
    at most sqrt(e), about 3e-8 * M, while the radial margin m widens the
    window there by about sqrt(2 * R * m).  So m dominates rounding by
    several orders of magnitude, and a collar window is still only about
    2e-7 * M wide: few pixel centers ever fall inside one.
    """
    return 1e-7 * max(grid.scale, piece.extent())


def _chord(cx: float, dy: float, rho: float):
    """x-interval of a row within rho of a center at abscissa cx, the row
    passing at height offset dy from the center; None when it passes farther."""
    d = abs(dy)
    if d > rho:
        return None
    s = math.sqrt((rho - d) * (rho + d))
    return cx - s, cx + s


def _annulus(cx: float, dy: float, r_in: float, r_out: float) -> list:
    """x-intervals of the row at height offset dy inside the closed annulus
    r_in <= |x - center| <= r_out (r_in may be negative)."""
    outer = _chord(cx, dy, r_out)
    if outer is None:
        return []
    inner = _chord(cx, dy, r_in) if r_in > 0.0 else None
    if inner is None:
        return [outer]
    return [(outer[0], inner[0]), (inner[1], outer[1])]


def _between(a: float, b: float, lo: float, hi: float):
    """The u-interval where lo <= a*u + b <= hi, or None."""
    if a == 0.0:
        return (-math.inf, math.inf) if lo <= b <= hi else None
    u0, u1 = (lo - b) / a, (hi - b) / a
    return (u0, u1) if a > 0.0 else (u1, u0)


def _form(item, r: float):
    """An item's closed-form constants, by the operations a row once
    repeated: a segment's (ax, ay, bx, by, dx, dy, length, ymin, ymax), an
    arc's (cx, cy, R - r, R + r), None for any other primitive."""
    if isinstance(item, Segment):
        ax, ay, bx, by = item.a.x, item.a.y, item.b.x, item.b.y
        dx, dy = bx - ax, by - ay
        return ax, ay, bx, by, dx, dy, math.hypot(dx, dy), min(ay, by), max(ay, by)
    if isinstance(item, Arc):
        c, radius = item.center, item.radius
        return c.x, c.y, radius - r, radius + r
    return None


def _capsule(form: tuple, y: float, rho: float):
    """x-interval of the row at height y within rho of the segment of form
    (see _form), or None.

    The capsule is the union of the endpoint disks and the rectangle of
    points that project into the segment within rho of its line; it is
    convex, so its trace on the row is one interval.
    """
    ax, ay, bx, by, dx, dy, length, ymin, ymax = form
    if not ymin - rho <= y <= ymax + rho:
        return None
    lo, hi = math.inf, -math.inf
    for px, py in ((ax, ay), (bx, by)):
        span = _chord(px, y - py, rho)
        if span is not None:
            lo, hi = min(lo, span[0]), max(hi, span[1])
    h = y - ay
    across = _between(-dy, dx * h, -rho * length, rho * length)  # distance to the line
    along = _between(dx, dy * h, 0.0, length * length)  # projection inside the segment
    if across is not None and along is not None:
        u0, u1 = max(across[0], along[0]), min(across[1], along[1])
        if u0 <= u1:
            lo, hi = min(lo, ax + u0), max(hi, ax + u1)
    return (lo, hi) if lo <= hi else None


def _convex_span(prim, y: float, rho: float):
    """x-interval of the row at height y within rho of a point, half-plane
    or the whole plane (each neighbourhood is convex), or None."""
    if isinstance(prim, SinglePoint):
        return _chord(prim.p.x, y - prim.p.y, rho)
    if isinstance(prim, OffsetHalfPlane):
        # distance below rho  <=>  x*nx + y*ny >= offset + 1 - rho
        nx = prim.normal.x
        t = prim.offset + 1.0 - rho - y * prim.normal.y
        if nx == 0.0:
            return (-math.inf, math.inf) if t <= 0.0 else None
        return (t / nx, math.inf) if nx > 0.0 else (-math.inf, t / nx)
    if isinstance(prim, WholePlane):
        return -math.inf, math.inf
    raise TypeError(f"unknown primitive {prim!r}")


def _active(grid: _Grid, entries) -> list:
    """The active table: per row, in entry order, the payloads of the
    entries (lo, hi, payload) whose closed y-range holds the row's center;
    an item's is its covering_box's (an arc's whole circle, unbounded for a
    half-plane or the whole plane) widened by its reach."""
    table = [[] for _ in range(grid.h)]
    for lo, hi, payload in entries:
        for i in range(grid.row(hi), grid.row(math.nextafter(lo, -math.inf))):  # y_i <= hi and y_i >= lo
            table[i].append(payload)
    return table


def _split(outer, inner):
    """(certain-IN, uncertain) intervals from a convex neighbourhood's trace
    at the two radii: what lies between them is uncertain."""
    if outer is None:
        return [], []
    if inner is None:
        return [], [outer]
    return [inner], [(outer[0], inner[0]), (inner[1], outer[1])]


def _script_rows(script: DrawingScript, tau: float, grid: _Grid):
    """Row filler for eval_script's verdicts.

    Per stroke, the row meets each primitive's neighbourhood in closed form:
    inside dist < 1 - tau - m the stroke is IN for certain, beyond
    dist > 1 + tau + m it is OUT for certain (m from _margin).  Painting the
    certain-IN intervals in stroke order leaves every pixel the color of its
    last covering stroke, white where none covers it, which is eval_script's
    verdict wherever no stroke is uncertain.  The pixels between the two
    radii of any primitive are returned for exact classification.  An arc
    has no certain-IN part here: its whole annulus R -+ (1 + tau + m) is
    returned for exact classification.  A row visits, in stroke order, the
    primitives its active table lists (reach r_out + m).  Returns the row
    filler and the numbers of (row, primitive) and (row, part) pairs, 0.
    """
    entries = []
    for k, stroke in enumerate(script.strokes, start=1):
        value = _BLACK if k % 2 == 1 else _WHITE
        for prim in stroke.centers.primitives:
            m = _margin(grid, prim)
            r_in, r_out = 1.0 - tau - m, 1.0 + tau + m
            _, lo, _, hi = covering_box(prim)
            entries.append((lo - (r_out + m), hi + (r_out + m), (value, prim, _form(prim, r_out), r_in, r_out)))
    active = _active(grid, entries)

    def row(i: int, y: float, pixels: bytearray, base: int):
        uncertain = []
        for value, prim, form, r_in, r_out in active[i]:
            if isinstance(prim, Segment):
                inner, unsure = _split(_capsule(form, y, r_out), _capsule(form, y, r_in))
            elif isinstance(prim, Arc):  # the annulus about the circle holds the arc's neighbourhood
                cx, cy, r_lo, r_hi = form
                inner, unsure = [], _annulus(cx, y - cy, r_lo, r_hi)
            else:
                inner, unsure = _split(_convex_span(prim, y, r_out), _convex_span(prim, y, r_in))
            for lo, hi in inner:
                grid.fill(pixels, base, lo, hi, value)
            uncertain += unsure
        return {j for lo, hi in uncertain for j in grid.cols(lo, hi)}

    return row, sum(map(len, active)), 0


def _crossing_table(grid: _Grid, loops) -> list:
    """Per row, the y-monotone parts (y0, y1, x_at) of the loops whose
    closed y-range holds the row's center: each part the row can cross."""
    return _active(grid, ((min(p[0], p[1]), max(p[0], p[1]), p) for loop in loops for p in loop.parts))


def _region_rows(loops, tau: float, grid: _Grid):
    """Row filler for classify_against_path over closed loops.

    Filling between consecutive sorted crossings of the row (the same floats
    the classifier counts, from the parts its crossing table lists) gives
    each pixel the classifier's parity.  That is the verdict outside the
    collar windows: the pixels within tau + m of a piece (m from _margin),
    in the capsule about a segment or the annulus R -+ (tau + m) about an
    arc's circle, which are classified exactly.  A row visits the pieces its
    active table lists (reach tau + 2m).  Returns the row filler and the
    numbers of (row, piece) and (row, part) pairs in the tables.
    """
    capsules, annuli = [], []
    for piece in (piece for loop in loops for piece in loop.pieces):
        m = _margin(grid, piece)
        _, lo, _, hi = covering_box(piece)
        (capsules if isinstance(piece, Segment) else annuli).append(
            (lo - (tau + 2.0 * m), hi + (tau + 2.0 * m), (_form(piece, tau + m), tau + m)))
    parts, capsules, annuli = _crossing_table(grid, loops), _active(grid, capsules), _active(grid, annuli)

    def row(i: int, y: float, pixels: bytearray, base: int):
        crossings = sorted([x_at(y) for y0, y1, x_at in parts[i] if (y0 > y) != (y1 > y)])
        for k in range(0, len(crossings), 2):  # an odd number of crossings lies to the right
            grid.fill(pixels, base, crossings[k], crossings[k + 1], _BLACK)
        windows = [w for form, r in capsules[i] if (w := _capsule(form, y, r)) is not None]
        for (cx, cy, r_in, r_out), _ in annuli[i]:
            windows += _annulus(cx, y - cy, r_in, r_out)
        return {j for lo, hi in windows for j in grid.cols(lo, hi)}

    return row, sum(map(len, capsules)) + sum(map(len, annuli)), sum(map(len, parts))


def to_pgm(pixels: bytes, spec: RasterSpec) -> bytes:
    header = f"P5\n{spec.width} {spec.height}\n255\n".encode("ascii")
    return header + pixels


def write_pgm(path: str, source: RenderSource, spec: RasterSpec) -> None:
    """Render, then write: a render that fails leaves an existing file as it was."""
    data = to_pgm(render(source, spec), spec)
    with open(path, "wb") as fh:
        fh.write(data)


def black_fraction(pixels: bytes) -> float:
    if not pixels:
        return 0.0
    return sum(1 for b in pixels if b == 0) / len(pixels)


def _svg_piece(piece) -> str:
    if isinstance(piece, Segment):
        return f"M {piece.a.x:.6f} {piece.a.y:.6f} L {piece.b.x:.6f} {piece.b.y:.6f}"
    if isinstance(piece, Arc):
        p0, p1 = piece.start_point, piece.end_point
        large = 1 if piece.sweep > math.pi else 0
        # SVG's y axis points down; the caller flips with a transform, making
        # a ccw arc here a sweep=0 arc in SVG coordinates.
        sweep = 0 if piece.ccw else 1
        return (
            f"M {p0.x:.6f} {p0.y:.6f} "
            f"A {piece.radius:.6f} {piece.radius:.6f} 0 {large} {sweep} {p1.x:.6f} {p1.y:.6f}"
        )
    raise TypeError(f"cannot render piece {piece!r}")


def write_svg(path: str, pieces, spec: RasterSpec) -> None:
    """Write the boundary pieces as an SVG outline over the raster bbox."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{spec.xmin} {-spec.ymax} {spec.xmax - spec.xmin} {spec.ymax - spec.ymin}">',
        f'<g transform="scale(1,-1)" fill="none" stroke="black" stroke-width="0.02">',
    ]
    for piece in pieces:
        parts.append(f'<path d="{_svg_piece(piece)}"/>')
    parts.append("</g></svg>")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(parts) + "\n")
