"""The drawing model: strokes, scripts, membership, stationary numbers.

A script is an ordered list of strokes applying unit-disk neighborhoods of
center sets, pencil strokes at odd positions and eraser strokes at even ones
(the alternating normal form).  All comparisons against the critical radius 1
use a symmetric margin and produce three-valued verdicts; boundary verdicts
are propagated, never silently rounded.

A stroke covers only points within distance 1 of its centre set, so each
primitive has a reach box (reach_box): its covering box
(geometry.covering_box) widened on every side by r = 1 + 1e-3 + m, with
m = 1e-7 * max(1, largest coordinate magnitude of that box), outside which
it is farther than 1 + 1e-3 (m dominates the rounding of the box and of
the distances, as render._margin argues).

Lemma: leaving out primitives farther than 1 + 1e-3 from x changes no
stroke verdict at x.  The verdict compares the least distance d with
1 - tau and 1 + tau, and tau < 1e-3 (check_tolerance): if d <= 1 + tau, a
primitive left in attains it; else what is left stays farther than 1 + tau
(inf, OUT, when nothing is).  eval_script and stationary_number read only
the script's scan table (DrawingScript.scan_table): one row (k, entries)
per stroke that has a primitive, from the last stroke back, k the stroke's
1-based index and entries one (xmin, ymin, xmax, ymax, primitive) per
primitive in stroke order, its reach box first.  They compute a distance
only to a primitive whose box holds the point, and an empty padding
stroke, OUT everywhere, has no row, so by the lemma no verdict, stationary
number or BoundaryPoint changes.  The table is derived on the script's
first query and is not part of ==, hash or repr.  nbhd_contains and
reference_eval evaluate every primitive, never read the table, and stay
its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from .geometry import (
    DEFAULT_TAU,
    OffsetHalfPlane,
    Point,
    Primitive,
    SinglePoint,
    WholePlane,
    check_tolerance,
    covering_box,
)


class DiskModel(Enum):
    OPEN = "open"
    CLOSED = "closed"


class Tool(Enum):
    PENCIL = "pencil"
    ERASER = "eraser"


class Containment(Enum):
    """Three-valued membership verdict for a single neighborhood."""

    IN = "in"
    OUT = "out"
    BOUNDARY = "boundary"


class Shade(Enum):
    """Three-valued canvas color."""

    BLACK = "black"
    WHITE = "white"
    BOUNDARY = "boundary"


class NonConvexInput(ValueError):
    pass


class BoundaryPoint(Exception):
    """Raised when a query cannot be decided because a stroke verdict is Boundary.

    point is the query and stroke the 1-based index of a boundary stroke
    whose verdict decides it; the message is formatted only when printed.
    """

    def __init__(self, point: Point, stroke: int):
        super().__init__(point, stroke)
        self.point, self.stroke = point, stroke

    def __str__(self) -> str:
        return f"stationary number of {self.point} depends on the boundary verdict of stroke {self.stroke}"


def reach_box(prim: Primitive) -> tuple[float, float, float, float]:
    """(xmin, ymin, xmax, ymax) outside which prim is farther than 1 + 1e-3 (module docstring)."""
    xmin, ymin, xmax, ymax = covering_box(prim)
    r = 1.0 + 1e-3 + 1e-7 * max(1.0, -xmin, -ymin, xmax, ymax)
    return xmin - r, ymin - r, xmax + r, ymax + r


@dataclass(frozen=True, slots=True)
class CenterSet:
    """A finite union of primitives serving as the center set of one stroke.

    The empty set is allowed: it is infinitely far from every point, so its
    stroke paints nothing (the padding of DrawingScript.relaxed).
    """

    primitives: tuple[Primitive, ...]

    @staticmethod
    def of_points(*pts: Point) -> "CenterSet":
        return CenterSet(tuple(SinglePoint(p) for p in pts))


@dataclass(frozen=True, slots=True)
class Stroke:
    tool: Tool
    centers: CenterSet


@dataclass(frozen=True, slots=True)
class DrawingScript:
    """Ordered strokes in alternating normal form (pencil odd, eraser even).

    Use DrawingScript.relaxed to build from an arbitrary tool order; empty
    padding strokes, which paint nothing, restore alternation.
    """

    model: DiskModel
    strokes: tuple[Stroke, ...]
    # The scan table, derived on the first query (scan_table) so that a
    # script built and never queried does not pay for it; not part of ==,
    # hash or repr.  Two threads that both fill it store equal tuples.
    _table: tuple[tuple, ...] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for k, stroke in enumerate(self.strokes, start=1):
            want = Tool.PENCIL if k % 2 == 1 else Tool.ERASER
            if stroke.tool is not want:
                raise ValueError(
                    f"stroke {k} must be {want.value} in alternating form; "
                    "use DrawingScript.relaxed for arbitrary orders"
                )

    @classmethod
    def relaxed(cls, model: DiskModel, strokes: Sequence[Stroke]) -> "DrawingScript":
        out: list[Stroke] = []
        for stroke in strokes:
            want = Tool.PENCIL if (len(out) + 1) % 2 == 1 else Tool.ERASER
            if stroke.tool is not want:
                out.append(Stroke(want, CenterSet(())))
            out.append(stroke)
        return cls(model, tuple(out))

    def __len__(self) -> int:
        return len(self.strokes)

    def scan_table(self) -> tuple[tuple, ...]:
        """One row (k, entries) per stroke that has a primitive, from the
        last stroke back: its 1-based index and one (xmin, ymin, xmax, ymax,
        primitive) per primitive, its reach box (see the module docstring)."""
        table = self._table
        if table is None:
            table = tuple((k, tuple((*reach_box(p), p) for p in s.centers.primitives))
                          for k, s in reversed(tuple(enumerate(self.strokes, start=1))) if s.centers.primitives)
            object.__setattr__(self, "_table", table)
        return table


def nbhd_contains(x: Point, centers: CenterSet, tau: float = DEFAULT_TAU) -> Containment:
    """Three-valued test of x against the unit neighborhood of a center set.

    IN when the distance is < 1 - tau, OUT when > 1 + tau, BOUNDARY in the
    collar.  The disk model does not enter: it only fixes how points at
    distance exactly 1 resolve (open excludes them, closed includes them),
    which is precisely the regime reported as BOUNDARY.
    """
    check_tolerance(tau)
    best = min((prim.dist(x) for prim in centers.primitives), default=math.inf)
    return Containment.IN if best < 1.0 - tau else Containment.OUT if best > 1.0 + tau else Containment.BOUNDARY


def eval_script(x: Point, script: DrawingScript, tau: float = DEFAULT_TAU) -> Shade:
    """Color of x under the script: the parity of the last covering stroke.

    Black when the last stroke whose neighborhood definitely contains x is a
    pencil, white when it is an eraser or no stroke ever covers x.  Boundary
    when some stroke at or above that index has a boundary verdict (an
    earlier boundary stroke is overridden and ignored).

    The strokes are read from the last one back, and the first one that is
    not OUT decides: IN (some primitive closer than 1 - tau) gives its
    parity, BOUNDARY (the least distance at most 1 + tau) gives
    Shade.BOUNDARY.  Strokes below it are never evaluated, and no distance
    is computed to a primitive whose reach box does not hold x (the lemma).
    """
    check_tolerance(tau)
    inner, outer = 1.0 - tau, 1.0 + tau
    px, py = x.x, x.y
    for k, entries in script._table or script.scan_table():
        best = math.inf
        for xmin, ymin, xmax, ymax, prim in entries:
            if xmin <= px <= xmax and ymin <= py <= ymax:
                d = prim.dist_xy(px, py)
                if d < inner:
                    return Shade.BLACK if k % 2 == 1 else Shade.WHITE
                if d < best:
                    best = d
        if best <= outer:
            return Shade.BOUNDARY
    return Shade.WHITE


def reference_eval(x: Point, script: DrawingScript, tau: float = DEFAULT_TAU) -> Shade:
    """Direct recursive evaluation of the alternating union/difference chain.

    Independent of eval_script's last-cover shortcut: every stroke is
    evaluated, front to back.  Conservative about boundaries (any boundary
    stroke verdict makes the result Boundary).
    """
    verdicts = [nbhd_contains(x, s.centers, tau) for s in script.strokes]
    if any(v is Containment.BOUNDARY for v in verdicts):
        return Shade.BOUNDARY
    black = False
    for k, v in enumerate(verdicts, start=1):
        covered = v is Containment.IN
        if k % 2 == 1:
            black = black or covered
        else:
            black = black and not covered
    return Shade.BLACK if black else Shade.WHITE


def stationary_number(x: Point, script: DrawingScript, tau: float = DEFAULT_TAU) -> int:
    """Index of the stroke that fixed x's final color; 0 when never covered.

    For a final-black point this is the smallest odd covering index after
    which no eraser covers x; dually for final-white.  BoundaryPoint is
    raised exactly when the answer depends on how a boundary verdict
    resolves.

    One backward scan decides it.  The strokes are read from the last one
    back.  The last IN stroke L sets sn and a parity; each IN stroke of that
    parity met after it moves sn down to itself, and the first IN stroke j of
    the other parity stops the scan (strokes below j are never evaluated).  Boundary strokes
    met on the way are recorded.  The answer depends on a recorded boundary
    stroke b exactly when no stroke is IN, or b has L's parity and b < sn,
    or b has the other parity and b > sn:

    - Sufficiency.  Otherwise every covering stroke above sn has L's parity,
      and below sn the first covering stroke has the other parity (a
      boundary stroke or j), under every resolution.  The walk down from
      the last covering stroke therefore passes only strokes of L's parity
      down to sn and stops there.
    - Necessity.  Flipping the one offending boundary stroke to covered
      changes the answer: to b itself when no stroke is IN, to b or below
      when b continues L's run below sn, and to a stroke above sn when b
      interrupts the run above it.

    A primitive whose reach box does not hold x is passed over without
    computing its distance, as in eval_script, whose verdicts these are.
    BoundaryPoint names the first offending b met, the highest.
    """
    check_tolerance(tau)
    inner, outer = 1.0 - tau, 1.0 + tau
    px, py = x.x, x.y
    sn = 0
    parity = None  # that of L
    boundary: list[int] = []
    for k, entries in script._table or script.scan_table():
        best = math.inf
        for xmin, ymin, xmax, ymax, prim in entries:
            if xmin <= px <= xmax and ymin <= py <= ymax:
                d = prim.dist_xy(px, py)
                if d < inner:
                    break
                if d < best:
                    best = d
        else:  # not IN
            if best <= outer:
                boundary.append(k)
            continue
        if parity is None:
            parity = k % 2
        elif k % 2 != parity:
            break  # k is j
        sn = k
    for b in boundary:
        if parity is None or (b < sn if b % 2 == parity else b > sn):
            raise BoundaryPoint(x, b)
    return sn


# ---------------------------------------------------------------------------
# Convex-set script builders
# ---------------------------------------------------------------------------


def halfplane_center_set(normal: Point, offset: float) -> CenterSet:
    """Center set whose open unit neighborhood is the open halfspace <x,n> > offset.

    The centers are the points of the halfspace at distance >= 1 from its
    defining line.  A normal off unit length is OffsetHalfPlane's NonUnitNormal.
    """
    return CenterSet((OffsetHalfPlane(normal, offset),))


def convex_polygon_script(
    vertices: Sequence[Point], model: DiskModel, tau: float = DEFAULT_TAU
) -> DrawingScript:
    """Two-stroke script that is black exactly on the closed convex polygon.

    Paints the whole plane, then erases the open complement halfspace of each
    edge.  Vertices must be in ccw order with strictly convex turns.
    """
    check_tolerance(tau)
    n = len(vertices)
    if n < 3:
        raise NonConvexInput("need at least 3 vertices")
    scale = max(vertices[i].distance_to(vertices[(i + 1) % n]) for i in range(n))
    for i in range(n):
        a, b, c = vertices[i], vertices[(i + 1) % n], vertices[(i + 2) % n]
        if (b - a).cross(c - b) <= tau * scale * scale:
            raise NonConvexInput(f"turn at vertex {(i + 1) % n} is not strictly convex ccw")
    halfplanes = []
    for i in range(n):
        a, b = vertices[i], vertices[(i + 1) % n]
        outward = Point(b.y - a.y, a.x - b.x).normalized()  # edge direction rotated cw
        halfplanes.append(OffsetHalfPlane(outward, a.dot(outward)))
    return DrawingScript(
        model,
        (
            Stroke(Tool.PENCIL, CenterSet((WholePlane(),))),
            Stroke(Tool.ERASER, CenterSet(tuple(halfplanes))),
        ),
    )
