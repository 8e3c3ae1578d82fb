"""The drawing model: strokes, scripts, membership, stationary numbers.

A script is an ordered list of strokes applying unit-disk neighborhoods of
center sets, pencil strokes at odd positions and eraser strokes at even ones
(the alternating normal form).  All comparisons against the critical radius 1
use a symmetric margin and produce three-valued verdicts; boundary verdicts
are propagated, never silently rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Sequence

from .geometry import (
    DEFAULT_TAU,
    OffsetHalfPlane,
    Point,
    Primitive,
    SinglePoint,
    WholePlane,
    check_tolerance,
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


class NonUnitNormal(ValueError):
    pass


class NonConvexInput(ValueError):
    pass


class BoundaryPoint(Exception):
    """Raised when a query cannot be decided because a stroke verdict is Boundary."""


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


def nbhd_contains(x: Point, centers: CenterSet, tau: float = DEFAULT_TAU) -> Containment:
    """Three-valued test of x against the unit neighborhood of a center set.

    IN when the distance is < 1 - tau, OUT when > 1 + tau, BOUNDARY in the
    collar.  The disk model does not enter: it only fixes how points at
    distance exactly 1 resolve (open excludes them, closed includes them),
    which is precisely the regime reported as BOUNDARY.
    """
    check_tolerance(tau)
    return _containment(x, centers, 1.0 - tau, 1.0 + tau)


def _containment(x: Point, centers: CenterSet, inner: float, outer: float) -> Containment:
    """nbhd_contains with the collar bounds 1 - tau and 1 + tau precomputed.

    IN as soon as one primitive is closer than inner; otherwise the least
    distance decides between OUT and BOUNDARY.
    """
    best = math.inf
    for prim in centers.primitives:
        d = prim.dist(x)
        if d < inner:
            return Containment.IN
        if d < best:
            best = d
    return Containment.OUT if best > outer else Containment.BOUNDARY


def eval_script(x: Point, script: DrawingScript, tau: float = DEFAULT_TAU) -> Shade:
    """Color of x under the script: the parity of the last covering stroke.

    Black when the last stroke whose neighborhood definitely contains x is a
    pencil, white when it is an eraser or no stroke ever covers x.  Boundary
    when some stroke at or above that index has a boundary verdict (an
    earlier boundary stroke is overridden and ignored).

    The strokes are read from the last one back, and the first one that is
    not OUT decides: IN gives its parity, BOUNDARY gives Shade.BOUNDARY.
    Strokes below it are never evaluated.
    """
    check_tolerance(tau)
    inner, outer = 1.0 - tau, 1.0 + tau
    strokes = script.strokes
    for k in range(len(strokes), 0, -1):
        v = _containment(x, strokes[k - 1].centers, inner, outer)
        if v is Containment.IN:
            return Shade.BLACK if k % 2 == 1 else Shade.WHITE
        if v is Containment.BOUNDARY:
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


def _sn_backward(covered: Sequence[bool], n: int) -> int:
    """Stationary number when covered[i] says whether stroke n - i covers x.

    The first covered stroke L sets the final color.  The walk goes down
    while the covered strokes have L's parity and stops at the first covered
    stroke of the other parity; the answer is the last stroke of L's parity
    reached, or 0 when no stroke covers x.
    """
    sn = 0
    for k, c in zip(range(n, 0, -1), covered):
        if c:
            if sn and (sn - k) % 2:
                break
            sn = k
    return sn


def stationary_number(x: Point, script: DrawingScript, tau: float = DEFAULT_TAU) -> int:
    """Index of the stroke that fixed x's final color; 0 when never covered.

    For a final-black point this is the smallest odd covering index after
    which no eraser covers x; dually for final-white.  Boundary stroke
    verdicts are tolerated only when they provably cannot change the answer
    (both resolutions are enumerated); otherwise BoundaryPoint is raised.

    Only a suffix of the script is read.  The strokes are evaluated from the
    last one back to the last definite IN stroke L, then on to the next
    definite IN stroke j < L of the other parity, where the scan stops.
    Under every resolution of the boundary verdicts, the last covering
    stroke of L's parity is at least L and the last covering stroke of the
    other parity is at least j.  The answer is a covering stroke of one
    parity above the last covering stroke of the other, so it is above j,
    and both "last" indices are found among the strokes j..n.  Strokes below
    j therefore cannot change the answer under any resolution; their
    verdicts are not computed, and their boundary verdicts are neither
    enumerated nor counted against the cap of 10.  Without such a j the
    whole script is the suffix.
    """
    check_tolerance(tau)
    inner, outer = 1.0 - tau, 1.0 + tau
    strokes = script.strokes
    n = len(strokes)
    suffix: list[Containment] = []  # verdicts of strokes n, n - 1, ..., j (or 1)
    parity = None  # that of L
    for k in range(n, 0, -1):
        v = _containment(x, strokes[k - 1].centers, inner, outer)
        suffix.append(v)
        if v is Containment.IN:
            if parity is None:
                parity = k % 2
            elif k % 2 != parity:
                break  # k is j
    boundary_idx = [i for i, v in enumerate(suffix) if v is Containment.BOUNDARY]
    base = [v is Containment.IN for v in suffix]
    if not boundary_idx:
        return _sn_backward(base, n)
    if len(boundary_idx) > 10:
        raise BoundaryPoint(f"{len(boundary_idx)} boundary strokes at {x}")
    values = set()
    for assignment in product((False, True), repeat=len(boundary_idx)):
        trial = list(base)
        for i, bit in zip(boundary_idx, assignment):
            trial[i] = bit
        values.add(_sn_backward(trial, n))
        if len(values) > 1:
            raise BoundaryPoint(f"stationary number of {x} depends on a boundary verdict")
    return values.pop()


# ---------------------------------------------------------------------------
# Convex-set script builders
# ---------------------------------------------------------------------------


def halfplane_center_set(normal: Point, offset: float) -> CenterSet:
    """Center set whose open unit neighborhood is the open halfspace <x,n> > offset.

    The centers are the points of the halfspace at distance >= 1 from its
    defining line.
    """
    if abs(normal.norm() - 1.0) > 1e-12:
        raise NonUnitNormal(f"normal {normal} must have unit length")
    return CenterSet((OffsetHalfPlane(normal, offset, margin=1.0),))


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
        halfplanes.append(OffsetHalfPlane(outward, a.dot(outward), margin=1.0))
    return DrawingScript(
        model,
        (
            Stroke(Tool.PENCIL, CenterSet((WholePlane(),))),
            Stroke(Tool.ERASER, CenterSet(tuple(halfplanes))),
        ),
    )
