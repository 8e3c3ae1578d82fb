"""Canonical example sets: chessboards, the curvature-bounded snake region,
and the sharpness script for the dissection bound.

The snake boundary is assembled from tangent-continuous arc and segment
pieces; tangency constraints against the twelve rays are solved in closed
form and cross-checked numerically, with three printed length anchors pinned
by tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Sequence

from .canvas import CenterSet, DiskModel, DrawingScript, Shade, Stroke, Tool
from .geometry import (
    DEFAULT_TAU,
    Arc,
    Point,
    Segment,
    check_tolerance,
    piece_intersections,
    rotate_about,
    unit,
)
from .obstruction import Coloring, DissectionSpec, InvalidN, undrawability_bound

TWO_PI = 2.0 * math.pi

PathPiece = Segment | Arc


class ConstructionInconsistent(ValueError):
    pass


# ---------------------------------------------------------------------------
# Piecewise boundary paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PiecewisePath:
    """A closed, simple chain of segments and arcs, kept in the order given:
    no consumer reads its orientation.

    Consecutive pieces must share endpoints to 1e-9 times the largest piece
    extent (at least 1), the last closing onto the first.  Simplicity is
    checked pairwise in closed form by validate_simple (called by the snake
    builder and by tests, since it is the expensive part).
    """

    pieces: tuple[PathPiece, ...]

    def __post_init__(self):
        if len(self.pieces) < 2:
            raise ValueError("path needs at least two pieces")
        n = len(self.pieces)
        slack = 1e-9 * max(1.0, *(p.extent() for p in self.pieces))
        for i in range(n):
            gap = self.pieces[i].end_point.distance_to(self.pieces[(i + 1) % n].start_point)
            if gap > slack:
                raise ValueError(f"pieces {i} and {(i + 1) % n} do not meet (gap {gap:.3e})")

    @property
    def total_length(self) -> float:
        return sum(p.length for p in self.pieces)

    def piece_offsets(self) -> list[float]:
        out = [0.0]
        for p in self.pieces:
            out.append(out[-1] + p.length)
        return out

    def distance_to(self, x: Point) -> float:
        return min(p.dist(x) for p in self.pieces)

    @cached_property
    def _boxes(self) -> tuple:
        """(piece, xmin, ymin, xmax, ymax) for each piece."""
        return tuple((piece, *piece.bbox()) for piece in self.pieces)

    @cached_property
    def parts(self) -> tuple:
        """The y-monotone parts (y0, y1, x_at) of all pieces (_monotone_parts).
        Piece i ends at piece i+1's start height, sharing one float there."""
        ends = [piece.start_point.y for piece in self.pieces[1:] + self.pieces[:1]]
        return tuple(part for pc, y_end in zip(self.pieces, ends) for part in _monotone_parts(pc, y_end))

    def crossings(self, y: float) -> list[float]:
        """Abscissas where the row at height y crosses the path, by the
        half-open rule: a monotone part counts when (y0 > y) != (y1 > y)."""
        return [x_at(y) for y0, y1, x_at in self.parts if (y0 > y) != (y1 > y)]

    def validate_simple(self) -> None:
        """Raise ConstructionInconsistent when non-adjacent pieces intersect
        or adjacent pieces meet anywhere besides their shared endpoint
        (within 1e-7; a junction may be off by ten times that).

        A pair whose piece boxes are more than 10 * tol apart on some axis is
        skipped, for it has no hit: a hit of piece_intersections is a point
        of one piece (its parameter clamped by at most tol of length) within
        a few tol of the other, which allows a parameter overshoot of tol or
        an angular slack of tol / R, tol of arc length.  Near-parallel
        segments hit mid-overlap, or at the near end when they lie end to
        end, one end of which is within tol of both; their lines part by
        under 1e-14 L along it (L the longer length), a few tol while L <=
        1e7.  Rounding adds ulps of the coordinates.  The
        pairs keep the order of the full loop, so the first error is the same."""
        tol = 1e-7
        far = 10.0 * tol
        n = len(self.pieces)
        for (i, (_, ax0, ay0, ax1, ay1)), (j, (_, bx0, by0, bx1, by1)) in combinations(enumerate(self._boxes), 2):
            if bx0 - ax1 > far or ax0 - bx1 > far or by0 - ay1 > far or ay0 - by1 > far:
                continue
            if j == i + 1:
                shared = self.pieces[j].start_point
            elif i == 0 and j == n - 1:
                shared = self.pieces[0].start_point
            else:
                shared = None
            hits = piece_intersections(self.pieces[i], self.pieces[j], tol)
            if not hits:
                continue
            if shared is None:
                raise ConstructionInconsistent(
                    f"pieces {i} and {j} intersect at {hits[0]} (non-adjacent)"
                )
            for h in hits:
                if h.distance_to(shared) > tol * 10.0:
                    raise ConstructionInconsistent(
                        f"adjacent pieces {i} and {j} intersect away from their junction at {h}"
                    )


# ---------------------------------------------------------------------------
# Half-open crossing membership against a piecewise path
# ---------------------------------------------------------------------------


def _monotone_parts(piece: PathPiece, y_end: float) -> list:
    """(y0, y1, x_at) for each y-monotone part of a piece: its end heights,
    the last one y_end, and the abscissa x_at(y) of its point at height y.

    A segment is one part.  An arc is cut at its circle's top and bottom, so
    each part lies on one half of the circle, where x is cx -+ sqrt(R^2 - dy^2)
    with a known sign.  x_at clamps to the part: a segment's parameter to
    [0, 1], an arc part's height to the part's own range.
    """
    if isinstance(piece, Segment):
        ax, ay, dx, dy = piece.a.x, piece.a.y, piece.b.x - piece.a.x, piece.b.y - piece.a.y

        def x_at(y: float) -> float:
            t = (y - ay) / dy if dy else 0.0
            return ax + min(1.0, max(0.0, t)) * dx

        return [(ay, y_end, x_at)]
    cx, cy, r, a0 = piece.center.x, piece.center.y, piece.radius, piece.start_angle
    turn = 1.0 if piece.ccw else -1.0
    first = (turn * (0.5 * math.pi - a0)) % math.pi  # arc offset of the first top or bottom
    cuts = [0.0] + [u for u in (first, first + math.pi) if 0.0 < u < piece.sweep] + [piece.sweep]
    extremes = [cy + r if math.sin(a0 + turn * u) > 0.0 else cy - r for u in cuts[1:-1]]
    heights = [piece.start_point.y, *extremes, piece.end_point.y]
    parts = []
    for k in range(len(cuts) - 1):
        lo, hi = sorted(heights[k : k + 2])
        side = 1.0 if math.cos(a0 + turn * 0.5 * (cuts[k] + cuts[k + 1])) > 0.0 else -1.0

        def x_at(y: float, lo=lo, hi=hi, side=side) -> float:
            d = abs(min(hi, max(lo, y)) - cy)
            return cx + side * math.sqrt((r - d) * (r + d)) if d < r else cx

        parts.append((heights[k], heights[k + 1] if k < len(cuts) - 2 else y_end, x_at))
    return parts


def classify_against_path(
    path: PiecewisePath | Sequence[PiecewisePath], p: Point, tau: float = DEFAULT_TAU
) -> Shade:
    """Three-valued membership in the closed region bounded by one path, or
    by several loops whose interiors are disjoint (they may touch).

    BOUNDARY within tau of any piece (a piece whose bounding box, widened by
    tau, misses p is skipped); otherwise the parity of the row's crossings
    to the right of p, summed over the loops, decides between BLACK and
    WHITE.  This is the renderer's row evaluated at one x.

    Why the parity is right (Hormann and Agathos, Comput. Geom. 20(3),
    2001): a y-monotone part counts at height y when (y0 > y) != (y1 > y).
    Adjacent parts share their vertex height as one float, so each loop's
    count is the number of sign changes of a cyclic sequence, which is even;
    a row through a vertex, along a horizontal segment or tangent to an arc
    counts as the row just above it.  A computed crossing x errs along the
    row, by about 1e-16 of the coordinates, or up to sqrt(1e-16) * R near an
    arc's top or bottom; yet the point it names lies within about 1e-16 * R
    of the piece, and so does every point of the row between it and the true
    crossing, the distance to the centre being monotone there.  A point
    outside the tau collar is thus on the same side of both crossings, and
    the error cannot flip its parity.
    """
    loops = (path,) if isinstance(path, PiecewisePath) else path
    x, y = p.x, p.y
    near = (piece for loop in loops for piece, x0, y0, x1, y1 in loop._boxes
            if x0 - tau <= x <= x1 + tau and y0 - tau <= y <= y1 + tau)
    if any(piece.dist(p) <= tau for piece in near):
        return Shade.BOUNDARY
    inside = sum(1 for loop in loops for c in loop.crossings(y) if c > x) % 2 == 1
    return Shade.BLACK if inside else Shade.WHITE


def region_coloring(loops: Sequence[PiecewisePath], tau: float = DEFAULT_TAU) -> Coloring:
    """Membership in the union of the regions enclosed by closed loops with
    disjoint interiors; the coloring records the loops for the renderer."""
    check_tolerance(tau)
    loops = tuple(loops)
    if not loops:
        raise ValueError("a region needs at least one loop")
    return Coloring(classify=lambda p: classify_against_path(loops, p, tau), source=loops, tau=tau)


# ---------------------------------------------------------------------------
# Chessboards
# ---------------------------------------------------------------------------


def _polygon(*corners: Point) -> PiecewisePath:
    n = len(corners)
    return PiecewisePath(tuple(Segment(corners[i], corners[(i + 1) % n]) for i in range(n)))


def chessboard_coloring(c: float, tau: float = DEFAULT_TAU) -> Coloring:
    """Black on the two diagonal squares [0,c]^2 and [-c,0]^2, white elsewhere,
    boundary within tau of the square edges.  The squares are two loops that
    touch at the origin."""
    if not c > 0.0:
        raise ValueError(f"square side must be positive, got {c}")
    loops = (
        _polygon(Point(0, 0), Point(c, 0), Point(c, c), Point(0, c)),
        _polygon(Point(0, 0), Point(-c, 0), Point(-c, -c), Point(0, -c)),
    )
    return region_coloring(loops, tau)


def rounded_chessboard_coloring(rho: float, tau: float = DEFAULT_TAU) -> Coloring:
    """Chessboard with the central corner of each black square rounded off.

    The central rho-square of each black square is cut away and replaced by
    the rho-disk sitting at (rho, rho) (respectively (-rho, -rho)), producing
    a boundary fillet of curvature 1/rho > 1 that separates the two black
    regions.  Each black square is one loop of four segments and the fillet.
    """
    if not (0.0 < rho < 1.0):
        raise ValueError(f"fillet radius must be in (0, 1), got {rho}")
    loops = (
        PiecewisePath((
            Segment(Point(rho, 0), Point(1, 0)),
            Segment(Point(1, 0), Point(1, 1)),
            Segment(Point(1, 1), Point(0, 1)),
            Segment(Point(0, 1), Point(0, rho)),
            Arc(Point(rho, rho), rho, math.pi, 1.5 * math.pi, ccw=True),
        )),
        PiecewisePath((
            Segment(Point(-rho, 0), Point(-1, 0)),
            Segment(Point(-1, 0), Point(-1, -1)),
            Segment(Point(-1, -1), Point(0, -1)),
            Segment(Point(0, -1), Point(0, -rho)),
            Arc(Point(-rho, -rho), rho, 0.0, 0.5 * math.pi, ccw=True),
        )),
    )
    return region_coloring(loops, tau)


# ---------------------------------------------------------------------------
# The snake
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SnakeGeometry:
    """All named points, the twelve ray angles, and the boundary path."""

    r: float
    points: dict
    ray_angles: tuple[float, ...]
    boundary: PiecewisePath

    @property
    def apex(self) -> Point:
        return self.points["O"]

    @property
    def ae_len(self) -> float:
        return self.points["A"].distance_to(self.points["E"])

    @property
    def oe_len(self) -> float:
        return self.points["O"].distance_to(self.points["E"])

    @property
    def oe_prime_len(self) -> float:
        return self.points["O"].distance_to(self.points["Eprime"])


def _arc_between(center: Point, radius: float, p_from: Point, p_to: Point, kind: str) -> Arc:
    th0 = math.atan2(p_from.y - center.y, p_from.x - center.x)
    th1 = math.atan2(p_to.y - center.y, p_to.x - center.x)
    ccw_sweep = (th1 - th0) % TWO_PI
    if kind == "minor":
        ccw = ccw_sweep <= math.pi
    elif kind == "major":
        ccw = ccw_sweep > math.pi
    else:
        raise ValueError(f"kind must be 'minor' or 'major', got {kind!r}")
    return Arc(center, radius, th0, th1, ccw=ccw)


def _sector_tangent_circle(apex: Point, ang_i: float, ang_j: float, radius: float):
    """Circle of the given radius tangent to both rays, nested in the sector
    spanned from ang_i to ang_j the short way around.  Returns
    (center, tangent point on ray i, tangent point on ray j)."""
    a = ang_i % TWO_PI
    b = ang_j % TWO_PI
    if a > b:
        a, b = b, a
    if b - a > math.pi:  # sector wraps through zero
        a += TWO_PI
    half = abs(b - a) / 2.0
    bis = (a + b) / 2.0
    d = radius / math.sin(half)
    tl = d * math.cos(half)
    center = apex + unit(bis).scaled(d)
    return center, apex + unit(ang_i).scaled(tl), apex + unit(ang_j).scaled(tl)


def _check(label: str, value: float, expected: float, tol: float = 1e-6) -> None:
    if abs(value - expected) > tol:
        raise ConstructionInconsistent(f"{label}: {value!r} vs expected {expected!r}")


def build_snake(r: float = 1.001) -> SnakeGeometry:
    """Construct the snake region for osculating radius r (max curvature 1/r).

    The kite apex A sits at the origin with the symmetry axis along +x; the
    ray hub O lies further along the axis.  The boundary is one tangent-
    continuous open path from S to T plus its half-turn image about O.
    """
    if not (1.0 < r <= 1.1):
        raise ValueError(f"osculating radius must be in (1, 1.1], got {r}")
    s15, c15 = math.sin(math.radians(15.0)), math.cos(math.radians(15.0))
    sqrt3 = math.sqrt(3.0)

    ab_len = sqrt3 * r / c15
    A = Point(0.0, 0.0)
    leg = Point(s15, c15)  # direction of AB, 75 degrees above the axis
    B = leg.scaled(ab_len)
    C = Point(B.x, -B.y)
    D = B + Point(r, -sqrt3 * r)
    M = Point((B.x + D.x) / 2.0, (B.y + D.y) / 2.0)
    N = Point((C.x + D.x) / 2.0, (C.y + D.y) / 2.0)
    E = leg.scaled(ab_len - r)
    F = Point(E.x, -E.y)

    ae = ab_len - r
    O = Point(ae / s15, 0.0)

    # Twelve rays from O, thirty degrees apart; ray 1 runs through E.
    phase = math.radians(165.0)
    ray_angles = tuple(phase + math.radians(30.0) * j for j in range(12))
    ang = {j + 1: ray_angles[j] for j in range(12)}

    _check("|BD| = 2r", B.distance_to(D), 2.0 * r)
    _check("|DC| = 2r", C.distance_to(D), 2.0 * r)
    _check("D on the axis", D.y, 0.0)
    ba, bc, bd = (A - B).normalized(), (C - B).normalized(), (D - B).normalized()
    _check("angle at B between BA and BC", math.acos(ba.dot(bc)), math.radians(15.0))
    _check("angle at B between BC and BD", math.acos(bc.dot(bd)), math.radians(30.0))
    _check("E on ray 1", abs(unit(ang[1]).cross(E - O)), 0.0, 1e-9)
    _check("F on ray 2", abs(unit(ang[2]).cross(F - O)), 0.0, 1e-9)

    c4, p4_l12, p4_l3 = _sector_tangent_circle(O, ang[12], ang[3], r)
    c5, p5_l11, p5_l4 = _sector_tangent_circle(O, ang[11], ang[4], r)
    c6, p6_l12, e_prime = _sector_tangent_circle(O, ang[12], ang[1], r)
    c7, p7_l3, p7_l4 = _sector_tangent_circle(O, ang[3], ang[4], r)

    if e_prime.distance_to(A) > p6_l12.distance_to(A):
        raise ConstructionInconsistent("tangent point naming: expected the ray-1 point nearer A")

    # The big closing arc is tangent to ray 2 and ray 5 with tangent length
    # |OE'|; that makes its ray-2 tangent point the mirror of E' and its
    # ray-5 tangent point the half-turn image of S.
    tl = O.distance_to(e_prime)
    half8 = abs(ang[5] - ang[2]) / 2.0
    r8 = tl * math.tan(half8)
    c8 = O + unit((ang[2] + ang[5]) / 2.0).scaled(tl / math.cos(half8))
    f_prime = O + unit(ang[2]).scaled(tl)
    T = O + unit(ang[5]).scaled(tl)
    S = O + unit(ang[11]).scaled(tl)

    for label, center, radius, angles in (
        ("a4", c4, r, (ang[12], ang[3])),
        ("a5", c5, r, (ang[11], ang[4])),
        ("a6", c6, r, (ang[12], ang[1])),
        ("a7", c7, r, (ang[3], ang[4])),
        ("a8", c8, r8, (ang[2], ang[5])),
    ):
        for a in angles:
            _check(f"{label} tangent to ray line", abs(unit(a).cross(center - O)), radius)
    _check("circle B tangent to ray 1", abs(unit(ang[1]).cross(B - O)), r)
    _check("circle C tangent to ray 2", abs(unit(ang[2]).cross(C - O)), r)

    half = [
        Segment(S, p5_l11),
        _arc_between(c5, r, p5_l11, p5_l4, "minor"),
        Segment(p5_l4, p7_l4),
        _arc_between(c7, r, p7_l4, p7_l3, "major"),
        Segment(p7_l3, p4_l3),
        _arc_between(c4, r, p4_l3, p4_l12, "minor"),
        Segment(p4_l12, p6_l12),
        _arc_between(c6, r, p6_l12, e_prime, "major"),
        Segment(e_prime, E),
        _arc_between(B, r, E, M, "minor"),
        _arc_between(D, r, M, N, "major"),
        _arc_between(C, r, N, F, "minor"),
        Segment(F, f_prime),
        _arc_between(c8, r8, f_prime, T, "major"),
    ]
    pieces = tuple(half) + tuple(p.rotated(O, math.pi) for p in half)
    boundary = PiecewisePath(pieces)
    boundary.validate_simple()

    # Half-turn symmetry: the rotated piece endpoints must land on the path.
    for probe in (S, T, rotate_about(E, O, math.pi)):
        if boundary.distance_to(probe) > 1e-9:
            raise ConstructionInconsistent("boundary is not half-turn symmetric about O")

    points = {
        "A": A, "B": B, "C": C, "D": D, "E": E, "F": F, "M": M, "N": N, "O": O,
        "Eprime": e_prime, "Fprime": f_prime, "S": S, "T": T,
    }
    return SnakeGeometry(r=r, points=points, ray_angles=ray_angles, boundary=boundary)


def snake_coloring(geom: SnakeGeometry, tau: float = DEFAULT_TAU) -> Coloring:
    """Membership in the region enclosed by the snake boundary."""
    return region_coloring((geom.boundary,), tau)


SNAKE_DISSECTION_A = 2.964
SNAKE_DISSECTION_B = 3.735
SNAKE_DISSECTION_D = 0.793


def snake_dissection_spec(geom: SnakeGeometry) -> DissectionSpec:
    """The total 12-dissection exhibited by the snake.

    Interval and thickness are the published constants; they sit strictly
    inside the boundary-segment span (|OE|, |OE'|) of every ray.  The side
    holding the full rectangle on ray 1 is probed from the actual coloring.
    """
    coloring = snake_coloring(geom)
    mid = 0.5 * (SNAKE_DISSECTION_A + SNAKE_DISSECTION_B)
    u1 = unit(geom.ray_angles[0])
    probe = geom.apex + u1.scaled(mid) + u1.rot90().scaled(0.05)
    shade = coloring.classify(probe)
    if shade is Shade.BOUNDARY:
        raise ConstructionInconsistent("orientation probe landed on the boundary")
    return DissectionSpec(
        apex=geom.apex,
        n=12,
        a=SNAKE_DISSECTION_A,
        b=SNAKE_DISSECTION_B,
        d=SNAKE_DISSECTION_D,
        phase=geom.ray_angles[0],
        first_orientation="ccw" if shade is Shade.BLACK else "cw",
    )


def sharp_dissection_spec(n: int) -> DissectionSpec:
    """The total n-dissection carried by sharp_ndissected_script(n).

    The interval starts 0.01 past the bound cot(pi/n) and ends at 20, short
    of the stroke's segments of length 25; the thickness is 0.02 short of a
    disk diameter.
    """
    return DissectionSpec(apex=Point(0.0, 0.0), n=n, a=undrawability_bound(n) + 0.01, b=20.0, d=2.0 - 0.02,
                          phase=0.0, first_orientation="ccw")


# ---------------------------------------------------------------------------
# Sharpness of the dissection bound
# ---------------------------------------------------------------------------


def sharp_ndissected_script(n: int) -> DrawingScript:
    """One pencil stroke that is totally n-dissected at (cot(pi/n), inf).

    In every other sector between consecutive rays, a unit disk tangent to
    both bounding rays (tangent points at distance cot(pi/n) from the apex)
    is slid outward along each ray; the stroke's center set is the n segments
    swept by the disk center, truncated at length 25.
    """
    if n < 4 or n % 2 != 0:
        raise InvalidN(f"n must be even and >= 4, got {n}")
    beta = math.pi / n
    segments = []
    for j in range(0, n, 2):  # black sector between rays j+1 and j+2 (1-based)
        ang_lo = TWO_PI * j / n
        ang_hi = TWO_PI * (j + 1) / n
        vertex = unit((ang_lo + ang_hi) / 2.0).scaled(1.0 / math.sin(beta))
        for ray_ang in (ang_lo, ang_hi):
            segments.append(Segment(vertex, vertex + unit(ray_ang).scaled(25.0)))
    return DrawingScript(DiskModel.OPEN, (Stroke(Tool.PENCIL, CenterSet(tuple(segments))),))
