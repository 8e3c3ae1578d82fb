"""Planar primitives and the exact kernels shared by the whole package.

Distances to every primitive kind, and between two pieces (points, segments
and arcs), are closed-form (no sampling).  The constrained
largest-empty-circle solver scores an exhaustive, exact set of Voronoi
candidates taken from a Delaunay triangulation whose orientation and
in-circle decisions are exact (see delaunay.py): Voronoi vertices inside the
constraint disk, Voronoi-edge crossings of its circle, antipodal escapes and
the anchor.  There is no numerical search or polishing step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Union

from .delaunay import Delaunay, circumcenter

DEFAULT_TAU = 1e-9

TWO_PI = 2.0 * math.pi


class GeometryError(ValueError):
    """Base class for geometric precondition failures."""


class CollinearPoints(GeometryError):
    """Three points too close to a common line for a circumcircle."""


class InvalidTrapezoid(GeometryError):
    """Isosceles-trapezoid parameters violate 0 <= a < b, h > 0."""


class EmptyObstacleSet(GeometryError):
    """Largest-empty-circle query against no obstacles (clearance would be infinite)."""


class NonUnitNormal(GeometryError):
    """A half-plane normal more than 1e-12 from unit length."""


def check_tolerance(tau: float) -> float:
    """Validate a comparison margin.  Must sit in (0, 1e-3)."""
    if not (0.0 < tau < 1e-3):
        raise ValueError(f"tolerance must be in (0, 1e-3), got {tau!r}")
    return tau


@dataclass(frozen=True, slots=True)
class Point:
    """A point of the plane with finite coordinates."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite coordinates ({self.x}, {self.y})")

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def scaled(self, k: float) -> "Point":
        return Point(k * self.x, k * self.y)

    def dot(self, other: "Point") -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point") -> float:
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def rot90(self) -> "Point":
        """Counterclockwise quarter turn."""
        return Point(-self.y, self.x)

    def normalized(self) -> "Point":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return Point(self.x / n, self.y / n)


def unit(angle: float) -> Point:
    return Point(math.cos(angle), math.sin(angle))


def rotate_about(p: Point, center: Point, angle: float) -> Point:
    c, s = math.cos(angle), math.sin(angle)
    dx, dy = p.x - center.x, p.y - center.y
    return Point(center.x + c * dx - s * dy, center.y + s * dx + c * dy)


@dataclass(frozen=True, slots=True)
class Circle:
    center: Point
    radius: float

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius >= 0.0):
            raise ValueError(f"circle radius must be finite and >= 0, got {self.radius!r}")


# ---------------------------------------------------------------------------
# Primitives (building blocks of stroke center sets and boundary paths)
# ---------------------------------------------------------------------------


# Every primitive answers dist_xy(x, y), its exact distance to the point
# (x, y), which the point queries and the piece kernels call to build no
# Point; dist(x), the same float for the Point x; and extent(), the largest
# coordinate magnitude it reaches, a scale for slacks.  The pieces
# SinglePoint, Segment and Arc also answer bbox(), their
# (xmin, ymin, xmax, ymax).


@dataclass(frozen=True, slots=True)
class SinglePoint:
    p: Point

    def dist(self, x: Point) -> float:
        return self.dist_xy(x.x, x.y)

    def dist_xy(self, x: float, y: float) -> float:
        return math.hypot(x - self.p.x, y - self.p.y)

    def extent(self) -> float:
        return max(abs(self.p.x), abs(self.p.y))

    def bbox(self) -> tuple[float, float, float, float]:
        return self.p.x, self.p.y, self.p.x, self.p.y


# Segment and Arc are the pieces of boundary paths and share one interface:
# start_point, end_point, length, point_at(f), tangent_at(f) and
# rotated(center, angle), with f in [0, 1] running from start to end.


@dataclass(frozen=True, slots=True)
class Segment:
    """Directed straight segment from a to b.

    Its squared length must be positive and finite: one that underflows to 0
    divides by zero in dist_to_segment, one that overflows makes distances NaN.
    """

    a: Point
    b: Point

    def __post_init__(self):
        dx, dy = self.b.x - self.a.x, self.b.y - self.a.y
        if not 0.0 < dx * dx + dy * dy < math.inf:
            raise ValueError("segment endpoints must be distinct, with a finite squared length above 0")

    @property
    def start_point(self) -> Point:
        return self.a

    @property
    def end_point(self) -> Point:
        return self.b

    @property
    def length(self) -> float:
        return self.a.distance_to(self.b)

    def point_at(self, f: float) -> Point:
        return Point(self.a.x + f * (self.b.x - self.a.x), self.a.y + f * (self.b.y - self.a.y))

    def tangent_at(self, f: float) -> Point:
        return (self.b - self.a).normalized()

    def rotated(self, center: Point, angle: float) -> "Segment":
        return Segment(rotate_about(self.a, center, angle), rotate_about(self.b, center, angle))

    def dist(self, x: Point) -> float:
        return self.dist_xy(x.x, x.y)

    def dist_xy(self, x: float, y: float) -> float:
        return dist_to_segment(x, y, self.a, self.b)

    def extent(self) -> float:
        return max(abs(self.a.x), abs(self.a.y), abs(self.b.x), abs(self.b.y))

    def bbox(self) -> tuple[float, float, float, float]:
        a, b = self.a, self.b
        return min(a.x, b.x), min(a.y, b.y), max(a.x, b.x), max(a.y, b.y)


@dataclass(frozen=True, slots=True)
class Arc:
    """Circular arc from start_angle to end_angle around center.

    Traversal direction is counterclockwise when ccw is true.  Equal angles
    denote the full circle.
    """

    center: Point
    radius: float
    start_angle: float
    end_angle: float
    ccw: bool = True
    # Derived in __post_init__ and read on every distance query; not part of
    # ==, hash or repr.
    sweep: float = field(init=False, repr=False, compare=False)  # unsigned extent in (0, 2*pi]
    start_point: Point = field(init=False, repr=False, compare=False)
    end_point: Point = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError(f"arc radius must be positive, got {self.radius!r}")
        if not (math.isfinite(self.start_angle) and math.isfinite(self.end_angle)):
            raise ValueError(f"arc angles must be finite, got {self.start_angle!r}, {self.end_angle!r}")
        a, ccw = self.start_angle, self.ccw
        s = ((self.end_angle - a) if ccw else (a - self.end_angle)) % TWO_PI
        s = TWO_PI if s == 0.0 else s
        # point_at(0.0) and point_at(1.0), float for float: a + 0.0 turns -0.0 into 0.0
        a0, a1 = (a + 0.0, a + s) if ccw else (a, a - s)
        cx, cy, r = self.center.x, self.center.y, self.radius
        object.__setattr__(self, "sweep", s)
        object.__setattr__(self, "start_point", Point(cx + r * math.cos(a0), cy + r * math.sin(a0)))
        object.__setattr__(self, "end_point", Point(cx + r * math.cos(a1), cy + r * math.sin(a1)))

    @property
    def length(self) -> float:
        return self.radius * self.sweep

    def angle_at(self, f: float) -> float:
        return self.start_angle + (self.sweep * f if self.ccw else -self.sweep * f)

    def point_at(self, f: float) -> Point:
        ang = self.angle_at(f)
        return Point(
            self.center.x + self.radius * math.cos(ang),
            self.center.y + self.radius * math.sin(ang),
        )

    def tangent_at(self, f: float) -> Point:
        t = unit(self.angle_at(f)).rot90()
        return t if self.ccw else Point(-t.x, -t.y)

    def rotated(self, center: Point, angle: float) -> "Arc":
        return Arc(
            rotate_about(self.center, center, angle),
            self.radius,
            self.start_angle + angle,
            self.end_angle + angle,
            self.ccw,
        )

    def contains_angle(self, theta: float, slack: float = 1e-12) -> bool:
        """Whether the polar angle theta (about the center) lies on the arc."""
        sweep = self.sweep
        if sweep >= TWO_PI:
            return True
        if self.ccw:
            d = (theta - self.start_angle) % TWO_PI
        else:
            d = (self.start_angle - theta) % TWO_PI
        return d <= sweep + slack or d >= TWO_PI - slack

    def dist(self, x: Point) -> float:
        return self.dist_xy(x.x, x.y)

    def dist_xy(self, x: float, y: float) -> float:
        vx, vy = x - self.center.x, y - self.center.y
        r = math.hypot(vx, vy)
        if r == 0.0:
            return self.radius
        if self.contains_angle(math.atan2(vy, vx)):
            return abs(r - self.radius)
        s, e = self.start_point, self.end_point
        return min(math.hypot(x - s.x, y - s.y), math.hypot(x - e.x, y - e.y))

    def extent(self) -> float:
        return max(abs(self.center.x), abs(self.center.y)) + self.radius

    def bbox(self) -> tuple[float, float, float, float]:
        """The box of the ends and of the points of the circle at angles 0,
        pi/2, pi and 3*pi/2 that lie on the arc."""
        c, r = self.center, self.radius
        axes = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))
        pts = [self.start_point, self.end_point]
        pts += [Point(c.x + r * dx, c.y + r * dy) for k, (dx, dy) in enumerate(axes)
                if self.contains_angle(0.5 * math.pi * k)]
        xs = [p.x for p in pts]
        ys = [p.y for p in pts]
        return min(xs), min(ys), max(xs), max(ys)


@dataclass(frozen=True, slots=True)
class OffsetHalfPlane:
    """Center set {z + lam*normal : <z, normal> = offset, lam >= 1}, the
    points at height >= offset + 1 along normal: the unit disks about them
    lie in <x, normal> > offset.  Whether lam = 1 itself belongs to the set
    does not change the distance to it, so the open and closed versions are
    the same primitive.
    """

    normal: Point
    offset: float

    def __post_init__(self):
        if abs(self.normal.norm() - 1.0) > 1e-12:
            raise NonUnitNormal("half-plane normal must have unit length (tolerance 1e-12)")
        if not math.isfinite(self.offset):
            raise GeometryError(f"half-plane offset must be finite, got {self.offset!r}")

    def dist(self, x: Point) -> float:
        return self.dist_xy(x.x, x.y)

    def dist_xy(self, x: float, y: float) -> float:
        height = x * self.normal.x + y * self.normal.y - (self.offset + 1.0)
        return max(0.0, -height)

    def extent(self) -> float:
        return abs(self.offset) + 1.0


@dataclass(frozen=True, slots=True)
class WholePlane:
    def dist(self, x: Point) -> float:
        return self.dist_xy(x.x, x.y)

    def dist_xy(self, x: float, y: float) -> float:
        return 0.0

    def extent(self) -> float:
        return 0.0


Primitive = Union[SinglePoint, Segment, Arc, OffsetHalfPlane, WholePlane]


def covering_box(prim: Primitive) -> tuple[float, float, float, float]:
    """(xmin, ymin, xmax, ymax) of a box holding the primitive, from which
    its neighbourhoods are measured: a point's or segment's bbox(), an arc's
    whole circle (about which the closed forms of render work), unbounded
    for a half-plane or the whole plane."""
    if isinstance(prim, Arc):
        c, r = prim.center, prim.radius
        return c.x - r, c.y - r, c.x + r, c.y + r
    if isinstance(prim, (SinglePoint, Segment)):
        return prim.bbox()
    return -math.inf, -math.inf, math.inf, math.inf


def box_gap(a: tuple[float, float, float, float], b: tuple[float, float, float, float]) -> float:
    """Distance between the boxes (xmin, ymin, xmax, ymax) a and b; a point is a box of no size."""
    return math.hypot(max(b[0] - a[2], a[0] - b[2], 0.0), max(b[1] - a[3], a[1] - b[3], 0.0))


def dist_to_segment(x: float, y: float, a: Point, b: Point) -> float:
    """Distance from the point (x, y) to the segment from a to b."""
    vx, vy = b.x - a.x, b.y - a.y
    wx, wy = x - a.x, y - a.y
    vv = vx * vx + vy * vy
    t = (wx * vx + wy * vy) / vv
    if t <= 0.0:
        return math.hypot(wx, wy)
    if t >= 1.0:
        return math.hypot(x - b.x, y - b.y)
    return math.hypot(wx - t * vx, wy - t * vy)


# ---------------------------------------------------------------------------
# Piece intersections and the distance between two pieces
# ---------------------------------------------------------------------------

Piece = Union[SinglePoint, Segment, Arc]


def _seg_seg_intersections(s1: Segment, s2: Segment, tol: float) -> list[Point]:
    ax, ay, bx, by = s1.a.x, s1.a.y, s2.a.x, s2.a.y
    d1x, d1y = s1.b.x - ax, s1.b.y - ay
    d2x, d2y = s2.b.x - bx, s2.b.y - by
    denom = d1x * d2y - d1y * d2x
    rx, ry = bx - ax, by - ay
    n1, n2 = math.hypot(d1x, d1y), math.hypot(d2x, d2y)
    scale = max(n1, n2)
    if abs(denom) < 1e-14 * scale * scale:
        # parallel: they meet when an end of one is within tol of the other; report the overlap midpoint
        # clamped to s1: s1's near end when the two lie end to end, apart by under tol
        if min(s2.dist(s1.a), s2.dist(s1.b), s1.dist(s2.a), s1.dist(s2.b)) > tol:
            return []
        t0 = (rx * d1x + ry * d1y) / (d1x * d1x + d1y * d1y)
        t1 = t0 + (d2x * d1x + d2y * d1y) / (d1x * d1x + d1y * d1y)
        lo = max(min(t0, t1), 0.0)
        hi = min(max(t0, t1), 1.0)
        return [s1.point_at(min(1.0, max(0.0, 0.5 * (lo + hi))))]
    t = (rx * d2y - ry * d2x) / denom
    u = (rx * d1y - ry * d1x) / denom
    # each parameter may overshoot by tol of its own segment's length
    eps_t, eps_u = tol / n1, tol / n2
    if -eps_t <= t <= 1.0 + eps_t and -eps_u <= u <= 1.0 + eps_u:
        return [s1.point_at(min(1.0, max(0.0, t)))]
    return []


def _seg_arc_intersections(seg: Segment, arc: Arc, tol: float) -> list[Point]:
    ax, ay, cx, cy, r = seg.a.x, seg.a.y, arc.center.x, arc.center.y, arc.radius
    dx, dy = seg.b.x - ax, seg.b.y - ay
    eps = tol / max(math.hypot(dx, dy), 1e-300)
    # the parameters t with |a + t d - center| = r
    fx, fy = ax - cx, ay - cy
    A = dx * dx + dy * dy
    B = 2.0 * (fx * dx + fy * dy)
    C = fx * fx + fy * fy - r * r
    disc = B * B - 4.0 * A * C
    if disc < 0.0:
        return []
    root = math.sqrt(disc)
    out = []
    for t in ((-B - root) / (2.0 * A), (-B + root) / (2.0 * A)):
        if -eps <= t <= 1.0 + eps:
            f = min(1.0, max(0.0, t))
            px, py = ax + f * dx, ay + f * dy
            if arc.contains_angle(math.atan2(py - cy, px - cx), slack=tol / r):
                out.append(Point(px, py))
    return out


def _arc_arc_intersections(a1: Arc, a2: Arc, tol: float) -> list[Point]:
    c1x, c1y, c2x, c2y = a1.center.x, a1.center.y, a2.center.x, a2.center.y
    dx, dy = c2x - c1x, c2y - c1y
    dist = math.hypot(dx, dy)
    r1, r2 = a1.radius, a2.radius
    if dist < 1e-15 * max(r1, r2):  # concentric: one circle, met where the arcs overlap, or none
        if abs(r1 - r2) > tol:
            return []
        ends = [(a1.start_point, a1.start_angle, a2), (a1.end_point, a1.end_angle, a2),
                (a2.start_point, a2.start_angle, a1), (a2.end_point, a2.end_angle, a1)]
        return [p for p, theta, other in ends if other.contains_angle(theta, slack=tol / other.radius)]
    if dist > r1 + r2 + tol or dist < abs(r1 - r2) - tol:
        return []
    # clamp for tangency
    x = (dist * dist - r2 * r2 + r1 * r1) / (2.0 * dist)
    h2 = r1 * r1 - x * x
    h = math.sqrt(h2) if h2 > 0.0 else 0.0
    ux, uy = dx / dist, dy / dist
    bx, by = c1x + x * ux, c1y + x * uy
    cands = [(bx - h * uy, by + h * ux)]
    if h > 0.0:
        cands.append((bx + h * uy, by - h * ux))
    out = []
    for px, py in cands:
        if (a1.contains_angle(math.atan2(py - c1y, px - c1x), slack=tol / r1)
                and a2.contains_angle(math.atan2(py - c2y, px - c2x), slack=tol / r2)):
            out.append(Point(px, py))
    return out


def piece_intersections(p1: Segment | Arc, p2: Segment | Arc, tol: float) -> list[Point]:
    """Points where two segments or arcs meet within the absolute slack tol,
    in closed form: crossings and tangencies, the middle of a collinear
    overlap, and the overlapping ends of two arcs of one circle.  Computed
    in floats: a Point is built only for a hit."""
    if isinstance(p1, Segment) and isinstance(p2, Segment):
        return _seg_seg_intersections(p1, p2, tol)
    if isinstance(p1, Segment):
        return _seg_arc_intersections(p1, p2, tol)
    if isinstance(p2, Segment):
        return _seg_arc_intersections(p2, p1, tol)
    return _arc_arc_intersections(p1, p2, tol)


def _candidates(p: Segment | Arc, q: Segment | Arc) -> list[tuple[float, float]]:
    """(x, y) of the points of p where p can come closest to q when the two
    do not meet: p's ends, and the interior points where a segment joining
    p to q can be normal to both, namely the foot of q's centre on a segment
    p, and the points of an arc p along the line of centres or along the
    normal of a segment q."""
    s, e = p.start_point, p.end_point
    out = [(s.x, s.y), (e.x, e.y)]
    if isinstance(p, Segment):
        if isinstance(q, Arc):
            ax, ay = p.a.x, p.a.y
            dx, dy = p.b.x - ax, p.b.y - ay
            t = min(1.0, max(0.0, ((q.center.x - ax) * dx + (q.center.y - ay) * dy) / (dx * dx + dy * dy)))
            out.append((ax + t * dx, ay + t * dy))
        return out
    cx, cy, r = p.center.x, p.center.y, p.radius
    if isinstance(q, Segment):
        vx, vy = -(q.b.y - q.a.y), q.b.x - q.a.x
    else:
        vx, vy = q.center.x - cx, q.center.y - cy
    n = math.hypot(vx, vy)
    ux, uy = vx / n, vy / n
    for k in (r, -r):
        x, y = cx + k * ux, cy + k * uy
        if p.contains_angle(math.atan2(y - cy, x - cx)):
            out.append((x, y))
    return out


def piece_distance(p: Piece, q: Piece) -> float:
    """Distance between two pieces, each a SinglePoint, Segment or Arc.

    0 when piece_intersections finds a common point (within 1e-12 of the
    pieces' coordinate scale).  Concentric arcs are |R1 - R2| apart where
    their angular ranges overlap.  Otherwise a closest pair has an end of
    one piece, or joins interior points and is normal to both pieces there
    (Schneider and Eberly, Geometric Tools for Computer Graphics, 2003,
    ch. 6); _candidates holds a point of every such pair.  Each candidate
    is a point of its piece, so its exact distance to the other piece
    (the piece's dist_xy) bounds the answer from above, and the smallest
    one is the distance up to rounding.  Computed in floats: no Point is
    built for a pair that does not meet.
    """
    if isinstance(p, SinglePoint):
        return q.dist(p.p)
    if isinstance(q, SinglePoint):
        return p.dist(q.p)
    if piece_intersections(p, q, 1e-12 * max(p.extent(), q.extent())):
        return 0.0
    if isinstance(p, Arc) and isinstance(q, Arc) and p.center == q.center:
        if (p.contains_angle(q.start_angle) or p.contains_angle(q.end_angle)
                or q.contains_angle(p.start_angle)):
            return abs(p.radius - q.radius)
        return min(q.dist(p.start_point), q.dist(p.end_point), p.dist(q.start_point), p.dist(q.end_point))
    return min(min(q.dist_xy(x, y) for x, y in _candidates(p, q)),
               min(p.dist_xy(x, y) for x, y in _candidates(q, p)))


def piece_rect_distance(piece: Piece, frame: tuple[Point, Point, Point], s: tuple[float, float],
                        h: tuple[float, float]) -> float:
    """Distance from a piece to the filled rectangle [s0, s1] x [h0, h1] of
    the frame (apex, u, v), v = +-u rotated a quarter turn: the points apex
    + s*u + h*v.

    In the frame's coordinates, (q - apex).u and (q - apex).v, the
    rectangle is an axis-aligned box, and the frame is an isometry (a
    reflection when v = -u rotated).  A segment meets the box when clipping
    it to the four slabs leaves a parameter interval (Liang and Barsky, ACM
    TOG 3(1), 1984).  An arc meets it when an end lies in the box or its
    circle crosses an edge at a point of its sweep, which is tested in world
    angles, as the frame may reflect.  Lemma: when a piece and the box do
    not meet, a closest pair has an end of the piece, or a corner of the
    box (two disjoint convex sets are closest at a vertex of one; Schneider
    and Eberly, Geometric Tools for Computer Graphics, 2003, ch. 6), or
    else joins an interior point of an arc to an interior point of an edge
    and is normal to both: the arc's point is its centre plus or minus the
    radius along a frame axis.  So the distance is the least over the
    piece's ends to the box, the corners to the piece (its dist_xy), and
    those axis points of an arc that lie on its sweep to the box.  A
    result within 1e-12 of the larger extent (of the piece and of the
    corners) is 0, as piece_intersections' slack in piece_distance.
    Computed in floats: no Point is built.
    """
    apex, u, v = frame
    ox, oy, ux, uy, vx, vy = apex.x, apex.y, u.x, u.y, v.x, v.y
    (s0, s1), (h0, h1) = s, h

    def coords(p: Point) -> tuple[float, float]:  # p's frame coordinates
        x, y = p.x - ox, p.y - oy
        return x * ux + y * uy, x * vx + y * vy

    def gap(ps: float, ph: float) -> float:  # from the frame point (ps, ph) to the box
        return math.hypot(max(s0 - ps, ps - s1, 0.0), max(h0 - ph, ph - h1, 0.0))

    if isinstance(piece, SinglePoint):
        best = gap(*coords(piece.p))
    elif isinstance(piece, Segment):
        (sa, ha), (sb, hb) = coords(piece.a), coords(piece.b)
        ds, dh = sb - sa, hb - ha
        t0, t1 = 0.0, 1.0
        for p, q in ((-ds, sa - s0), (ds, s1 - sa), (-dh, ha - h0), (dh, h1 - ha)):
            if p == 0.0:
                if q < 0.0:
                    break
            elif p < 0.0:
                t0 = max(t0, q / p)
            else:
                t1 = min(t1, q / p)
            if t0 > t1:
                break
        else:
            return 0.0
        best = min(gap(sa, ha), gap(sb, hb))
    else:
        best = min(gap(*coords(piece.start_point)), gap(*coords(piece.end_point)))
        if best == 0.0:
            return 0.0
        (cs, ch), r = coords(piece.center), piece.radius

        def on_arc(ds: float, dh: float) -> bool:  # whether the circle's point c + ds*u + dh*v is on the sweep
            return piece.contains_angle(math.atan2(ds * uy + dh * vy, ds * ux + dh * vx))

        if gap(cs, ch) <= r:  # else the disk misses the box, and so does the circle
            # the circle's points on the edges s = s0, s1 (across False) and h = h0, h1
            for w, lo, hi, across in ((s0 - cs, h0 - ch, h1 - ch, False), (s1 - cs, h0 - ch, h1 - ch, False),
                                      (h0 - ch, s0 - cs, s1 - cs, True), (h1 - ch, s0 - cs, s1 - cs, True)):
                disc = r * r - w * w
                if disc >= 0.0:
                    root = math.sqrt(disc)
                    for k in (-root, root):
                        if lo <= k <= hi and (on_arc(k, w) if across else on_arc(w, k)):
                            return 0.0
        for ds, dh in ((r, 0.0), (-r, 0.0), (0.0, r), (0.0, -r)):  # c +- r*u, c +- r*v
            d = gap(cs + ds, ch + dh)
            if d < best and on_arc(ds, dh):
                best = d
    corners = ((s0, h0), (s1, h0), (s1, h1), (s0, h1))
    xs, ys = [ox + a * ux + b * vx for a, b in corners], [oy + a * uy + b * vy for a, b in corners]
    if not isinstance(piece, SinglePoint):
        best = min(best, *map(piece.dist_xy, xs, ys))
    extent = max(piece.extent(), *map(abs, xs), *map(abs, ys))
    return best if best > 1e-12 * extent else 0.0


def turn_mismatch(pieces: Sequence[Primitive], center: Point, angle: float, shift: int, bound: float) -> float:
    """How far the turn by angle about center is from mapping the pieces
    onto themselves, piece k onto piece (k + shift) mod len(pieces): the
    largest mismatch over k, or the first one above bound.

    The mismatch of the turned piece k and its image bounds how far the
    point at any fraction of the one is from the point at that fraction of
    the other, and so too those points moved by one unit along the pieces'
    normals (the unit offset curves of curvature.rolling_disk_check).  Two
    points: their distance.  Two segments: the larger distance between
    their ends, plus that between their unit directions.  Two arcs turning
    the same way: the distances between their centres and between their
    radii, plus 1 + radius times the differences of their start angles (mod
    2*pi) and of their sweeps.  Any other pair, a half-plane or the whole
    plane among them, is inf.  Compared in floats: the caller's slack covers
    the rounding.
    """
    c, s = math.cos(angle), math.sin(angle)
    cx, cy = center.x, center.y

    def gap(p: Point, q: Point) -> float:
        dx, dy = p.x - cx, p.y - cy
        return math.hypot(q.x - cx - c * dx + s * dy, q.y - cy - s * dx - c * dy)

    def direction(seg: Segment) -> tuple[float, float]:
        dx, dy = seg.b.x - seg.a.x, seg.b.y - seg.a.y
        length = math.hypot(dx, dy)
        return dx / length, dy / length

    worst = 0.0
    for k, p in enumerate(pieces):
        q = pieces[(k + shift) % len(pieces)]
        if isinstance(p, SinglePoint) and isinstance(q, SinglePoint):
            d = gap(p.p, q.p)
        elif isinstance(p, Segment) and isinstance(q, Segment):
            (ux, uy), (vx, vy) = direction(p), direction(q)
            d = max(gap(p.a, q.a), gap(p.b, q.b)) + math.hypot(vx - c * ux + s * uy, vy - s * ux - c * uy)
        elif isinstance(p, Arc) and isinstance(q, Arc) and p.ccw == q.ccw:
            turn = (q.start_angle - p.start_angle - angle + math.pi) % TWO_PI - math.pi
            d = (gap(p.center, q.center) + abs(q.radius - p.radius)
                 + (1.0 + p.radius) * (abs(turn) + abs(q.sweep - p.sweep)))
        else:
            return math.inf
        worst = max(worst, d)
        if worst > bound:
            break
    return worst


def _start(prim) -> Point | None:
    """Where a point, segment or arc starts; None for a half-plane or the whole plane."""
    if isinstance(prim, SinglePoint):
        return prim.p
    return prim.start_point if isinstance(prim, (Segment, Arc)) else None


def _least_mismatch(group, starts, center: Point, angle: float, bound: float, margin: float) -> tuple[float, int]:
    """The least turn_mismatch(group, center, angle, shift, bound) over the
    shifts when it is at most bound, and its shift (the least on a tie);
    otherwise some value above bound.  starts holds _start of each piece.

    Whatever turn_mismatch returns for a shift is at least the distance from
    piece 0's turned start to the start of that shift's piece: it compares
    piece 0 first, and each kind's mismatch bounds the distance between the
    points at fraction 0 (for arcs, |r0*u - r1*v| <= |r0 - r1| + r0*|u - v|).
    So only the starts within bound + margin are sorted, the shifts are
    tried nearest start first, and the search stops at a start farther than
    the least mismatch so far by more than margin, which covers the rounding
    of both: a shift within bound is never passed over.  A group that turns
    onto itself takes one call.  A
    shift onto a half-plane or the whole plane, or any shift when piece 0 is
    one, mismatches by inf.
    """
    best = math.inf, 0
    if starts[0] is None:
        return best
    target, reach = rotate_about(starts[0], center, angle), bound + margin
    near = ((target.distance_to(q), shift) for shift, q in enumerate(starts) if q is not None)
    for gap, shift in sorted(pair for pair in near if pair[0] <= reach):
        if gap > best[0] + margin:
            break
        best = min(best, (turn_mismatch(group, center, angle, shift, bound), shift))
    return best


def turn_orbits(groups: Sequence[Sequence[Primitive]], center: Point, orders: Sequence[int], slack: float):
    """(m, delta, shifts) for each m of orders, in turn, whose turn R by
    2*pi/m about center maps every nonempty group onto itself by a cyclic
    shift, each group's of least mismatch (_least_mismatch), within slack:
    delta = (m - 1)*d1, d1 the largest of those mismatches.  R^q, q = 1..m
    - 1, maps piece k of a group within delta of piece k + q*shift: R is an
    isometry, so mismatches add up along its powers.
    """
    groups = [group for group in groups if group]
    starts = [[_start(p) for p in group] for group in groups]
    for m in orders:
        angle, bound = 2.0 * math.pi / m, slack / (m - 1)
        found = [_least_mismatch(group, s, center, angle, bound, slack) for group, s in zip(groups, starts)]
        delta = (m - 1) * max((d for d, _ in found), default=0.0)
        if delta <= slack:
            yield m, delta, tuple(shift for _, shift in found)


# ---------------------------------------------------------------------------
# Circumcircles and the isosceles-trapezoid radius formula
# ---------------------------------------------------------------------------


def circumcircle3(p: Point, q: Point, r: Point) -> Circle:
    """Unique circle through three points.

    Raises CollinearPoints when the signed triangle area is below
    DEFAULT_TAU * (max pairwise distance)^2; the threshold is scale-relative
    so large coordinates do not defeat it.
    """
    area2 = (q - p).cross(r - p)  # twice the signed area
    dmax = max(p.distance_to(q), q.distance_to(r), r.distance_to(p))
    if abs(area2) * 0.5 < DEFAULT_TAU * dmax * dmax or dmax == 0.0:
        raise CollinearPoints(f"points {p}, {q}, {r} are (nearly) collinear")
    center = Point(*circumcenter((p.x, p.y), (q.x, q.y), (r.x, r.y)))
    radius = (center.distance_to(p) + center.distance_to(q) + center.distance_to(r)) / 3.0
    return Circle(center, radius)


def trapezoid_circumradius(a: float, b: float, h: float) -> float:
    """Circumradius of the isosceles trapezoid with base lengths a < b and height h.

    The leg length is c = sqrt(((b - a)/2)^2 + h^2) and the radius is
    c * sqrt(a*b + c^2) / (2*h).  a = 0 is allowed: the degenerate trapezoid is
    an isosceles triangle with apex on the circumcircle.
    """
    if not (0.0 <= a < b) or not (h > 0.0):
        raise InvalidTrapezoid(f"need 0 <= a < b and h > 0, got a={a}, b={b}, h={h}")
    c = math.hypot((b - a) / 2.0, h)
    return c * math.sqrt(a * b + c * c) / (2.0 * h)


# ---------------------------------------------------------------------------
# Constrained largest empty circle
# ---------------------------------------------------------------------------


class LargestEmptyCircle:
    """Constrained largest empty circles among one fixed set of point obstacles.

    The Delaunay triangulation of the obstacles is built once; each query
    maximizes f(x) = min-distance to the obstacles over a closed disk
    |x - anchor| <= rho (Toussaint, IJCIS 12(5), 1983).  The maximum sits at
    a Voronoi vertex inside the disk, where a Voronoi edge crosses the circle,
    or at the circle point farthest from the obstacle whose cell holds it, so
    the candidates are exhaustive:

    (i) the Delaunay circumcenters inside the disk, (ii) the intersections of
    the Delaunay-edge bisectors with the circle, (iii) the antipodal escape
    point from each obstacle (a fixed circle point when the anchor is the
    obstacle), and (iv) the anchor itself.

    Candidates are scored only against the obstacles within d0 + 2*rho of the
    anchor, d0 being the anchor's nearest-obstacle distance.  The pruning is
    exact: every x in the disk has f(x) <= d0 + rho, and a farther obstacle
    is more than d0 + rho from every such x.  escape(t) reads the same
    triangulation for the escape radius of a point t.
    """

    def __init__(self, obstacles: Sequence[Point]):
        if not obstacles:
            raise EmptyObstacleSet("largest empty circle needs at least one obstacle")
        dt = self._dt = Delaunay((p.x, p.y) for p in obstacles)
        pts = self._points = dt.points
        self._centers = [circumcenter(pts[a], pts[b], pts[c]) for a, b, c in dt.triangles()]
        self._bisectors = []  # (i, j, midpoint, unit direction) per Delaunay edge ij
        for i, j in dt.edges():
            (ax, ay), (bx, by) = pts[i], pts[j]
            dx, dy = bx - ax, by - ay
            ln = math.hypot(dx, dy)
            self._bisectors.append((i, j, (ax + bx) / 2.0, (ay + by) / 2.0, -dy / ln, dx / ln))

    def query(self, anchor: Point, rho: float) -> tuple[Point, float]:
        """(center, clearance) of the largest empty circle centered within rho of anchor."""
        if not (math.isfinite(rho) and rho > 0.0):
            raise ValueError(f"constraint radius must be finite and positive, got {rho!r}")
        tx, ty = anchor.x, anchor.y
        pts = self._points
        dist = [math.hypot(sx - tx, sy - ty) for sx, sy in pts]
        d0 = min(dist)
        reach = (d0 + 2.0 * rho) * (1.0 + 1e-12)
        near = [d <= reach for d in dist]
        # nearest first, so that scoring a poor candidate stops early
        obstacles = [pts[i] for i in sorted(range(len(pts)), key=dist.__getitem__) if near[i]]

        rho2 = rho * rho
        cands: list[tuple[float, float]] = []
        for (sx, sy), d in zip(pts, dist):
            if d == 0.0:
                cands.append((tx + rho, ty))
            elif d <= reach:
                cands.append((tx + rho * (tx - sx) / d, ty + rho * (ty - sy) / d))
        for i, j, mx, my, ux, uy in self._bisectors:
            if near[i] and near[j]:
                px, py = mx - tx, my - ty
                bh = px * ux + py * uy
                off = px * uy - py * ux  # signed distance from the anchor to the bisector
                disc = rho2 - off * off
                if disc >= 0.0:
                    root = math.sqrt(disc)
                    cands.append((mx + (-bh - root) * ux, my + (-bh - root) * uy))
                    cands.append((mx + (-bh + root) * ux, my + (-bh + root) * uy))
        bound2 = rho2 * (1.0 + 1e-12)
        for cx, cy in self._centers:
            dx, dy = cx - tx, cy - ty
            if dx * dx + dy * dy <= bound2:
                cands.append((cx, cy))

        best_x, best_y, best_v = tx, ty, d0
        for x, y in cands:
            v = math.inf
            for sx, sy in obstacles:
                d = math.hypot(x - sx, y - sy)
                if d < v:
                    v = d
                    if v <= best_v:
                        break
            if v > best_v:
                best_x, best_y, best_v = x, y, v
        return Point(best_x, best_y), best_v

    def escape(self, t: Point) -> float:
        """Radius of the largest disk that can reach t while avoiding the obstacles.

        Formally sup{|x - t| : |x - t| <= dist(x, S)}, S being the obstacles:
        the disk has t on its boundary and no point of S inside.  That is the
        farthest vertex of t's Voronoi cell in Vor(S + {t}), i.e. the farthest
        circumcenter of t's insertion-cavity fan in Del(S) (of t's own link
        when t is a point of S).  Infinite when the cell is unbounded, which
        happens exactly when t is not strictly inside the convex hull of S.

        An escape radius >= 1 proves that S does not encircle t (a unit disk
        fits inside the escaping disk, still touching t).  The converse fails:
        a finite value below 1 does not certify encirclement.  The value
        scales linearly under similarity, which makes it the natural
        per-stage clearance of a self-similar descent chain.
        """
        txy = (t.x, t.y)
        fan = self._dt.cell_fan(txy)
        if fan is None:
            return math.inf
        best = 0.0
        for u, v in fan:
            cx, cy = circumcenter(txy, self._points[u], self._points[v])
            best = max(best, math.hypot(cx - t.x, cy - t.y))
        return best


def constrained_largest_empty_circle(
    obstacles: Sequence[Point], anchor: Point, rho: float
) -> tuple[Point, float]:
    """LargestEmptyCircle(obstacles).query(anchor, rho), for a single query."""
    return LargestEmptyCircle(obstacles).query(anchor, rho)
