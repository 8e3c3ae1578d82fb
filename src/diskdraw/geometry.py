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
from dataclasses import dataclass
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


@dataclass(frozen=True, slots=True)
class SinglePoint:
    p: Point


# Segment and Arc are the pieces of boundary paths and share one interface:
# start_point, end_point, length, point_at(f), tangent_at(f), reversed() and
# rotated(center, angle), with f in [0, 1] running from start to end.


@dataclass(frozen=True, slots=True)
class Segment:
    """Directed straight segment from a to b.

    Its squared length must be positive: distinct ends whose squared length
    underflows to 0 would divide by zero in dist_to_segment.
    """

    a: Point
    b: Point

    def __post_init__(self):
        dx, dy = self.b.x - self.a.x, self.b.y - self.a.y
        if dx * dx + dy * dy == 0.0:
            raise ValueError("segment endpoints must be distinct, with a squared length above 0")

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

    def reversed(self) -> "Segment":
        return Segment(self.b, self.a)

    def rotated(self, center: Point, angle: float) -> "Segment":
        return Segment(rotate_about(self.a, center, angle), rotate_about(self.b, center, angle))


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

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError(f"arc radius must be positive, got {self.radius!r}")

    @property
    def sweep(self) -> float:
        """Unsigned angular extent in (0, 2*pi]."""
        if self.ccw:
            s = (self.end_angle - self.start_angle) % TWO_PI
        else:
            s = (self.start_angle - self.end_angle) % TWO_PI
        return TWO_PI if s == 0.0 else s

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

    @property
    def start_point(self) -> Point:
        return self.point_at(0.0)

    @property
    def end_point(self) -> Point:
        return self.point_at(1.0)

    def tangent_at(self, f: float) -> Point:
        t = unit(self.angle_at(f)).rot90()
        return t if self.ccw else Point(-t.x, -t.y)

    def reversed(self) -> "Arc":
        return Arc(self.center, self.radius, self.end_angle, self.start_angle, not self.ccw)

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


@dataclass(frozen=True, slots=True)
class OffsetHalfPlane:
    """Center set {z + lam*normal : <z, normal> = offset, lam >= margin}.

    Equivalently all points at inner-product height >= offset + margin.
    Whether lam = margin itself belongs to the set does not change the
    distance to it, so the open and closed versions are the same primitive.
    """

    normal: Point
    offset: float
    margin: float = 1.0

    def __post_init__(self):
        if abs(self.normal.norm() - 1.0) > 1e-12:
            raise ValueError("half-plane normal must have unit length (tolerance 1e-12)")


@dataclass(frozen=True, slots=True)
class WholePlane:
    pass


Primitive = Union[SinglePoint, Segment, Arc, OffsetHalfPlane, WholePlane]


def dist_to_segment(x: Point, a: Point, b: Point) -> float:
    vx, vy = b.x - a.x, b.y - a.y
    wx, wy = x.x - a.x, x.y - a.y
    vv = vx * vx + vy * vy
    t = (wx * vx + wy * vy) / vv
    if t <= 0.0:
        return math.hypot(wx, wy)
    if t >= 1.0:
        return math.hypot(x.x - b.x, x.y - b.y)
    return math.hypot(wx - t * vx, wy - t * vy)


def dist_to_primitive(x: Point, prim: Primitive) -> float:
    """Exact distance from x to the primitive's point set."""
    if isinstance(prim, SinglePoint):
        return x.distance_to(prim.p)
    if isinstance(prim, Segment):
        return dist_to_segment(x, prim.a, prim.b)
    if isinstance(prim, Arc):
        vx, vy = x.x - prim.center.x, x.y - prim.center.y
        r = math.hypot(vx, vy)
        if r == 0.0:
            return prim.radius
        if prim.contains_angle(math.atan2(vy, vx)):
            return abs(r - prim.radius)
        return min(x.distance_to(prim.start_point), x.distance_to(prim.end_point))
    if isinstance(prim, OffsetHalfPlane):
        height = x.dot(prim.normal) - (prim.offset + prim.margin)
        return max(0.0, -height)
    if isinstance(prim, WholePlane):
        return 0.0
    raise TypeError(f"unknown primitive {prim!r}")


# ---------------------------------------------------------------------------
# Piece intersections and the distance between two pieces
# ---------------------------------------------------------------------------

Piece = Union[SinglePoint, Segment, Arc]


def _seg_seg_intersections(s1: Segment, s2: Segment, tol: float) -> list[Point]:
    d1 = s1.b - s1.a
    d2 = s2.b - s2.a
    denom = d1.cross(d2)
    rel = s2.a - s1.a
    scale = max(d1.norm(), d2.norm())
    if abs(denom) < 1e-14 * scale * scale:
        # parallel; report the overlap midpoint only if truly collinear
        if abs(rel.cross(d1)) > tol * d1.norm():
            return []
        t0 = rel.dot(d1) / d1.dot(d1)
        t1 = t0 + d2.dot(d1) / d1.dot(d1)
        lo = max(min(t0, t1), 0.0)
        hi = min(max(t0, t1), 1.0)
        if hi < lo:
            return []
        return [s1.point_at(0.5 * (lo + hi))]
    t = rel.cross(d2) / denom
    u = rel.cross(d1) / denom
    eps = tol / scale
    if -eps <= t <= 1.0 + eps and -eps <= u <= 1.0 + eps:
        return [s1.point_at(min(1.0, max(0.0, t)))]
    return []


def _line_circle_params(a: Point, d: Point, center: Point, radius: float) -> list[float]:
    """Parameters t with |a + t d - center| = radius (d not normalized)."""
    fx, fy = a.x - center.x, a.y - center.y
    A = d.dot(d)
    B = 2.0 * (fx * d.x + fy * d.y)
    C = fx * fx + fy * fy - radius * radius
    disc = B * B - 4.0 * A * C
    if disc < 0.0:
        return []
    root = math.sqrt(disc)
    return [(-B - root) / (2.0 * A), (-B + root) / (2.0 * A)]


def _seg_arc_intersections(seg: Segment, arc: Arc, tol: float) -> list[Point]:
    d = seg.b - seg.a
    eps = tol / max(d.norm(), 1e-300)
    out = []
    for t in _line_circle_params(seg.a, d, arc.center, arc.radius):
        if -eps <= t <= 1.0 + eps:
            p = seg.point_at(min(1.0, max(0.0, t)))
            theta = math.atan2(p.y - arc.center.y, p.x - arc.center.x)
            if arc.contains_angle(theta, slack=tol / arc.radius):
                out.append(p)
    return out


def _arc_arc_intersections(a1: Arc, a2: Arc, tol: float) -> list[Point]:
    d = a2.center - a1.center
    dist = d.norm()
    r1, r2 = a1.radius, a2.radius
    if dist < 1e-15:  # concentric: one circle, met where the arcs overlap, or none
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
    ux, uy = d.x / dist, d.y / dist
    base = Point(a1.center.x + x * ux, a1.center.y + x * uy)
    cands = [Point(base.x - h * uy, base.y + h * ux)]
    if h > 0.0:
        cands.append(Point(base.x + h * uy, base.y - h * ux))
    out = []
    for p in cands:
        th1 = math.atan2(p.y - a1.center.y, p.x - a1.center.x)
        th2 = math.atan2(p.y - a2.center.y, p.x - a2.center.x)
        if a1.contains_angle(th1, slack=tol / r1) and a2.contains_angle(th2, slack=tol / r2):
            out.append(p)
    return out


def piece_intersections(p1: Segment | Arc, p2: Segment | Arc, tol: float) -> list[Point]:
    """Points where two segments or arcs meet within the absolute slack tol,
    in closed form: crossings and tangencies, the middle of a collinear
    overlap, and the overlapping ends of two arcs of one circle."""
    if isinstance(p1, Segment) and isinstance(p2, Segment):
        return _seg_seg_intersections(p1, p2, tol)
    if isinstance(p1, Segment):
        return _seg_arc_intersections(p1, p2, tol)
    if isinstance(p2, Segment):
        return _seg_arc_intersections(p2, p1, tol)
    return _arc_arc_intersections(p1, p2, tol)


def piece_bbox(piece: Piece) -> tuple[float, float, float, float]:
    """(xmin, ymin, xmax, ymax) of a point, segment or arc.  An arc's box
    holds its ends and the points of its circle at angles 0, pi/2, pi and
    3*pi/2 that lie on it."""
    if isinstance(piece, SinglePoint):
        return piece.p.x, piece.p.y, piece.p.x, piece.p.y
    pts = [piece.start_point, piece.end_point]
    if isinstance(piece, Arc):
        c, r = piece.center, piece.radius
        axes = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))
        pts += [Point(c.x + r * dx, c.y + r * dy) for k, (dx, dy) in enumerate(axes)
                if piece.contains_angle(0.5 * math.pi * k)]
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    return min(xs), min(ys), max(xs), max(ys)


def _extent(piece: Segment | Arc) -> float:
    """Largest coordinate magnitude a piece reaches, a scale for slacks."""
    if isinstance(piece, Segment):
        return max(abs(piece.a.x), abs(piece.a.y), abs(piece.b.x), abs(piece.b.y))
    return max(abs(piece.center.x), abs(piece.center.y)) + piece.radius


def _candidates(p: Segment | Arc, q: Segment | Arc) -> list[Point]:
    """Points of p where p can come closest to q when the two do not meet:
    p's ends, and the interior points where a segment joining p to q can be
    normal to both, namely the foot of q's centre on a segment p, and the
    points of an arc p along the line of centres or along the normal of a
    segment q."""
    out = [p.start_point, p.end_point]
    if isinstance(p, Segment):
        if isinstance(q, Arc):
            d = p.b - p.a
            t = min(1.0, max(0.0, (q.center - p.a).dot(d) / d.dot(d)))
            out.append(p.point_at(t))
        return out
    if isinstance(q, Segment):
        u = (q.b - q.a).rot90().normalized()
    else:
        u = (q.center - p.center).normalized()
    for k in (p.radius, -p.radius):
        x = Point(p.center.x + k * u.x, p.center.y + k * u.y)
        if p.contains_angle(math.atan2(x.y - p.center.y, x.x - p.center.x)):
            out.append(x)
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
    (dist_to_primitive) bounds the answer from above, and the smallest one
    is the distance up to rounding.
    """
    if isinstance(p, SinglePoint):
        return dist_to_primitive(p.p, q)
    if isinstance(q, SinglePoint):
        return dist_to_primitive(q.p, p)
    if piece_intersections(p, q, 1e-12 * max(_extent(p), _extent(q))):
        return 0.0
    if isinstance(p, Arc) and isinstance(q, Arc) and p.center == q.center:
        if (p.contains_angle(q.start_angle) or p.contains_angle(q.end_angle)
                or q.contains_angle(p.start_angle)):
            return abs(p.radius - q.radius)
        ends = [(p.start_point, q), (p.end_point, q), (q.start_point, p), (q.end_point, p)]
    else:
        ends = [(x, q) for x in _candidates(p, q)] + [(y, p) for y in _candidates(q, p)]
    return min(dist_to_primitive(x, other) for x, other in ends)


# ---------------------------------------------------------------------------
# Circumcircles and the isosceles-trapezoid radius formula
# ---------------------------------------------------------------------------


def circumcircle3(p: Point, q: Point, r: Point, tau: float = DEFAULT_TAU) -> Circle:
    """Unique circle through three points.

    Raises CollinearPoints when the signed triangle area is below
    tau * (max pairwise distance)^2; the threshold is scale-relative so large
    coordinates do not defeat it.
    """
    check_tolerance(tau)
    area2 = (q - p).cross(r - p)  # twice the signed area
    dmax = max(p.distance_to(q), q.distance_to(r), r.distance_to(p))
    if abs(area2) * 0.5 < tau * dmax * dmax or dmax == 0.0:
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
    is more than d0 + rho from every such x.
    """

    def __init__(self, obstacles: Sequence[Point]):
        if not obstacles:
            raise EmptyObstacleSet("largest empty circle needs at least one obstacle")
        dt = Delaunay((p.x, p.y) for p in obstacles)
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


def constrained_largest_empty_circle(
    obstacles: Sequence[Point], anchor: Point, rho: float
) -> tuple[Point, float]:
    """Maximize min-distance to the obstacles over the closed disk |x - anchor| <= rho.

    Returns (center, clearance) from the exact Voronoi candidates of
    LargestEmptyCircle.
    """
    return LargestEmptyCircle(obstacles).query(anchor, rho)
