"""Slow reference implementations the Delaunay kernel is tested against.

These are the enumeration algorithms the package used before its
Voronoi/Delaunay kernel: the largest empty circle over every obstacle
triple and pair, the escape radius over every obstacle pair, and the
monotone-chain hull test.  They are kept for differential tests only.
Three known defects were fixed so that they serve as references:

- The LEC enumeration dropped every circle candidate when the anchor
  coincides with an obstacle; it now adds one circle point in that case.
  Its golden-section polish is gone: the candidate set is exhaustive, so
  polishing could only add samples that are not better than the optimum.
- Its bisector/circle intersections took the squared distance to the
  bisector as |p|^2 - (p.u)^2, which cancels when the pair's midpoint is far
  from the anchor and put candidates outside the disk; they now use the
  perpendicular offset p x u directly.
- The escape-radius emptiness test used a float slack relative to the
  circle's own radius, which let huge circles through nearly collinear
  triples pass; it is now exact rational arithmetic.

The chessboard and rounded-chessboard classifiers are the hand-written
closed forms the two constructions used before they became two-loop regions;
the region classifier is tested against them.

sharp_ndissected_strokes is the sharpness script as it was built before it
became one stroke: one pencil stroke per slid-disk segment, with an empty
eraser between consecutive ones.

ray_cast_classify is the region classifier as it was before the half-open
horizontal crossing rule: it casts one ray at an irrational angle, and casts
again at a rotated angle whenever the ray grazes an endpoint, touches an arc
tangentially or runs along a segment.

rolling_disk_sampled is the rolling-disk check as it was before the branch
and bound: it tests the two tangent disks at samples spaced at most `step`
apart along each piece, against the path within the arclength window of
radius eps around each sample.  It now samples piece by piece, so a
junction is tested with the tangents of both pieces that meet there.

dissection_sampled is the dissection check as it was before the rectangles
were proved: it classifies jittered grid samples of each rectangle.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from diskdraw import (
    DEFAULT_TAU,
    Arc,
    CenterSet,
    DiskModel,
    DrawingScript,
    Point,
    Segment,
    Shade,
    Stroke,
    Tool,
    Verdict,
    dist_to_primitive,
)
from diskdraw.constructions import PiecewisePath
from diskdraw.geometry import _line_circle_params, dist_to_segment, unit
from diskdraw.obstruction import Coloring, DissectionSpec


def _circumcenter_xy(a, b, c):
    """Circumcenter of three (x, y) tuples in absolute coordinates, or None
    when the float denominator vanishes."""
    ax, ay = a
    bx, by = b
    cx, cy = c
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0.0:
        return None
    aa = ax * ax + ay * ay
    bb = bx * bx + by * by
    cc = cx * cx + cy * cy
    ux = (aa * (by - cy) + bb * (cy - ay) + cc * (ay - by)) / d
    uy = (aa * (cx - bx) + bb * (ax - cx) + cc * (bx - ax)) / d
    return (ux, uy)


def lec_enumerated(obstacles: Sequence[Point], anchor: Point, rho: float) -> tuple[Point, float]:
    """Constrained largest empty circle by scoring, against every obstacle,
    the anchor, the antipodal escapes, all pair-bisector/circle
    intersections and all triple circumcenters inside the disk."""
    pts = [(p.x, p.y) for p in obstacles]
    tx, ty = anchor.x, anchor.y

    def f(x: float, y: float) -> float:
        return min(math.hypot(x - sx, y - sy) for sx, sy in pts)

    rho2 = rho * rho
    cands: list[tuple[float, float]] = [(tx, ty)]
    for sx, sy in pts:
        dx, dy = tx - sx, ty - sy
        d = math.hypot(dx, dy)
        if d > 0.0:
            cands.append((tx + rho * dx / d, ty + rho * dy / d))
        else:
            cands.append((tx + rho, ty))
    for (ax, ay), (bx, by) in combinations(pts, 2):
        dx, dy = bx - ax, by - ay
        ln = math.hypot(dx, dy)
        if ln == 0.0:
            continue
        ux, uy = -dy / ln, dx / ln
        mx, my = (ax + bx) / 2.0, (ay + by) / 2.0
        px, py = mx - tx, my - ty
        bh = px * ux + py * uy
        off = px * uy - py * ux  # distance from the anchor to the bisector
        disc = rho2 - off * off
        if disc >= 0.0:
            root = math.sqrt(disc)
            cands.append((mx + (-bh - root) * ux, my + (-bh - root) * uy))
            cands.append((mx + (-bh + root) * ux, my + (-bh + root) * uy))
    bound2 = rho2 * (1.0 + 1e-12)
    for a, b, c in combinations(pts, 3):
        cc = _circumcenter_xy(a, b, c)
        if cc is not None and (cc[0] - tx) ** 2 + (cc[1] - ty) ** 2 <= bound2:
            cands.append(cc)
    best_x, best_y, best_v = tx, ty, f(tx, ty)
    for x, y in cands[1:]:
        v = f(x, y)
        if v > best_v:
            best_x, best_y, best_v = x, y, v
    return Point(best_x, best_y), best_v


def encircles_enumerated(S: Sequence[Point], T: Sequence[Point], tau: float = DEFAULT_TAU) -> Verdict:
    """encircles with each LEC query answered by lec_enumerated."""
    if not T:
        return Verdict.YES
    if not S:
        return Verdict.NO
    boundary = False
    for t in T:
        if lec_enumerated(S, t, 1.0)[1] < 1.0 - tau:
            continue
        if lec_enumerated(S, t, 1.0 - 2.0 * tau)[1] > 1.0 + tau:
            return Verdict.NO
        boundary = True
    return Verdict.BOUNDARY if boundary else Verdict.YES


def convex_hull(points: Iterable[Point]) -> list[Point]:
    """Andrew's monotone chain; returns hull vertices in ccw order."""
    pts = sorted(set((p.x, p.y) for p in points))
    if len(pts) <= 2:
        return [Point(x, y) for x, y in pts]

    def half(seq):
        out: list[tuple[float, float]] = []
        for p in seq:
            while len(out) >= 2:
                ox, oy = out[-2]
                ax, ay = out[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) <= 0.0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    ring = lower[:-1] + upper[:-1]
    return [Point(x, y) for x, y in ring]


def strictly_inside_hull(hull: Sequence[Point], p: Point, rel_margin: float = 1e-12) -> bool:
    """True when p is strictly interior to the ccw hull polygon.

    The margin is relative to the edge length, i.e. it thresholds the
    perpendicular distance from the edge line.
    """
    if len(hull) < 3:
        return False
    n = len(hull)
    scale = max(max(abs(q.x), abs(q.y)) for q in hull) + 1.0
    for i in range(n):
        a = hull[i]
        b = hull[(i + 1) % n]
        edge = b - a
        if edge.cross(p - a) <= rel_margin * edge.norm() * scale:
            return False
    return True


def _empty_circle_radius(t, a, b, pts) -> float | None:
    """Radius of the circle through t, a, b when no point of pts is strictly
    inside it (exact arithmetic), else None; None too for collinear triples."""
    (tx, ty), (ax, ay), (bx, by) = [(Fraction(x), Fraction(y)) for x, y in (t, a, b)]
    d = 2 * (tx * (ay - by) + ax * (by - ty) + bx * (ty - ay))
    if d == 0:
        return None
    tt, aa, bb = tx * tx + ty * ty, ax * ax + ay * ay, bx * bx + by * by
    ux = (tt * (ay - by) + aa * (by - ty) + bb * (ty - ay)) / d
    uy = (tt * (bx - ax) + aa * (tx - bx) + bb * (ax - tx)) / d
    r2 = (ux - tx) ** 2 + (uy - ty) ** 2
    for sx, sy in pts:
        if (ux - Fraction(sx)) ** 2 + (uy - Fraction(sy)) ** 2 < r2:
            return None
    return math.sqrt(r2)


def escape_radius_enumerated(S: Sequence[Point], T: Sequence[Point]) -> float:
    """Escape radius as the largest empty circle through t and an obstacle
    pair; infinite when some t is not strictly inside the hull of S."""
    if not T:
        return 0.0
    if len(S) < 3:
        return math.inf
    hull = convex_hull(S)
    if len(hull) < 3:
        return math.inf
    pts = [(p.x, p.y) for p in S]
    best = 0.0
    for t in T:
        if not strictly_inside_hull(hull, t):
            return math.inf
        for a, b in combinations(pts, 2):
            r = _empty_circle_radius((t.x, t.y), a, b, pts)
            if r is not None and r > best:
                best = r
    return best


def hull_distance(S: Sequence[Point], p: Point) -> float:
    """Distance from p to the boundary of the convex hull of S (0 for
    degenerate hulls)."""
    hull = convex_hull(S)
    if len(hull) < 3:
        return 0.0
    best = math.inf
    for a, b in zip(hull, hull[1:] + hull[:1]):
        vx, vy = b.x - a.x, b.y - a.y
        wx, wy = p.x - a.x, p.y - a.y
        f = min(1.0, max(0.0, (wx * vx + wy * vy) / (vx * vx + vy * vy)))
        best = min(best, math.hypot(wx - f * vx, wy - f * vy))
    return best


def chessboard_classify(c: float, tau: float = DEFAULT_TAU):
    """Black on the closed squares [0,c]^2 and [-c,0]^2, boundary within tau
    of their edges, white elsewhere."""
    corners1 = [Point(0, 0), Point(c, 0), Point(c, c), Point(0, c)]
    corners2 = [Point(0, 0), Point(-c, 0), Point(-c, -c), Point(0, -c)]
    edges = [
        Segment(corners1[i], corners1[(i + 1) % 4]) for i in range(4)
    ] + [Segment(corners2[i], corners2[(i + 1) % 4]) for i in range(4)]

    def classify(p: Point) -> Shade:
        if min(dist_to_primitive(p, e) for e in edges) <= tau:
            return Shade.BOUNDARY
        if (0.0 <= p.x <= c and 0.0 <= p.y <= c) or (-c <= p.x <= 0.0 and -c <= p.y <= 0.0):
            return Shade.BLACK
        return Shade.WHITE

    return classify


def rounded_chessboard_classify(rho: float, tau: float = DEFAULT_TAU):
    """The unit chessboard with the central rho-corner of each black square
    replaced by the rho-disk at (rho, rho), respectively (-rho, -rho)."""
    pieces = [
        Segment(Point(rho, 0), Point(1, 0)),
        Segment(Point(1, 0), Point(1, 1)),
        Segment(Point(1, 1), Point(0, 1)),
        Segment(Point(0, 1), Point(0, rho)),
        Arc(Point(rho, rho), rho, math.pi, 1.5 * math.pi, ccw=True),
        Segment(Point(-rho, 0), Point(-1, 0)),
        Segment(Point(-1, 0), Point(-1, -1)),
        Segment(Point(-1, -1), Point(0, -1)),
        Segment(Point(0, -1), Point(0, -rho)),
        Arc(Point(-rho, -rho), rho, 0.0, 0.5 * math.pi, ccw=True),
    ]

    def in_square_with_fillet(x: float, y: float) -> bool:
        if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
            return False
        if x < rho and y < rho:
            return (x - rho) ** 2 + (y - rho) ** 2 <= rho * rho
        return True

    def classify(p: Point) -> Shade:
        if min(dist_to_primitive(p, piece) for piece in pieces) <= tau:
            return Shade.BOUNDARY
        if in_square_with_fillet(p.x, p.y) or in_square_with_fillet(-p.x, -p.y):
            return Shade.BLACK
        return Shade.WHITE

    return classify


def sharp_ndissected_strokes(n: int, truncation: float = 25.0) -> DrawingScript:
    """The sharpness script with one pencil stroke per slid-disk segment,
    normalized to alternating form (2n - 1 strokes)."""
    beta = math.pi / n
    strokes = []
    for j in range(0, n, 2):
        ang_lo = 2.0 * math.pi * j / n
        ang_hi = 2.0 * math.pi * (j + 1) / n
        vertex = unit((ang_lo + ang_hi) / 2.0).scaled(1.0 / math.sin(beta))
        for ray_ang in (ang_lo, ang_hi):
            end = vertex + unit(ray_ang).scaled(truncation)
            strokes.append(Stroke(Tool.PENCIL, CenterSet((Segment(vertex, end),))))
    return DrawingScript.relaxed(DiskModel.OPEN, strokes)


class DegenerateRay(Exception):
    """The ray grazes an endpoint, is tangent to an arc or runs along a segment."""


def crossing_parity(path: PiecewisePath, p: Point, angle: float) -> int:
    """Number of proper crossings of the ray from p at the given angle.

    Raises DegenerateRay on tangencies, endpoint grazes, or collinear
    overlaps; callers retry with a rotated direction.
    """
    u = unit(angle)
    total = 0
    for piece in path.pieces:
        if isinstance(piece, Segment):
            d = piece.b - piece.a
            denom = u.cross(d)
            rel = piece.a - p
            if abs(denom) < 1e-13 * d.norm():
                if abs(rel.cross(u)) < 1e-10 * max(1.0, rel.norm()):
                    raise DegenerateRay("ray collinear with a segment")
                continue
            t = rel.cross(d) / denom
            s = rel.cross(u) / denom
            if t <= 1e-12:
                continue
            if s < -1e-9 or s > 1.0 + 1e-9:
                continue
            if s < 1e-9 or s > 1.0 - 1e-9:
                raise DegenerateRay("ray grazes a segment endpoint")
            total += 1
        else:
            ts = _line_circle_params(p, u, piece.center, piece.radius)
            if not ts:
                continue
            if abs(ts[1] - ts[0]) < 1e-7:
                if min(ts) > 1e-12 or max(ts) > 1e-12:
                    raise DegenerateRay("ray nearly tangent to an arc")
                continue
            sweep = piece.sweep
            full = sweep >= 2.0 * math.pi - 1e-12
            for t in ts:
                if t <= 1e-12:
                    continue
                q = Point(p.x + t * u.x, p.y + t * u.y)
                theta = math.atan2(q.y - piece.center.y, q.x - piece.center.x)
                if piece.ccw:
                    off = (theta - piece.start_angle) % (2.0 * math.pi)
                else:
                    off = (piece.start_angle - theta) % (2.0 * math.pi)
                margin = 1e-9
                if not full:
                    if off < margin or off > 2.0 * math.pi - margin or abs(off - sweep) < margin:
                        raise DegenerateRay("ray grazes an arc endpoint")
                    if off > sweep:
                        continue
                total += 1
    return total


def ray_cast_classify(path, p: Point, tau: float = DEFAULT_TAU, base_angle: float = 0.6180339887498949) -> Shade:
    """BOUNDARY within tau of a piece of the path (or of any of several
    loops), else the crossing parity of one ray from p, summed over the
    loops.  A degenerate ray is recast up to 31 times at rotated angles;
    RuntimeError when every cast is degenerate."""
    loops = (path,) if isinstance(path, PiecewisePath) else path
    if min(loop.distance_to(p) for loop in loops) <= tau:
        return Shade.BOUNDARY
    for k in range(32):
        angle = base_angle + 0.3999966 * k
        try:
            inside = sum(crossing_parity(loop, p, angle) for loop in loops) % 2 == 1
        except DegenerateRay:
            continue
        return Shade.BLACK if inside else Shade.WHITE
    raise RuntimeError(f"no non-degenerate ray direction found from {p}")


def _dist_to_subpiece(piece, f0: float, f1: float, x: Point) -> float:
    """Distance from x to the fraction range [f0, f1] of a piece."""
    if f0 >= f1:
        return math.inf
    if isinstance(piece, Segment):
        p0, p1 = piece.point_at(f0), piece.point_at(f1)
        if p0.distance_to(p1) == 0.0:
            return x.distance_to(p0)
        return dist_to_segment(x, p0, p1)
    a0, a1 = piece.angle_at(f0), piece.angle_at(f1)
    if a0 == a1:  # Arc treats equal angles as the full circle; collapse instead
        return x.distance_to(piece.point_at(f0))
    return dist_to_primitive(x, Arc(piece.center, piece.radius, a0, a1, piece.ccw))


def tangent_disk_distance(path: PiecewisePath, i: int, f: float, side: int, eps: float = 0.5):
    """(s, centre, distance) of the unit disk tangent to piece i at fraction
    f on the given side (+1 left): its arclength, its centre, and the
    distance from the centre to the path within the open arclength window
    of radius eps around s."""
    offsets = path.piece_offsets()
    total = offsets[-1]
    piece = path.pieces[i]
    s0 = offsets[i] + (offsets[i + 1] - offsets[i]) * f
    gamma = piece.point_at(f)
    normal = piece.tangent_at(f).rot90()
    center = Point(gamma.x + side * normal.x, gamma.y + side * normal.y)
    worst = math.inf
    lo, hi = s0 - eps, s0 + eps
    for j, other in enumerate(path.pieces):
        ln = offsets[j + 1] - offsets[j]
        # the window may wrap around the closed path
        for shift in (-total, 0.0, total):
            a = max(lo, offsets[j] + shift)
            b = min(hi, offsets[j + 1] + shift)
            if a >= b:
                continue
            f0 = (a - offsets[j] - shift) / ln
            f1 = (b - offsets[j] - shift) / ln
            worst = min(worst, _dist_to_subpiece(other, max(0.0, f0), min(1.0, f1), center))
    return s0, center, worst


def rolling_disk_sampled(path: PiecewisePath, step: float = 0.05, eps: float = 0.5):
    """(piece, s, side, centre) of every sample whose tangent disk has a
    path point of its window closer than 1 - 1e-9; samples are spaced at
    most `step` apart along each piece, both ends included."""
    if step <= 0.0 or eps <= 0.0:
        raise ValueError("step and eps must be positive")
    offsets = path.piece_offsets()
    failures = []
    for i in range(len(path.pieces)):
        count = max(1, math.ceil((offsets[i + 1] - offsets[i]) / step))
        for k in range(count + 1):
            for side in (1, -1):
                s0, center, d = tangent_disk_distance(path, i, k / count, side, eps)
                if d < 1.0 - 1e-9:
                    failures.append((i, s0, side, center))
    return failures


def dissection_sampled(coloring: Coloring, spec: DissectionSpec, samples_per_rect: int,
                       tau: float = DEFAULT_TAU) -> list[tuple[int, int, Point, str]]:
    """(ray, side, sample, got) of every sample of the wrong shade.

    Both rectangles of every ray are shrunk by tau and sampled on a jittered
    k x k grid (k * k >= samples_per_rect, each sample at least a quarter
    cell from its cell's edges); the rectangle on the black side must
    classify black throughout and the other white.
    """
    if samples_per_rect < 1:
        raise ValueError("samples_per_rect must be >= 1")
    k = max(1, math.isqrt(samples_per_rect - 1) + 1)
    failures = []
    for j in range(1, spec.n + 1):
        u = unit(spec.ray_angle(j))
        p = u.rot90()
        black_side = spec.black_side(j)
        for side in (1, -1):
            expect = Shade.BLACK if side == black_side else Shade.WHITE
            rng = random.Random(1_009 * j + (side + 1))
            lo_s, hi_s = spec.a + tau, spec.b - tau
            lo_h, hi_h = tau, spec.d - tau
            for gi in range(k):
                for gj in range(k):
                    fs = (gi + 0.25 + 0.5 * rng.random()) / k
                    fh = (gj + 0.25 + 0.5 * rng.random()) / k
                    s_val = lo_s + fs * (hi_s - lo_s)
                    h_val = lo_h + fh * (hi_h - lo_h)
                    sample = spec.apex + u.scaled(s_val) + p.scaled(side * h_val)
                    got = coloring.classify(sample)
                    if got is not expect:
                        failures.append((j, side, sample, got.value))
    return failures
