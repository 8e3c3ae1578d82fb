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

window_parts_scanned is the window search of rolling_disk_check as it was
before bisection: every piece at every shift, in the same order.

dissection_sampled is the dissection check as it was before the rectangles
were proved: it classifies jittered grid samples of each rectangle.

wedge_checks_enumerated is the wedge case split as it was before the
rotation lemma: it asks encircles about every wedge of every stage pair.

dissection_stages_by_points, colour_premise_by_points and local_lec_by_rows
are obstruction.dissection_stages, _colour_premise and _local_lec as they
were before they were written out in floats: every vector a Point, every
ray frame a unit vector, and the obstacle filter a scan of the whole
distance table per obstacle.  The package's versions must equal them bit
for bit.

piece_intersections_by_points and piece_distance_by_points are
geometry.piece_intersections and piece_distance as they were before they
were written out in floats: every vector and every candidate point a Point.
The package's versions must equal them bit for bit.

piece_rect_distance_by_edges is geometry.piece_rect_distance as
dissection_check measured it before the closed form: 0 when the piece
starts in the rectangle, else the least piece_distance to the rectangle's
four edges, each a Segment.

validate_simple_all_pairs is PiecewisePath.validate_simple as it was
before it skipped the pairs whose piece boxes are far apart: every pair.

dissection_pattern_classify is the classifier of the ideal dissection
pattern as it was before its ray frames were built once: every call turns
each ray's angle into a unit vector and works out its black side.  The
package no longer classifies the pattern: symmetric_descent_verify takes the
stage colours from the spec's rectangles.  pattern_coloring wraps the
classifier as descent_verify reads a coloring, by its classify alone.

render_per_pixel is render as it was for a coloring without a source: it
classifies every pixel center on its own, at the coordinates render uses.

stroke_reach_box is the reach box the backward scans tested once per stroke
before each primitive had its own: the box of the centre set's covering
boxes, widened by r = 1 + 1e-3 + 1e-7 * max(1, largest coordinate
magnitude of that box), and empty for the empty set.

eval_script_forward and stationary_number_enumerated are the two point
queries as they were before the backward scan: each computes every stroke's
verdict front to back, and the stationary number enumerates both
resolutions of every boundary stroke in the script (more than 10 of them
raise BoundaryPoint, wherever they are; max_boundary=None lifts that cap).

parse_script_tokenized and parse_boundary_tokenized are the scene parsers as
they were before the word reader: each line becomes a list of (column, token)
pairs up front, and every error works out its own column from them.  One
defect was fixed so that they serve as references: a word after the model
or after the boundary header was dropped; it is now an error at that word.

serialize_script_joined and serialize_boundary_joined are the serializers as
they were before the f-string table: each primitive's numbers come from a
per-kind function and are joined with map(repr) after its kind.
"""

from __future__ import annotations

import math
import random
import re
import sys
from fractions import Fraction
from itertools import combinations, product
from types import SimpleNamespace
from typing import Iterable, Sequence

from diskdraw import (
    DEFAULT_TAU,
    Arc,
    BoundaryPoint,
    CenterSet,
    Containment,
    DiskModel,
    DrawingScript,
    OffsetHalfPlane,
    ParseError,
    Point,
    RasterSpec,
    Segment,
    Shade,
    SinglePoint,
    Stroke,
    Tool,
    Verdict,
    WholePlane,
    encircles,
    nbhd_contains,
)
from diskdraw.constructions import ConstructionInconsistent, PiecewisePath
from diskdraw.geometry import (LargestEmptyCircle, covering_box, dist_to_segment, piece_distance, piece_intersections,
                               turn_mismatch, unit)
from diskdraw.obstruction import Coloring, DissectionSpec, InvalidParameters, StageFamily, StageParams


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
        if min(e.dist(p) for e in edges) <= tau:
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
        if min(piece.dist(p) for piece in pieces) <= tau:
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
        return dist_to_segment(x.x, x.y, p0, p1)
    a0, a1 = piece.angle_at(f0), piece.angle_at(f1)
    if a0 == a1:  # Arc treats equal angles as the full circle; collapse instead
        return x.distance_to(piece.point_at(f0))
    return Arc(piece.center, piece.radius, a0, a1, piece.ccw).dist(x)


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


def window_parts_scanned(shifted, lo: float, hi: float) -> list[tuple[int, int]]:
    """Every (piece, shift) pair, pieces first: rolling_disk_check keeps
    those whose shifted range overlaps the window."""
    return [(j, k) for j in range(len(shifted[0]) - 1) for k in range(len(shifted))]


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


def wedge_checks_enumerated(stages: Sequence[StageFamily], spec: DissectionSpec,
                            tau: float = DEFAULT_TAU) -> list[tuple[int, int, Verdict]]:
    """(stage_index, wedge_index, verdict) of every wedge of every stage
    pair: the four stage-i points on the outer sides of the wedge between
    rays j and j+1 against the four stage-(i+1) points inside it."""
    n = spec.n
    out = []
    for fam, nxt in zip(stages, stages[1:]):
        for j in range(n):
            jn = (j + 1) % n
            outer: list[Point] = []
            inner: list[Point] = []
            # The wedge interior is the ccw side (+1) of ray j and the cw
            # side (-1) of ray j+1.  The outer four points are the pairs on
            # the far sides (one color); the inner four are the
            # opposite-color pairs inside the wedge at the next stage.
            for ray, into_wedge_sign in ((j, 1), (jn, -1)):
                if spec.black_side(ray + 1) == into_wedge_sign:
                    outer.extend(fam.whites[2 * ray : 2 * ray + 2])
                    inner.extend(nxt.blacks[2 * ray : 2 * ray + 2])
                else:
                    outer.extend(fam.blacks[2 * ray : 2 * ray + 2])
                    inner.extend(nxt.whites[2 * ray : 2 * ray + 2])
            out.append((fam.stage_index, j + 1, encircles(outer, inner, tau)))
    return out


def dissection_stages_by_points(params: StageParams, spec: DissectionSpec, depth: int) -> list[StageFamily]:
    """obstruction.dissection_stages, each point apex + u.scaled(foot) +
    p.scaled(+-side * t_i) computed with Points."""
    if depth < 0:
        raise InvalidParameters(f"depth must be >= 0, got {depth}")
    if spec.n != params.n:
        raise InvalidParameters(f"spec has {spec.n} rays, params {params.n}")
    if (t := (params.s * 0.5**depth) ** 1.5) < sys.float_info.min:
        raise InvalidParameters(f"depth {depth} underflows: stage {depth} has the offset {t!r}, "
                                f"below the smallest normal float {sys.float_info.min!r}")
    stages = []
    for i in range(depth + 1):
        s_i = params.s * (0.5**i)
        t_i = s_i**1.5
        blacks: list[Point] = []
        whites: list[Point] = []
        for j in range(1, spec.n + 1):
            u = unit(spec.ray_angle(j))
            p = u.rot90()
            side = spec.black_side(j)
            for foot in (params.L - s_i, params.L + s_i):
                base = spec.apex + u.scaled(foot)
                blacks.append(base + p.scaled(side * t_i))
                whites.append(base + p.scaled(-side * t_i))
        stages.append(StageFamily(tuple(blacks), tuple(whites), stage_index=i))
    return stages


def colour_premise_by_points(stages: Sequence[StageFamily], spec: DissectionSpec, tau: float, slack: float) -> str:
    """obstruction._colour_premise, each point's ray frame coordinates
    computed with Points."""
    s0, s1, h0, h1 = spec.shrunk(tau)
    frames = [(unit(spec.ray_angle(j)), spec.black_side(j)) for j in range(1, spec.n + 1)]
    for fam in stages:
        for points, colour, sign in ((fam.blacks, "black", 1), (fam.whites, "white", -1)):
            for k, p in enumerate(points):
                u, side = frames[k // 2]
                rel = p - spec.apex
                s, h = rel.dot(u), sign * side * u.cross(rel)
                if not (s0 + slack <= s <= s1 - slack and h0 + slack <= h <= h1 - slack):
                    return (f"stage colours: stage {fam.stage_index} {colour} point {p} is outside ray {k // 2 + 1}'s "
                            f"{colour} rectangle shrunk by 2*tau + {slack!r}")
    return ""


def local_lec_by_rows(S: Sequence[Point], T: Sequence[Point]) -> tuple[LargestEmptyCircle, list[float], int, int]:
    """obstruction._local_lec, which obstacles to keep and to add read
    column i of the distance table row by row."""
    g = 1e-9
    dist = [[math.hypot(p.x - t.x, p.y - t.y) for p in S] for t in T]
    reach = [(min(row) + 2.0) * (1.0 + g) for row in dist]
    keep = [any(row[i] <= r for row, r in zip(dist, reach)) for i in range(len(S))]
    builds = points = 0
    while True:
        local = [p for p, k in zip(S, keep) if k]
        lec = LargestEmptyCircle(local)
        builds, points = builds + 1, points + len(local)
        escapes = [lec.escape(t) for t in T]
        cut = [2.0 * e * (1.0 + g) for e in escapes]
        grow = [not k and any(row[i] <= c for row, c in zip(dist, cut)) for i, k in enumerate(keep)]
        if not any(grow):
            return lec, escapes, builds, points
        keep = [k or more for k, more in zip(keep, grow)]


def _seg_seg_by_points(s1: Segment, s2: Segment, tol: float) -> list[Point]:
    d1 = s1.b - s1.a
    d2 = s2.b - s2.a
    denom = d1.cross(d2)
    rel = s2.a - s1.a
    n1, n2 = d1.norm(), d2.norm()
    scale = max(n1, n2)
    if abs(denom) < 1e-14 * scale * scale:
        # parallel: they meet when an end of one is within tol of the other; report the overlap midpoint
        # clamped to s1: s1's near end when the two lie end to end, apart by under tol
        if min(s2.dist(s1.a), s2.dist(s1.b), s1.dist(s2.a), s1.dist(s2.b)) > tol:
            return []
        t0 = rel.dot(d1) / d1.dot(d1)
        t1 = t0 + d2.dot(d1) / d1.dot(d1)
        lo = max(min(t0, t1), 0.0)
        hi = min(max(t0, t1), 1.0)
        return [s1.point_at(min(1.0, max(0.0, 0.5 * (lo + hi))))]
    t = rel.cross(d2) / denom
    u = rel.cross(d1) / denom
    # each parameter may overshoot by tol of its own segment's length
    eps_t, eps_u = tol / n1, tol / n2
    if -eps_t <= t <= 1.0 + eps_t and -eps_u <= u <= 1.0 + eps_u:
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


def _seg_arc_by_points(seg: Segment, arc: Arc, tol: float) -> list[Point]:
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


def _arc_arc_by_points(a1: Arc, a2: Arc, tol: float) -> list[Point]:
    d = a2.center - a1.center
    dist = d.norm()
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


def piece_intersections_by_points(p1, p2, tol: float) -> list[Point]:
    """Points where two segments or arcs meet within the absolute slack tol,
    in closed form: crossings and tangencies, the middle of a collinear
    overlap, and the overlapping ends of two arcs of one circle."""
    if isinstance(p1, Segment) and isinstance(p2, Segment):
        return _seg_seg_by_points(p1, p2, tol)
    if isinstance(p1, Segment):
        return _seg_arc_by_points(p1, p2, tol)
    if isinstance(p2, Segment):
        return _seg_arc_by_points(p2, p1, tol)
    return _arc_arc_by_points(p1, p2, tol)


def _candidates_by_points(p, q) -> list[Point]:
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


def piece_distance_by_points(p, q) -> float:
    """Distance between two pieces, each a SinglePoint, Segment or Arc.

    0 when piece_intersections finds a common point (within 1e-12 of the
    pieces' coordinate scale).  Concentric arcs are |R1 - R2| apart where
    their angular ranges overlap.  Otherwise a closest pair has an end of
    one piece, or joins interior points and is normal to both pieces there
    (Schneider and Eberly, Geometric Tools for Computer Graphics, 2003,
    ch. 6); _candidates holds a point of every such pair.  Each candidate
    is a point of its piece, so its exact distance to the other piece
    (the piece's dist) bounds the answer from above, and the smallest one
    is the distance up to rounding.
    """
    if isinstance(p, SinglePoint):
        return q.dist(p.p)
    if isinstance(q, SinglePoint):
        return p.dist(q.p)
    if piece_intersections_by_points(p, q, 1e-12 * max(p.extent(), q.extent())):
        return 0.0
    if isinstance(p, Arc) and isinstance(q, Arc) and p.center == q.center:
        if (p.contains_angle(q.start_angle) or p.contains_angle(q.end_angle)
                or q.contains_angle(p.start_angle)):
            return abs(p.radius - q.radius)
        ends = [(p.start_point, q), (p.end_point, q), (q.start_point, p), (q.end_point, p)]
    else:
        ends = [(x, q) for x in _candidates_by_points(p, q)] + [(y, p) for y in _candidates_by_points(q, p)]
    return min(other.dist(x) for x, other in ends)


def piece_rect_distance_by_edges(piece, frame, s, h) -> float:
    """Distance from a piece to the filled rectangle [s0, s1] x [h0, h1] of
    the frame (apex, u, v): 0 when the piece's start lies in it, else the
    distance to the nearest edge, as a piece that does not start inside
    meets the filled rectangle only if it meets an edge."""
    apex, u, v = frame
    (s0, s1), (h0, h1) = s, h
    rel = (piece.p if isinstance(piece, SinglePoint) else piece.start_point) - apex
    if s0 <= rel.dot(u) <= s1 and h0 <= rel.dot(v) <= h1:
        return 0.0
    c = [Point(apex.x + a * u.x + b * v.x, apex.y + a * u.y + b * v.y)
         for a, b in ((s0, h0), (s1, h0), (s1, h1), (s0, h1))]
    return min(piece_distance(piece, Segment(c[k], c[(k + 1) % 4])) for k in range(4))


def validate_simple_all_pairs(path: PiecewisePath) -> None:
    """PiecewisePath.validate_simple, asking piece_intersections about every
    pair of pieces."""
    tol = 1e-7
    n = len(path.pieces)
    for i, j in combinations(range(n), 2):
        if j == i + 1:
            shared = path.pieces[j].start_point
        elif i == 0 and j == n - 1:
            shared = path.pieces[0].start_point
        else:
            shared = None
        hits = piece_intersections(path.pieces[i], path.pieces[j], tol)
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


def turn_orbits_every_shift(groups, center: Point, orders, slack: float):
    """geometry.turn_orbits as it would be without its shift lookup: each
    group's least mismatch, and its shift, are taken over every cyclic
    shift, the least shift on a tie."""
    groups = [group for group in groups if group]
    for m in orders:
        angle, bound = 2.0 * math.pi / m, slack / (m - 1)
        found = [min((turn_mismatch(group, center, angle, shift, bound), shift) for shift in range(len(group)))
                 for group in groups]
        delta = (m - 1) * max((d for d, _ in found), default=0.0)
        if delta <= slack:
            yield m, delta, tuple(shift for _, shift in found)


def dissection_pattern_classify(spec: DissectionSpec, tau: float = DEFAULT_TAU):
    """The shade of a point in the ideal dissection pattern of spec, with
    each ray's frame worked out again on every call."""

    def classify(pt: Point) -> Shade:
        rel = pt - spec.apex
        for j in range(1, spec.n + 1):
            u = unit(spec.ray_angle(j))
            s_val = rel.dot(u)
            h_val = u.cross(rel)
            if not (spec.a - tau < s_val < spec.b + tau and abs(h_val) < spec.d + tau):
                continue
            on_edge = (
                abs(s_val - spec.a) <= tau
                or abs(s_val - spec.b) <= tau
                or abs(h_val) <= tau
                or abs(abs(h_val) - spec.d) <= tau
            )
            if on_edge:
                return Shade.BOUNDARY
            side = 1 if h_val > 0 else -1
            return Shade.BLACK if side == spec.black_side(j) else Shade.WHITE
        return Shade.WHITE

    return classify


def pattern_coloring(spec: DissectionSpec, tau: float = DEFAULT_TAU) -> SimpleNamespace:
    """The ideal dissection pattern of spec as descent_verify reads a
    coloring: its classify alone."""
    return SimpleNamespace(classify=dissection_pattern_classify(spec, tau))


def render_per_pixel(classify, spec: RasterSpec) -> bytes:
    """Raw row-major bytes of classify at every pixel center: 0 black, 255
    white, 128 boundary."""
    w, h = spec.width, spec.height
    sx, sy = (spec.xmax - spec.xmin) / w, (spec.ymax - spec.ymin) / h
    shade_byte = {Shade.BLACK: 0, Shade.WHITE: 255, Shade.BOUNDARY: 128}
    return bytes(shade_byte[classify(Point(spec.xmin + (j + 0.5) * sx, spec.ymax - (i + 0.5) * sy))]
                 for i in range(h) for j in range(w))


def stroke_reach_box(centers: CenterSet) -> tuple[float, float, float, float]:
    """(xmin, ymin, xmax, ymax) outside which the whole centre set is
    farther than 1 + 1e-3 from every point."""
    if not centers.primitives:
        return math.inf, math.inf, -math.inf, -math.inf
    boxes = [covering_box(p) for p in centers.primitives]
    xmin, ymin = min(b[0] for b in boxes), min(b[1] for b in boxes)
    xmax, ymax = max(b[2] for b in boxes), max(b[3] for b in boxes)
    r = 1.0 + 1e-3 + 1e-7 * max(1.0, -xmin, -ymin, xmax, ymax)
    return xmin - r, ymin - r, xmax + r, ymax + r


def _stroke_verdicts(x: Point, script: DrawingScript, tau: float) -> list[Containment]:
    return [nbhd_contains(x, s.centers, tau) for s in script.strokes]


def eval_script_forward(x: Point, script: DrawingScript, tau: float = DEFAULT_TAU) -> Shade:
    """The last-cover rule over all stroke verdicts: m is the last IN stroke,
    and any BOUNDARY stroke after it makes the point BOUNDARY."""
    verdicts = _stroke_verdicts(x, script, tau)
    m = 0
    for k, v in enumerate(verdicts, start=1):
        if v is Containment.IN:
            m = k
    if any(v is Containment.BOUNDARY for v in verdicts[m:]):
        return Shade.BOUNDARY
    if m == 0:
        return Shade.WHITE
    return Shade.BLACK if m % 2 == 1 else Shade.WHITE


def _sn_definite(covered: Sequence[bool]) -> int:
    last_odd = 0
    last_even = 0
    for k, c in enumerate(covered, start=1):
        if c:
            if k % 2 == 1:
                last_odd = k
            else:
                last_even = k
    if last_odd == 0 and last_even == 0:
        return 0
    if last_odd > last_even:
        for k, c in enumerate(covered, start=1):
            if c and k % 2 == 1 and k > last_even:
                return k
    else:
        for k, c in enumerate(covered, start=1):
            if c and k % 2 == 0 and k > last_odd:
                return k
    raise AssertionError("unreachable")


def stationary_number_enumerated(x: Point, script: DrawingScript, tau: float = DEFAULT_TAU,
                                 max_boundary: int | None = 10) -> int:
    """The stationary number over all stroke verdicts, both resolutions of
    every boundary stroke enumerated; BoundaryPoint when they disagree or
    when more than max_boundary strokes are boundary (None: no cap)."""
    verdicts = _stroke_verdicts(x, script, tau)
    boundary_idx = [i for i, v in enumerate(verdicts) if v is Containment.BOUNDARY]
    base = [v is Containment.IN for v in verdicts]
    if not boundary_idx:
        return _sn_definite(base)
    if max_boundary is not None and len(boundary_idx) > max_boundary:
        raise BoundaryCap(x, len(boundary_idx))
    values = set()
    for assignment in product((False, True), repeat=len(boundary_idx)):
        trial = list(base)
        for i, bit in zip(boundary_idx, assignment):
            trial[i] = bit
        values.add(_sn_definite(trial))
        if len(values) > 1:
            # every earlier assignment gave the first value, and so does this
            # one with its last True bit cleared: that stroke decides
            raise BoundaryPoint(x, max(i for i, bit in zip(boundary_idx, assignment) if bit) + 1)
    return values.pop()


class BoundaryCap(BoundaryPoint):
    """stationary_number_enumerated's refusal above its cap: count boundary
    strokes at point, none of them named."""

    def __init__(self, point: Point, count: int):
        Exception.__init__(self, point, count)
        self.point, self.stroke, self.count = point, None, count

    def __str__(self) -> str:
        return f"{self.count} boundary strokes at {self.point}"


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
            return OffsetHalfPlane(n, offset)
        if kind == "plane":
            return WholePlane()
    except ValueError as exc:
        raise ParseError(r.lineno, kind_col, str(exc)) from None
    raise ParseError(r.lineno, kind_col, f"unknown primitive kind {kind!r}")


def parse_script_tokenized(text: str) -> DrawingScript:
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
            if r.peek() is not None:
                raise r.error_here(f"unexpected {r.peek()!r} after the model")
        elif directive == "stroke":
            if model is None:
                raise ParseError(lineno, tokens[0][0], "the model declaration must come before any stroke")
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


def parse_boundary_tokenized(text: str):
    """Parse a boundary scene into a validated closed path."""
    pieces = []
    seen_header = False
    for lineno, tokens in _tokenize(text):
        r = _LineReader(lineno, tokens)
        if not seen_header:
            word = r.take("the boundary header")
            if word != "boundary":
                raise ParseError(lineno, tokens[0][0],
                                 f"boundary scene must start with 'boundary', got {word!r}")
            if r.peek() is not None:
                raise r.error_here(f"unexpected {r.peek()!r} after the boundary header")
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


# kind: (class, numbers of the primitive)
_NUMBERS_OF = {
    "point": (SinglePoint, lambda p: (p.p.x, p.p.y)),
    "segment": (Segment, lambda s: (s.a.x, s.a.y, s.b.x, s.b.y)),
    "arc": (Arc, lambda a: (a.center.x, a.center.y, a.radius, a.start_angle, a.end_angle)),
    "halfplane": (OffsetHalfPlane, lambda h: (h.normal.x, h.normal.y, h.offset)),
    "plane": (WholePlane, lambda w: ()),
}
_KIND_OF = {cls: name for name, (cls, _) in _NUMBERS_OF.items()}


def _format_primitive_joined(prim) -> str:
    name = _KIND_OF.get(type(prim))
    if name is None:
        raise TypeError(f"cannot serialize {prim!r}")
    out = " ".join([name, *map(repr, _NUMBERS_OF[name][1](prim))])
    return out + " cw" if name == "arc" and not prim.ccw else out


def serialize_script_joined(script: DrawingScript) -> str:
    lines = [f"model {script.model.value}"]
    for stroke in script.strokes:
        prims = "".join(" " + _format_primitive_joined(p) for p in stroke.centers.primitives)
        lines.append(f"stroke {stroke.tool.value}{prims}")
    return "\n".join(lines) + "\n"


def serialize_boundary_joined(pieces) -> str:
    """Closed piecewise boundary as a scene: one segment/arc per line."""
    lines = ["boundary"]
    for piece in pieces:
        if not isinstance(piece, (Segment, Arc)):
            raise TypeError(f"boundary pieces must be segments or arcs, got {piece!r}")
        lines.append(_format_primitive_joined(piece))
    return "\n".join(lines) + "\n"
