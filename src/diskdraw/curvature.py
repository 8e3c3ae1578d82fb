"""Curvature accounting and the rolling-disk certificate for boundary paths.

A path whose pieces all have unsigned curvature below 1 admits, at every
point, two unit disks tangent from either side that locally avoid the curve.
rolling_disk_check proves exactly that, for every boundary point and not at
samples: the centres of the tangent disks over a parameter interval of a
piece form one offset curve, and the closed-form piece distance from that
curve to the path around the interval clears the whole interval at once
(the local form of Blaschke's rolling theorem; Walther, Math. Methods Appl.
Sci. 22, 1999).  A pass together with max curvature < 1 is the certificate
of local drawability.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left, bisect_right
from typing import NamedTuple

from .constructions import PiecewisePath
from .geometry import Arc, Point, Segment, SinglePoint, box_gap, piece_distance, turn_orbits
from .obstruction import ProofReport, branch_and_bound

logger = logging.getLogger("diskdraw")

# A path point counts against a tangent disk only when it is closer to the
# centre than this; the tangent point itself sits at distance exactly 1.
CLEARANCE = 1.0 - 1e-9

# Intervals that are not cleared are halved down to this depth: a leaf is
# 1/256 of its piece.
MAX_DEPTH = 8


class Leaf(NamedTuple):
    """A parameter interval the bound could not clear, decided at its midpoint."""

    piece: int
    side: int  # +1: the disk left of the path, -1: right of it
    lo: float  # arclength range of the interval
    hi: float
    s: float  # arclength of the midpoint: the witness
    center: Point  # the tangent disk's centre at s
    distance: float  # from the centre to the path within eps of s


def path_max_curvature(path: PiecewisePath) -> float:
    """The largest analytic piece curvature: 0 for segments, 1/radius for arcs.

    Junctions between pieces are corners, not curvature, and do not enter
    the maximum.
    """
    return max(0.0 if isinstance(p, Segment) else 1.0 / p.radius for p in path.pieces)


def _subpiece(piece, f0: float, f1: float):
    """The part of a piece between the fractions f0 <= f1, a SinglePoint
    when it has no length, and the piece itself when it is all of it."""
    if f0 == 0.0 and f1 == 1.0:
        return piece
    if isinstance(piece, Segment):
        a, b = piece.point_at(f0), piece.point_at(f1)
        return Segment(a, b) if a != b else SinglePoint(a)
    a0, a1 = piece.angle_at(f0), piece.angle_at(f1)
    if a0 == a1:  # Arc treats equal angles as the full circle
        return SinglePoint(piece.point_at(f0))
    return Arc(piece.center, piece.radius, a0, a1, piece.ccw)


def _offset(sub: Segment | Arc, side: int):
    """The centres of the unit disks tangent to sub on one side: a parallel
    segment, or a concentric arc of radius R -+ 1, turned by pi when that
    radius is negative and a single point when it is 0."""
    if isinstance(sub, Segment):
        n = (sub.b - sub.a).rot90().normalized().scaled(side)
        return Segment(sub.a + n, sub.b + n)
    # the left normal points to the centre on a ccw arc and away on a cw one
    rho = sub.radius - side if sub.ccw else sub.radius + side
    if rho == 0.0:
        return SinglePoint(sub.center)
    turn = 0.0 if rho > 0.0 else math.pi
    return Arc(sub.center, abs(rho), sub.start_angle + turn, sub.end_angle + turn, sub.ccw)


def _window_parts(shifted: list[list[float]], lo: float, hi: float) -> list[tuple[int, int]]:
    """The (piece j, shift k) pairs whose range shifted[k][j..j + 1] may overlap
    (lo, hi), by j and then k: each shifted[k] is sorted, so bisection finds them."""
    return sorted((j, k) for k, edges in enumerate(shifted)
                  for j in range(max(bisect_right(edges, lo) - 1, 0), min(bisect_left(edges, hi), len(edges) - 1)))


def _orbit(path: PiecewisePath, offsets: list[float]) -> tuple[int, float, float]:
    """(m, delta, slack) of the turn rolling_disk_check proves by: the
    largest m >= 2 dividing the piece count P whose turn R by 2*pi/m about
    the mean of the piece start points maps piece k onto piece k + h
    (geometry.turn_orbits) with gcd(h, P) = P/m, so that the orbits of k ->
    k + h are the classes of k mod P/m; m = 1 and delta = inf when none does.

    e is the largest arclength mismatch of R, |offsets[i + h] - offsets[i]
    - offsets[h]| (modulo the total), and that of R^q, a sum of q
    differences of two of them, is at most 2*(m - 1)*e; g is the largest
    gap at a junction.  delta is turn_orbits' plus 6*(m - 1)*e + g, and
    slack is 1e-12 times the largest coordinate magnitude of the centre and
    the pieces.
    """
    pieces, count = path.pieces, len(path.pieces)
    center = Point(math.fsum(p.start_point.x for p in pieces) / count,
                   math.fsum(p.start_point.y for p in pieces) / count)
    slack = 1e-12 * max(abs(center.x), abs(center.y), *(p.extent() for p in pieces))
    orders = [m for m in range(count, 1, -1) if count % m == 0]
    for m, delta, (h,) in turn_orbits([pieces], center, orders, slack):
        if math.gcd(h, count) != count // m:
            continue
        gap = max(p.end_point.distance_to(pieces[(i + 1) % count].start_point) for i, p in enumerate(pieces))
        images = offsets[h:] + [o + offsets[-1] for o in offsets[1:h]]  # where piece i + h starts
        arc = max(abs(b - a - offsets[h]) for a, b in zip(offsets, images))
        delta += 6.0 * (m - 1) * arc + gap
        if delta <= slack:
            return m, delta, slack
    return 1, math.inf, slack


def rolling_disk_check(path: PiecewisePath, eps: float = 0.5) -> ProofReport:
    """Prove that the two tangent unit disks roll along the whole path.

    The disk tangent at arclength s on either side must not contain a path
    point within the arclength window of radius eps around s (a path point
    counts only when it is closer to the centre than CLEARANCE).  For each
    piece and side, a parameter interval I is cleared when piece_distance
    from the offset curve of I to every piece, restricted to the window
    [s(I_lo) - eps, s(I_hi) + eps] (wrapping around the closed path), is at
    least CLEARANCE; the union window makes the test conservative.  An
    interval that is not cleared is halved, down to MAX_DEPTH; a leaf that
    is still not cleared is decided at its midpoint by the same test for
    the one disk there.  It becomes a failure when that disk meets the path,
    and is undecided otherwise.  ok holds only when every interval is
    cleared.  Failures are reported, not raised.

    When the path turns onto itself (_orbit: m > 1, within delta), pieces
    0..P/m - 1 represent their orbits in branch_and_bound, with lemma
    2*(delta + slack).  The distance an interval test computes is
    1-Lipschitz in the offset curve and in the window's pieces, and kept by
    a turn.  R^q maps the offset curve of an interval of piece k within
    turn_orbits' delta D of that of the same fractions of piece k + qh, and
    the window of the one onto that of the other, its parts within D + 6*E
    + g, E being R^q's arclength mismatch: both windows cut the same
    pieces at arclengths at most 6*E apart, and a sliver cut off at a
    junction lies within g of the neighbouring piece.  So the distances
    differ by at most 2*delta (E <= 2*(m - 1)*e), and the slack covers
    their rounding.  min_cleared covers the intervals decided here.
    """
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    offsets = path.piece_offsets()
    total = offsets[-1]
    shifts = (-total, 0.0, total)
    shifted = [[o + shift for o in offsets] for shift in shifts]
    boxes = [piece.bbox() for piece in path.pieces]
    rounding = 1e-12 * (1.0 + max(piece.extent() for piece in path.pieces))
    calls, min_cleared = 0, math.inf

    def window(lo: float, hi: float):
        """(piece j, f0, f1) of each part of the path between arclengths lo and hi."""
        if hi - lo >= total:  # the whole path, once
            lo, hi = 0.0, total
        for j, k in _window_parts(shifted, lo, hi):
            shift = shifts[k]
            a = max(lo, offsets[j] + shift)
            b = min(hi, offsets[j + 1] + shift)
            if a < b:
                ln = offsets[j + 1] - offsets[j]
                yield j, max(0.0, (a - offsets[j] - shift) / ln), min(1.0, (b - offsets[j] - shift) / ln)

    def window_distance(curve, lo: float, hi: float, stop: float) -> float:
        """Distance from curve to the path between arclengths lo and hi, or
        the first distance below stop."""
        nonlocal calls
        worst = math.inf
        for j, f0, f1 in window(lo, hi):
            calls += 1
            worst = min(worst, piece_distance(curve, _subpiece(path.pieces[j], f0, f1)))
            if worst < stop:
                return worst
        return worst

    def witness_distance(center: Point, lo: float, hi: float) -> float:
        """Distance from center to the path between arclengths lo and hi,
        the parts taken nearest piece box first.  A part lies in its piece's
        box up to rounding (far below the rounding margin), so once a box is
        farther than the least distance so far by more than the margin, no
        part left can lower it: the minimum is that of the full scan, bit
        for bit."""
        nonlocal calls
        worst = math.inf
        point = (center.x, center.y, center.x, center.y)
        for gap, j, f0, f1 in sorted((box_gap(point, boxes[j]), j, f0, f1) for j, f0, f1 in window(lo, hi)):
            if gap > worst + rounding:
                break
            calls += 1
            worst = min(worst, _subpiece(path.pieces[j], f0, f1).dist(center))
        return worst

    orbit, delta, slack = _orbit(path, offsets)
    per = len(path.pieces) // orbit  # pieces 0..per - 1 represent their orbits

    def rule(root, part):
        (i, side, piece, o, ln), (f0, f1) = root, part
        d = window_distance(_offset(_subpiece(piece, f0, f1), side), o + ln * f0 - eps, o + ln * f1 + eps, CLEARANCE)
        return (d if d >= CLEARANCE else None), abs(d - CLEARANCE)

    def settle(root, part, d, margin):  # a leaf at the cap is decided at its midpoint
        nonlocal min_cleared
        (i, side, piece, o, ln), (f0, f1) = root, part
        if d is not None:
            min_cleared = min(min_cleared, d)
            return None
        mid = 0.5 * (f0 + f1)
        s, center = o + ln * mid, piece.point_at(mid) + piece.tangent_at(mid).rot90().scaled(side)
        dm = witness_distance(center, s - eps, s + eps)
        return Leaf(i, side, o + ln * f0, o + ln * f1, s, center, dm), ("failed" if dm < CLEARANCE else "undecided")

    def split(part):
        mid = 0.5 * (part[0] + part[1])
        return (part[0], mid), (mid, part[1])

    roots = (((i % per, side), i < per, (i, side, piece, offsets[i], offsets[i + 1] - offsets[i]), (0.0, 1.0))
             for i, piece in enumerate(path.pieces) for side in (1, -1))
    _, failures, undecided, visited, deepest = branch_and_bound(roots, rule, split, MAX_DEPTH, 2.0 * (delta + slack),
                                                                settle)

    # min_cleared: the smallest distance that cleared an interval; orbit: m
    counters = {"intervals": visited, "kernel_calls": calls, "depth": deepest, "min_cleared": min_cleared,
                "orbit": orbit}
    report = ProofReport((), failures, undecided, counters)
    logger.debug("rolling disk: delta %r, slack %r, %d intervals, %d kernel calls, depth %d, min cleared %r, "
                 "orbit %d, %d undecided, %d failures", delta, slack, *report.counts().values())
    return report
