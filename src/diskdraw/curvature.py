"""Curvature accounting and the rolling-disk certificate for boundary paths.

A path whose pieces all have unsigned curvature below 1 admits, at every
point, two unit disks tangent from either side that locally avoid the curve.
The check here verifies exactly that at sampled parameters, using the
closed-form piece distances; a pass together with max curvature < 1 is the
certificate of local drawability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constructions import PiecewisePath
from .geometry import Arc, Point, Segment, dist_to_primitive, dist_to_segment


@dataclass(frozen=True)
class CurvatureReport:
    max_unsigned_curvature: float
    per_piece: tuple[tuple[int, float], ...]
    rolling_disk_ok: bool = True
    failures: tuple[tuple[float, int, Point], ...] = ()  # (arclength, side, probe center)


def path_max_curvature(path: PiecewisePath) -> CurvatureReport:
    """Analytic per-piece curvature: 0 for segments, 1/radius for arcs.

    Junctions between pieces are corners, not curvature, and do not enter
    the maximum.
    """
    per_piece = tuple(
        (i, 0.0 if isinstance(p, Segment) else 1.0 / p.radius)
        for i, p in enumerate(path.pieces)
    )
    return CurvatureReport(max(k for _, k in per_piece), per_piece)


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


def rolling_disk_check(path: PiecewisePath, step: float = 0.05, eps: float = 0.5) -> CurvatureReport:
    """Verify the two tangent unit disks at samples spaced at most `step` apart.

    At each sample the disks centered one unit along both normals must not
    contain any path point within the open arclength window of radius `eps`
    around the sample (the tangent point itself sits at distance exactly 1,
    so a path point counts only when it is closer than 1 - 1e-9).
    Failures are reported, not raised, so a curvature-violating path simply
    comes back with rolling_disk_ok false.
    """
    if step <= 0.0 or eps <= 0.0:
        raise ValueError("step and eps must be positive")
    curv = path_max_curvature(path)
    offsets = path.piece_offsets()
    total = offsets[-1]
    failures: list[tuple[float, int, Point]] = []

    samples: list[float] = []
    for i, piece in enumerate(path.pieces):
        ln = offsets[i + 1] - offsets[i]
        count = max(1, math.ceil(ln / step))
        for k in range(count + 1):
            samples.append(offsets[i] + ln * k / count)

    for s0 in samples:
        i, f = path.locate(s0)
        gamma = path.pieces[i].point_at(f)
        normal = path.pieces[i].tangent_at(f).rot90()
        for side in (1, -1):
            center = Point(gamma.x + side * normal.x, gamma.y + side * normal.y)
            worst = math.inf
            lo, hi = s0 - eps, s0 + eps
            for j, piece in enumerate(path.pieces):
                ln = offsets[j + 1] - offsets[j]
                # the window may wrap around the closed path
                for shift in (-total, 0.0, total):
                    a = max(lo, offsets[j] + shift)
                    b = min(hi, offsets[j + 1] + shift)
                    if a >= b:
                        continue
                    f0 = (a - offsets[j] - shift) / ln
                    f1 = (b - offsets[j] - shift) / ln
                    d = _dist_to_subpiece(piece, max(0.0, f0), min(1.0, f1), center)
                    if d < worst:
                        worst = d
            if worst < 1.0 - 1e-9:
                failures.append((s0, side, center))

    return CurvatureReport(
        curv.max_unsigned_curvature,
        curv.per_piece,
        rolling_disk_ok=not failures,
        failures=tuple(failures),
    )
