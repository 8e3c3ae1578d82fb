"""Shared test utilities: random geometry, random scripts, grid oracles."""

from __future__ import annotations

import importlib
import math
import random
import sys
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, settings

from diskdraw import (
    Arc,
    CenterSet,
    DiskModel,
    DrawingScript,
    OffsetHalfPlane,
    Point,
    Segment,
    SinglePoint,
    Stroke,
    Tool,
    WholePlane,
)
from diskdraw.constructions import PiecewisePath

# Settings of the differential (property-based) tests.  Derandomized: the
# suite tests the same examples on every run.
DIFF = settings(max_examples=60, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])


def random_point(rng: random.Random, span: float = 3.0) -> Point:
    return Point(rng.uniform(-span, span), rng.uniform(-span, span))


def random_primitive(rng: random.Random, span: float = 3.0):
    roll = rng.random()
    if roll < 0.5:
        return SinglePoint(random_point(rng, span))
    if roll < 0.75:
        a = random_point(rng, span)
        b = random_point(rng, span)
        while a == b:
            b = random_point(rng, span)
        return Segment(a, b)
    if roll < 0.95:
        a0 = rng.uniform(0.0, 2.0 * math.pi)
        return Arc(
            random_point(rng, span),
            rng.uniform(0.2, 2.0),
            a0,
            a0 + rng.uniform(0.3, 2.0 * math.pi),
            ccw=rng.random() < 0.5,
        )
    if roll < 0.99:
        ang = rng.uniform(0.0, 2.0 * math.pi)
        return OffsetHalfPlane(Point(math.cos(ang), math.sin(ang)), rng.uniform(-3.0, 3.0))
    return WholePlane()


def random_script(rng: random.Random, max_strokes: int = 8, span: float = 3.0) -> DrawingScript:
    n = rng.randint(1, max_strokes)
    strokes = []
    for k in range(1, n + 1):
        tool = Tool.PENCIL if k % 2 == 1 else Tool.ERASER
        prims = tuple(random_primitive(rng, span) for _ in range(rng.randint(1, 2)))
        strokes.append(Stroke(tool, CenterSet(prims)))
    return DrawingScript(DiskModel.OPEN, tuple(strokes))


def grid_max_min_dist(obstacles, anchor: Point, rho: float, resolution: float) -> float:
    """Brute-force max over the constraint disk of min distance to obstacles."""
    n = int(2.0 * rho / resolution) + 1
    xs = np.linspace(anchor.x - rho, anchor.x + rho, n)
    ys = np.linspace(anchor.y - rho, anchor.y + rho, n)
    gx, gy = np.meshgrid(xs, ys)
    inside = (gx - anchor.x) ** 2 + (gy - anchor.y) ** 2 <= rho * rho
    best = np.full(gx.shape, np.inf)
    for p in obstacles:
        np.minimum(best, np.hypot(gx - p.x, gy - p.y), out=best)
    best[~inside] = -np.inf
    return float(best.max())


def rigid_motion(angle: float, shift: Point):
    c, s = math.cos(angle), math.sin(angle)

    def move(p: Point) -> Point:
        return Point(c * p.x - s * p.y + shift.x, s * p.x + c * p.y + shift.y)

    return move


def scaled_loop(loop: PiecewisePath, k: float, shift: Point) -> PiecewisePath:
    """The loop scaled by k about the origin, then shifted."""
    def move(p: Point) -> Point:
        return Point(k * p.x + shift.x, k * p.y + shift.y)

    return PiecewisePath(tuple(
        Segment(move(p.a), move(p.b)) if isinstance(p, Segment)
        else Arc(move(p.center), k * p.radius, p.start_angle, p.end_angle, p.ccw)
        for p in loop.pieces
    ))


def reversed_loop(loop: PiecewisePath) -> PiecewisePath:
    """The loop traversed the other way round."""
    return PiecewisePath(tuple(
        Segment(p.b, p.a) if isinstance(p, Segment)
        else Arc(p.center, p.radius, p.end_angle, p.start_angle, not p.ccw)
        for p in reversed(loop.pieces)
    ))


def regular_polygon_path(m, radius, center, turn, start):
    """The counter-clockwise regular m-gon about center, its corner 0 at the
    angle turn, listed from side start."""
    corners = [center + Point(radius * math.cos(turn + 2.0 * math.pi * k / m),
                              radius * math.sin(turn + 2.0 * math.pi * k / m)) for k in range(m)]
    sides = [Segment(corners[k], corners[(k + 1) % m]) for k in range(m)]
    return PiecewisePath(tuple(sides[start:] + sides[:start]))


def benchmark_workloads():
    """perfbench/workloads.py, the benchmark's seeded input generators."""
    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, bench)
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(bench)


# The work counters of a ProofReport: an orbit-reduced proof and the full
# one may differ in these alone.
WORK_COUNTERS = ("kernel_calls", "orbit", "min_cleared", "min_margin")


def same_proof(report, full) -> bool:
    """Whether two ProofReports agree leaf for leaf, in order, and in every
    count but the work counters."""
    def outcome(r):
        return (r.ok, r.proved, r.failures, r.undecided,
                {k: v for k, v in r.counts().items() if k not in WORK_COUNTERS})

    return outcome(report) == outcome(full)
