"""Obstruction machinery: encirclement, descent certificates, dissections.

A point family S encircles T when no open unit disk can touch a point of T
while avoiding every point of S.  Chains of families with alternating colors
and pairwise encirclement force strictly decreasing stationary numbers under
any script, so a self-similar chain certifies that no script can produce the
coloring.  Verdicts are three-valued and certificates only accept definite
yes answers.
"""

from __future__ import annotations

import logging
import math
import operator
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import compress
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .canvas import DrawingScript, Shade, eval_script
from .geometry import (
    DEFAULT_TAU,
    Arc,
    LargestEmptyCircle,
    Point,
    Segment,
    SinglePoint,
    box_gap,
    check_tolerance,
    circumcircle3,
    constrained_largest_empty_circle,  # noqa: F401  (perfbench traces it under this module)
    piece_rect_distance,
    trapezoid_circumradius,
    turn_orbits,
    unit,
)

if TYPE_CHECKING:
    from .constructions import PiecewisePath

logger = logging.getLogger("diskdraw")


class Verdict(Enum):
    YES = "yes"
    NO = "no"
    BOUNDARY = "boundary"


class InvalidParameters(ValueError):
    pass


class InvalidN(ValueError):
    pass


@dataclass(frozen=True)
class Coloring:
    """A deterministic black/white membership oracle over the plane.

    source records what classify evaluates: the DrawingScript of a script
    coloring, or the tuple of closed PiecewisePath loops of a region (see
    constructions.region_coloring), together with the margin tau that
    classify uses.  The renderer reads it to classify whole raster rows at
    once, and dissection_check to prove rectangles.
    """

    classify: Callable[[Point], Shade]
    source: DrawingScript | tuple[PiecewisePath, ...]
    tau: float = DEFAULT_TAU


def script_coloring(script: DrawingScript, tau: float = DEFAULT_TAU) -> Coloring:
    check_tolerance(tau)
    return Coloring(classify=lambda p: eval_script(p, script, tau), source=script, tau=tau)


@dataclass(frozen=True)
class StageFamily:
    """One stage of a descent chain: its black points and its white points."""

    blacks: tuple[Point, ...]
    whites: tuple[Point, ...]
    stage_index: int


def _classified_premise(coloring: Coloring, stages: Sequence[StageFamily]) -> str:
    """The failure of a descent's colour premise as the coloring classifies
    the stage points: the first point on the boundary or of the other
    colour, named, or ""."""
    for fam in stages:
        for points, want in ((fam.blacks, Shade.BLACK), (fam.whites, Shade.WHITE)):
            for p in points:
                shade = coloring.classify(p)
                if shade is not want:
                    got = "on the boundary" if shade is Shade.BOUNDARY else shade.value
                    return f"stage colours: stage {fam.stage_index} {want.value} point {p} is {got}"
    return ""


# ---------------------------------------------------------------------------
# Encirclement
# ---------------------------------------------------------------------------


def encircles(S: Sequence[Point], T: Sequence[Point], tau: float = DEFAULT_TAU) -> Verdict:
    """Can no open unit disk touch T while avoiding S?

    YES when for every t in T the largest empty circle among S with center
    constrained to |x - t| <= 1 has clearance < 1 - tau.  NO when a witness
    center sits definitely inside the touching region (distance to T below
    1 - tau) with distance to S above 1 + tau.  BOUNDARY otherwise.  Empty T
    is vacuously YES; empty S with nonempty T is NO.  One triangulation of S
    answers every anchor.  The descent checks ask the same question of a
    triangulation of only the obstacles their targets can see (_local_lec).
    """
    check_tolerance(tau)
    if not (S and T):
        return Verdict.NO if T else Verdict.YES
    return _encircles(LargestEmptyCircle(S), T, tau)[0]


def _encircles(lec: LargestEmptyCircle, T: Sequence[Point], tau: float,
               margin: float = 0.0) -> tuple[Verdict, int]:
    """The verdict of encircles for nonempty T, against the obstacles of lec,
    and the number of queries it took.  A positive margin gives the verdict
    that holds for every clearance within margin of the computed ones."""
    boundary, queries = False, 0
    for t in T:
        _, clearance = lec.query(t, 1.0)
        queries += 1
        if clearance < 1.0 - tau - margin:
            continue
        # Look for a definite counterexample strictly inside the touch region.
        _, inner = lec.query(t, 1.0 - 2.0 * tau)
        queries += 1
        if inner > 1.0 + tau + margin:
            return Verdict.NO, queries
        boundary = True
    return (Verdict.BOUNDARY if boundary else Verdict.YES), queries


def _encirclement(S: Sequence[Point], T: Sequence[Point], tau: float,
                  margin: float = 0.0) -> tuple[Verdict, float, tuple[int, int, int, int]]:
    """The verdict of encircles(S, T, tau) at margin (see _encircles),
    escape_radius(S, T) and the work it took: the LargestEmptyCircle builds,
    the obstacle points they triangulated, the queries and the escapes.
    Both answers come from one triangulation of the obstacles that T can
    see (_local_lec), so they are those of a triangulation of all of S: the
    escapes bit for bit, the clearances up to the rounding of their
    candidate points."""
    if not (S and T):
        return (Verdict.NO, math.inf, (0, 0, 0, 0)) if T else (Verdict.YES, 0.0, (0, 0, 0, 0))
    lec, escapes, builds, points = _local_lec(S, T)
    verdict, queries = _encircles(lec, T, tau, margin)
    return verdict, max(escapes), (builds, points, queries, builds * len(T))


def _local_lec(S: Sequence[Point], T: Sequence[Point]) -> tuple[LargestEmptyCircle, list[float], int, int]:
    """A LargestEmptyCircle of the obstacles S' of S that the targets T can
    see, the escape radius over S of each target, the builds and the
    obstacle points they triangulated.

    S' starts as the points of S, in S's order, within (d0(t) + 2)(1 + g)
    of some t in T, where d0(t) = dist(t, S) and g = 1e-9.

    Query lemma: take x with |x - t| <= rho <= 1.  Then dist(x, S) <= d0 +
    rho, and an obstacle beyond d0 + 2*rho of t is farther than d0 + rho
    from x, so it is never x's nearest.  Vor(S) and Vor(S') therefore agree
    on the disk: every Voronoi vertex of S in it, and every Voronoi edge of S
    crossing its circle, belongs to points of S' and is one of S' too, so
    query(t, rho) scores every candidate that a triangulation of S scores,
    and any extra candidate of S' is a point of the disk scored against the
    same nearby obstacles.  The clearance is the same up to the rounding of
    the candidate points.  S' keeps S's order, so a shared triangle lists its
    vertices in the same rotation and its circumcentre is the same float.

    Escape lemma: let E' be t's escape over S', the farthest vertex of its
    cell in Vor(S' + {t}).  The cell lies within E' of t, and an obstacle s
    with |s - t| > 2E' is farther than E' from every point of it, so s does
    not cut the cell.  When E' is finite and every dropped obstacle is that
    far, t's cell in Vor(S + {t}) is the same, with the same Delaunay fan,
    and the escape over S is E', bit for bit.  Otherwise the obstacles
    within 2E'(1 + g) of t (all of S when E' is infinite) join S' and it is
    triangulated again; S' only grows, so this ends at S' = S at worst.

    The slack g covers rounding.  A distance is correctly rounded to half an
    ulp, so the reach of the query lemma needs only a few ulps of it.  A
    circumcentre of t and a fan edge uv is off by a few ulps times
    (|u - t| + |v - t|) / |u - v| of its radius, so the escape test holds
    for fans whose ratio is below about 1e6; the families of a descent
    have ratios of a few.  Only the escape radius, which no verdict reads,
    depends on that test.
    """
    g = 1e-9
    dist = [[math.hypot(p.x - t.x, p.y - t.y) for p in S] for t in T]
    reach = [(min(row) + 2.0) * (1.0 + g) for row in dist]
    cols = list(zip(*dist))  # each point's distances to the targets
    keep = [any(map(operator.le, col, reach)) for col in cols]
    builds = points = 0
    while True:
        local = list(compress(S, keep))
        lec = LargestEmptyCircle(local)
        builds, points = builds + 1, points + len(local)
        escapes = [lec.escape(t) for t in T]
        cut = [2.0 * e * (1.0 + g) for e in escapes]
        grow = [not k and any(map(operator.le, col, cut)) for col, k in zip(cols, keep)]
        if not any(grow):
            return lec, escapes, builds, points
        keep = [k or more for k, more in zip(keep, grow)]


def escape_radius(S: Sequence[Point], T: Sequence[Point]) -> float:
    """Radius of the largest disk that can reach a point of T while avoiding S:
    the largest LargestEmptyCircle(S).escape(t) over t in T (see there), 0.0
    for empty T and infinite for empty S."""
    if not (S and T):
        return math.inf if T else 0.0
    return max(map(LargestEmptyCircle(S).escape, T))


# ---------------------------------------------------------------------------
# Descent certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One verdict: what was checked, its verdict, the line `verify` prints
    for it (None for a check it does not print) and the measured value."""

    name: str
    verdict: Verdict
    line: str | None
    value: object = None

    @property
    def ok(self) -> bool:
        return self.verdict is Verdict.YES


def _premise_check(premise: str) -> Check:
    """The record of a lemma premise that failed, named."""
    return Check("lemma premise", Verdict.NO, f"FAIL: {premise}", premise)


def _stage_check(stage: int, verdict: Verdict, clearance: float) -> Check:
    """The record of a stage pair: the outer stage, the verdict of its
    encirclement and its escape radius."""
    return Check(f"stage {stage} enc", verdict,
                 f"stage={stage} kind=enc verdict={verdict.value} clearance={clearance!r}", clearance)


def _chain(stages: Sequence[StageFamily], tau: float) -> tuple[StageFamily, ...]:
    """The descent chain as a tuple, once tau is a valid margin and the
    chain has a stage: the entry check of every descent verifier."""
    check_tolerance(tau)
    if not stages:
        raise InvalidParameters("descent chain needs at least one stage")
    return tuple(stages)


def descent_verify(coloring: Coloring, stages: Sequence[StageFamily], tau: float = DEFAULT_TAU) -> tuple[Check, ...]:
    """Verify a descent chain against a coloring: one Check per stage pair,
    or one failed `lemma premise`.  The descent is valid when every record
    is ok; a single stage gives no records and is valid.

    Premise (_classified_premise): every listed point classifies definitely
    with its declared colour; a point on the boundary or of the other colour
    is a failed premise that names it, with no record after it.  For each
    consecutive pair of stages the blacks of stage i must encircle the
    whites of stage i+1 and the whites of stage i must encircle the blacks
    of stage i+1; the record's value is the escape radius of the pair (the
    largest disk that can still reach the inner family while dodging the
    outer one), and its verdict that of the encirclements: a NO or BOUNDARY
    makes the descent invalid.
    """
    stages = _chain(stages, tau)
    if premise := _classified_premise(coloring, stages):
        return (_premise_check(premise),)
    return tuple(_stage_pair(fam, nxt, tau) for fam, nxt in zip(stages, stages[1:]))


def _stage_pair(fam: StageFamily, nxt: StageFamily, tau: float) -> Check:
    """The record of blacks around the next whites and whites around the
    next blacks (see _encirclement): the verdict of both, and the escape
    radius over every target as the clearance."""
    v1, c1, _ = _encirclement(fam.blacks, nxt.whites, tau)
    v2, c2, _ = _encirclement(fam.whites, nxt.blacks, tau)
    if v1 is Verdict.NO or v2 is Verdict.NO:
        verdict = Verdict.NO
    elif v1 is Verdict.YES and v2 is Verdict.YES:
        verdict = Verdict.YES
    else:
        verdict = Verdict.BOUNDARY
    return _stage_check(fam.stage_index, verdict, max(c1, c2))


def scaling_descent_verify(coloring: Coloring, stages: Sequence[StageFamily],
                           tau: float = DEFAULT_TAU) -> tuple[Check, ...]:
    """descent_verify from stage 1 and the first stage pair alone, for a
    chain of exact 1/2-scalings in a cone at the origin.

    Lemma: if the clearance c of (S, T), the largest dist(x, S) over
    |x - t| <= 1 with t in T, is below 1, then for 0 < k <= 1 that of
    (kS, kT) is c' <= 1 - k(1 - c) < 1.  Proof: take |x' - kt| <= 1 with
    dist(x', kS) = c'; for x = x'/k, y = t + k(x - t) is within 1 of t and
    (1 - k)/k of x, so c >= dist(y, S) >= (c' - 1 + k)/k.  Pair i + 1 is pair
    1 scaled by 2^-i: a YES at pair 1 puts every clearance below 1, with no
    tau margin (the bound tends to 1), and scales its escape radius by 2^-i.

    Premises, checked exactly: no coordinate of any stage is below the
    smallest normal float, and each stage doubled is the previous one, point
    for point (doubling is exact, so the halving is too); and every
    region piece within R (the largest stage-1 radius, relative slack 1e-9)
    of the origin is a Segment on a line through it (a x b == 0 in
    rationals) whose ends are the origin or beyond R.  The segment from a
    stage-1 point p, classified off the boundary with its colour
    (_classified_premise, stage 1 alone), to 2^-i p then meets no piece, so
    every stage point has p's colour.  A failed premise is a single `lemma
    premise` record that names it; a failed pair 1 is recorded alone.
    """
    stages = _chain(stages, tau)
    if premise := _scaling_premise(coloring, stages) or _classified_premise(coloring, stages[:1]):
        return (_premise_check(premise),)
    if len(stages) == 1:
        return ()
    pair = _stage_pair(stages[0], stages[1], tau)
    if not pair.ok:
        return (pair,)
    return tuple(_stage_check(fam.stage_index, Verdict.YES, pair.value * 0.5**i) for i, fam in enumerate(stages[:-1]))


def _scaling_premise(coloring: Coloring, stages: tuple[StageFamily, ...]) -> str:
    """The first premise of scaling_descent_verify that fails, or ""."""
    for prev, fam in zip((None, *stages), stages):
        if any(0.0 < abs(v) < sys.float_info.min for q in fam.blacks + fam.whites for v in (q.x, q.y)):
            return f"exact halving: stage {fam.stage_index} underflows"
        doubled = tuple(tuple(p.scaled(2.0) for p in ps) for ps in (fam.blacks, fam.whites))
        if prev is not None and doubled != (prev.blacks, prev.whites):
            return f"exact halving: stage {fam.stage_index} is not stage {prev.stage_index} halved"
    if not isinstance(coloring.source, tuple):
        return "cone at the origin: the coloring is not a region"
    origin = Point(0.0, 0.0)
    reach = max((p.norm() for p in stages[0].blacks + stages[0].whites), default=0.0) * (1.0 + 1e-9)
    for piece in (piece for loop in coloring.source for piece in loop.pieces):
        if piece.dist(origin) <= reach and not (isinstance(piece, Segment) and all(
                end == origin or end.norm() > reach for end in (piece.a, piece.b))
                and Fraction(piece.a.x) * Fraction(piece.b.y) == Fraction(piece.a.y) * Fraction(piece.b.x)):
            return f"cone at the origin: {piece} is within {reach!r} of the origin but not a ray from it"
    return ""


# ---------------------------------------------------------------------------
# Chessboard stages
# ---------------------------------------------------------------------------


def chessboard_stages(r: float, theta: float, depth: int) -> list[StageFamily]:
    """Descent stages for the two-square chessboard with side 1.

    Stage 1 has four black points at radius r, spread by the angle theta into
    the black quadrants, and four white points mirrored into the white
    quadrants.  Each further stage is the previous one scaled by exactly 1/2,
    so every derived clearance halves exactly as well, down to the deepest
    stage: a depth whose last stage has a coordinate below the smallest
    normal float, where halving is no longer exact, is InvalidParameters.
    The colors are not checked here: the descent verifiers check them at
    their own tau.
    """
    if not (0.0 < r < 1.0):
        raise InvalidParameters(f"need 0 < r < 1, got {r}")
    if not (0.0 < theta < math.pi / 4.0):
        raise InvalidParameters(f"need 0 < theta < pi/4, got {theta}")
    if depth < 1:
        raise InvalidParameters(f"need depth >= 1, got {depth}")
    b1a = Point(r * math.cos(theta), r * math.sin(theta))
    b1b = Point(b1a.y, b1a.x)  # reflection about the diagonal
    w1a = Point(r * math.cos(theta), -r * math.sin(theta))
    w1b = Point(-w1a.y, -w1a.x)
    blacks = [b1a, b1b, Point(-b1a.x, -b1a.y), Point(-b1b.x, -b1b.y)]
    whites = [w1a, w1b, Point(-w1a.x, -w1a.y), Point(-w1b.x, -w1b.y)]
    if min(abs(v) for p in blacks + whites for v in (p.x, p.y)) * 0.5 ** (depth - 1) < sys.float_info.min:
        raise InvalidParameters(f"depth {depth} underflows: stage {depth} has a coordinate "
                                f"below the smallest normal float {sys.float_info.min!r}")
    stages = []
    for i in range(depth):
        k = 0.5**i  # power of two: scaling is exact in floating point
        stages.append(
            StageFamily(
                tuple(p.scaled(k) for p in blacks),
                tuple(p.scaled(k) for p in whites),
                stage_index=i + 1,
            )
        )
    return stages


# ---------------------------------------------------------------------------
# Total n-dissection: parameters, five-circle radii, the spec, stages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageParams:
    """Parameters of one descent-stage construction around dissection rays.

    The two offsets satisfy t < s < 1; the regime of interest has t between
    s^2 and s, and t is derived as s^1.5, the offset dissection_stages uses
    at every stage.
    """

    n: int
    L: float
    s: float

    def __post_init__(self):
        if self.n < 2 or self.n % 2 != 0:
            raise InvalidParameters(f"n must be even and >= 2, got {self.n}")
        if not (self.L > 0.0 and math.isfinite(self.L)):
            raise InvalidParameters(f"L must be positive, got {self.L}")
        if not (0.0 < self.s < 1.0 and 0.0 < self.t < self.s):  # s first: t is complex for s < 0
            raise InvalidParameters(f"need 0 < t < s < 1 with t = s^1.5, got s={self.s}")

    @property
    def t(self) -> float:
        return self.s**1.5


@dataclass(frozen=True)
class FiveCircleRadii:
    r_a: float
    r_c: float
    r_d: float
    r_e: float

    def all_values(self) -> tuple[float, float, float, float]:
        return (self.r_a, self.r_c, self.r_d, self.r_e)

    def below_one(self, tau: float = DEFAULT_TAU) -> bool:
        """Every critical circle is definitely smaller than a unit disk."""
        return max(self.all_values()) < 1.0 - tau


def five_circle_radii(params: StageParams) -> FiveCircleRadii:
    """Radii of the critical circles pinning one stage of the dissection descent.

    r_a is the circle through one white pair and the nearby ray anchor, a
    degenerate isosceles trapezoid with bases 0 and 2 s and height t:
    geometry.trapezoid_circumradius(0, 2 s, t), radius u^2 / (2 t) where
    u = hypot(s, t).  Its promise: r_a = s^2/(2t) + t/2
    >= s always (arithmetic-geometric mean, equality only at t = s, which
    StageParams excludes); r_a < 1 whenever s^2 < t < s; and with the default
    t = s^1.5, r_a = (sqrt(s) + s^1.5) / 2 < sqrt(s), so r_a -> 0 at the rate
    sqrt(s) / 2.  r_d and r_e are the closed forms for the cross-ray circles;
    both tend to L * tan(pi/n) as s -> 0.  r_c has no closed form here and is
    computed as a numeric circumcircle; it must stay below r_d.
    """
    n, L, s, t = params.n, params.L, params.s, params.t
    alpha = math.pi / n
    phi = math.atan2(t, s)
    u = math.hypot(s, t)

    r_a = trapezoid_circumradius(0.0, 2.0 * s, t)
    r_d = (
        math.sqrt(
            (L * math.sin(alpha)) * (L * math.sin(alpha) + u * math.sin(alpha + phi)) + u * u
        )
        / math.cos(alpha + phi)
    )
    r_e = (
        math.sqrt(
            (L * math.sin(alpha) + u * math.sin(alpha - phi))
            * (L * math.sin(alpha) + u * math.sin(alpha + phi))
            + (2.0 * s) ** 2
        )
        / math.cos(alpha)
    )

    # Numeric circumcircle through one white point and the two ray anchors.
    u1 = unit(alpha)
    n1 = u1.rot90()  # away from the wedge interior
    w1 = u1.scaled(L - s) + n1.scaled(t)
    o1 = u1.scaled(L)
    o2 = Point(o1.x, -o1.y)
    r_c = circumcircle3(w1, o1, o2).radius
    if not r_c < r_d:
        raise InvalidParameters(f"expected r_c < r_d, got r_c={r_c}, r_d={r_d}")
    return FiveCircleRadii(r_a=r_a, r_c=r_c, r_d=r_d, r_e=r_e)


@dataclass(frozen=True)
class DissectionSpec:
    """Total n-dissection: rays from the apex, one full and one empty
    rectangle over the interval (a, b) with thickness d on either side of
    each ray, orientations alternating ray to ray."""

    apex: Point
    n: int
    a: float
    b: float
    d: float
    phase: float
    first_orientation: str = "ccw"  # side of ray 1 holding the black rectangle

    def __post_init__(self):
        if self.n < 2 or self.n % 2 != 0:
            raise InvalidParameters(f"n must be even and >= 2, got {self.n}")
        if not (0.0 <= self.a < self.b):
            raise InvalidParameters(f"need 0 <= a < b, got a={self.a}, b={self.b}")
        if not self.d > 0.0:
            raise InvalidParameters(f"thickness must be positive, got {self.d}")
        if self.first_orientation not in ("ccw", "cw"):
            raise InvalidParameters("first_orientation must be 'ccw' or 'cw'")

    def ray_angle(self, j: int) -> float:
        """Angle of ray j (1-based)."""
        return self.phase + 2.0 * math.pi * (j - 1) / self.n

    def black_side(self, j: int) -> int:
        """+1 when the black rectangle of ray j is on the ccw side."""
        first = 1 if self.first_orientation == "ccw" else -1
        return first * (1 if (j - 1) % 2 == 0 else -1)

    def frames(self) -> list[tuple[float, float, int]]:
        """(u.x, u.y, black_side(j)) of rays j = 1..n, u = unit(ray_angle(j))."""
        angles = [self.ray_angle(j) for j in range(1, self.n + 1)]
        return [(math.cos(a), math.sin(a), self.black_side(j)) for j, a in enumerate(angles, start=1)]

    def shrunk(self, tau: float) -> tuple[float, float, float, float]:
        """(s0, s1, h0, h1): the rectangles shrunk by 2*tau, along the ray and away from it."""
        return self.a + 2.0 * tau, self.b - 2.0 * tau, 2.0 * tau, self.d - 2.0 * tau


def default_dissection_L(spec: DissectionSpec) -> float:
    """Midpoint of (a, min(b, cot(pi/n))) of spec, the widest safe anchor distance."""
    hi = min(spec.b, undrawability_bound(spec.n))
    if not spec.a < hi:
        raise InvalidParameters(f"no valid anchor distance in ({spec.a}, {hi})")
    return 0.5 * (spec.a + hi)


def dissection_stages(params: StageParams, spec: DissectionSpec, depth: int) -> list[StageFamily]:
    """Point families of the dissection descent around the rays of spec.

    Ray j (1-based) leaves spec.apex at spec.ray_angle(j).  Each ray carries
    one black pair and one white pair per stage, at along-ray feet L -/+ s_i
    and perpendicular offset t_i, black on spec.black_side(j).  Stage i
    shrinks the offsets by 2^-i (s halves; t follows t = s^1.5), so each
    family nests into the encircled neighborhoods of the previous one.
    Rotating a ray's configuration by 2*pi/n gives the next ray's
    configuration with the colors swapped.  Before building a stage it
    refuses (InvalidParameters) a negative depth, a spec without params.n
    rays and a last offset t_depth below the smallest normal float; the
    radii and colours are premises that verify and the verifiers check.

    The coordinates are those of spec.apex + u.scaled(foot) +
    p.scaled(+-side * t_i), with u = unit(spec.ray_angle(j)) and p =
    u.rot90(), written out in floats as the Point methods compute them, in
    the same order, so they are the same floats; only the stage points
    themselves are built as Points.
    """
    if depth < 0:
        raise InvalidParameters(f"depth must be >= 0, got {depth}")
    if spec.n != params.n:
        raise InvalidParameters(f"spec has {spec.n} rays, params {params.n}")
    if (t := (params.s * 0.5**depth) ** 1.5) < sys.float_info.min:
        raise InvalidParameters(f"depth {depth} underflows: stage {depth} has the offset {t!r}, "
                                f"below the smallest normal float {sys.float_info.min!r}")
    ax, ay = spec.apex.x, spec.apex.y
    rays = spec.frames()
    stages = []
    for i in range(depth + 1):
        s_i = params.s * (0.5**i)
        t_i = s_i**1.5
        blacks: list[Point] = []
        whites: list[Point] = []
        for ux, uy, side in rays:
            px, py = -uy, ux
            kb, kw = side * t_i, -side * t_i
            for foot in (params.L - s_i, params.L + s_i):
                bx, by = ax + foot * ux, ay + foot * uy
                blacks.append(Point(bx + kb * px, by + kb * py))
                whites.append(Point(bx + kw * px, by + kw * py))
        stages.append(StageFamily(tuple(blacks), tuple(whites), stage_index=i))
    return stages


def symmetric_descent_verify(stages: Sequence[StageFamily], spec: DissectionSpec, tau: float = DEFAULT_TAU, *,
                             rotation: tuple[float, float, str] | None = None) -> tuple[Check, ...]:
    """descent_verify from ray 1's two white targets of each stage pair, for
    families that are n-fold rotationally symmetric about spec.apex and
    mirror symmetric in ray 1's line, each with the colours swapped, as
    dissection_stages builds them.

    Rotation lemma: let f_S(t) be the clearance
    LargestEmptyCircle(S).query(t, 1) computes, the largest dist(x, S) over
    |x - t| <= 1.  It is 1-Lipschitz in t (move the maximiser with t),
    1-Lipschitz in S under a bijection that moves no point more than delta
    (each distance to S moves by at most delta), and invariant under
    isometries.  Let R_k turn by 2*pi*k/n about the apex, and let delta be
    the largest distance between a point of ray k + 1 and R_k of the ray-1
    point it stands for: the same foot, the same colour for even k and the
    other colour for odd k.  A point of ray m is within delta of R_(m-1) q
    for a ray-1 point q, and R_k R_(m-1) q is within delta of a point of ray
    m + k (mod n; n is even, so the colour parity holds), so R_k maps the
    blacks B and the whites W of a stage onto B and W (even k) or W and B
    (odd k) within 2*delta.  A target t of ray k + 1 is within delta of R_k
    t1 for a ray-1 target t1, so f_B(t) <= f_B(R_k t1) + delta = f_(R_-k
    B)(t1) + delta <= f_B(t1) + 3*delta (even k) or f_W(t1) + 3*delta (odd
    k, t1 a black target): ray 1's four targets, two feet times both colour
    pairs, bound every clearance of the stage pair within 3*delta.

    Reflection lemma: let M be the reflection in the line of ray 1 through
    the apex, and mirror the largest distance between M of ray 1's black
    point at a foot and ray 1's white point at that foot, over the stages.
    M is an isometry and an involution, so M of the white point is within
    mirror of the black one too.  It maps ray j onto ray 2 - j (mod n) and
    the ccw side of a ray onto the cw side, and M R_k = R_-k M.  A point p
    of ray k + 1 is within delta of R_k q, q ray 1's point of p's foot that
    p stands for; M p is within delta of R_-k M q, M q within mirror of ray
    1's point q' of the other colour, and R_-k q' within delta of a point of
    ray 1 - k of p's other colour (R_-k = R_(n-k) swaps colours as k does,
    n being even).  So M maps B onto W and W onto B within 2*delta +
    mirror.  For a black target t of ray 1, M t is within mirror of the
    white target t' of its foot, so f_W(t) = f_(MW)(M t) <= f_(MW)(t') +
    mirror <= f_B(t') + 2*delta + 2*mirror.  Ray 1's two white targets, the
    next stage's first two whites against this stage's blacks, therefore
    bound every clearance of the stage pair within 5*delta + 2*mirror.

    Premises, checked in floats (_rotation_premise, _reflection_premise):
    every stage holds two points of each colour per ray, in
    dissection_stages' layout, and the measured delta and mirror are each at
    most a slack of 1e-12 times the family extent (the largest coordinate
    magnitude of the apex and the stage points).  A rounded turn or
    reflection is a few ulps of that extent off the exact one, and the
    clearances of one configuration and of its turned or reflected copy are
    computed from coordinates of that size, each to a few ulps; the slack
    covers both with three orders of magnitude to spare, so delta + slack
    and mirror + slack bound the exact values, and the margin 5*(delta +
    slack) + 2*(mirror + slack) also covers the rounding of every clearance
    descent_verify would compute.

    Colours, checked in floats (_colour_premise): each stage point p lies in
    its ray's rectangle of its colour shrunk by 2*tau + slack, that is, its
    coordinates s = rel.u and h = u x rel in the ray frame (rel = p -
    spec.apex), h signed towards the colour's side, lie in spec.shrunk(tau)
    narrowed by the slack.  Then p has its colour in every coloring with
    spec's n-dissection: in the ideal pattern by definition, and in a
    coloring that dissection_check proves, whose proved parts tile the
    rectangles shrunk by 2*coloring.tau.  Those hold the 2*tau-shrunk ones
    only when coloring.tau <= tau; verify snake builds both at one tau, and
    counts the descent only when that proof is ok.  s, h and the parts'
    corners are each a few ulps of the extent off, which the slack covers as
    it covers the turns.  No point is classified.

    Each stage pair queries ray 1's two white targets at the margin
    (_encircles), against the obstacles of the outer blacks that those
    targets can see (_local_lec): YES needs both clearances below 1 - tau -
    5*(delta + slack) - 2*(mirror + slack), which puts each of the pair's
    clearances below 1 - tau, descent_verify's YES; a NO or BOUNDARY at ray
    1 is recorded as it is.  The local triangulation computes ray 1's
    clearances up to the rounding of candidate points, which the margin
    covers as it covers the rounding of the turns.  The recorded clearance
    is the largest escape radius of ray 1's two white targets, equal bit for
    bit to that over a triangulation of the whole black family.  It is
    informational: the escape radius is not Lipschitz, so it bounds nothing
    about the other targets, and it may differ from descent_verify's largest
    escape over all targets in the last digits.  A failed premise is a
    single `lemma premise` record that names it; nothing falls back to
    descent_verify.

    rotation is _rotation_premise(stages, spec) when the caller has
    measured it: verify dissection measures delta once and hands it to this
    check and to dissection_wedge_checks.  By default it is measured here.
    """
    stages = _chain(stages, tau)
    delta, slack, premise = rotation or _rotation_premise(stages, spec)
    mirror, reflected = _reflection_premise(stages, spec, slack)
    premise = premise or reflected or _colour_premise(stages, spec, tau, slack)
    checks: list[Check] = [_premise_check(premise)] if premise else []
    work = (0, 0, 0, 0)
    if not premise:
        margin = 5.0 * (delta + slack) + 2.0 * (mirror + slack)
        for fam, nxt in zip(stages, stages[1:]):
            verdict, clearance, done = _encirclement(fam.blacks, nxt.whites[:2], tau, margin)
            checks.append(_stage_check(fam.stage_index, verdict, clearance))
            work = tuple(map(sum, zip(work, done)))
    logger.debug("symmetric descent: delta %r, slack %r, mirror %r, %d LEC builds, %d obstacle points, "
                 "%d ray-1 queries, %d escapes, %d derived records", delta, slack, mirror, *work,
                 sum(c.ok for c in checks))
    return tuple(checks)


def _rotation_premise(stages: Sequence[StageFamily], spec: DissectionSpec) -> tuple[float, float, str]:
    """(delta, slack, failure) of symmetric_descent_verify's premise: delta
    is the largest distance between a point of ray k + 1 and the ray-1 point
    it stands for, turned by 2*pi*k/n about spec.apex; slack is 1e-12 times
    the largest coordinate magnitude of the apex and the stage points; and
    failure names the first stage without two points of each colour per
    ray, or the point where delta exceeds the slack, or is ""."""
    n, (ax, ay) = spec.n, (spec.apex.x, spec.apex.y)
    slack = 1e-12 * max(abs(v) for q in (spec.apex, *(p for fam in stages for p in fam.blacks + fam.whites))
                        for v in (q.x, q.y))
    turns = [(math.cos(2.0 * math.pi * k / n), math.sin(2.0 * math.pi * k / n)) for k in range(n)]
    delta, worst = 0.0, ""
    for fam in stages:
        if not len(fam.blacks) == len(fam.whites) == 2 * n:
            return math.inf, slack, (f"rotation symmetry: stage {fam.stage_index} has {len(fam.blacks)} blacks and "
                                     f"{len(fam.whites)} whites, not 2 of each on each of {n} rays")
        # ray 1's points relative to the apex, blacks then whites
        ray_one = [[(q.x - ax, q.y - ay) for q in ps[:2]] for ps in (fam.blacks, fam.whites)]
        for k, (c, s) in enumerate(turns):
            for points, ref in zip((fam.blacks, fam.whites), ray_one[::-1] if k % 2 else ray_one):
                for p, (dx, dy) in zip(points[2 * k:2 * k + 2], ref):
                    d = math.hypot(p.x - (ax + c * dx - s * dy), p.y - (ay + s * dx + c * dy))
                    if d > delta:
                        delta, worst = d, f"stage {fam.stage_index} ray {k + 1} is {d!r} from ray 1 turned by 2*pi*{k}/{n}"
    if delta > slack:
        return delta, slack, f"rotation symmetry: {worst} about {spec.apex}, beyond the slack {slack!r}"
    return delta, slack, ""


def _reflection_premise(stages: Sequence[StageFamily], spec: DissectionSpec, slack: float) -> tuple[float, str]:
    """(mirror, failure) of symmetric_descent_verify's reflection premise:
    mirror is the largest distance between ray 1's black point at a foot,
    reflected in ray 1's line through spec.apex, and ray 1's white point at
    that foot, over every stage, and failure names the stage and the foot
    where mirror exceeds slack, or is "".  The reflection of rel = p -
    spec.apex is 2 (rel.u) u - rel, u = unit(spec.ray_angle(1))."""
    u, (ax, ay) = unit(spec.ray_angle(1)), (spec.apex.x, spec.apex.y)
    mirror, worst = 0.0, ""
    for fam in stages:
        for foot, (b, w) in enumerate(zip(fam.blacks[:2], fam.whites[:2]), start=1):
            rx, ry = b.x - ax, b.y - ay
            along = 2.0 * (rx * u.x + ry * u.y)
            d = math.hypot(w.x - (ax + along * u.x - rx), w.y - (ay + along * u.y - ry))
            if d > mirror:
                mirror, worst = d, (f"stage {fam.stage_index} foot {foot}: ray 1's black point {b}, reflected in "
                                    f"ray 1's line, is {d!r} from its white point {w}")
    if mirror > slack:
        return mirror, f"reflection symmetry: {worst}, beyond the slack {slack!r}"
    return mirror, ""


def _colour_premise(stages: Sequence[StageFamily], spec: DissectionSpec, tau: float, slack: float) -> str:
    """The failure of symmetric_descent_verify's colour premise: the first
    stage point outside its ray's rectangle of its colour shrunk by 2*tau +
    slack, named, or "".  Point k of a colour lies on ray k // 2 + 1.

    s and h are rel.dot(u) and u.cross(rel), rel = p - spec.apex and u =
    unit(spec.ray_angle(j)), written out in floats as the Point methods
    compute them, in the same order, so they are the same floats."""
    s0, s1, h0, h1 = spec.shrunk(tau)
    s_lo, s_hi, h_lo, h_hi = s0 + slack, s1 - slack, h0 + slack, h1 - slack
    ax, ay = spec.apex.x, spec.apex.y
    frames = spec.frames()
    for fam in stages:
        for points, colour, sign in ((fam.blacks, "black", 1), (fam.whites, "white", -1)):
            for k, p in enumerate(points):
                ux, uy, side = frames[k // 2]
                rx, ry = p.x - ax, p.y - ay
                s, h = rx * ux + ry * uy, sign * side * (ux * ry - uy * rx)
                if not (s_lo <= s <= s_hi and h_lo <= h <= h_hi):
                    return (f"stage colours: stage {fam.stage_index} {colour} point {p} is outside ray {k // 2 + 1}'s "
                            f"{colour} rectangle shrunk by 2*tau + {slack!r}")
    return ""


def dissection_wedge_checks(
    stages: Sequence[StageFamily], spec: DissectionSpec, tau: float = DEFAULT_TAU, *,
    rotation: tuple[float, float, str] | None = None,
) -> tuple[Check, ...]:
    """The case split behind the descent chain, from wedge 1: one Check per
    stage pair, or one failed `lemma premise`.

    For consecutive stages and each wedge between rays j and j+1, the four
    stage-i points on the outer sides of the wedge must encircle the four
    stage-(i+1) points inside it.  Families must come from dissection_stages
    with the same spec (the point layout per ray is two blacks then two
    whites, rays in order).

    Only wedge 1 is queried.  Under symmetric_descent_verify's premise each
    point is within delta of its ray-1 point turned (ray 1's points are
    their own), and the turn R_(j-1) maps those turned points of wedge 1
    onto wedge j's, colours swapped for even j, which encircles ignores.  By
    that lemma wedge j's clearances are within 4*delta of wedge 1's (2*delta
    from each wedge's obstacles and targets to the turned points), so wedge
    1's verdict at the margin 4*(delta + slack) holds for every wedge, and
    the record `stage i wedges` of stage pair i stands for all n.  A failed
    premise is symmetric_descent_verify's single `lemma premise` record;
    nothing falls back.  rotation is the measured premise, as in
    symmetric_descent_verify, which verify dissection hands both checks; by
    default it is measured here.  An empty chain is refused, as by the
    descent verifiers; a single stage has no pair and gives ().
    """
    stages = _chain(stages, tau)
    delta, slack, premise = rotation or _rotation_premise(stages, spec)
    if premise:
        return (_premise_check(premise),)
    checks = []
    for fam, nxt in zip(stages, stages[1:]):
        outer: list[Point] = []
        inner: list[Point] = []
        # The wedge interior is the ccw side (+1) of ray 1 and the cw side
        # (-1) of ray 2.  The outer four points are the pairs on the far
        # sides (one color); the inner four are the opposite-color pairs
        # inside the wedge at the next stage.
        for ray, into_wedge_sign in ((0, 1), (1, -1)):
            white_outside = spec.black_side(ray + 1) == into_wedge_sign
            outer.extend((fam.whites if white_outside else fam.blacks)[2 * ray : 2 * ray + 2])
            inner.extend((nxt.blacks if white_outside else nxt.whites)[2 * ray : 2 * ray + 2])
        verdict, _ = _encircles(LargestEmptyCircle(outer), inner, tau, 4.0 * (delta + slack))
        checks.append(Check(f"stage {fam.stage_index} wedges", verdict, None))
    return tuple(checks)


# ---------------------------------------------------------------------------
# Proof of a dissection's rectangles
# ---------------------------------------------------------------------------

# A part of a rectangle that no rule decides is halved both ways, down to
# this depth: at most 4**SPLIT_DEPTH = 256 leaves per rectangle.
SPLIT_DEPTH = 4


class RectLeaf(NamedTuple):
    """A part of a dissection rectangle where the check stopped."""

    ray: int
    side: int  # +1: the ccw side of the ray
    s: tuple[float, float]  # distance range along the ray
    h: tuple[float, float]  # distance range from the ray
    witness: Point  # the part's centre
    got: Shade  # the centre's shade
    proved: bool  # the whole part has that shade


@dataclass(frozen=True)
class ProofReport:
    """The outcome of a branch and bound proof, dissection_check here and
    curvature.rolling_disk_check: ok when every part was proved.  The leaves
    (RectLeaf, curvature.Leaf) are the witnesses: the parts proved, the
    failures, whose witness contradicts the claim, and the undecided parts,
    whose witness does not."""

    proved: tuple
    failures: tuple
    undecided: tuple
    counters: dict  # work counters, in the order counts() reports them

    @property
    def ok(self) -> bool:
        return not self.failures and not self.undecided

    def __bool__(self) -> bool:
        return self.ok

    def counts(self) -> dict:
        """The proof's work counters and outcome sizes."""
        return {**self.counters, "undecided": len(self.undecided), "failures": len(self.failures)}


def branch_and_bound(roots, rule: Callable, split: Callable, max_depth: int, lemma: float, settle: Callable):
    """A branch and bound proof's loop: its proved, failed and undecided
    leaves (tuples), the parts visited and the deepest depth.

    Each root (orbit key, representative, context, part) is bisected depth
    first: rule(context, part) gives (answer, margin), answer None when it
    decides nothing, and such a part is replaced by split(part), its
    children in pop order, down to max_depth.  settle(context, part, answer,
    margin) gets every other part, answer None at the cap, and returns None
    or (leaf, kind), kind "proved", "failed" or "undecided".

    Lemma: the roots of one orbit key are turns of one another, the
    representative first.  The margin is how far the rule's inequalities are
    from deciding otherwise, so when each quantity they compare moves by at
    most lemma from a representative's part to the part of the same
    coordinates in an image (each proof says why), a margin above lemma
    decides both alike: the image part takes the answer without the rule,
    and any other is decided again.  settle gets the image part, so the tree
    and the leaves, witnesses and order are the full proof's (lemma = inf).
    """
    decided: dict = {}  # (orbit key, part) of a representative -> the rule's (answer, margin)
    leaves: dict = {"proved": [], "failed": [], "undecided": []}
    visited = deepest = 0
    for key, representative, context, root in roots:
        stack = [(root, 0)]
        while stack:
            part, depth = stack.pop()
            visited, deepest = visited + 1, max(deepest, depth)
            answer, margin = decided.get((key, part), (None, 0.0))
            if not margin > lemma:
                answer, margin = rule(context, part)
                if representative:
                    decided[key, part] = answer, margin
            if answer is None and depth < max_depth:
                stack += [(child, depth + 1) for child in reversed(split(part))]
            elif (settled := settle(context, part, answer, margin)) is not None:
                leaves[settled[1]].append(settled[0])
    return (*map(tuple, leaves.values()), visited, deepest)


class _Part:
    """The part [s0, s1] x [h0, h1] of a rectangle in the frame (apex, u, v):
    u runs along the ray, v away from it into the rectangle's side; near is
    what its parent's clearance handed down."""

    def __init__(self, frame: tuple[Point, Point, Point], s0: float, s1: float, h0: float, h1: float, near=()):
        self.frame, self.s, self.h, self.near = frame, (s0, s1), (h0, h1), dict(near)
        apex, u, v = frame
        sh = [(s0, h0), (s1, h0), (s1, h1), (s0, h1)]
        xs = self._xs = [apex.x + s * u.x + h * v.x for s, h in sh]
        ys = self._ys = [apex.y + s * u.y + h * v.y for s, h in sh]
        self.center = Point(0.5 * (xs[0] + xs[2]), 0.5 * (ys[0] + ys[2]))
        self.box = (min(xs), min(ys), max(xs), max(ys))

    @cached_property
    def corners(self) -> tuple[Point, ...]:
        return tuple(map(Point, self._xs, self._ys))

    def __eq__(self, other) -> bool:  # the same ranges in any frame: branch_and_bound's replay key
        return (self.s, self.h) == (other.s, other.h)

    def __hash__(self) -> int:
        return hash((self.s, self.h))

    def split(self) -> list[_Part]:
        """The four quarters, in pop order: the high quadrant first."""
        (s0, s1), (h0, h1) = self.s, self.h
        sm, hm = 0.5 * (s0 + s1), 0.5 * (h0 + h1)
        return [_Part(self.frame, a, b, c, d, self.near)
                for a, b in ((sm, s1), (s0, sm)) for c, d in ((hm, h1), (h0, hm))]


def dissection_check(coloring: Coloring, spec: DissectionSpec) -> ProofReport:
    """Prove the dissection pattern of spec against a coloring, at the
    coloring's own margin t = coloring.tau.

    Both rectangles of every ray, shrunk by 2*t, must have one shade
    throughout: black on the ray's black side, white on the other.  The
    shrink is 2*t, not t, because the t-shrunk rectangles of the snake and
    of the slid-disk script put one edge exactly on the classifier's collar:
    the snake's boundary segment lies on the ray, at distance t from that
    edge, and the slid disks' centres run at height 1 from the ray, at
    1 -+ t from it.

    A part R of a rectangle is decided by what coloring.source records:

    - A region (a tuple of loops): R is uniform when no piece is within t of
      the filled R.  In the ray's frame R is an axis-aligned box, and
      geometry.piece_rect_distance gives a piece's distance to it in one
      closed form: 0 when the piece meets the box (clipped, for a segment;
      an end inside or a crossing of an edge on its sweep, for an arc),
      else the least over the piece's ends to the box, R's corners to the
      piece and an arc's points on the frame axes through its centre to the
      box, as a closest pair of disjoint convex sets has a vertex of one.
      A piece whose bounding box is farther than t from R's box is skipped.
      R's centre, classified, gives the shade.
    - A DrawingScript: a stroke is IN on R when one convex primitive (point,
      segment, half-plane or plane) has all four corners closer than 1 - t,
      its neighbourhood being convex, and OUT when every primitive is
      farther than 1 + t from R.  By eval_script's last-cover rule R has the
      shade of the last IN stroke (white without one) when every later
      stroke is OUT; earlier strokes do not matter.

    A part that no rule decides is halved both ways, down to SPLIT_DEPTH
    (Snyder, Interval analysis for computer graphics, SIGGRAPH 1992).  A
    leaf there is decided at its centre: a failure when the centre has
    another shade, undecided otherwise.  A part proved uniform in another
    shade is a failure too.  ok needs every rectangle proved.

    When the source turns onto itself (_ray_orbit: the turn R by 2*pi*k/n,
    within delta), rays 1..k represent their orbits in branch_and_bound,
    with lemma 2*(delta + slack).  Each rule compares distances from the
    part's corners or from the filled part to the pieces, 1-Lipschitz in
    both and kept by a turn.  R^q maps a part of ray j onto the part of the
    same ranges of ray j + qk, which wants the same shade, and every piece
    within delta of its image, so each distance moves by at most delta; the
    corners are a few ulps of the extent off the turned ones, which the
    slack covers.  min_margin covers the parts decided here.
    """
    t, source = check_tolerance(coloring.tau), coloring.source
    if not (spec.b - spec.a > 4.0 * t and spec.d > 4.0 * t):
        raise InvalidParameters("the rectangles vanish when shrunk by 2*tau")
    calls, min_margin = 0, math.inf

    def clearance(part: _Part, key, boxed, bound: float) -> float:
        """A lower bound on the distance from the boxed pieces to the filled
        part: exact for a piece whose box is within bound of the part's box,
        the gap between the boxes for any other; a value at most bound as
        soon as one piece is that close.  Only the pieces the parent handed
        down under key are measured, its floor standing for the rest, whose
        gaps only grow in the part's smaller box; the part hands its children
        the pieces within bound, so every exact distance stays the same."""
        nonlocal calls
        boxed, floor = part.near.get(key, (boxed, math.inf))
        best, near = math.inf, []
        for piece, box in boxed:
            gap = box_gap(part.box, box)
            if gap > bound:
                floor = min(floor, gap)
                continue
            near.append((piece, box))
            if best > bound:  # once a piece is that close, only the boxes are sorted
                calls += 1
                best = min(best, piece_rect_distance(piece, part.frame, part.s, part.h))
        part.near[key] = near, floor
        return min(best, floor)

    def corner_distance(part: _Part, prim, reduce) -> float:
        nonlocal calls
        calls += 4
        return reduce(prim.dist(c) for c in part.corners)

    # Each rule returns the part's shade, None when it decides nothing, and
    # how far its inequalities are from deciding otherwise.

    def region_rule(part: _Part) -> tuple[Shade | None, float]:
        margin = clearance(part, None, pieces, t) - t
        return (coloring.classify(part.center) if margin > 0.0 else None), abs(margin)

    def script_rule(part: _Part) -> tuple[Shade | None, float]:
        margin = math.inf
        for k in range(len(strokes) - 1, -1, -1):
            convex, boxed, planes = strokes[k]
            uncovered = math.inf
            for prim in convex:
                far = corner_distance(part, prim, max)
                if far < 1.0 - t:
                    return (Shade.BLACK if k % 2 == 0 else Shade.WHITE), min(margin, 1.0 - t - far)
                uncovered = min(uncovered, far - (1.0 - t))
            near = min([clearance(part, k, boxed, 1.0 + t)] + [corner_distance(part, p, min) for p in planes])
            if not near > 1.0 + t:
                return None, min(margin, uncovered, 1.0 + t - near)
            margin = min(margin, near - (1.0 + t))
        return Shade.WHITE, margin

    if isinstance(source, DrawingScript):
        rule = script_rule
        strokes = [([p for p in prims if not isinstance(p, Arc)],
                    [(p, p.bbox()) for p in prims if isinstance(p, (SinglePoint, Segment, Arc))],
                    [p for p in prims if not isinstance(p, (SinglePoint, Segment, Arc))])
                   for prims in (stroke.centers.primitives for stroke in source.strokes)]
    else:
        rule = region_rule
        pieces = [(piece, piece.bbox()) for loop in source for piece in loop.pieces]

    step, delta, slack = _ray_orbit(source, spec)

    def settle(root, part: _Part, shade: Shade | None, margin: float):
        nonlocal min_margin
        (j, side), got = root, shade or coloring.classify(part.center)
        if shade is not None:
            min_margin = min(min_margin, margin)
        want = Shade.BLACK if side == spec.black_side(j) else Shade.WHITE
        leaf = RectLeaf(j, side, part.s, part.h, part.center, got, shade is not None)
        return leaf, ("failed" if got is not want else "proved" if shade else "undecided")

    shrunk, rays = spec.shrunk(t), [(j, unit(spec.ray_angle(j))) for j in range(1, spec.n + 1)]
    roots = ((((j - 1) % step + 1, side), j <= step, (j, side), _Part((spec.apex, u, u.rot90().scaled(side)), *shrunk))
             for j, u in rays for side in (1, -1))  # rays 1..step represent their orbits
    proved, failures, undecided, _, deepest = branch_and_bound(
        roots, lambda root, part: rule(part), _Part.split, SPLIT_DEPTH, 2.0 * (delta + slack), settle)

    # min_margin: the smallest amount by which a proof cleared its bound
    counters = {"rectangles": 2 * spec.n, "leaves": len(proved) + len(failures) + len(undecided),
                "kernel_calls": calls, "depth": deepest, "min_margin": min_margin, "orbit": spec.n // step}
    result = ProofReport(proved, failures, undecided, counters)
    logger.debug("dissection check: delta %r, slack %r, %d rectangles, %d leaves, %d kernel calls, depth %d, "
                 "min margin %r, orbit %d, %d undecided, %d failures", delta, slack, *result.counts().values())
    return result


def _ray_orbit(source, spec: DissectionSpec) -> tuple[int, float, float]:
    """(k, delta, slack) of the turn dissection_check proves by: the
    smallest even k < n dividing n whose turn R by 2*pi*k/n about spec.apex
    maps every loop of the region source, or the primitives of every stroke
    of the script source, onto itself (geometry.turn_orbits, order n/k);
    k = n and delta = inf when none does.  R^q maps ray j onto ray j + qk
    with the same black side (k is even).  slack is 1e-12 times the largest
    coordinate magnitude of the pieces and the rectangles (|apex| + b + d).
    """
    groups = ([stroke.centers.primitives for stroke in source.strokes] if isinstance(source, DrawingScript)
              else [loop.pieces for loop in source])
    slack = 1e-12 * max([max(abs(spec.apex.x), abs(spec.apex.y)) + spec.b + spec.d,
                         *(p.extent() for group in groups for p in group)])
    orders = [spec.n // k for k in range(2, spec.n, 2) if spec.n % k == 0]
    m, delta, _ = next(turn_orbits(groups, spec.apex, orders, slack), (1, math.inf, ()))
    return spec.n // m, delta, slack


def undrawability_bound(n: int) -> float:
    """cot(pi/n): total n-dissection below this anchor distance obstructs drawing."""
    if n < 4 or n % 2 != 0:
        raise InvalidN(f"n must be even and >= 4, got {n}")
    return 1.0 / math.tan(math.pi / n)
