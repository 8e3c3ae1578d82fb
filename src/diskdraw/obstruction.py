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
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .canvas import BoundaryPoint, DrawingScript, Shade, eval_script
from .delaunay import Delaunay, circumcenter
from .geometry import (
    DEFAULT_TAU,
    Arc,
    LargestEmptyCircle,
    Point,
    Segment,
    SinglePoint,
    check_tolerance,
    circumcircle3,
    constrained_largest_empty_circle,  # noqa: F401  (perfbench traces it under this module)
    dist_to_primitive,
    piece_bbox,
    piece_distance,
    unit,
)

if TYPE_CHECKING:
    from .constructions import PiecewisePath

logger = logging.getLogger("diskdraw")


class Verdict(Enum):
    YES = "yes"
    NO = "no"
    BOUNDARY = "boundary"


class MisclassifiedPoint(ValueError):
    pass


class InvalidParameters(ValueError):
    pass


class RadiiTooLarge(ValueError):
    pass


class InvalidN(ValueError):
    pass


@dataclass(frozen=True)
class Coloring:
    """A deterministic black/white membership oracle over the plane.

    source records what classify evaluates, when it is known: the
    DrawingScript of a script coloring, or the tuple of closed PiecewisePath
    loops of a region (see constructions.region_coloring), together with the
    margin tau that classify uses.  The renderer reads it to classify whole
    raster rows at once; None leaves classify opaque.
    """

    classify: Callable[[Point], Shade]
    description: str = ""
    source: DrawingScript | tuple[PiecewisePath, ...] | None = None
    tau: float = DEFAULT_TAU


def script_coloring(script: DrawingScript, tau: float = DEFAULT_TAU, description: str = "") -> Coloring:
    check_tolerance(tau)
    return Coloring(
        classify=lambda p: eval_script(p, script, tau),
        description=description or f"script with {len(script)} strokes",
        source=script,
        tau=tau,
    )


@dataclass(frozen=True)
class StageFamily:
    """One stage of a descent chain: its black points and its white points."""

    blacks: tuple[Point, ...]
    whites: tuple[Point, ...]
    stage_index: int

    @classmethod
    def checked(
        cls,
        coloring: Coloring,
        blacks: Sequence[Point],
        whites: Sequence[Point],
        stage_index: int,
    ) -> "StageFamily":
        fam = cls(tuple(blacks), tuple(whites), stage_index)
        _verify_family_colors(coloring, fam)
        return fam


def _verify_family_colors(coloring: Coloring, fam: StageFamily) -> None:
    for points, want in ((fam.blacks, Shade.BLACK), (fam.whites, Shade.WHITE)):
        for p in points:
            shade = coloring.classify(p)
            if shade is Shade.BOUNDARY:
                raise BoundaryPoint(f"stage {fam.stage_index}: {want.value} point {p} is on the boundary")
            if shade is not want:
                raise MisclassifiedPoint(f"stage {fam.stage_index}: {p} should be {want.value}, got {shade.value}")


# ---------------------------------------------------------------------------
# Encirclement
# ---------------------------------------------------------------------------


def encircles(S: Sequence[Point], T: Sequence[Point], tau: float = DEFAULT_TAU) -> Verdict:
    """Can no open unit disk touch T while avoiding S?

    YES when for every t in T the largest empty circle among S with center
    constrained to |x - t| <= 1 has clearance < 1 - tau.  NO when a witness
    center sits definitely inside the touching region (distance to T below
    1 - tau) with distance to S above 1 + tau.  BOUNDARY otherwise.  Empty T
    is vacuously YES; empty S with nonempty T is NO.  The Delaunay
    triangulation of S is built once and serves every anchor.
    """
    check_tolerance(tau)
    if not T:
        return Verdict.YES
    if not S:
        return Verdict.NO
    lec = LargestEmptyCircle(S)
    boundary = False
    for t in T:
        _, clearance = lec.query(t, 1.0)
        if clearance < 1.0 - tau:
            continue
        # Look for a definite counterexample strictly inside the touch region.
        _, inner = lec.query(t, 1.0 - 2.0 * tau)
        if inner > 1.0 + tau:
            return Verdict.NO
        boundary = True
    return Verdict.BOUNDARY if boundary else Verdict.YES


def escape_radius(S: Sequence[Point], T: Sequence[Point]) -> float:
    """Radius of the largest disk that can reach a point of T while avoiding S.

    Formally max over t in T of sup{|x - t| : |x - t| <= dist(x, S)}: the
    disk has t on its boundary and no point of S inside.  That is the
    farthest vertex of t's Voronoi cell in Vor(S + {t}), i.e. the farthest
    circumcenter of t's insertion-cavity fan in Del(S) (of t's own link when
    t is a point of S).  Infinite when the cell is unbounded, which happens
    exactly when some t is not strictly inside the convex hull of S.

    An escape radius >= 1 proves that S does not encircle T (a unit disk fits
    inside the escaping disk, still touching t).  The converse fails: a
    finite value below 1 does not certify encirclement.  The value scales
    linearly under similarity, which makes it the natural per-stage
    clearance of a self-similar descent chain.
    """
    if not T:
        return 0.0
    dt = Delaunay((p.x, p.y) for p in S)
    best = 0.0
    for t in T:
        txy = (t.x, t.y)
        fan = dt.cell_fan(txy)
        if fan is None:
            return math.inf
        for u, v in fan:
            cx, cy = circumcenter(txy, dt.points[u], dt.points[v])
            best = max(best, math.hypot(cx - t.x, cy - t.y))
    return best


# ---------------------------------------------------------------------------
# Descent certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckRecord:
    stage: int
    kind: str  # "colors" or "enc"
    verdict: Verdict
    clearance: float

    def line(self) -> str:
        return (
            f"stage={self.stage} kind={self.kind} "
            f"verdict={self.verdict.value} clearance={self.clearance!r}"
        )


@dataclass(frozen=True)
class DescentCertificate:
    stages: tuple[StageFamily, ...]
    checks: tuple[CheckRecord, ...]
    valid: bool

    def enc_clearances(self) -> list[float]:
        return [c.clearance for c in self.checks if c.kind == "enc"]


def descent_verify(
    coloring: Coloring,
    stages: Sequence[StageFamily],
    tau: float = DEFAULT_TAU,
) -> DescentCertificate:
    """Verify a descent chain against a coloring.

    Every listed point must classify definitely with its declared color
    (MisclassifiedPoint / BoundaryPoint otherwise).  For each consecutive pair
    of stages the blacks of stage i must encircle the whites of stage i+1 and
    the whites of stage i must encircle the blacks of stage i+1; the recorded
    clearance is the escape radius of the pair (the largest disk that can
    still reach the inner family while dodging the outer one).  A non-YES
    encirclement is recorded and the certificate comes back invalid.
    """
    check_tolerance(tau)
    if not stages:
        raise InvalidParameters("descent chain needs at least one stage")
    checks: list[CheckRecord] = []
    for fam in stages:
        _verify_family_colors(coloring, fam)
        checks.append(CheckRecord(fam.stage_index, "colors", Verdict.YES, 0.0))
    for fam, nxt in zip(stages, stages[1:]):
        v1 = encircles(fam.blacks, nxt.whites, tau)
        v2 = encircles(fam.whites, nxt.blacks, tau)
        if v1 is Verdict.NO or v2 is Verdict.NO:
            verdict = Verdict.NO
        elif v1 is Verdict.YES and v2 is Verdict.YES:
            verdict = Verdict.YES
        else:
            verdict = Verdict.BOUNDARY
        clearance = max(
            escape_radius(fam.blacks, nxt.whites),
            escape_radius(fam.whites, nxt.blacks),
        )
        checks.append(CheckRecord(fam.stage_index, "enc", verdict, clearance))
    valid = all(c.verdict is Verdict.YES for c in checks)
    return DescentCertificate(tuple(stages), tuple(checks), valid)


# ---------------------------------------------------------------------------
# Chessboard stages
# ---------------------------------------------------------------------------


def chessboard_stages(r: float, theta: float, depth: int) -> list[StageFamily]:
    """Descent stages for the two-square chessboard with side 1.

    Stage 1 has four black points at radius r, spread by the angle theta into
    the black quadrants, and four white points mirrored into the white
    quadrants.  Each further stage is the previous one scaled by exactly 1/2,
    so every derived clearance halves exactly as well.
    """
    if not (0.0 < r < 1.0):
        raise InvalidParameters(f"need 0 < r < 1, got {r}")
    if not (0.0 < theta < math.pi / 4.0):
        raise InvalidParameters(f"need 0 < theta < pi/4, got {theta}")
    if depth < 1:
        raise InvalidParameters(f"need depth >= 1, got {depth}")
    from .constructions import chessboard_coloring

    coloring = chessboard_coloring(1.0)
    b1a = Point(r * math.cos(theta), r * math.sin(theta))
    b1b = Point(b1a.y, b1a.x)  # reflection about the diagonal
    w1a = Point(r * math.cos(theta), -r * math.sin(theta))
    w1b = Point(-w1a.y, -w1a.x)
    blacks = [b1a, b1b, Point(-b1a.x, -b1a.y), Point(-b1b.x, -b1b.y)]
    whites = [w1a, w1b, Point(-w1a.x, -w1a.y), Point(-w1b.x, -w1b.y)]
    stages = []
    for i in range(depth):
        k = 0.5**i  # power of two: scaling is exact in floating point
        stages.append(
            StageFamily.checked(
                coloring,
                [p.scaled(k) for p in blacks],
                [p.scaled(k) for p in whites],
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

    r_a is the circle through one white pair and the nearby ray anchor
    (a degenerate isosceles trapezoid with one base of length 0, radius
    u^2 / (2 t) where u = hypot(s, t)).  Its promise: r_a = s^2/(2t) + t/2
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

    r_a = u * u / (2.0 * t)
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


def default_dissection_L(n: int, a: float, b: float) -> float:
    """Midpoint of (a, min(b, cot(pi/n))), the widest safe anchor distance."""
    hi = min(b, undrawability_bound(n))
    if not a < hi:
        raise InvalidParameters(f"no valid anchor distance in ({a}, {hi})")
    return 0.5 * (a + hi)


def dissection_stages(
    params: StageParams,
    spec: DissectionSpec,
    depth: int,
    tau: float = DEFAULT_TAU,
) -> list[StageFamily]:
    """Point families of the dissection descent around the rays of spec.

    Ray j (1-based) leaves spec.apex at spec.ray_angle(j).  Each ray carries
    one black pair and one white pair per stage, at along-ray feet L -/+ s_i
    and perpendicular offset t_i, black on spec.black_side(j).  Stage i
    shrinks the offsets by 2^-i (s halves; t follows t = s^1.5), so each
    family nests into the encircled neighborhoods of the previous one.
    Rotating a ray's configuration by 2*pi/n gives the next ray's
    configuration with the colors swapped.  The critical radii must be
    below one (FiveCircleRadii.below_one at tau), else RadiiTooLarge.
    """
    if depth < 0:
        raise InvalidParameters(f"depth must be >= 0, got {depth}")
    if spec.n != params.n:
        raise InvalidParameters(f"spec has {spec.n} rays, params {params.n}")
    radii = five_circle_radii(params)
    if not radii.below_one(tau):
        raise RadiiTooLarge(f"critical circle radius {max(radii.all_values())} is not below 1")
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


def dissection_wedge_checks(
    stages: Sequence[StageFamily], spec: DissectionSpec, tau: float = DEFAULT_TAU
) -> list[tuple[int, int, Verdict]]:
    """Per-wedge encirclement of the case split behind the descent chain.

    For consecutive stages and each wedge between rays j and j+1, the four
    stage-i points on the outer sides of the wedge must encircle the four
    stage-(i+1) points inside it.  Families must come from dissection_stages
    with the same spec (the point layout per ray is two blacks then two
    whites, rays in order).  Returns (stage_index, wedge_index, verdict)
    triples.
    """
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
class DissectionCheckResult:
    ok: bool
    proved: tuple[RectLeaf, ...] = ()  # parts proved to have the expected shade
    failures: tuple[RectLeaf, ...] = ()  # parts whose centre has another shade
    undecided: tuple[RectLeaf, ...] = ()  # undecided parts whose centre has the expected shade
    rectangles: int = 0
    kernel_calls: int = 0  # piece_distance and dist_to_primitive calls
    depth: int = 0  # deepest split
    min_margin: float = math.inf  # smallest amount by which a proof cleared its bound

    def __bool__(self) -> bool:
        return self.ok

    def counts(self) -> dict:
        """The check's work counters and outcome sizes."""
        return {"rectangles": self.rectangles,
                "leaves": len(self.proved) + len(self.failures) + len(self.undecided),
                "kernel_calls": self.kernel_calls, "depth": self.depth, "min_margin": self.min_margin,
                "undecided": len(self.undecided), "failures": len(self.failures)}


class _Part:
    """The part [s0, s1] x [h0, h1] of a rectangle in the frame (apex, u, v):
    u runs along the ray, v away from it into the rectangle's side."""

    def __init__(self, frame: tuple[Point, Point, Point], s0: float, s1: float, h0: float, h1: float):
        self.frame, self.s, self.h = frame, (s0, s1), (h0, h1)
        apex, u, v = frame
        self.corners = tuple(Point(apex.x + s * u.x + h * v.x, apex.y + s * u.y + h * v.y)
                             for s, h in ((s0, h0), (s1, h0), (s1, h1), (s0, h1)))
        self.center = Point(0.5 * (self.corners[0].x + self.corners[2].x),
                            0.5 * (self.corners[0].y + self.corners[2].y))
        xs = [c.x for c in self.corners]
        ys = [c.y for c in self.corners]
        self.box = (min(xs), min(ys), max(xs), max(ys))

    @cached_property
    def edges(self) -> tuple[Segment, ...]:
        c = self.corners
        return tuple(Segment(c[k], c[(k + 1) % 4]) for k in range(4))

    def contains(self, q: Point) -> bool:
        apex, u, v = self.frame
        rel = q - apex
        return self.s[0] <= rel.dot(u) <= self.s[1] and self.h[0] <= rel.dot(v) <= self.h[1]

    def box_gap(self, box: tuple[float, float, float, float]) -> float:
        """Distance from the part's bounding box to another box."""
        dx = max(box[0] - self.box[2], self.box[0] - box[2], 0.0)
        dy = max(box[1] - self.box[3], self.box[1] - box[3], 0.0)
        return math.hypot(dx, dy)


def dissection_check(coloring: Coloring, spec: DissectionSpec, tau: float = DEFAULT_TAU) -> DissectionCheckResult:
    """Prove the dissection pattern of spec against a coloring.

    Both rectangles of every ray, shrunk by 2*tau, must have one shade
    throughout: black on the ray's black side, white on the other.  The
    margin is 2*tau, not tau, because the tau-shrunk rectangles of the snake
    and of the slid-disk script put one edge exactly on the classifier's
    collar: the snake's boundary segment lies on the ray, at distance tau
    from that edge, and the slid disks' centres run at height 1 from the
    ray, at 1 -+ tau from it.  The samples of the former sampled check kept
    at least 1/60 of a side away from the tau-shrunk edges, so they all lie
    in the 2*tau-shrunk rectangle.

    A part R of a rectangle is decided by what coloring.source records,
    with the coloring's own margin t:

    - A region (a tuple of loops): R is uniform when no piece is within t of
      the filled R.  A piece whose start lies in R is at distance 0; any
      other is as far from R as from the nearest of R's edges
      (piece_distance), and a piece whose bounding box is farther than t
      from R's box is skipped.  R's centre, classified, gives the shade.
    - A DrawingScript: a stroke is IN on R when one convex primitive (point,
      segment, half-plane or plane) has all four corners closer than 1 - t,
      its neighbourhood being convex, and OUT when every primitive is
      farther than 1 + t from R.  By eval_script's last-cover rule R has the
      shade of the last IN stroke (white without one) when every later
      stroke is OUT; earlier strokes do not matter.

    A part that no rule decides is halved both ways, down to SPLIT_DEPTH
    (Snyder, Interval analysis for computer graphics, SIGGRAPH 1992).  A
    leaf there, and each rectangle of an opaque coloring (source None), is
    decided at its centre: a failure when the centre has another shade,
    undecided otherwise.  A part proved uniform in another shade is a
    failure too.  ok needs every rectangle proved.
    """
    check_tolerance(tau)
    if not (spec.b - spec.a > 4.0 * tau and spec.d > 4.0 * tau):
        raise InvalidParameters("the rectangles vanish when shrunk by 2*tau")
    t, source = coloring.tau, coloring.source
    calls = 0

    def clearance(part: _Part, boxed, bound: float) -> float:
        """A lower bound on the distance from the boxed pieces to the filled
        part: exact for a piece whose box is within bound of the part's box,
        the gap between the boxes for any other; a value at most bound as
        soon as one piece is that close."""
        nonlocal calls
        best = math.inf
        for piece, box in boxed:
            gap = part.box_gap(box)
            if gap > bound:
                best = min(best, gap)
                continue
            if part.contains(piece.p if isinstance(piece, SinglePoint) else piece.start_point):
                return 0.0
            for edge in part.edges:
                calls += 1
                best = min(best, piece_distance(piece, edge))
            if best <= bound:
                return best
        return best

    def corner_distance(part: _Part, prim, reduce) -> float:
        nonlocal calls
        calls += 4
        return reduce(dist_to_primitive(c, prim) for c in part.corners)

    def region_rule(part: _Part) -> tuple[Shade | None, float]:
        margin = clearance(part, pieces, t) - t
        return (coloring.classify(part.center) if margin > 0.0 else None), margin

    def script_rule(part: _Part) -> tuple[Shade | None, float]:
        margin = math.inf
        for k in range(len(strokes) - 1, -1, -1):
            convex, boxed, planes = strokes[k]
            for prim in convex:
                far = corner_distance(part, prim, max)
                if far < 1.0 - t:
                    return (Shade.BLACK if k % 2 == 0 else Shade.WHITE), min(margin, 1.0 - t - far)
            near = min([clearance(part, boxed, 1.0 + t)] + [corner_distance(part, p, min) for p in planes])
            if not near > 1.0 + t:
                return None, margin
            margin = min(margin, near - (1.0 + t))
        return Shade.WHITE, margin

    if isinstance(source, DrawingScript):
        rule = script_rule
        strokes = []
        for stroke in source.strokes:
            prims = stroke.centers.primitives
            strokes.append((
                [p for p in prims if not isinstance(p, Arc)],
                [(p, piece_bbox(p)) for p in prims if isinstance(p, (SinglePoint, Segment, Arc))],
                [p for p in prims if not isinstance(p, (SinglePoint, Segment, Arc))],
            ))
    elif source is not None:
        rule = region_rule
        pieces = [(piece, piece_bbox(piece)) for loop in source for piece in loop.pieces]
    else:
        rule = None

    proved: list[RectLeaf] = []
    failures: list[RectLeaf] = []
    undecided: list[RectLeaf] = []
    deepest = 0
    min_margin = math.inf
    for j in range(1, spec.n + 1):
        u = unit(spec.ray_angle(j))
        for side in (1, -1):
            frame = (spec.apex, u, u.rot90().scaled(side))
            want = Shade.BLACK if side == spec.black_side(j) else Shade.WHITE
            stack = [(spec.a + 2.0 * tau, spec.b - 2.0 * tau, 2.0 * tau, spec.d - 2.0 * tau, 0)]
            while stack:
                s0, s1, h0, h1, depth = stack.pop()
                deepest = max(deepest, depth)
                part = _Part(frame, s0, s1, h0, h1)
                shade, margin = rule(part) if rule else (None, math.inf)
                if shade is None and rule and depth < SPLIT_DEPTH:
                    sm, hm = 0.5 * (s0 + s1), 0.5 * (h0 + h1)
                    stack += [(a, b, c, d, depth + 1) for a, b in ((s0, sm), (sm, s1)) for c, d in ((h0, hm), (hm, h1))]
                    continue
                if shade is not None:
                    min_margin = min(min_margin, margin)
                got = shade or coloring.classify(part.center)
                leaf = RectLeaf(j, side, part.s, part.h, part.center, got, shade is not None)
                if got is not want:
                    failures.append(leaf)
                elif shade:
                    proved.append(leaf)
                else:
                    undecided.append(leaf)

    result = DissectionCheckResult(
        ok=not failures and not undecided,
        proved=tuple(proved),
        failures=tuple(failures),
        undecided=tuple(undecided),
        rectangles=2 * spec.n,
        kernel_calls=calls,
        depth=deepest,
        min_margin=min_margin,
    )
    logger.debug("dissection check: %d rectangles, %d leaves, %d kernel calls, depth %d, min margin %r, "
                 "%d undecided, %d failures", *result.counts().values())
    return result


def dissection_pattern_coloring(spec: DissectionSpec, tau: float = DEFAULT_TAU) -> Coloring:
    """The idealized coloring of a dissection pattern (white background).

    Points inside a ray's black rectangle are black, inside its white
    rectangle white, everything else white; rectangle edges within tau are
    boundary.  Used to verify abstract descent stages without a concrete
    target set.
    """

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

    return Coloring(classify, f"ideal {spec.n}-dissection pattern")


def undrawability_bound(n: int) -> float:
    """cot(pi/n): total n-dissection below this anchor distance obstructs drawing."""
    if n < 4 or n % 2 != 0:
        raise InvalidN(f"n must be even and >= 4, got {n}")
    return 1.0 / math.tan(math.pi / n)
