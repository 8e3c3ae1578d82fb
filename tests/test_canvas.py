import math
import pickle
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskdraw import (
    DEFAULT_TAU,
    Arc,
    BoundaryPoint,
    CenterSet,
    Containment,
    DiskModel,
    DrawingScript,
    NonConvexInput,
    NonUnitNormal,
    OffsetHalfPlane,
    Point,
    Segment,
    Shade,
    SinglePoint,
    Stroke,
    Tool,
    WholePlane,
    convex_polygon_script,
    eval_script,
    halfplane_center_set,
    nbhd_contains,
    parse_script,
    reference_eval,
    sharp_ndissected_script,
    stationary_number,
)
from diskdraw.canvas import reach_box

from helpers import DIFF, benchmark_workloads, random_point, random_script
from oracles import eval_script_forward, stationary_number_enumerated, stroke_reach_box


def pencil(*pts):
    return Stroke(Tool.PENCIL, CenterSet.of_points(*pts))


def eraser(*pts):
    return Stroke(Tool.ERASER, CenterSet.of_points(*pts))


def script(*strokes, model=DiskModel.OPEN):
    return DrawingScript(model, tuple(strokes))


class TestNbhdContains:
    def test_inside(self):
        cs = CenterSet.of_points(Point(0, 0))
        assert nbhd_contains(Point(0.5, 0), cs) is Containment.IN

    def test_outside(self):
        cs = CenterSet.of_points(Point(0, 0))
        assert nbhd_contains(Point(2.5, 0), cs) is Containment.OUT

    def test_exact_unit_distance_is_boundary_in_both_models(self):
        cs = CenterSet.of_points(Point(0, 0))
        assert nbhd_contains(Point(1, 0), cs) is Containment.BOUNDARY
        for model in (DiskModel.OPEN, DiskModel.CLOSED):
            assert eval_script(Point(1, 0), script(pencil(Point(0, 0)), model=model)) is Shade.BOUNDARY

    def test_empty_center_set_covers_nothing(self):
        cs = CenterSet(())
        assert nbhd_contains(Point(0, 0), cs) is Containment.OUT
        assert nbhd_contains(Point(1e7, 1e7), cs) is Containment.OUT


class TestEvalScript:
    def test_single_pencil(self):
        s = script(pencil(Point(0, 0)))
        assert eval_script(Point(0.2, 0), s) is Shade.BLACK

    def test_erased_last(self):
        s = script(pencil(Point(0, 0)), eraser(Point(0.5, 0)))
        assert eval_script(Point(0.2, 0), s) is Shade.WHITE

    def test_three_stroke_chain(self):
        # recursive-evaluator oracle fixes all the expected values here
        s = script(pencil(Point(0, 0)), eraser(Point(2, 0)), pencil(Point(2.5, 0)))
        cases = {
            Point(1.2, 0): Shade.WHITE,  # covered only by the eraser
            Point(0.4, 0): Shade.BLACK,  # pencil 1, never erased
            Point(1.8, 0): Shade.BLACK,  # erased then re-penciled by stroke 3
            Point(5.0, 0): Shade.WHITE,  # never covered
        }
        for x, want in cases.items():
            assert reference_eval(x, s) is want
            assert eval_script(x, s) is want

    def test_early_boundary_is_overridden(self):
        # stroke 1 is boundary at x but stroke 3 definitely covers it
        s = script(pencil(Point(0, 0)), eraser(Point(9, 9)), pencil(Point(1.5, 0)))
        x = Point(1.0, 0)
        assert eval_script(x, s) is Shade.BLACK
        assert reference_eval(x, s) is Shade.BOUNDARY  # the reference stays conservative

    def test_trailing_boundary_propagates(self):
        s = script(pencil(Point(0, 0)), eraser(Point(1.2, 0)))
        assert eval_script(Point(0.2, 0), s) is Shade.BOUNDARY

    def test_parity_law_against_reference(self):
        rng = random.Random(99)
        checked = 0
        for _ in range(200):
            s = random_script(rng)
            for _ in range(50):
                x = random_point(rng, 4.0)
                ref = reference_eval(x, s)
                if ref is Shade.BOUNDARY:
                    continue
                assert eval_script(x, s) is ref
                checked += 1
        assert checked > 5000

    def test_monotone_extension(self):
        rng = random.Random(123)
        for _ in range(100):
            base = random_script(rng, max_strokes=5)
            extra_center = random_point(rng)
            for tool, keeps in ((Tool.PENCIL, Shade.BLACK), (Tool.ERASER, Shade.WHITE)):
                extended = DrawingScript.relaxed(
                    base.model,
                    tuple(base.strokes) + (Stroke(tool, CenterSet.of_points(extra_center)),),
                )
                for _ in range(20):
                    x = random_point(rng, 4.0)
                    before = eval_script(x, base)
                    after = eval_script(x, extended)
                    if before is keeps and after is not Shade.BOUNDARY:
                        assert after is keeps

    def test_model_containment(self):
        rng = random.Random(7)
        for _ in range(50):
            s_open = random_script(rng)
            s_closed = DrawingScript(DiskModel.CLOSED, s_open.strokes)
            for _ in range(40):
                x = random_point(rng, 4.0)
                a = eval_script(x, s_open)
                b = eval_script(x, s_closed)
                if a is Shade.BLACK:
                    assert b in (Shade.BLACK, Shade.BOUNDARY)


class TestStationaryNumber:
    def test_single_pencil(self):
        s = script(pencil(Point(0, 0)))
        assert stationary_number(Point(0.2, 0), s) == 1

    def test_erased_point(self):
        s = script(pencil(Point(0, 0)), eraser(Point(0.5, 0)), pencil(Point(9, 9)))
        assert stationary_number(Point(0.2, 0), s) == 2

    def test_never_covered_is_zero(self):
        s = script(pencil(Point(9, 9)))
        assert stationary_number(Point(0, 0), s) == 0

    def test_later_same_color_stroke_keeps_sn(self):
        s = script(pencil(Point(0, 0)), eraser(Point(9, 9)), pencil(Point(0.1, 0)))
        assert stationary_number(Point(0, 0), s) == 1

    def test_boundary_raises_when_it_matters(self):
        s = script(pencil(Point(0, 0)))
        with pytest.raises(BoundaryPoint):
            stationary_number(Point(1.0, 0), s)

    def test_boundary_point_names_its_stroke(self):
        # strokes 2 and 3 are boundary at x; only the eraser 2 lies on the
        # other side of sn = 1, and both the scan and the enumeration name it
        x = Point(0, 0)
        s = script(pencil(Point(0.5, 0)), eraser(Point(1.0, 0)), pencil(Point(0, 1.0)))
        with pytest.raises(BoundaryPoint) as err:
            stationary_number(x, s)
        assert (err.value.point, err.value.stroke) == (x, 2)
        assert str(err.value) == "stationary number of Point(x=0, y=0) depends on the boundary verdict of stroke 2"
        again = pickle.loads(pickle.dumps(err.value))
        assert (type(again), again.point, again.stroke, str(again)) == (BoundaryPoint, x, 2, str(err.value))
        with pytest.raises(BoundaryPoint) as err:
            stationary_number_enumerated(x, s)
        assert err.value.stroke == 2
        # with no stroke IN, the first boundary stroke met, the highest
        s = script(pencil(Point(1.0, 0)), eraser(Point(0, 1.0)))
        for query in (stationary_number, stationary_number_enumerated):
            with pytest.raises(BoundaryPoint) as err:
                query(x, s)
            assert err.value.stroke == 2

    def test_boundary_tolerated_when_irrelevant(self):
        # stroke 3 is boundary at x; as a same-parity stroke after the
        # stationary index it cannot change the answer
        s = script(pencil(Point(0, 0)), eraser(Point(9, 9)), pencil(Point(1.0, 0)))
        x = Point(0, 0)
        assert stationary_number(x, s) == 1

    def test_invariants_on_random_scripts(self):
        rng = random.Random(31)
        checked = 0
        for _ in range(150):
            s = random_script(rng)
            for _ in range(30):
                x = random_point(rng, 4.0)
                try:
                    sn = stationary_number(x, s)
                except BoundaryPoint:
                    continue
                final = eval_script(x, s)
                assert sn <= len(s.strokes)
                if sn == 0:
                    assert final is Shade.WHITE
                else:
                    want = Shade.BLACK if sn % 2 == 1 else Shade.WHITE
                    assert final is want
                    # no opposite-parity stroke after the stationary index covers x
                    for k in range(sn + 1, len(s.strokes) + 1):
                        if k % 2 != sn % 2:
                            v = nbhd_contains(x, s.strokes[k - 1].centers)
                            assert v is not Containment.IN
                checked += 1
        assert checked > 3000


    def test_boundary_cap_counts_only_the_suffix(self):
        # strokes 1-11 sit at distance exactly 1 from x; the eraser 12 and the
        # pencil 13 both cover x, so no resolution of 1-11 can matter
        x = Point(0, 0)
        ring = [pencil(Point(1, 0)) if k % 2 == 1 else eraser(Point(0, 1)) for k in range(1, 12)]
        s = script(*ring, eraser(Point(0.5, 0)), pencil(Point(0, 0.5)))
        assert [nbhd_contains(x, st.centers) for st in s.strokes[:11]] == [Containment.BOUNDARY] * 11
        assert stationary_number(x, s) == 13
        with pytest.raises(BoundaryPoint, match=r"^11 boundary strokes at Point\(x=0, y=0\)$"):
            stationary_number_enumerated(x, s)  # the whole-script cap of 10 boundary strokes
        assert stationary_number_enumerated(x, s, max_boundary=None) == 13

    def test_bad_tolerance_rejected_even_without_strokes(self):
        for query in (eval_script, stationary_number):
            for s in (script(), script(pencil(Point(0, 0)))):
                with pytest.raises(ValueError):
                    query(Point(0, 0), s, tau=0.0)


# Quarter-grid coordinates, shifted by exact offsets up to 1e6: a query placed
# at distance 1 from a point, an axis-parallel segment or an axis-normal
# half-plane is then exactly on its unit circle, and the verdict is BOUNDARY.
QUARTERS = st.integers(-12, 12).map(lambda k: k / 4.0)
OFFSETS = st.sampled_from([0.0, 2.5, -1e3, 1e6, -1e6])
AXES = [Point(1, 0), Point(0, 1), Point(-1, 0), Point(0, -1)]
# the default tolerance and the largest below check_tolerance's bound 1e-3
TAUS = [DEFAULT_TAU, 9.99e-4]


def extreme_point(prim, u):
    """The point of a point's, segment's or arc's covering box farthest along
    the axis direction u that lies nearest the primitive: a point, a segment
    end, or the point of the arc's circle in direction u."""
    if isinstance(prim, Arc):
        return prim.center + u.scaled(prim.radius)
    return max([prim.p] if isinstance(prim, SinglePoint) else [prim.a, prim.b], key=u.dot)


@st.composite
def point_queries(draw, where=None):
    """A script of 1 to 16 strokes over a pool of all five primitive kinds,
    with empty and repeated strokes, and a query point that is often on one
    primitive's unit circle or on the edge of a primitive's reach box (where
    picks one of "circle", "free" and "edge")."""
    ox, oy = draw(OFFSETS), draw(OFFSETS)

    def pt():
        return Point(ox + draw(QUARTERS), oy + draw(QUARTERS))

    def primitive():
        kind = draw(st.sampled_from(["point", "segment", "arc", "halfplane", "plane"]))
        if kind == "point":
            return SinglePoint(pt())
        if kind == "segment":
            a = pt()
            length = draw(st.integers(1, 12)) / 4.0
            b = draw(st.sampled_from([Point(a.x + length, a.y), Point(a.x, a.y - length), pt()]))
            return Segment(a, b) if a != b else SinglePoint(a)
        if kind == "arc":
            a0 = draw(st.integers(0, 7)) * math.pi / 4.0
            if draw(st.booleans()):
                sweep = draw(st.one_of(st.just(0.0), st.floats(0.2, 6.0)))
                radius = draw(st.sampled_from([0.25, 0.5, 1.0, 1.75]))
            else:  # a short arc of a big circle: its circle's box is far larger than the arc
                sweep, radius = draw(st.floats(1e-3, 0.05)), draw(st.sampled_from([6.0, 40.0]))
            return Arc(pt(), radius, a0, a0 + sweep, draw(st.booleans()))
        if kind == "halfplane":
            n = draw(st.sampled_from(AXES))
            return OffsetHalfPlane(n, n.x * ox + n.y * oy + draw(QUARTERS))
        return WholePlane()

    def on_unit_circle(prim):
        if isinstance(prim, SinglePoint):
            return prim.p + draw(st.sampled_from(AXES))
        if isinstance(prim, Segment):
            return prim.a - (prim.b - prim.a).normalized()
        if isinstance(prim, Arc):
            return prim.center + Point(math.cos(prim.start_angle), math.sin(prim.start_angle)).scaled(prim.radius + 1.0)
        if isinstance(prim, OffsetHalfPlane):
            n = prim.normal
            base = prim.offset - (n.x * ox + n.y * oy)
            return Point(ox, oy) + n.scaled(base) + n.rot90().scaled(draw(QUARTERS))
        return pt()

    def on_box_edge(prim):
        # a point on one side of the primitive's reach box, or a few ulps to
        # either side of it along the axis normal to that side; often level
        # with the primitive point that makes that side, so 1 + 1e-3 + m
        # from it
        box = reach_box(prim)
        if not all(map(math.isfinite, box)):
            return pt()
        side, u = draw(st.sampled_from(list(enumerate(AXES))))  # xmax, ymax, xmin, ymin
        edge = box[(side + 2) % 4]
        for _ in range(draw(st.integers(0, 3))):
            edge = math.nextafter(edge, draw(st.sampled_from([-math.inf, math.inf])))
        if draw(st.booleans()):
            level = extreme_point(prim, u)
        else:
            level = Point(*(lo + draw(st.floats(0.0, 1.0)) * (hi - lo) for lo, hi in zip(box[:2], box[2:])))
        return Point(edge, level.y) if side % 2 == 0 else Point(level.x, edge)

    pool = [primitive() for _ in range(draw(st.integers(1, 5)))]
    strokes: list[Stroke] = []
    for k in range(1, draw(st.integers(1, 16)) + 1):
        roll = draw(st.sampled_from(["new", "new", "empty", "repeat"]))
        if roll == "repeat" and strokes:
            centers = draw(st.sampled_from(strokes)).centers
        elif roll == "empty":
            centers = CenterSet(())
        else:
            centers = CenterSet(tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))))
        strokes.append(Stroke(Tool.PENCIL if k % 2 == 1 else Tool.ERASER, centers))
    target = draw(st.sampled_from(pool))
    where = where or draw(st.sampled_from(["circle", "circle", "circle", "free", "edge"]))
    used = [p for stroke in strokes for p in stroke.centers.primitives]
    if where == "circle":
        x = on_unit_circle(target)
    elif where == "edge" and used:
        x = on_box_edge(draw(st.sampled_from(used)))
    else:
        x = pt() + Point(draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5)))
    return DrawingScript(draw(st.sampled_from(DiskModel)), tuple(strokes)), x


def stationary_outcome(query, x, s, **kwargs):
    try:
        return query(x, s, **kwargs)
    except BoundaryPoint:
        return BoundaryPoint


class TestBackwardScanDifferential:
    """eval_script and stationary_number against the forward evaluations
    they replaced (tests/oracles.py)."""

    @DIFF
    @given(point_queries(), st.sampled_from(TAUS))
    def test_matches_forward_oracles(self, case, tau):
        s, x = case
        assert eval_script(x, s, tau) is eval_script_forward(x, s, tau)
        got = stationary_outcome(stationary_number, x, s, tau=tau)
        want = stationary_outcome(stationary_number_enumerated, x, s, tau=tau)
        if want is BoundaryPoint and got is not BoundaryPoint:
            # only the whole-script cap on boundary strokes may separate them;
            # without the cap the oracle must give the same number
            assert stationary_number_enumerated(x, s, tau, max_boundary=None) == got
        else:
            assert got == want

    def test_boundary_queries_are_generated(self):
        # the strategy reaches the collar: its first 200 cases put the query
        # on the unit circle of every kind of primitive but the plane
        seen = set()

        @settings(max_examples=200, derandomize=True, deadline=None)
        @given(point_queries())
        def collect(case):
            s, x = case
            seen.update(type(p).__name__ for stroke in s.strokes for p in stroke.centers.primitives
                        if abs(p.dist(x) - 1.0) <= DEFAULT_TAU)

        collect()
        assert {"SinglePoint", "Segment", "Arc", "OffsetHalfPlane"} <= seen

    def test_matches_on_random_scripts(self):
        rng = random.Random(2024)
        for _ in range(300):
            s = random_script(rng, max_strokes=12)
            for _ in range(20):
                x = random_point(rng, 4.0)
                assert eval_script(x, s) is eval_script_forward(x, s)
                assert stationary_outcome(stationary_number, x, s) == stationary_outcome(
                    stationary_number_enumerated, x, s)


def skipped(x, prim):
    """Whether the backward scans pass over the primitive at x on its reach box."""
    xmin, ymin, xmax, ymax = reach_box(prim)
    return not (xmin <= x.x <= xmax and ymin <= x.y <= ymax)


class TestReachBox:
    """The reach boxes against the distances the scans do not compute."""

    @settings(DIFF, max_examples=200)
    @given(point_queries(where="edge"))
    def test_a_skipped_primitive_is_far(self, case):
        s, x = case
        for stroke in s.strokes:
            prims = stroke.centers.primitives
            for prim in prims:
                if skipped(x, prim):
                    assert prim.dist_xy(x.x, x.y) > 1.0 + 1e-3
            if all(skipped(x, prim) for prim in prims):
                for tau in TAUS:
                    assert nbhd_contains(x, stroke.centers, tau) is Containment.OUT

    def test_edge_queries_are_generated(self):
        # the first 300 cases put queries just inside and just outside the
        # box of a primitive, at offsets up to 1e6
        inside = outside = 0
        scales = set()

        @settings(max_examples=300, derandomize=True, deadline=None)
        @given(point_queries())
        def collect(case):
            nonlocal inside, outside
            s, x = case
            for prim in {p for stroke in s.strokes for p in stroke.centers.primitives}:
                box = reach_box(prim)
                gap = min(abs(x.x - box[0]), abs(x.x - box[2]), abs(x.y - box[1]), abs(x.y - box[3]))
                if gap <= 4.0 * math.ulp(max(map(abs, box))):
                    outside += skipped(x, prim)
                    inside += not skipped(x, prim)
                    scales.add(max(abs(x.x), abs(x.y)) > 1e5)

        collect()
        assert inside and outside and scales == {False, True}

    @settings(DIFF, max_examples=200)
    @given(point_queries())
    def test_each_box_lies_in_its_strokes_box(self, case):
        # the per-primitive boxes refine the per-stroke union box the scans
        # tested before (tests/oracles.py)
        s, _ = case
        for stroke in s.strokes:
            union = stroke_reach_box(stroke.centers)
            for prim in stroke.centers.primitives:
                box = reach_box(prim)
                assert union[0] <= box[0] and union[1] <= box[1] and box[2] <= union[2] and box[3] <= union[3]

    def test_boxes(self):
        r = 1.0 + 1e-3 + 1e-7
        assert reach_box(SinglePoint(Point(0, 0))) == (-r, -r, r, r)
        assert reach_box(Segment(Point(0.5, 0), Point(0, 0.25))) == (-r, -r, 0.5 + r, 0.25 + r)
        r = 1.0 + 1e-3 + 1e-7 * 3.0
        assert reach_box(SinglePoint(Point(3, -1))) == (3.0 - r, -1.0 - r, 3.0 + r, -1.0 + r)
        # the stroke's union box is as wide as its widest primitive's r
        assert stroke_reach_box(CenterSet.of_points(Point(0, 0), Point(3, -1))) == (-r, -1.0 - r, 3.0 + r, r)
        # an arc's box is its whole circle's, however short the arc
        r = 1.0 + 1e-3 + 1e-7 * 12.0
        assert reach_box(Arc(Point(10, 0), 2.0, 0.0, 0.01)) == (8.0 - r, -2.0 - r, 12.0 + r, 2.0 + r)
        unbounded = (-math.inf, -math.inf, math.inf, math.inf)
        assert reach_box(OffsetHalfPlane(Point(0, 1), 0.0)) == unbounded
        assert reach_box(WholePlane()) == unbounded
        assert stroke_reach_box(CenterSet(())) == (math.inf, math.inf, -math.inf, -math.inf)

    def test_the_box_is_not_compared_hashed_or_printed(self):
        # the boxes live in the script's scan table, built by a query
        queried, fresh = script(pencil(Point(0, 0))), script(pencil(Point(0, 0)))
        eval_script(Point(5, 5), queried)
        assert queried._table is not None and fresh._table is None
        assert queried == fresh and hash(queried) == hash(fresh) and repr(queried) == repr(fresh)

    def test_an_emptied_box_skips_the_stroke(self):
        # the scans read the stored table; nbhd_contains and reference_eval
        # evaluate every primitive and still see the eraser
        s = script(pencil(Point(0, 0)), eraser(Point(0.2, 0), Point(5, 0)))
        x = Point(0.1, 0)
        assert eval_script(x, s) is Shade.WHITE and stationary_number(x, s) == 2
        (k, (near, far)), pencil_row = s._table  # the eraser's row comes first
        assert k == 2 and near[4] == SinglePoint(Point(0.2, 0)) and skipped(x, far[4])
        emptied = (math.inf, math.inf, -math.inf, -math.inf, near[4])
        object.__setattr__(s, "_table", ((k, (emptied, far)), pencil_row))
        assert eval_script(x, s) is Shade.BLACK and stationary_number(x, s) == 1
        assert nbhd_contains(x, s.strokes[1].centers) is Containment.IN
        assert reference_eval(x, s) is Shade.WHITE

    def test_a_query_computes_only_the_distances_it_can_reach(self, monkeypatch):
        # sharp-12 is one stroke of 12 segments; its union box holds every
        # point near any of them, so before each segment had its own box the
        # scans computed all 12 distances at the far end of the last segment
        s = sharp_ndissected_script(12)
        segments = s.strokes[0].centers.primitives
        assert len(s) == 1 and len(segments) == 12
        calls = 0
        dist_xy = Segment.dist_xy

        def counted(*args):
            nonlocal calls
            calls += 1
            return dist_xy(*args)

        monkeypatch.setattr(Segment, "dist_xy", counted)
        for seg in segments:
            x = seg.b + (seg.b - seg.a).normalized().rot90().scaled(0.5)
            calls = 0
            assert eval_script(x, s) is Shade.BLACK
            evals, calls = calls, 0
            assert stationary_number(x, s) == 1
            assert (evals, calls) == (1, 1), seg
            assert reference_eval(x, s) is Shade.BLACK
            assert not skipped(x, seg) and all(skipped(x, other) for other in segments if other is not seg)


class TestScanTable:
    def test_padding_has_no_row(self):
        first, second = pencil(Point(0, 0)), pencil(Point(1, 0), Point(2, 0))
        s = DrawingScript.relaxed(DiskModel.OPEN, [first, second])
        assert len(s) == 3 and s._table is None
        table = s.scan_table()
        assert tuple(row[0] for row in table) == (3, 1)
        assert table == tuple((k, tuple((*reach_box(p), p) for p in st.centers.primitives))
                              for k, st in ((3, second), (1, first)))
        assert s.scan_table() is table and s._table is table

    def test_a_shared_center_set_gives_each_row_its_own_index(self):
        shared = CenterSet.of_points(Point(0, 0), Point(0, 3))
        s = script(Stroke(Tool.PENCIL, shared), eraser(Point(5, 5)), Stroke(Tool.PENCIL, shared))
        t = script(pencil(Point(9, 9)), Stroke(Tool.ERASER, shared))
        assert tuple(row[0] for row in s.scan_table()) == (3, 2, 1)
        assert tuple(row[0] for row in t.scan_table()) == (2, 1)
        rows = (s.scan_table()[0][1], s.scan_table()[2][1], t.scan_table()[0][1])
        assert all(len(entries) == 2 for entries in rows)
        for i, prim in enumerate(shared.primitives):
            assert rows[0][i][4] is rows[1][i][4] is rows[2][i][4] is prim
        x = Point(0.1, 0)
        assert eval_script(x, s) is Shade.BLACK and stationary_number(x, s) == 1
        assert eval_script(x, t) is Shade.WHITE and stationary_number(x, t) == 2


class TestBackwardRule:
    # a one-point stroke at each distance from the query gives that verdict
    DISTANCE = {Containment.IN: 0.5, Containment.OUT: 3.0, Containment.BOUNDARY: 1.0}

    def test_matches_enumeration_on_every_verdict_vector(self):
        # every IN/OUT/BOUNDARY vector of length 1 to 8, against both
        # resolutions of every boundary stroke enumerated without a cap
        x = Point(0, 0)
        count = 0
        for n in range(1, 9):
            for verdicts in product(tuple(self.DISTANCE), repeat=n):
                s = script(*((pencil if k % 2 == 1 else eraser)(Point(self.DISTANCE[v], 0))
                             for k, v in enumerate(verdicts, start=1)))
                assert stationary_outcome(stationary_number, x, s) == stationary_outcome(
                    stationary_number_enumerated, x, s, max_boundary=None), verdicts
                count += 1
        assert count == 9840

    def test_no_cap_on_boundary_strokes(self):
        # a covering pencil at stroke 1 under eleven pencils at distance
        # exactly 1, with empty erasers between them: every resolution walks
        # down to stroke 1
        x = Point(0, 0)
        ring = [pencil(Point(1, 0)) if k % 2 == 1 else eraser() for k in range(3, 24)]
        s = script(pencil(Point(0.5, 0)), eraser(), *ring)
        assert [nbhd_contains(x, st.centers) for st in s.strokes[2::2]] == [Containment.BOUNDARY] * 11
        assert stationary_number(x, s) == 1
        assert stationary_number_enumerated(x, s, max_boundary=None) == 1


class TestBenchmarkQueries:
    """The stationary numbers of the benchmark's membership workload, seed 1.

    The benchmark's own check reads only their parity, so a wrong number of
    the right parity would pass it; here each one is compared in full."""

    @pytest.fixture(scope="class")
    def scenes(self):
        return benchmark_workloads().membership_inputs(1)[:250]

    def test_match_enumeration(self, scenes):
        count = 0
        for scene in scenes:
            s = parse_script(scene.text)
            for qx, qy in scene.queries:
                x = Point(qx, qy)
                assert stationary_outcome(stationary_number, x, s) == stationary_outcome(
                    stationary_number_enumerated, x, s, max_boundary=None), (scene.text, x)
                count += 1
        assert count == 8000

    def test_distance_work(self, scenes, monkeypatch):
        # primitive distances (dist_xy calls) of the two backward scans: 18181
        # and 31185 when a reach box skipped whole strokes (the same as their
        # dist calls before the scan table), in 10237 and 17813 strokes
        # evaluated, and 30173 and 55130 strokes before any box skipped one
        calls = 0

        def counting(dist_xy):
            def counted(*args):
                nonlocal calls
                calls += 1
                return dist_xy(*args)
            return counted

        for kind in (SinglePoint, Segment, Arc, OffsetHalfPlane, WholePlane):
            monkeypatch.setattr(kind, "dist_xy", counting(kind.dist_xy))
        evals = stationary = 0
        for scene in scenes:
            s = parse_script(scene.text)
            for qx, qy in scene.queries:
                x = Point(qx, qy)
                calls = 0
                eval_script(x, s)
                evals += calls
                calls = 0
                stationary_outcome(stationary_number, x, s)
                stationary += calls
        assert (evals, stationary) == (10222, 17773)


class TestRelaxedNormalization:
    def test_inserts_dummies(self):
        strokes = (pencil(Point(0, 0)), pencil(Point(1, 0)))
        s = DrawingScript.relaxed(DiskModel.OPEN, strokes)
        assert len(s.strokes) == 3
        assert [st.tool for st in s.strokes] == [Tool.PENCIL, Tool.ERASER, Tool.PENCIL]

    def test_alternation_enforced_otherwise(self):
        with pytest.raises(ValueError):
            DrawingScript(DiskModel.OPEN, (eraser(Point(0, 0)),))

    def test_dummy_has_no_local_effect(self):
        strokes = (pencil(Point(0, 0)), pencil(Point(0.5, 0)))
        s = DrawingScript.relaxed(DiskModel.OPEN, strokes)
        assert eval_script(Point(0.3, 0), s) is Shade.BLACK


class TestHalfplane:
    def test_membership_examples(self):
        cs = halfplane_center_set(Point(0, 1), 0.0)
        assert nbhd_contains(Point(0, 0.5), cs) is Containment.IN
        assert nbhd_contains(Point(0, -0.1), cs) is Containment.OUT
        assert nbhd_contains(Point(0, 0), cs) is Containment.BOUNDARY

    def test_non_unit_normal(self):
        # the primitive checks its normal, for the builder and for scenes alike
        for build in (halfplane_center_set, OffsetHalfPlane):
            with pytest.raises(NonUnitNormal, match=r"^half-plane normal must have unit length \(tolerance 1e-12\)$"):
                build(Point(0, 2), 0.0)


def random_convex_polygon(rng, max_vertices=8):
    while True:
        m = rng.randint(3, max_vertices)
        cx, cy = rng.uniform(-1, 1), rng.uniform(-1, 1)
        rx, ry = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(m))
        verts = [Point(cx + rx * math.cos(a), cy + ry * math.sin(a)) for a in angles]
        try:
            return verts, convex_polygon_script(verts, DiskModel.OPEN)
        except NonConvexInput:
            continue


def signed_inset(verts, p):
    """Min signed distance to the edge lines (positive inside, ccw polygon)."""
    worst = math.inf
    m = len(verts)
    for i in range(m):
        a, b = verts[i], verts[(i + 1) % m]
        e = b - a
        worst = min(worst, e.cross(p - a) / e.norm())
    return worst


class TestConvexPolygonScript:
    def test_unit_square(self):
        verts = [Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)]
        s = convex_polygon_script(verts, DiskModel.OPEN)
        assert len(s.strokes) == 2
        assert eval_script(Point(0.5, 0.5), s) is Shade.BLACK
        assert eval_script(Point(5, 5), s) is Shade.WHITE

    def test_non_convex_rejected(self):
        verts = [Point(0, 0), Point(2, 0), Point(1, 0.1), Point(0, 2)]
        with pytest.raises(NonConvexInput):
            convex_polygon_script(verts, DiskModel.OPEN)

    def test_clockwise_rejected(self):
        verts = [Point(0, 0), Point(0, 1), Point(1, 1), Point(1, 0)]
        with pytest.raises(NonConvexInput):
            convex_polygon_script(verts, DiskModel.OPEN)

    def test_matches_sign_oracle(self):
        rng = random.Random(17)
        for _ in range(10):
            verts, s = random_convex_polygon(rng)
            for _ in range(800):
                p = random_point(rng, 3.5)
                inset = signed_inset(verts, p)
                if abs(inset) < 1e-7:
                    continue
                want = Shade.BLACK if inset > 0 else Shade.WHITE
                assert eval_script(p, s) is want
