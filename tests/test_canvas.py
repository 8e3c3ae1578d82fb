import math
import random

import pytest

from diskdraw import (
    Arc,
    BoundaryPoint,
    CenterSet,
    Containment,
    DiskModel,
    DrawingScript,
    NonConvexInput,
    NonUnitNormal,
    Point,
    Shade,
    SinglePoint,
    Stroke,
    Tool,
    convex_polygon_script,
    eval_script,
    halfplane_center_set,
    nbhd_contains,
    reference_eval,
    stationary_number,
)

from helpers import random_point, random_script


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
        assert cs.dist(Point(0, 0)) == math.inf
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
        with pytest.raises(NonUnitNormal):
            halfplane_center_set(Point(0, 2), 0.0)


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
