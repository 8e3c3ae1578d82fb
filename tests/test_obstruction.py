import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diskdraw import (
    Arc,
    BoundaryPoint,
    CenterSet,
    Coloring,
    DiskModel,
    DrawingScript,
    InvalidN,
    InvalidParameters,
    MisclassifiedPoint,
    Point,
    RadiiTooLarge,
    Shade,
    StageFamily,
    StageParams,
    Stroke,
    Tool,
    Verdict,
    chessboard_coloring,
    chessboard_stages,
    default_dissection_L,
    descent_verify,
    dissection_pattern_coloring,
    dissection_check,
    dissection_stages,
    dissection_wedge_checks,
    encircles,
    escape_radius,
    five_circle_radii,
    script_coloring,
    stationary_number,
    undrawability_bound,
)
from diskdraw.constructions import (PiecewisePath, build_snake, region_coloring, sharp_dissection_spec,
                                    sharp_ndissected_script, snake_coloring, snake_dissection_spec)
from diskdraw.geometry import DEFAULT_TAU, SinglePoint, unit
from diskdraw.obstruction import SPLIT_DEPTH, DissectionSpec

from helpers import DIFF, random_point, random_script, rigid_motion, scaled_loop
from oracles import dissection_sampled
from test_render import arc_loops, convex_polygons


def stage1_points(r=0.1, theta=math.radians(0.5)):
    fam = chessboard_stages(r, theta, 2)
    return fam[0], fam[1]


def regular_polygon(k, radius):
    return [Point(radius * math.cos(2 * math.pi * i / k), radius * math.sin(2 * math.pi * i / k)) for i in range(k)]


class TestEncircles:
    def test_empty_target_vacuous(self):
        assert encircles([Point(0, 0)], []) is Verdict.YES
        assert encircles([], []) is Verdict.YES

    def test_empty_obstacles(self):
        assert encircles([], [Point(0, 0)]) is Verdict.NO

    def test_chessboard_blacks_encircle_inner_whites(self):
        s1, s2 = stage1_points()
        assert encircles(s1.blacks, s2.whites) is Verdict.YES
        assert encircles(s1.whites, s2.blacks) is Verdict.YES

    def test_chessboard_verdict_matches_grid_oracle(self):
        # brute-force quantifier over unit-disk centers: every center whose
        # disk meets the inner whites must also meet the outer blacks
        s1, s2 = stage1_points()
        xs = np.linspace(-1.1, 1.1, 441)
        gx, gy = np.meshgrid(xs, xs)
        d_t = np.full(gx.shape, np.inf)
        for p in s2.whites:
            np.minimum(d_t, np.hypot(gx - p.x, gy - p.y), out=d_t)
        d_s = np.full(gx.shape, np.inf)
        for p in s1.blacks:
            np.minimum(d_s, np.hypot(gx - p.x, gy - p.y), out=d_s)
        violating = (d_t < 1.0 - 1e-6) & (d_s >= 1.0)
        assert not violating.any()

    def test_coincident_target_is_boundary(self):
        # clearance is exactly 1, and clearance >= 1 - tau rules out YES
        assert encircles([Point(0, 0)], [Point(0, 0)]) is Verdict.BOUNDARY

    def test_far_target_not_encircled(self):
        s1, _ = stage1_points()
        assert encircles(s1.blacks, [Point(5, 0)]) is Verdict.NO

    def test_union_closure(self):
        rng = random.Random(21)
        for _ in range(15):
            configs = []
            for _ in range(2):
                c = random_point(rng, 2.0)
                ring = [
                    Point(c.x + 0.3 * math.cos(a), c.y + 0.3 * math.sin(a))
                    for a in np.linspace(0, 2 * math.pi, 13)[:-1]
                ]
                targets = [
                    Point(c.x + rng.uniform(-0.05, 0.05), c.y + rng.uniform(-0.05, 0.05))
                    for _ in range(3)
                ]
                assert encircles(ring, targets) is Verdict.YES
                configs.append((ring, targets))
            (s1, t1), (s2, t2) = configs
            assert encircles(s1 + s2, t1 + t2) is Verdict.YES

    def test_rigid_motion_equivariance(self):
        rng = random.Random(33)
        s1, s2 = stage1_points()
        for _ in range(5):
            move = rigid_motion(rng.uniform(0, 2 * math.pi), random_point(rng, 5.0))
            assert encircles([move(p) for p in s1.blacks], [move(p) for p in s2.whites]) is Verdict.YES
            far = move(Point(5, 0))
            assert encircles([move(p) for p in s1.blacks], [far]) is Verdict.NO


class TestEscapeRadius:
    def test_chessboard_matches_grid_oracle_and_limit(self):
        s1, s2 = stage1_points()
        esc = escape_radius(s1.blacks, s2.whites)
        # brute-force oracle: max |x - t| over the region closer to t than to
        # any black, sampled on a fine grid
        xs = np.linspace(-0.2, 0.2, 4001)
        gx, gy = np.meshgrid(xs, xs)
        d_s = np.full(gx.shape, np.inf)
        for p in s1.blacks:
            np.minimum(d_s, np.hypot(gx - p.x, gy - p.y), out=d_s)
        oracle = 0.0
        for t in s2.whites:
            d_t = np.hypot(gx - t.x, gy - t.y)
            oracle = max(oracle, float(d_t[d_t <= d_s].max()))
        assert esc >= oracle - 1e-12
        assert esc <= oracle + 5e-4
        limit = math.sqrt(10.0) * 0.1 / 4.0
        assert abs(esc - limit) / limit < 0.1

    def test_unbounded_when_target_outside_hull(self):
        square = [Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)]
        assert escape_radius(square, [Point(2, 0.5)]) == math.inf
        assert escape_radius(square[:2], [Point(0.5, 0.1)]) == math.inf

    def test_regular_12gon_center(self):
        # the center's cell is cut out by its bisectors with the vertices, at
        # distance 1/2, so its corners sit at 1 / (2 cos(pi/12))
        esc = escape_radius(regular_polygon(12, 1.0), [Point(0, 0)])
        assert abs(esc - 1.0 / (2.0 * math.cos(math.pi / 12))) < 1e-12

    def test_finite_escape_below_one_does_not_certify(self):
        # escape radius >= 1 rules out encirclement; the converse fails
        ring = regular_polygon(12, 1.2)
        esc = escape_radius(ring, [Point(0, 0)])
        assert abs(esc - 1.2 / (2.0 * math.cos(math.pi / 12))) < 1e-12
        assert esc == pytest.approx(0.6212, abs=1e-4)
        assert encircles(ring, [Point(0, 0)]) is Verdict.NO

    def test_scales_exactly_with_similarity(self):
        s1, s2 = stage1_points()
        esc1 = escape_radius(s1.blacks, s2.whites)
        half = escape_radius(
            [p.scaled(0.5) for p in s1.blacks], [p.scaled(0.5) for p in s2.whites]
        )
        assert half == esc1 * 0.5


class TestChessboardStages:
    def test_first_black_point(self):
        stages = chessboard_stages(0.1, math.radians(0.5), 1)
        b1a = stages[0].blacks[0]
        assert b1a.x == pytest.approx(0.0999962, abs=5e-8)
        assert b1a.y == pytest.approx(0.0008727, abs=5e-8)

    def test_stages_scale_exactly_by_half(self):
        stages = chessboard_stages(0.1, math.radians(0.5), 3)
        for a, b in zip(stages, stages[1:]):
            for p, q in zip(a.blacks + a.whites, b.blacks + b.whites):
                assert q.x == p.x * 0.5 and q.y == p.y * 0.5

    def test_all_depth10_points_classify(self):
        # classification is enforced at construction; a sign-based check is
        # the independent oracle here
        stages = chessboard_stages(0.1, math.radians(0.5), 10)
        for fam in stages:
            for p in fam.blacks:
                assert p.x * p.y > 0
            for p in fam.whites:
                assert p.x * p.y < 0

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameters):
            chessboard_stages(1.5, 0.01, 3)
        with pytest.raises(InvalidParameters):
            chessboard_stages(0.1, 1.0, 3)
        with pytest.raises(InvalidParameters):
            chessboard_stages(0.1, 0.01, 0)


class TestDescentVerify:
    def test_chessboard_depth10_valid(self):
        stages = chessboard_stages(0.1, math.radians(0.5), 10)
        cert = descent_verify(chessboard_coloring(1.0), stages)
        assert cert.valid
        clearances = cert.enc_clearances()
        assert all(c < 1.0 for c in clearances)
        ratios = [b / a for a, b in zip(clearances, clearances[1:])]
        assert all(abs(r - 0.5) < 1e-6 for r in ratios)

    def test_single_stage_trivially_valid(self):
        stages = chessboard_stages(0.1, math.radians(0.5), 1)
        cert = descent_verify(chessboard_coloring(1.0), stages)
        assert cert.valid
        assert cert.enc_clearances() == []

    def test_recolored_point_rejected(self):
        stages = chessboard_stages(0.1, math.radians(0.5), 2)
        bad = StageFamily(
            blacks=stages[0].blacks + (stages[0].whites[0],),  # a white point mislabeled
            whites=stages[0].whites[1:],
            stage_index=1,
        )
        with pytest.raises(MisclassifiedPoint):
            descent_verify(chessboard_coloring(1.0), [bad, stages[1]])

    def test_boundary_point_rejected(self):
        fam = StageFamily(blacks=(Point(0.5, 0.0),), whites=(), stage_index=1)
        with pytest.raises(BoundaryPoint):
            descent_verify(chessboard_coloring(1.0), [fam])

    def test_failed_encirclement_is_reported(self):
        coloring = chessboard_coloring(1.0)
        near = StageFamily((Point(0.5, 0.5),), (Point(0.5, -0.5),), 1)
        far = StageFamily((Point(0.6, 0.6),), (Point(0.6, -0.6),), 2)
        cert = descent_verify(coloring, [near, far])
        assert not cert.valid
        assert [c.verdict for c in cert.checks if c.kind == "enc"] == [Verdict.NO]

    def test_report_line_format(self):
        stages = chessboard_stages(0.1, math.radians(0.5), 2)
        cert = descent_verify(chessboard_coloring(1.0), stages)
        lines = [c.line() for c in cert.checks]
        assert any(line.startswith("stage=1 kind=colors verdict=yes") for line in lines)
        enc = [line for line in lines if "kind=enc" in line]
        assert len(enc) == 1
        assert "verdict=yes" in enc[0] and "clearance=" in enc[0]


class TestLemmaDescentSoundness:
    def test_max_sn_strictly_decreases_on_random_scripts(self):
        # On any drawable coloring, an encircling family of one color strictly
        # dominates the stationary numbers of the opposite-color family it
        # encircles.  Random base scripts get an isolating pencil+eraser tail
        # making the premise checkable by construction.
        rng = random.Random(2024)
        verified = 0
        for _ in range(50):
            base = random_script(rng, max_strokes=5)
            p = random_point(rng, 2.0)
            tail = (
                Stroke(Tool.PENCIL, CenterSet.of_points(p)),
                Stroke(Tool.ERASER, CenterSet((Arc(p, 1.05, 0.0, 0.0),))),
            )
            s = DrawingScript.relaxed(base.model, tuple(base.strokes) + tail)
            coloring = script_coloring(s)
            ring_r = rng.uniform(0.15, 0.5)
            ring = [
                Point(p.x + ring_r * math.cos(a), p.y + ring_r * math.sin(a))
                for a in np.linspace(0, 2 * math.pi, 9)[:-1]
            ]
            if coloring.classify(p) is not Shade.BLACK:
                continue
            if any(coloring.classify(q) is not Shade.WHITE for q in ring):
                continue
            if encircles(ring, [p]) is not Verdict.YES:
                continue
            try:
                sn_ring = max(stationary_number(q, s) for q in ring)
                sn_p = stationary_number(p, s)
            except BoundaryPoint:
                continue
            assert sn_ring > sn_p
            verified += 1
        assert verified >= 40


class TestFiveCircleRadii:
    def test_reference_values(self):
        params = StageParams(n=12, L=3.0, s=1e-3)
        radii = five_circle_radii(params)
        assert params.t == pytest.approx(1e-3**1.5, rel=1e-15)
        assert radii.r_a == pytest.approx((params.s**2 + params.t**2) / (2 * params.t), rel=1e-12)
        assert radii.r_a == pytest.approx(0.0158, abs=2e-4)
        limit = 3.0 * math.tan(math.pi / 12.0)  # 0.8038, approached from above
        assert radii.r_d == pytest.approx(limit, abs=2e-2)
        assert radii.r_e == pytest.approx(limit, abs=2e-2)
        assert radii.r_c < radii.r_d

    def test_limits_monotone(self):
        L = 3.0
        limit = L * math.tan(math.pi / 12.0)
        dev_d, dev_e, r_as = [], [], []
        for s in (1e-2, 1e-3, 1e-4):
            radii = five_circle_radii(StageParams(n=12, L=L, s=s))
            dev_d.append(abs(radii.r_d - limit))
            dev_e.append(abs(radii.r_e - limit))
            r_as.append(radii.r_a)
        assert dev_d[0] > dev_d[1] > dev_d[2]
        assert dev_e[0] > dev_e[1] > dev_e[2]
        assert r_as[0] > r_as[1] > r_as[2]  # tends to zero

    def test_closed_forms_track_exact_circumcircles(self):
        # the closed forms use half-base bookkeeping whose residual is
        # quadratic in the offset scale; check against exact circumcircles
        from diskdraw import circumcircle3
        from diskdraw.geometry import unit

        for s in (1e-2, 1e-3):
            params = StageParams(n=12, L=3.0, s=s)
            alpha = math.pi / 12.0
            u1 = unit(alpha)
            n1 = u1.rot90()
            o1 = u1.scaled(params.L)
            o2 = Point(o1.x, -o1.y)
            w1p = u1.scaled(params.L + params.s) + n1.scaled(params.t)
            radii = five_circle_radii(params)
            exact_d = circumcircle3(w1p, o1, o2).radius
            assert radii.r_d == pytest.approx(exact_d, abs=10.0 * s)

    def test_invalid_params(self):
        with pytest.raises(InvalidParameters):
            StageParams(n=11, L=3.0, s=1e-3)
        with pytest.raises(InvalidParameters):
            StageParams(n=12, L=3.0, s=1.5)  # t = s^1.5 > s
        with pytest.raises(InvalidParameters):
            StageParams(n=12, L=3.0, s=-0.1)  # t = s^1.5 is not real


class TestDissectionStages:
    def setup_method(self):
        self.params = StageParams(n=12, L=3.0, s=1e-3)
        self.apex = Point(0.0, 0.0)
        self.spec = DissectionSpec(
            apex=self.apex, n=12, a=2.99, b=3.01, d=0.01, phase=0.0, first_orientation="ccw"
        )

    def test_stage0_points_near_anchors(self):
        stages = dissection_stages(self.params, self.spec, 2)
        u = params_u = math.hypot(self.params.s, self.params.t)
        o1 = Point(3.0, 0.0)
        fam = stages[0]
        near = [p for p in fam.blacks + fam.whites if p.distance_to(o1) <= 2 * params_u]
        assert len(near) == 4  # one black pair and one white pair on ray 1

    def test_rotation_swaps_colors(self):
        stages = dissection_stages(self.params, self.spec, 0)
        fam = stages[0]
        rot = rigid_motion(2.0 * math.pi / 12.0, Point(0, 0))
        rotated_blacks = {(round(rot(p).x, 9), round(rot(p).y, 9)) for p in fam.blacks[0:2]}
        whites_ray2 = {(round(p.x, 9), round(p.y, 9)) for p in fam.whites[2:4]}
        assert rotated_blacks == whites_ray2

    def test_union_families_encircle(self):
        stages = dissection_stages(self.params, self.spec, 1)
        s0 = stages[0].blacks + stages[0].whites
        s1 = stages[1].blacks + stages[1].whites
        assert encircles(s0, s1) is Verdict.YES

    def test_wedge_case_split(self):
        stages = dissection_stages(self.params, self.spec, 1)
        checks = dissection_wedge_checks(stages, self.spec)
        assert len(checks) == 12
        assert all(v is Verdict.YES for _, _, v in checks)

    def test_wedge_case_split_reads_the_spec_orientation(self):
        cw = DissectionSpec(apex=self.apex, n=12, a=2.99, b=3.01, d=0.01, phase=0.0, first_orientation="cw")
        stages = dissection_stages(self.params, cw, 1)
        ccw_stages = dissection_stages(self.params, self.spec, 1)
        assert stages[0].blacks == ccw_stages[0].whites  # mirrored about every ray
        assert all(v is Verdict.YES for _, _, v in dissection_wedge_checks(stages, cw))
        # the case split of the ccw layout does not hold for the cw families
        assert all(v is not Verdict.YES for _, _, v in dissection_wedge_checks(stages, self.spec))

    def test_ray_count_must_match(self):
        with pytest.raises(InvalidParameters):
            dissection_stages(StageParams(n=10, L=3.0, s=1e-3), self.spec, 1)

    def test_radii_too_large_rejected(self):
        with pytest.raises(RadiiTooLarge):
            dissection_stages(StageParams(n=12, L=4.0, s=1e-3), self.spec, 1)

    def test_radii_within_tau_of_one_rejected(self):
        # the largest critical radius is within tau below 1: not definitely
        # smaller than a unit disk, so no stages are built
        params = StageParams(n=12, L=3.698018215596676, s=1e-3)
        radii = five_circle_radii(params)
        assert 1.0 - DEFAULT_TAU <= max(radii.all_values()) < 1.0
        assert not radii.below_one(DEFAULT_TAU)
        with pytest.raises(RadiiTooLarge):
            dissection_stages(params, self.spec, 1)

    def test_descent_against_pattern_coloring(self):
        stages = dissection_stages(self.params, self.spec, 3)
        cert = descent_verify(dissection_pattern_coloring(self.spec), stages)
        assert cert.valid


def local_coordinates(spec, leaf, q):
    """(s, h) of q in the frame of the leaf's ray and side."""
    u = unit(spec.ray_angle(leaf.ray))
    rel = q - spec.apex
    return rel.dot(u), leaf.side * u.cross(rel)


def assert_witnesses_in_their_rectangles(spec, coloring, leaves, tau=DEFAULT_TAU):
    for leaf in leaves:
        s, h = local_coordinates(spec, leaf, leaf.witness)
        assert spec.a + 2 * tau < s < spec.b - 2 * tau and 2 * tau < h < spec.d - 2 * tau
        assert leaf.s[0] <= s <= leaf.s[1] and leaf.h[0] <= h <= leaf.h[1]
        assert coloring.classify(leaf.witness) is leaf.got


class TestDissectionSampleCheck:
    """The dissection check on the chessboard and on colorings that fail it."""

    spec = DissectionSpec(apex=Point(0, 0), n=4, a=0.05, b=0.95, d=0.9, phase=0.0, first_orientation="ccw")

    def test_chessboard_remark(self):
        result = dissection_check(chessboard_coloring(1.0), self.spec)
        assert result
        assert len(result.proved) == 8 and result.depth == 0

    def test_all_white_fails(self):
        blank = Coloring(lambda p: Shade.WHITE, "all white")
        result = dissection_check(blank, self.spec)
        assert not result
        # an opaque coloring is one leaf per rectangle, decided at its centre
        assert result.counts()["leaves"] == 8 and not result.proved
        assert [(leaf.ray, leaf.side) for leaf in result.failures] == [(1, 1), (2, -1), (3, 1), (4, -1)]
        assert all(leaf.got is Shade.WHITE and not leaf.proved for leaf in result.failures)
        assert len(result.undecided) == 4
        assert_witnesses_in_their_rectangles(self.spec, blank, result.failures)

    def test_wrong_orientation_fails(self):
        spec = DissectionSpec(apex=Point(0, 0), n=4, a=0.05, b=0.95, d=0.9, phase=0.0, first_orientation="cw")
        coloring = chessboard_coloring(1.0)
        result = dissection_check(coloring, spec)
        assert not result
        # every rectangle is proved uniform, in the other shade
        assert len(result.failures) == 8 and all(leaf.proved for leaf in result.failures)
        for leaf in result.failures:
            want = Shade.BLACK if leaf.side == spec.black_side(leaf.ray) else Shade.WHITE
            assert leaf.got is not want
        assert_witnesses_in_their_rectangles(spec, coloring, result.failures)


def leaf_samples(spec, leaf, rng, count=4):
    """The leaf's centre and `count` random points of it."""
    u = unit(spec.ray_angle(leaf.ray))
    v = u.rot90().scaled(leaf.side)
    out = [leaf.witness]
    for _ in range(count):
        s, h = rng.uniform(*leaf.s), rng.uniform(*leaf.h)
        out.append(spec.apex + u.scaled(s) + v.scaled(h))
    return out


def assert_agrees_with_sampler(coloring, spec, seed, tau=DEFAULT_TAU):
    """No part proved uniform holds a sample of another shade, every failure
    witness has the shade reported, and a rectangle proved whole has no
    failing sample of the former sampled check on the 2*tau-shrunk
    rectangle (nor does a rectangle with a failing sample get proved)."""
    result = dissection_check(coloring, spec, tau)
    rng = random.Random(seed)
    for leaf in result.proved + result.failures:
        if leaf.proved:
            assert all(coloring.classify(q) is leaf.got for q in leaf_samples(spec, leaf, rng)), leaf
    assert_witnesses_in_their_rectangles(spec, coloring, result.failures + result.undecided, tau)
    open_rects = {(leaf.ray, leaf.side) for leaf in result.failures + result.undecided}
    sampled = {(ray, side) for ray, side, _, _ in dissection_sampled(coloring, spec, 25, 2 * tau)}
    assert not sampled - open_rects
    assert result.ok == (not open_rects)
    return result


@st.composite
def grazing_specs(draw, loop, scale):
    """A spec whose first ray starts on a piece of the loop and runs along
    its tangent there, turned by 0, +-tau, or a small random angle, so that
    one rectangle of that ray grazes the piece; lengths are in units of
    scale."""
    piece = draw(st.sampled_from(loop.pieces))
    f = draw(st.floats(0.0, 1.0))
    tangent = piece.tangent_at(f)
    turn = draw(st.sampled_from([0.0, DEFAULT_TAU, -DEFAULT_TAU])) if draw(st.booleans()) else draw(st.floats(-0.1, 0.1))
    a = scale * draw(st.floats(0.0, 0.3))
    return DissectionSpec(apex=piece.point_at(f), n=draw(st.sampled_from([2, 4])), a=a,
                          b=a + scale * draw(st.floats(0.01, 0.5)), d=scale * draw(st.floats(0.01, 0.5)),
                          phase=math.atan2(tangent.y, tangent.x) + turn,
                          first_orientation=draw(st.sampled_from(["ccw", "cw"])))


class TestDissectionCheck:
    def test_snake_proves_every_rectangle_at_depth_0(self):
        geom = build_snake(1.001)
        result = dissection_check(snake_coloring(geom), snake_dissection_spec(geom))
        counts = result.counts()
        assert result.ok and len(result.proved) == 24
        assert (counts["rectangles"], counts["leaves"], counts["depth"]) == (24, 24, 0)
        assert counts["undecided"] == counts["failures"] == 0
        assert 0.0 < counts["min_margin"] < 2 * DEFAULT_TAU

    def test_sharp_12_proves_every_rectangle_at_depth_0(self):
        result = dissection_check(script_coloring(sharp_ndissected_script(12)), sharp_dissection_spec(12))
        assert result.ok and len(result.proved) == 24
        assert (result.depth, len(result.undecided), len(result.failures)) == (0, 0, 0)

    @pytest.mark.parametrize("which", ["snake", "sharp"])
    def test_the_tau_shrunk_edge_sits_on_the_collar(self, which):
        # shrunk by tau only (the coloring's margin is 2x the check's), one
        # edge of a rectangle per ray lies on the collar and is not proved
        if which == "snake":
            geom = build_snake(1.001)
            coloring, spec = snake_coloring(geom, 2 * DEFAULT_TAU), snake_dissection_spec(geom)
        else:
            coloring, spec = script_coloring(sharp_ndissected_script(12), 2 * DEFAULT_TAU), sharp_dissection_spec(12)
        result = dissection_check(coloring, spec, DEFAULT_TAU)
        assert not result and not result.failures
        assert {leaf.ray for leaf in result.undecided} == set(range(1, 13))
        assert result.depth == SPLIT_DEPTH

    def test_crossed_rectangle_is_never_proved(self):
        # the four rectangles in the black quadrants run from 0.5 to 1.5
        # along their ray and cross the square's far edge at 1; the four in
        # the white quadrants stay white
        coloring = chessboard_coloring(1.0)
        spec = DissectionSpec(apex=Point(0, 0), n=4, a=0.5, b=1.5, d=0.9, phase=0.0, first_orientation="ccw")
        result = dissection_check(coloring, spec)
        assert not result
        crossed = {(leaf.ray, leaf.side) for leaf in result.failures + result.undecided}
        assert crossed == {(1, 1), (2, -1), (3, 1), (4, -1)}
        assert result.depth == SPLIT_DEPTH
        whole = [(leaf.ray, leaf.side) for leaf in result.proved if leaf.s[1] - leaf.s[0] > 0.9]
        assert sorted(whole) == [(1, -1), (2, 1), (3, -1), (4, 1)]
        for leaf in result.proved:
            assert coloring.classify(leaf.witness) is leaf.got
        assert_witnesses_in_their_rectangles(spec, coloring, result.failures + result.undecided)

    def test_island_inside_a_rectangle_is_not_missed(self):
        # a small disk region lies inside the white rectangle (1, +1) above
        # the x-axis, farther than tau from its four edges; only its start
        # point being inside shows it.  The other white rectangle, (2, -1),
        # on the ccw side of the ray along -x, is white throughout.
        island = PiecewisePath((Arc(Point(0.5, 0.5), 0.1, 0.0, math.pi), Arc(Point(0.5, 0.5), 0.1, math.pi, 0.0)))
        coloring = region_coloring((island,))
        spec = DissectionSpec(apex=Point(0, 0), n=2, a=0.0, b=1.0, d=1.0, phase=0.0, first_orientation="cw")
        result = dissection_check(coloring, spec)
        assert not result
        black = {(leaf.ray, leaf.side) for leaf in result.failures if leaf.got is Shade.BLACK}
        assert black == {(1, 1)}
        assert (2, -1) in {(leaf.ray, leaf.side) for leaf in result.proved}
        whole = {(leaf.ray, leaf.side) for leaf in result.proved + result.failures if leaf.s[1] - leaf.s[0] > 0.5}
        assert (1, 1) not in whole  # the island's rectangle is split

    def test_an_arc_neighbourhood_is_not_convex(self):
        # a circle through the corners of the black rectangle (1, +1): every
        # corner is inside the stroke, the centre, at the circle's centre,
        # is not, so the corners do not prove the rectangle black
        script = DrawingScript(DiskModel.OPEN, (Stroke(Tool.PENCIL, CenterSet((Arc(Point(1, 1), math.sqrt(2), 0.0, 0.0),))),))
        spec = DissectionSpec(apex=Point(0, 0), n=2, a=0.0, b=2.0, d=2.0, phase=0.0, first_orientation="ccw")
        result = dissection_check(script_coloring(script), spec)
        assert not result
        witnesses = [leaf.witness for leaf in result.failures if (leaf.ray, leaf.side) == (1, 1)]
        assert witnesses and min(w.distance_to(Point(1, 1)) for w in witnesses) < 0.2

    def test_vanishing_rectangles_rejected(self):
        spec = DissectionSpec(apex=Point(0, 0), n=4, a=0.5, b=0.5 + 3e-9, d=0.9, phase=0.0)
        with pytest.raises(InvalidParameters):
            dissection_check(chessboard_coloring(1.0), spec)

    def test_counts_are_logged(self, caplog):
        spec = DissectionSpec(apex=Point(0, 0), n=4, a=0.05, b=0.95, d=0.9, phase=0.0)
        with caplog.at_level("DEBUG", logger="diskdraw"):
            dissection_check(chessboard_coloring(1.0), spec)
        (record,) = [r for r in caplog.records if r.getMessage().startswith("dissection check:")]
        assert "8 rectangles, 8 leaves" in record.getMessage()
        assert record.getMessage().endswith("0 undecided, 0 failures")


class TestDissectionCheckAgainstSampler:
    """Differential tests against tests/oracles.py::dissection_sampled."""

    @DIFF
    @given(data=st.data(), loop=st.one_of(arc_loops(), convex_polygons()),
           scale=st.sampled_from([1e-3, 1.0, 1e3]), seed=st.integers(0, 2**16))
    def test_regions(self, data, loop, scale, seed):
        loop = scaled_loop(loop, scale, Point(0.0, 0.0))
        spec = data.draw(grazing_specs(loop, scale))
        assert_agrees_with_sampler(region_coloring((loop,)), spec, seed)

    @DIFF
    @given(data=st.data(), seed=st.integers(0, 2**16), shift=st.sampled_from(
        [0.0, DEFAULT_TAU, -DEFAULT_TAU, 2 * DEFAULT_TAU, 3 * DEFAULT_TAU, 1e-6]))
    def test_scripts(self, data, seed, shift):
        # one ray runs along a unit circle of a point centre, shifted by
        # `shift` away from it, so that its rectangles graze the circle
        rng = random.Random(seed)
        script = random_script(rng, max_strokes=4)
        centre = next((p.p for st_ in script.strokes for p in st_.centers.primitives
                       if isinstance(p, SinglePoint)), Point(0.0, 0.0))
        phi = rng.uniform(0.0, 2.0 * math.pi)
        apex = centre + unit(phi).scaled(1.0 + shift) + unit(phi + 0.5 * math.pi).scaled(-rng.uniform(0.0, 1.0))
        a = rng.uniform(0.0, 0.5)
        spec = DissectionSpec(apex=apex, n=data.draw(st.sampled_from([2, 4])), a=a, b=a + rng.uniform(0.05, 3.0),
                              d=rng.uniform(0.05, 3.0), phase=phi + 0.5 * math.pi,
                              first_orientation=rng.choice(["ccw", "cw"]))
        assert_agrees_with_sampler(script_coloring(script), spec, seed)

    @pytest.mark.parametrize("n", [4, 12])
    def test_sharp_script_against_the_sampler(self, n):
        result = assert_agrees_with_sampler(script_coloring(sharp_ndissected_script(n)), sharp_dissection_spec(n), n)
        assert result.ok


class TestUndrawabilityBound:
    def test_values(self):
        assert undrawability_bound(4) == pytest.approx(1.0, rel=1e-15)
        assert undrawability_bound(12) == pytest.approx(2.0 + math.sqrt(3.0), rel=1e-12)
        # half-angle identity oracle: cot(pi/8) = 1 + sqrt(2)
        assert undrawability_bound(8) == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-12)

    def test_invalid(self):
        with pytest.raises(InvalidN):
            undrawability_bound(2)
        with pytest.raises(InvalidN):
            undrawability_bound(7)
