import dataclasses
import math
import random
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskdraw import (
    Arc,
    BoundaryPoint,
    CenterSet,
    Check,
    DiskModel,
    DrawingScript,
    InvalidN,
    InvalidParameters,
    OffsetHalfPlane,
    Point,
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
    dissection_check,
    dissection_stages,
    dissection_wedge_checks,
    encircles,
    escape_radius,
    five_circle_radii,
    scaling_descent_verify,
    script_coloring,
    stationary_number,
    symmetric_descent_verify,
    undrawability_bound,
)
from diskdraw.constructions import (PiecewisePath, build_snake, region_coloring, rounded_chessboard_coloring,
                                    sharp_dissection_spec, sharp_ndissected_script, snake_coloring,
                                    snake_dissection_spec)
from diskdraw import cli, curvature, geometry, obstruction
from diskdraw.delaunay import Delaunay
from diskdraw.geometry import DEFAULT_TAU, LargestEmptyCircle, Segment, SinglePoint, rotate_about, unit
from diskdraw.obstruction import SPLIT_DEPTH, DissectionSpec, _encircles, _rotation_premise

from helpers import (DIFF, benchmark_workloads, random_point, random_primitive, random_script, regular_polygon_path,
                     reversed_loop, rigid_motion, same_proof, scaled_loop)
from oracles import (colour_premise_by_points, dissection_pattern_classify, dissection_sampled,
                     dissection_stages_by_points, local_lec_by_rows, pattern_coloring, piece_rect_distance_by_edges,
                     turn_orbits_every_shift, wedge_checks_enumerated)
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
        assert escape_radius([], [Point(0, 0)]) == math.inf

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
        # descent_verify checks the colors against the coloring; a sign-based
        # check is the independent oracle here
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


def valid(cert):
    """A descent is valid when every record is ok."""
    return all(c.ok for c in cert)


def failed_premise(cert):
    """The premise a descent's `lemma premise` record names, or "" when it
    has none; a failed premise is the descent's only record."""
    premises = [c for c in cert if c.name == "lemma premise"]
    if not premises:
        return ""
    (check,) = cert
    assert check.verdict is Verdict.NO and check.line == f"FAIL: {check.value}"
    return check.value


def clearances(cert):
    return [c.value for c in cert]


class TestDescentVerify:
    def test_chessboard_depth10_valid(self):
        stages = chessboard_stages(0.1, math.radians(0.5), 10)
        cert = descent_verify(chessboard_coloring(1.0), stages)
        assert valid(cert) and failed_premise(cert) == ""
        assert [c.name for c in cert] == [f"stage {k} enc" for k in range(1, 10)]
        assert all(c < 1.0 for c in clearances(cert))
        ratios = [b / a for a, b in zip(clearances(cert), clearances(cert)[1:])]
        assert all(abs(r - 0.5) < 1e-6 for r in ratios)

    def test_single_stage_trivially_valid(self):
        stages = chessboard_stages(0.1, math.radians(0.5), 1)
        cert = descent_verify(chessboard_coloring(1.0), stages)
        assert cert == () and valid(cert)

    def test_recolored_point_rejected(self):
        stages = chessboard_stages(0.1, math.radians(0.5), 2)
        bad = StageFamily(
            blacks=stages[0].blacks + (stages[0].whites[0],),  # a white point mislabeled
            whites=stages[0].whites[1:],
            stage_index=1,
        )
        cert = descent_verify(chessboard_coloring(1.0), [bad, stages[1]])
        assert not valid(cert)
        assert failed_premise(cert) == f"stage colours: stage 1 black point {stages[0].whites[0]} is white"

    def test_boundary_point_rejected(self):
        fam = StageFamily(blacks=(Point(0.5, 0.0),), whites=(), stage_index=1)
        cert = descent_verify(chessboard_coloring(1.0), [fam])
        assert not valid(cert)
        assert failed_premise(cert) == "stage colours: stage 1 black point Point(x=0.5, y=0.0) is on the boundary"

    def test_failed_encirclement_is_reported(self):
        coloring = chessboard_coloring(1.0)
        near = StageFamily((Point(0.5, 0.5),), (Point(0.5, -0.5),), 1)
        far = StageFamily((Point(0.6, 0.6),), (Point(0.6, -0.6),), 2)
        cert = descent_verify(coloring, [near, far])
        assert not valid(cert) and failed_premise(cert) == ""
        assert [c.verdict for c in cert] == [Verdict.NO]

    def test_empty_families(self):
        # an empty outer family encircles nothing and lets any disk escape;
        # an empty inner family is encircled vacuously, with nothing to reach
        coloring = chessboard_coloring(1.0)
        first = StageFamily((Point(0.5, 0.5),), (), 1)
        second = StageFamily((Point(0.1, 0.1),), (Point(0.1, -0.1),), 2)
        empty = StageFamily((), (), 3)
        cert = descent_verify(coloring, [first, second, empty])
        enc = [(c.verdict, c.value) for c in cert]
        assert enc == [(Verdict.NO, math.inf), (Verdict.YES, 0.0)]
        assert not valid(cert)

    def test_one_triangulation_per_family(self, monkeypatch):
        # each stage pair triangulates its two outer families once, for the
        # verdict and the clearance alike
        builds = []
        init = Delaunay.__init__

        def counting_init(self, points):
            builds.append(1)
            init(self, points)

        monkeypatch.setattr(Delaunay, "__init__", counting_init)
        stages = chessboard_stages(0.1, math.radians(0.5), 10)
        assert valid(descent_verify(chessboard_coloring(1.0), stages))
        assert len(builds) == 2 * (len(stages) - 1) == 18

    def test_report_line_format(self):
        stages = chessboard_stages(0.1, math.radians(0.5), 2)
        cert = descent_verify(chessboard_coloring(1.0), stages)
        (line,) = [c.line for c in cert]
        assert line == f"stage=1 kind=enc verdict=yes clearance={cert[0].value!r}"


def pair_clearance(fam, nxt):
    """The largest query(t, 1.0) clearance of one stage pair, over both
    outer families: the c of the scaling lemma."""
    return max(LargestEmptyCircle(outer).query(t, 1.0)[1]
               for outer, inner in ((fam.blacks, nxt.whites), (fam.whites, nxt.blacks)) for t in inner)


class TestScalingDescentVerify:
    """scaling_descent_verify against the stage-by-stage descent_verify."""

    @staticmethod
    def assert_matches_oracle(r, theta_deg, depth=12):
        stages = chessboard_stages(r, math.radians(theta_deg), depth)
        coloring = chessboard_coloring(1.0)
        oracle = descent_verify(coloring, stages)
        cert = scaling_descent_verify(coloring, stages)
        assert valid(oracle) and valid(cert)
        assert cert == oracle  # derived clearances equal the computed ones bit for bit
        assert len(cert) == depth - 1
        c1 = pair_clearance(stages[0], stages[1])
        for k, (fam, nxt) in enumerate(zip(stages, stages[1:]), start=1):
            assert pair_clearance(fam, nxt) <= 1.0 - 0.5 ** (k - 1) * (1.0 - c1) + 1e-12

    @DIFF
    @given(r=st.floats(0.08, 0.12), theta_deg=st.floats(0.3, 0.7))
    def test_benchmark_domain(self, r, theta_deg):
        self.assert_matches_oracle(r, theta_deg)

    @settings(DIFF, max_examples=30)
    @given(r=st.floats(0.02, 0.9), theta_deg=st.floats(0.05, 5.0))
    def test_wider_domain(self, r, theta_deg):
        # the stage-by-stage check certifies every depth up to 12 here
        self.assert_matches_oracle(r, theta_deg)

    @pytest.mark.parametrize("depth", [10, 200])
    def test_work_does_not_grow_with_depth(self, monkeypatch, depth):
        builds, classified = [], []
        init = LargestEmptyCircle.__init__

        def counting_init(self, obstacles):
            builds.append(len(obstacles))
            init(self, obstacles)

        monkeypatch.setattr(LargestEmptyCircle, "__init__", counting_init)
        coloring = chessboard_coloring(1.0)
        counted = dataclasses.replace(coloring, classify=lambda p: classified.append(p) or coloring.classify(p))
        cert = scaling_descent_verify(counted, chessboard_stages(0.1, math.radians(0.5), depth))
        assert valid(cert) and len(cert) == depth - 1
        assert builds == [4, 4] and len(classified) == 8

    def test_deep_stages_certify(self):
        # the stage-by-stage check classifies stage 21 into the tau collar
        stages = chessboard_stages(0.1, math.radians(0.5), 28)
        oracle = descent_verify(chessboard_coloring(1.0), stages)
        assert not valid(oracle)
        assert failed_premise(oracle) == (f"stage colours: stage 21 black point {stages[20].blacks[0]} "
                                          "is on the boundary")
        cert = scaling_descent_verify(chessboard_coloring(1.0), stages)
        assert valid(cert)
        assert [b / a for a, b in zip(clearances(cert), clearances(cert)[1:])] == [0.5] * 26

    def test_squares_touching_off_the_origin_are_not_proved(self):
        shift = Point(1e-3, 0.0)
        loops = tuple(PiecewisePath(tuple(Segment(p.a + shift, p.b + shift) for p in loop.pieces))
                      for loop in chessboard_coloring(1.0).source)
        stages = chessboard_stages(0.1, math.radians(0.5), 10)
        cert = scaling_descent_verify(region_coloring(loops), stages)
        assert not valid(cert)
        assert failed_premise(cert).startswith("cone at the origin: ")
        # the stage-by-stage check refutes it
        oracle = descent_verify(region_coloring(loops), stages)
        assert failed_premise(oracle) == f"stage colours: stage 1 black point {stages[0].blacks[1]} is white"

    def test_point_off_by_one_ulp_is_not_proved(self):
        stages = chessboard_stages(0.1, math.radians(0.5), 10)
        p = stages[4].whites[2]
        moved = dataclasses.replace(stages[4], whites=(*stages[4].whites[:2], Point(math.nextafter(p.x, 0.0), p.y),
                                                       *stages[4].whites[3:]))
        cert = scaling_descent_verify(chessboard_coloring(1.0), [*stages[:4], moved, *stages[5:]])
        assert not valid(cert)
        assert failed_premise(cert) == "exact halving: stage 5 is not stage 4 halved"

    def test_underflowing_depth_is_not_proved(self):
        # chessboard_stages refuses a depth whose last stage underflows, so
        # the chain past stage 1012 is halved by hand
        with pytest.raises(InvalidParameters, match="depth 1013 underflows"):
            chessboard_stages(0.1, math.radians(0.5), 1013)
        stages = chessboard_stages(0.1, math.radians(0.5), 1012)
        for index in range(1013, 1101):
            fam = stages[-1]
            stages.append(StageFamily(tuple(q.scaled(0.5) for q in fam.blacks),
                                      tuple(q.scaled(0.5) for q in fam.whites), index))
        cert = scaling_descent_verify(chessboard_coloring(1.0), stages)
        assert not valid(cert)
        assert failed_premise(cert) == "exact halving: stage 1013 underflows"

    @staticmethod
    def halved_chain(p):
        """Two stages: the chessboard's stage 1 with its first black point
        replaced by p, and that stage scaled by 1/2 in floating point."""
        (fam,) = chessboard_stages(0.1, math.radians(0.5), 1)
        fam = dataclasses.replace(fam, blacks=(p, *fam.blacks[1:]))
        half = StageFamily(tuple(q.scaled(0.5) for q in fam.blacks), tuple(q.scaled(0.5) for q in fam.whites), 2)
        return [fam, half]

    def test_subnormal_stage_one_is_not_proved(self):
        # the smallest subnormal halves to 0.0, so stage 2 is not stage 1 halved
        stages = self.halved_chain(Point(0.1, 5e-324))
        assert stages[1].blacks[0].y == 0.0
        cert = scaling_descent_verify(chessboard_coloring(1.0), stages)
        assert not valid(cert) and failed_premise(cert) == "exact halving: stage 1 underflows"

    def test_halving_that_rounds_up_to_a_normal_is_not_proved(self):
        # the largest float below 2^-1021 halves to 2^-1022, the smallest
        # normal, by rounding: no coordinate underflows, yet the halving is not exact
        stages = self.halved_chain(Point(0.1, 2.0**-1021 - 2.0**-1074))
        assert stages[1].blacks[0].y == sys.float_info.min
        cert = scaling_descent_verify(chessboard_coloring(1.0), stages)
        assert not valid(cert) and failed_premise(cert) == "exact halving: stage 2 is not stage 1 halved"

    def test_other_colorings_are_not_cones(self):
        stages = chessboard_stages(0.1, math.radians(0.5), 3)
        script = script_coloring(sharp_ndissected_script(12))
        cert = scaling_descent_verify(script, stages)
        assert failed_premise(cert) == "cone at the origin: the coloring is not a region"
        # a fillet of radius 0.01: its arc, and edges that end 0.01 from the
        # origin, lie within the stage-1 radius
        cert = scaling_descent_verify(rounded_chessboard_coloring(0.01), stages)
        assert failed_premise(cert).startswith("cone at the origin: Segment(a=Point(x=0.01, y=0)")
        # an edge that passes 0.09 from the origin, inside the stage-1 radius 0.1, with both ends far away
        square = PiecewisePath(tuple(Segment(a, b) for a, b in zip(
            (Point(-1, 0.09), Point(1, 0.09), Point(1, 1), Point(-1, 1)),
            (Point(1, 0.09), Point(1, 1), Point(-1, 1), Point(-1, 0.09)))))
        cert = scaling_descent_verify(region_coloring((square,)), stages)
        assert failed_premise(cert).startswith("cone at the origin: Segment(a=Point(x=-1, y=0.09)")
        # a circle through the origin: only arcs
        circle = PiecewisePath((Arc(Point(0.5, 0.0), 0.5, 0.0, math.pi), Arc(Point(0.5, 0.0), 0.5, math.pi, 0.0)))
        cert = scaling_descent_verify(region_coloring((circle,)), stages)
        assert not valid(cert) and failed_premise(cert).startswith("cone at the origin: Arc(")

    def test_failed_first_pair_is_recorded_alone(self):
        stages = chessboard_stages(0.5, math.radians(30.0), 5)
        oracle = descent_verify(chessboard_coloring(1.0), stages)
        cert = scaling_descent_verify(chessboard_coloring(1.0), stages)
        assert not valid(oracle) and not valid(cert) and failed_premise(cert) == ""
        assert cert == oracle[:1]
        assert cert[0].verdict is not Verdict.YES

    def test_single_stage_and_empty_chain(self):
        stages = chessboard_stages(0.1, math.radians(0.5), 1)
        cert = scaling_descent_verify(chessboard_coloring(1.0), stages)
        assert cert == descent_verify(chessboard_coloring(1.0), stages) == ()
        with pytest.raises(InvalidParameters):
            scaling_descent_verify(chessboard_coloring(1.0), [])

    def test_stage_one_in_the_collar_is_a_failed_premise(self):
        stages = chessboard_stages(0.1, math.radians(1e-7), 3)
        cert = scaling_descent_verify(chessboard_coloring(1.0), stages)
        assert not valid(cert)
        assert failed_premise(cert) == (f"stage colours: stage 1 black point {stages[0].blacks[0]} "
                                        "is on the boundary")


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
        # every point of ray j is the ray-1 point of its foot turned by
        # 2*pi*(j - 1)/12 about the apex, of the other colour for even j,
        # within an ulp of the rays' length
        stages = dissection_stages(self.params, self.spec, 2)
        delta, slack, premise = _rotation_premise(stages, self.spec)
        assert premise == "" and delta <= math.ulp(3.0) and 0.0 < slack < 1e-11
        # without the colour swap ray 2 is 2 t off: the measure sees colours
        fam = stages[0]
        unswapped = dataclasses.replace(fam, blacks=fam.blacks[:2] + fam.whites[2:4] + fam.blacks[4:],
                                        whites=fam.whites[:2] + fam.blacks[2:4] + fam.whites[4:])
        delta, _, premise = _rotation_premise([unswapped], self.spec)
        assert delta == pytest.approx(2.0 * self.params.t) and premise.startswith("rotation symmetry: stage 0 ray 2 ")

    def test_union_families_encircle(self):
        stages = dissection_stages(self.params, self.spec, 1)
        s0 = stages[0].blacks + stages[0].whites
        s1 = stages[1].blacks + stages[1].whites
        assert encircles(s0, s1) is Verdict.YES

    def test_wedge_case_split(self):
        stages = dissection_stages(self.params, self.spec, 1)
        # one record for the stage pair, standing for its 12 wedges
        assert dissection_wedge_checks(stages, self.spec) == (Check("stage 0 wedges", Verdict.YES, None),)

    def test_wedge_case_split_reads_the_spec_orientation(self):
        cw = DissectionSpec(apex=self.apex, n=12, a=2.99, b=3.01, d=0.01, phase=0.0, first_orientation="cw")
        stages = dissection_stages(self.params, cw, 1)
        ccw_stages = dissection_stages(self.params, self.spec, 1)
        assert stages[0].blacks == ccw_stages[0].whites  # mirrored about every ray
        assert [c.verdict for c in dissection_wedge_checks(stages, cw)] == [Verdict.YES]
        # the case split of the ccw layout does not hold for the cw families
        (check,) = dissection_wedge_checks(stages, self.spec)
        assert check.name == "stage 0 wedges" and check.verdict is not Verdict.YES

    def test_ray_count_must_match(self):
        with pytest.raises(InvalidParameters):
            dissection_stages(StageParams(n=10, L=3.0, s=1e-3), self.spec, 1)

    def test_radii_reaching_one_are_refuted_by_the_descent(self):
        # the stages are built whatever the critical radii: with the largest
        # within tau below 1 or beyond it, the descent refutes stage 0
        for L in (3.698018215596676, 3.72, 3.75, 4.0):
            assert max(five_circle_radii(StageParams(n=12, L=L, s=1e-3)).all_values()) >= 1.0 - DEFAULT_TAU
            coloring, spec, stages = pattern_chain(12, L, 1e-3, 1)
            assert [c.verdict for c in symmetric_descent_verify(stages, spec)] == [Verdict.NO]
            assert [c.verdict for c in descent_verify(coloring, stages)] == [Verdict.NO]
            assert [c.verdict for c in dissection_wedge_checks(stages, spec)] == [Verdict.NO]

    def test_underflowing_depth_is_refused_before_any_stage(self, monkeypatch):
        # at s = 1e-3 stage 671 has the last normal offset t = (s 2^-671)^1.5
        stages = dissection_stages(self.params, self.spec, 671)
        assert len(stages) == 672 and stages[-1].blacks[0] != stages[-1].whites[0]
        with pytest.raises(InvalidParameters) as err:
            dissection_stages(self.params, self.spec, 672)
        assert str(err.value) == ("depth 672 underflows: stage 672 has the offset 1.1528276140002475e-308, "
                                  "below the smallest normal float 2.2250738585072014e-308")

        def built(*args, **kwargs):
            raise AssertionError("a stage was built")

        monkeypatch.setattr(obstruction, "StageFamily", built)
        for depth in (2000, 20000):
            with pytest.raises(InvalidParameters, match=f"^depth {depth} underflows: stage {depth} has the offset 0.0,"):
                dissection_stages(self.params, self.spec, depth)

    def test_descent_against_pattern_coloring(self):
        stages = dissection_stages(self.params, self.spec, 3)
        cert = descent_verify(pattern_coloring(self.spec), stages)
        assert valid(cert) and len(cert) == 3


def snake_chain(depth):
    """The snake's coloring, 12-dissection spec and descent stages, as
    verify snake builds them."""
    geom = build_snake(1.001)
    spec = snake_dissection_spec(geom)
    params = StageParams(n=spec.n, L=default_dissection_L(spec), s=1e-3)
    return snake_coloring(geom), spec, dissection_stages(params, spec, depth)


def pattern_chain(n, L, s, depth, apex=Point(0.0, 0.0), phase=0.0, orientation="ccw"):
    """The ideal n-dissection pattern's classifier (tests/oracles.py), spec
    and descent stages, with the rectangles verify dissection uses."""
    params = StageParams(n=n, L=L, s=s)
    spec = DissectionSpec(apex=apex, n=n, a=L - 4.0 * s, b=L + 4.0 * s, d=4.0 * params.t, phase=phase,
                          first_orientation=orientation)
    return pattern_coloring(spec), spec, dissection_stages(params, spec, depth)


def with_point(stages, index, color, k, p):
    """The stages with point k of one colour of stage `index` replaced by p."""
    fam = stages[index]
    points = list(getattr(fam, color))
    points[k] = p
    return [*stages[:index], dataclasses.replace(fam, **{color: tuple(points)}), *stages[index + 1:]]


class TestSymmetricDescentVerify:
    """symmetric_descent_verify and the one-wedge case split against the
    stage-by-stage descent_verify and tests/oracles.py::wedge_checks_enumerated."""

    @staticmethod
    def assert_matches_oracles(coloring, spec, stages):
        oracle = descent_verify(coloring, stages)
        cert = symmetric_descent_verify(stages, spec)
        assert failed_premise(cert) == ""
        assert failed_premise(oracle) == ""
        assert [(c.name, c.verdict) for c in cert] == [(c.name, c.verdict) for c in oracle]
        # the clearance is the escape radius of ray 1's white targets over
        # the whole black family, bit for bit, and the oracle's over every
        # target up to rounding
        assert clearances(cert) == [max(LargestEmptyCircle(fam.blacks).escape(t) for t in nxt.whites[:2])
                                    for fam, nxt in zip(stages, stages[1:])]
        assert clearances(cert) == pytest.approx(clearances(oracle), rel=1e-9)
        # the reflection lemma: at each foot of ray 1, the whites' clearance
        # of the black target is within 2 (delta + slack) + 2 (mirror +
        # slack) of the blacks' clearance of the white target
        delta, slack, _ = _rotation_premise(stages, spec)
        mirror, _ = obstruction._reflection_premise(stages, spec, slack)
        for fam, nxt in zip(stages, stages[1:]):
            for b, w in zip(nxt.blacks[:2], nxt.whites[:2]):
                f_w = LargestEmptyCircle(fam.whites).query(b, 1.0)[1]
                f_b = LargestEmptyCircle(fam.blacks).query(w, 1.0)[1]
                assert abs(f_w - f_b) <= 2.0 * (delta + slack) + 2.0 * (mirror + slack), (f_w, f_b)
        assert valid(oracle) or not valid(cert)
        for fam, nxt in zip(stages, stages[1:]):
            for S, T in ((fam.blacks, nxt.whites), (fam.whites, nxt.blacks)):
                # every target, against the obstacles they see: encircles'
                # verdict and the whole family's escapes, bit for bit
                verdict, clearance, _ = obstruction._encirclement(S, T, DEFAULT_TAU)
                assert (verdict, clearance) == (encircles(S, T), max(map(LargestEmptyCircle(S).escape, T)))
        # each pair's record stands for its n wedges: every wedge the oracle
        # asks about has the record's verdict
        wedges = dissection_wedge_checks(stages, spec)
        enumerated = wedge_checks_enumerated(stages, spec)
        assert [c.name for c in wedges] == [f"stage {fam.stage_index} wedges" for fam in stages[:-1]]
        for check in wedges:
            verdicts = [v for i, _, v in enumerated if check.name == f"stage {i} wedges"]
            assert verdicts == [check.verdict] * spec.n
        return cert

    @settings(DIFF, max_examples=25)
    @given(n=st.sampled_from(range(4, 26, 2)), frac=st.floats(0.3, 1.0), s=st.floats(1e-4, 1e-2),
           apex=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)), phase=st.floats(0.0, 2.0 * math.pi),
           orientation=st.sampled_from(["ccw", "cw"]))
    def test_dissection_patterns(self, n, frac, s, apex, phase, orientation):
        L = frac * (undrawability_bound(n) - 0.05)
        self.assert_matches_oracles(*pattern_chain(n, L, s, 2, Point(*apex), phase, orientation))

    def test_snake(self):
        assert valid(self.assert_matches_oracles(*snake_chain(8)))

    def test_refuted_chain_is_recorded_as_the_oracle_records_it(self):
        # the critical radii are below 1 - tau, yet stage 0 does not encircle stage 1
        coloring, spec, stages = pattern_chain(12, 3.5887177858128325, 0.002590482283749564, 2)
        cert = self.assert_matches_oracles(coloring, spec, stages)
        assert [c.verdict for c in cert] == [Verdict.NO, Verdict.YES]

    def test_single_stage_and_empty_chain(self):
        coloring, spec, stages = pattern_chain(12, 3.0, 1e-3, 0)
        assert symmetric_descent_verify(stages, spec) == descent_verify(coloring, stages) == ()
        assert dissection_wedge_checks(stages, spec) == ()
        with pytest.raises(InvalidParameters):
            symmetric_descent_verify([], spec)
        with pytest.raises(InvalidParameters, match="at least one stage"):
            dissection_wedge_checks([], spec)

    def test_stage_point_in_the_collar_is_a_failed_premise(self):
        # t_0 = 3.2e-5 is below 2 tau = 2e-4: ray 1's first black point is
        # outside the shrunk rectangle, and the pattern puts it in the collar
        coloring, spec, stages = pattern_chain(12, 3.0, 1e-3, 2)
        cert = symmetric_descent_verify(stages, spec, tau=1e-4)
        assert not valid(cert)
        premise = failed_premise(cert)
        assert premise.startswith(f"stage colours: stage 0 black point {stages[0].blacks[0]} is outside ray 1's "
                                  "black rectangle shrunk by 2*tau + ")
        assert dissection_pattern_classify(spec, 1e-4)(stages[0].blacks[0]) is Shade.BOUNDARY

    def test_margin(self):
        # a margin keeps only the verdicts that hold for every clearance
        # within it: a narrow YES or NO becomes BOUNDARY
        tau = DEFAULT_TAU
        hexagon = LargestEmptyCircle([unit(math.pi * k / 3.0).scaled(0.9) for k in range(6)])
        gap = 1.0 - tau - hexagon.query(Point(0.0, 0.0), 1.0)[1]  # the centre's clearance is 0.9
        assert _encircles(hexagon, [Point(0.0, 0.0)], tau, 0.5 * gap) == (Verdict.YES, 1)
        assert _encircles(hexagon, [Point(0.0, 0.0)], tau, 2.0 * gap) == (Verdict.BOUNDARY, 2)
        far = LargestEmptyCircle([Point(3.0, 0.0)])
        assert _encircles(far, [Point(0.0, 0.0)], tau, 1.0) == (Verdict.NO, 2)
        assert _encircles(far, [Point(0.0, 0.0)], tau, 3.0) == (Verdict.BOUNDARY, 2)

    def test_verdicts_are_taken_at_the_lemma_margins(self, monkeypatch):
        # 5 (delta + slack) + 2 (mirror + slack) for a stage pair's ray-1
        # white targets, 4 (delta + slack) for wedge 1
        _, spec, stages = snake_chain(2)
        delta, slack, _ = _rotation_premise(stages, spec)
        mirror, _ = obstruction._reflection_premise(stages, spec, slack)
        margins = []
        encircles_at = obstruction._encircles

        def spy(lec, T, tau, margin=0.0):
            margins.append((len(T), margin))
            return encircles_at(lec, T, tau, margin)

        monkeypatch.setattr(obstruction, "_encircles", spy)
        assert valid(symmetric_descent_verify(stages, spec))
        assert margins == [(2, 5.0 * (delta + slack) + 2.0 * (mirror + slack))] * 2
        assert 0.0 < delta < slack and 0.0 < mirror < slack
        margins.clear()
        assert [c.verdict for c in dissection_wedge_checks(stages, spec)] == [Verdict.YES] * 2
        assert margins == [(4, 4.0 * (delta + slack))] * 2

    def test_work_is_logged(self, caplog):
        _, spec, stages = pattern_chain(12, 3.0, 1e-3, 5)
        with caplog.at_level("DEBUG", logger="diskdraw"):
            symmetric_descent_verify(stages, spec)
            symmetric_descent_verify(with_point(stages, 1, "whites", 7, Point(0.0, 0.0)), spec)
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("symmetric descent: ")]
        assert len(lines) == 2
        assert lines[0].startswith("symmetric descent: delta 0.0, slack 3.001e-12, mirror 0.0, ")
        assert lines[0].endswith(", 5 LEC builds, 30 obstacle points, 10 ray-1 queries, 10 escapes, "
                                 "5 derived records")
        assert lines[1].endswith(", 0 LEC builds, 0 obstacle points, 0 ray-1 queries, 0 escapes, "
                                 "0 derived records")


def chessboard_case(verify, p):
    """verify on the chessboard's stages 1 and 2 (TestScalingDescentVerify.halved_chain)
    with stage 1's first black point replaced by p: (records, stage, point)."""
    return verify(chessboard_coloring(1.0), TestScalingDescentVerify.halved_chain(p)), 1, p


def dissection_case(orientation, tau):
    """symmetric_descent_verify on the 12-dissection pattern's stages 0..2,
    against a spec of the given orientation: (records, stage, point),
    the point being stage 0's first black one."""
    _, spec, stages = pattern_chain(12, 3.0, 1e-3, 2)
    spec = dataclasses.replace(spec, first_orientation=orientation)
    return symmetric_descent_verify(stages, spec, tau), 0, stages[0].blacks[0]


WHITE_POINT = chessboard_stages(0.1, math.radians(0.5), 1)[0].whites[0]
OUTSIDE = "outside ray 1's black rectangle shrunk by 2*tau + "


@pytest.mark.parametrize("case, got", [
    (lambda: chessboard_case(descent_verify, WHITE_POINT), "white"),
    (lambda: chessboard_case(descent_verify, Point(0.1, 1e-10)), "on the boundary"),
    (lambda: chessboard_case(scaling_descent_verify, WHITE_POINT), "white"),
    (lambda: chessboard_case(scaling_descent_verify, Point(0.1, 1e-10)), "on the boundary"),
    (lambda: dissection_case("cw", DEFAULT_TAU), OUTSIDE),  # every colour swapped
    (lambda: dissection_case("ccw", 1e-4), OUTSIDE),  # t_0 = 3.2e-5 is below 2 tau
], ids=["descent-recoloured", "descent-collar", "scaling-recoloured", "scaling-collar",
        "symmetric-recoloured", "symmetric-collar"])
def test_a_wrong_stage_colour_is_a_failed_premise(case, got):
    """Each descent verifier reports a stage point of the other colour, or
    in the tau collar, as its failed colour premise, naming the stage, the
    colour and the point, as its only record, and raises nothing."""
    cert, stage, p = case()
    assert not valid(cert)
    assert failed_premise(cert).startswith(f"stage colours: stage {stage} black point {p} is {got}"), cert


class TestLocalObstacles:
    """_encirclement triangulates only the obstacles its targets can see
    (obstruction._local_lec), and answers as a triangulation of the whole
    family does (see also TestSymmetricDescentVerify.assert_matches_oracles)."""

    def test_local_set_keeps_what_the_targets_can_see_in_order(self, monkeypatch):
        _, _, stages = snake_chain(2)
        S, T = stages[0].blacks, stages[1].whites[:2]
        built = []
        init = LargestEmptyCircle.__init__

        def spy(lec, obstacles):
            built.append(list(obstacles))
            init(lec, obstacles)

        monkeypatch.setattr(LargestEmptyCircle, "__init__", spy)
        assert obstruction._encirclement(S, T, DEFAULT_TAU)[2] == (1, 6, 2, 2)
        [local] = built
        assert local == [p for p in S if p in local]  # S's order
        for t in T:
            d0 = min(p.distance_to(t) for p in S)
            assert {p for p in S if p.distance_to(t) <= d0 + 2.0} <= set(local)
        assert len(local) < len(S)

    def test_an_unbounded_cell_grows_to_the_whole_family(self):
        # the obstacles within d0 + 2 = 3 of t lie on one side of it, so its
        # cell among them is unbounded; the far ones close it
        t = Point(0.0, 0.0)
        near = [Point(1.0, 0.0), Point(1.0, 1.0), Point(1.0, -1.0)]
        far = [Point(-10.0, 0.0), Point(-10.0, 8.0), Point(-10.0, -8.0), Point(-4.0, 6.0), Point(-4.0, -6.0)]
        S = [far[0], *near, *far[1:]]
        assert LargestEmptyCircle(near).escape(t) == math.inf
        lec, escapes, builds, points = obstruction._local_lec(S, [t])
        assert (builds, points) == (2, 3 + 8)
        assert escapes == [LargestEmptyCircle(S).escape(t)] and escapes[0] < math.inf

    def test_a_dropped_obstacle_within_twice_the_escape_joins(self):
        # the cell of t among the obstacles within d0 + 2 = 2.1 reaches
        # about 4.05 from t; (0, 4) and (0, -4) are dropped but cut it at
        # y = 2 and y = -2
        t = Point(0.0, 0.0)
        near = [Point(0.1, 0.0), Point(-1.9, 0.5), Point(-1.9, -0.5)]
        S = [*near, Point(0.0, 4.0), Point(0.0, 30.0), Point(0.0, -4.0)]
        first = LargestEmptyCircle(near).escape(t)
        assert 4.0 < first < 4.1 and 2.1 < S[3].distance_to(t) < 2.0 * first
        lec, escapes, builds, points = obstruction._local_lec(S, [t])
        assert (builds, points) == (2, 3 + 5)  # (0, 30) stays out: it is beyond twice the new escape
        assert escapes == [LargestEmptyCircle(S).escape(t)] and escapes[0] < first

    def test_chessboard_sees_its_whole_family(self):
        first, second = stage1_points()
        for S, T in ((first.blacks, second.whites), (first.whites, second.blacks)):
            lec, escapes, builds, points = obstruction._local_lec(S, T)
            assert (builds, points) == (1, len(S))
            assert escapes == [LargestEmptyCircle(S).escape(t) for t in T]


def outcome(build, *args):
    """build(*args), or the type and message of the ValueError it raises."""
    try:
        return build(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def bits(stages):
    """Every coordinate of the stages as its exact float, -0.0 apart from 0.0."""
    return [[(p.x.hex(), p.y.hex()) for p in fam.blacks + fam.whites] for fam in stages]


@st.composite
def stage_specs(draw, max_depth=10):
    """(params, spec, depth): n even from 4 to 24, any phase, an apex up to
    1e6 from the origin, either orientation, s from 1e-9 to 1e-2 and
    depth 0..max_depth, with the rectangles verify dissection uses."""
    n = draw(st.sampled_from(range(4, 25, 2)))
    s = 10.0 ** draw(st.floats(-9.0, -2.0))
    L = draw(st.floats(0.3, 0.98)) * undrawability_bound(n)
    params = StageParams(n=n, L=L, s=s)
    apex = Point(*(draw(st.floats(-1e6, 1e6)) for _ in range(2)))
    spec = DissectionSpec(apex=apex, n=n, a=max(0.0, L - 4.0 * s), b=L + 4.0 * s, d=4.0 * params.t,
                          phase=draw(st.floats(-2.0 * math.pi, 2.0 * math.pi)),
                          first_orientation=draw(st.sampled_from(["ccw", "cw"])))
    return params, spec, draw(st.integers(0, max_depth))


class TestFloatRewrites:
    """dissection_stages, _colour_premise and _local_lec equal, bit for bit,
    the Point-by-Point versions they replace (tests/oracles.py)."""

    @settings(DIFF, max_examples=80)
    @given(case=stage_specs())
    def test_stages(self, case):
        params, spec, depth = case
        got, want = dissection_stages(params, spec, depth), dissection_stages_by_points(params, spec, depth)
        assert got == want and bits(got) == bits(want)

    def test_stage_failures(self):
        params = StageParams(n=12, L=3.0, s=1e-3)
        spec = DissectionSpec(apex=Point(0.0, 0.0), n=12, a=2.9, b=3.1, d=1e-4, phase=0.0)
        for case in ((params, spec, -1), (params, dataclasses.replace(spec, n=10), 2), (params, spec, 2000)):
            got = outcome(dissection_stages, *case)
            assert isinstance(got, tuple) and got == outcome(dissection_stages_by_points, *case)

    @settings(DIFF, max_examples=80)
    @given(case=stage_specs(max_depth=4), tau=st.sampled_from([1e-12, DEFAULT_TAU, 1e-6]), data=st.data())
    def test_colour_premise(self, case, tau, data):
        """One stage point moved onto an edge of its shrunk rectangle, then
        up to three ulps either way in x."""
        params, spec, depth = case
        stages = dissection_stages(params, spec, depth)
        slack = _rotation_premise(stages, spec)[1]
        index = data.draw(st.integers(0, depth))
        colour, sign = data.draw(st.sampled_from([("blacks", 1), ("whites", -1)]))
        k = data.draw(st.integers(0, 2 * spec.n - 1))
        p = getattr(stages[index], colour)[k]
        j = k // 2 + 1
        u = unit(spec.ray_angle(j))
        rel = p - spec.apex
        s0, s1, h0, h1 = spec.shrunk(tau)
        edge = data.draw(st.sampled_from(range(5)))  # 4: leave the point where it is
        if edge < 2:
            p = p + u.scaled((s0 + slack, s1 - slack)[edge] - rel.dot(u))
        elif edge < 4:
            h = sign * spec.black_side(j) * u.cross(rel)
            p = p + u.rot90().scaled(sign * spec.black_side(j) * ((h0 + slack, h1 - slack)[edge - 2] - h))
        x = p.x
        for _ in range(data.draw(st.integers(0, 3))):
            x = math.nextafter(x, data.draw(st.sampled_from([-math.inf, math.inf])))
        stages = with_point(stages, index, colour, k, Point(x, p.y))
        got = obstruction._colour_premise(stages, spec, tau, slack)
        assert got == colour_premise_by_points(stages, spec, tau, slack)

    @staticmethod
    def assert_local_lec_matches(S, T):
        got, want = outcome(obstruction._local_lec, S, T), outcome(local_lec_by_rows, S, T)
        if isinstance(want, tuple) and isinstance(want[0], type):
            assert got == want
            return
        (lec, escapes, builds, points), (want_lec, *rest) = got, want
        assert lec._points == want_lec._points  # the same S', in S's order
        assert [escapes, builds, points] == rest
        for t in T:
            for rho in (1.0, 1.0 - 2.0 * DEFAULT_TAU):
                assert lec.query(t, rho) == want_lec.query(t, rho)

    @settings(DIFF, max_examples=80)
    @given(S=st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)), min_size=1, max_size=12),
           data=st.data())
    def test_local_lec(self, S, data):
        """Random obstacles, each target an obstacle or a new point."""
        S = [Point(*p) for p in S]
        T = data.draw(st.lists(st.one_of(st.sampled_from(S), st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
                                          .map(lambda p: Point(*p))), min_size=1, max_size=4))
        self.assert_local_lec_matches(S, T)

    @pytest.mark.parametrize("step", [-1, 0, 1])
    @pytest.mark.parametrize("d0", [0.0, 0.25, 1.5])
    def test_local_lec_at_the_reach(self, d0, step):
        # t's nearest obstacle is d0 away, so its reach is (d0 + 2)(1 + 1e-9):
        # an obstacle one ulp inside it, exactly on it and one ulp beyond it
        t = Point(0.0, 0.0)
        r = (d0 + 2.0) * (1.0 + 1e-9)
        at = math.nextafter(r, math.inf * step) if step else r
        S = [Point(-5.0, 1.0), Point(d0, 0.0), Point(0.0, at), Point(-at, 0.0), Point(3.0, -4.0)]
        self.assert_local_lec_matches(S, [t])
        self.assert_local_lec_matches(S, [t, S[1], S[3]])

    @pytest.mark.parametrize("step", [-1, 0, 1])
    def test_local_lec_at_twice_the_escape(self, step):
        # t's cell among the three near obstacles reaches about 4.05 from t;
        # a dropped obstacle one ulp inside 2E'(1 + 1e-9), on it or one ulp
        # beyond it
        t = Point(0.0, 0.0)
        near = [Point(0.1, 0.0), Point(-1.9, 0.5), Point(-1.9, -0.5)]
        cut = 2.0 * LargestEmptyCircle(near).escape(t) * (1.0 + 1e-9)
        at = math.nextafter(cut, math.inf * step) if step else cut
        self.assert_local_lec_matches([*near, Point(0.0, -at)], [t])

    def test_local_lec_on_stages(self):
        _, _, stages = snake_chain(3)
        for fam, nxt in zip(stages, stages[1:]):
            for S, T in ((fam.blacks, nxt.whites[:2]), (fam.whites, nxt.blacks), (fam.blacks, fam.blacks[:3])):
                self.assert_local_lec_matches(S, T)


def centred_stage(spec):
    """One stage in dissection_stages' layout (two points of each colour per
    ray), every point at the centre of its rectangle."""
    blacks, whites = [], []
    for j in range(1, spec.n + 1):
        u = unit(spec.ray_angle(j))
        mid = spec.apex + u.scaled(0.5 * (spec.a + spec.b))
        side = u.rot90().scaled(0.5 * spec.d * spec.black_side(j))
        blacks += [mid + side] * 2
        whites += [mid - side] * 2
    return StageFamily(tuple(blacks), tuple(whites), 0)


def assert_pattern_colours(classify, stages):
    for fam in stages:
        assert all(classify(p) is Shade.BLACK for p in fam.blacks) and all(classify(p) is Shade.WHITE for p in fam.whites)


class TestPatternColoring:
    """The stage colours of symmetric_descent_verify come from the spec's
    rectangles (obstruction._colour_premise): a point passes only inside its
    rectangle shrunk by 2*tau + slack, where the pattern's classifier
    (tests/oracles.py::dissection_pattern_classify) gives it its colour, and
    where the snake's proved rectangles give it the snake's."""

    def test_certify_stage_points(self):
        for seed in (1, 13, 29, 77):
            for _, argv in benchmark_workloads().certify_inputs(seed):
                if argv[1] != "dissection":
                    continue
                n, L, s, depth = (argv[argv.index(f) + 1] for f in ("--n", "--L", "--s", "--depth"))
                coloring, spec, stages = pattern_chain(int(n), float(L), float(s), int(depth))
                assert obstruction._colour_premise(stages, spec, DEFAULT_TAU, _rotation_premise(stages, spec)[1]) == ""
                assert_pattern_colours(coloring.classify, stages)

    @pytest.mark.parametrize("tau", [DEFAULT_TAU, 1e-4])
    def test_near_every_rectangle_edge(self, tau):
        # one point at a time moved to offset o inside an edge of its
        # rectangle (o < 0: across the ray, past a or b, beyond d)
        spec = DissectionSpec(apex=Point(1.5, -2.0), n=6, a=0.5, b=1.2, d=0.25, phase=0.4, first_orientation="cw")
        oracle = dissection_pattern_classify(spec, tau)
        stage = centred_stage(spec)
        slack = _rotation_premise([stage], spec)[1]
        mid_s, mid_h = 0.5 * (spec.a + spec.b), 0.5 * spec.d
        passed = 0
        for colour, want, sign in (("blacks", Shade.BLACK, 1), ("whites", Shade.WHITE, -1)):
            for k in range(2 * spec.n):
                u = unit(spec.ray_angle(k // 2 + 1))
                v = u.rot90().scaled(sign * spec.black_side(k // 2 + 1))
                for o in (q * tau / 4.0 for q in range(-8, 17)):
                    for s_val, h_val in ((spec.a + o, mid_h), (spec.b - o, mid_h), (mid_s, o), (mid_s, spec.d - o)):
                        p = spec.apex + u.scaled(s_val) + v.scaled(h_val)
                        moved = with_point([stage], 0, colour, k, p)
                        failure = obstruction._colour_premise(moved, spec, tau, slack)
                        assert (failure == "") == (o > 2.0 * tau), (colour, k, o, failure)
                        if failure:
                            assert failure.startswith(f"stage colours: stage 0 {colour[:-1]} point {p} is outside "
                                                      f"ray {k // 2 + 1}'s {colour[:-1]} rectangle shrunk by 2*tau + ")
                        else:
                            passed += 1
                            assert oracle(p) is want
        assert passed == 2 * (2 * spec.n) * 4 * 8

    @settings(DIFF, max_examples=30)
    @given(n=st.sampled_from(range(4, 26, 2)), frac=st.floats(0.3, 1.0), s=st.floats(1e-4, 1e-2),
           apex=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)), phase=st.floats(0.0, 2.0 * math.pi),
           orientation=st.sampled_from(["ccw", "cw"]), depth=st.integers(0, 3),
           tau=st.sampled_from([DEFAULT_TAU, 1e-6, 1e-4]))
    def test_a_pass_gives_every_point_its_pattern_colour(self, n, frac, s, apex, phase, orientation, depth, tau):
        L = frac * (undrawability_bound(n) - 0.05)
        _, spec, stages = pattern_chain(n, L, s, depth, Point(*apex), phase, orientation)
        cert = symmetric_descent_verify(stages, spec, tau)
        if premise := failed_premise(cert):
            assert premise.startswith("stage colours: stage ")
        else:
            assert_pattern_colours(dissection_pattern_classify(spec, tau), stages)

    def test_snake(self):
        # stages 0..9 pass and have the snake's colours; t_10 = 9.65e-10 is below 2 tau
        coloring, spec, stages = snake_chain(10)
        assert valid(symmetric_descent_verify(stages[:10], spec))
        assert_pattern_colours(coloring.classify, stages[:10])
        cert = symmetric_descent_verify(stages, spec)
        assert not valid(cert)
        premise = failed_premise(cert)
        assert premise.startswith(f"stage colours: stage 10 black point {stages[10].blacks[0]} is outside ray 1's ")

    @pytest.mark.parametrize("change, k", [({"first_orientation": "cw"}, 0), ({"b": 3.0 + 0.5e-3}, 1)],
                             ids=["across the rays", "past b"])
    def test_chain_outside_its_rectangles(self, change, k):
        # the stages of one spec against a spec of the other orientation, or
        # with b below the outer feet L + s: black point k of ray 1 fails first
        _, spec, stages = pattern_chain(12, 3.0, 1e-3, 2)
        cert = symmetric_descent_verify(stages, dataclasses.replace(spec, **change))
        assert not valid(cert)
        premise = failed_premise(cert)
        assert premise.startswith(f"stage colours: stage 0 black point {stages[0].blacks[k]} is outside ray 1's ")


class TestSymmetryMutants:
    """Chains that break the rotation lemma's premise are not proved, and the
    certificate and the wedge case split both return the one `lemma premise`
    record that names it.  Chains that break the reflection lemma's premise
    are not proved either, and the certificate names that premise."""

    @staticmethod
    def assert_not_proved(spec, stages, where):
        cert = symmetric_descent_verify(stages, spec)
        assert not valid(cert)
        assert failed_premise(cert).startswith(f"rotation symmetry: {where}"), cert
        assert [c.name for c in cert] == ["lemma premise"]
        assert dissection_wedge_checks(stages, spec) == cert

    def test_failed_premise_asks_no_wedge(self, monkeypatch):
        # the split neither falls back to encircles nor triangulates a wedge
        _, spec, stages = snake_chain(3)
        p = stages[2].whites[7]
        moved = with_point(stages, 2, "whites", 7, Point(p.x + 1e-6, p.y))
        calls = {"encircles": 0, "LargestEmptyCircle": 0}
        init, ask = LargestEmptyCircle.__init__, obstruction.encircles

        def built(lec, obstacles):
            calls["LargestEmptyCircle"] += 1
            init(lec, obstacles)

        def counted(*args, **kwargs):
            calls["encircles"] += 1
            return ask(*args, **kwargs)

        monkeypatch.setattr(LargestEmptyCircle, "__init__", built)
        monkeypatch.setattr(obstruction, "encircles", counted)
        wedges = dissection_wedge_checks(moved, spec)
        assert calls == {"encircles": 0, "LargestEmptyCircle": 0}
        assert [(c.name, c.ok) for c in wedges] == [("lemma premise", False)]

    def test_point_moved_by_1e_6(self):
        _, spec, stages = snake_chain(3)
        p = stages[2].whites[7]
        moved = with_point(stages, 2, "whites", 7, Point(p.x + 1e-6, p.y))
        self.assert_not_proved(spec, moved, "stage 2 ray 4 is 1.0000")

    def test_unevenly_spaced_rays(self):
        class Uneven(DissectionSpec):
            def ray_angle(self, j):
                return super().ray_angle(j) + (1e-4 if j == 5 else 0.0)

        params = StageParams(n=12, L=3.0, s=1e-3)
        spec = Uneven(apex=Point(0.0, 0.0), n=12, a=2.996, b=3.004, d=4.0 * params.t, phase=0.0)
        stages = dissection_stages(params, spec, 2)
        self.assert_not_proved(spec, stages, "stage ")
        assert " ray 5 is " in failed_premise(symmetric_descent_verify(stages, spec))

    def test_rotation_about_the_origin(self):
        _, spec, stages = snake_chain(2)
        assert spec.apex.x == pytest.approx(3.068, abs=1e-3) and spec.apex.y == 0.0
        self.assert_not_proved(dataclasses.replace(spec, apex=Point(0.0, 0.0)), stages, "stage ")

    def test_shuffled_layout(self):
        coloring, spec, stages = pattern_chain(12, 3.0, 1e-3, 2)
        blacks = list(stages[1].blacks)
        random.Random(5).shuffle(blacks)
        shuffled = [stages[0], dataclasses.replace(stages[1], blacks=tuple(blacks)), stages[2]]
        self.assert_not_proved(spec, shuffled, "stage 1 ray ")
        # the same point sets, so the stage-by-stage check still proves them
        assert valid(descent_verify(coloring, shuffled))

    def test_ray_one_mirror_broken_on_every_ray(self):
        # on each ray, the points that stand for ray 1's blacks move out along
        # the ray by 1e-7 and those for its whites move in: every turn still
        # maps ray 1 onto each ray, but the reflection in ray 1's line no
        # longer maps its blacks onto its whites
        coloring, spec, stages = pattern_chain(12, 3.0, 1e-3, 2)
        moved = []
        for fam in stages:
            points = {"blacks": list(fam.blacks), "whites": list(fam.whites)}
            for k in range(spec.n):
                u = unit(spec.ray_angle(k + 1))
                for colour, other, step in (("blacks", "whites", 1e-7), ("whites", "blacks", -1e-7)):
                    stand_in = points[colour if k % 2 == 0 else other]
                    for i in (2 * k, 2 * k + 1):
                        stand_in[i] = stand_in[i] + u.scaled(step)
            moved.append(dataclasses.replace(fam, blacks=tuple(points["blacks"]), whites=tuple(points["whites"])))
        delta, slack, premise = _rotation_premise(moved, spec)
        assert premise == "" and delta < slack
        assert obstruction._colour_premise(moved, spec, DEFAULT_TAU, slack) == ""
        mirror, _ = obstruction._reflection_premise(moved, spec, slack)
        assert mirror == pytest.approx(2e-7, rel=1e-6)
        cert = symmetric_descent_verify(moved, spec)
        assert not valid(cert)
        premise = failed_premise(cert)
        assert re.fullmatch(r"reflection symmetry: stage [012] foot [12]: ray 1's black point .*, reflected in "
                            r"ray 1's line, is .* from its white point .*, beyond the slack .*", premise), premise
        # the chain itself holds: only the lemma cannot be applied
        assert valid(descent_verify(coloring, moved))

    def test_missing_point(self):
        _, spec, stages = pattern_chain(12, 3.0, 1e-3, 2)
        short = [stages[0], dataclasses.replace(stages[1], whites=stages[1].whites[:-1]), stages[2]]
        self.assert_not_proved(spec, short,
                               "stage 1 has 24 blacks and 23 whites, not 2 of each on each of 12 rays")


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
        assert len(result.proved) == 8 and result.counts()["depth"] == 0

    def test_all_white_fails(self):
        blank = script_coloring(DrawingScript(DiskModel.OPEN, ()))
        result = dissection_check(blank, self.spec)
        assert not result
        # the empty script is proved white on every rectangle at depth 0
        assert result.counts()["leaves"] == 8 and result.counts()["depth"] == 0
        assert [(leaf.ray, leaf.side) for leaf in result.failures] == [(1, 1), (2, -1), (3, 1), (4, -1)]
        assert all(leaf.got is Shade.WHITE and leaf.proved for leaf in result.failures)
        assert len(result.proved) == 4 and not result.undecided
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


def assert_agrees_with_sampler(coloring, spec, seed):
    """No part proved uniform holds a sample of another shade, every failure
    witness has the shade reported, and a rectangle proved whole has no
    failing sample of the former sampled check on the rectangle shrunk by
    twice the coloring's margin (nor does a rectangle with a failing sample
    get proved)."""
    tau = coloring.tau
    result = dissection_check(coloring, spec)
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


def dissected(which, tau=DEFAULT_TAU):
    """The snake's or the sharp-12 script's coloring at tau, and its 12-dissection spec."""
    if which == "snake":
        geom = build_snake(1.001)
        return snake_coloring(geom, tau), snake_dissection_spec(geom)
    return script_coloring(sharp_ndissected_script(12), tau), sharp_dissection_spec(12)


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
        assert (result.counts()["depth"], len(result.undecided), len(result.failures)) == (0, 0, 0)

    @pytest.mark.parametrize("tau", [1e-6, 1e-4])
    @pytest.mark.parametrize("which, calls", [("snake", 25), ("sharp", 113)])
    def test_proves_at_the_colorings_own_tau(self, which, calls, tau):
        # the rectangles shrink by twice the coloring's margin, so a coloring
        # at a larger tau is proved as at the default, in as many kernel calls
        coloring, spec = dissected(which, tau)
        result = dissection_check(coloring, spec)
        counts = result.counts()
        assert result.ok and len(result.proved) == 24 and not result.undecided
        assert (counts["depth"], counts["kernel_calls"]) == (0, calls)
        assert all(leaf.s[0] == spec.a + 2 * tau and leaf.h[0] == 2 * tau for leaf in result.proved)

    @pytest.mark.parametrize("which", ["snake", "sharp"])
    def test_an_edge_within_the_collar_is_not_proved(self, which):
        # the boundary lies on every ray, 2*tau from the near edge of the
        # shrunk rectangles.  Turning the rays by k*tau/b brings it within
        # (2 - k)*tau of that edge of one rectangle per ray near s = b: at
        # k = 1.5 the edge is inside the collar and is not proved, as a
        # tau-shrunk edge would not be; at k = 0.5 every rectangle is.
        coloring, spec = dissected(which)
        turned = [dataclasses.replace(spec, phase=spec.phase + k * DEFAULT_TAU / spec.b) for k in (0.5, 1.5)]
        assert dissection_check(coloring, turned[0]).ok
        result = dissection_check(coloring, turned[1])
        assert not result and not result.failures
        assert {leaf.ray for leaf in result.undecided} == set(range(1, 13))
        assert result.counts()["depth"] == SPLIT_DEPTH

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
        assert result.counts()["depth"] == SPLIT_DEPTH
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


def rect_proof_inputs():
    """(name, coloring at tau, spec) of the snakes r = 1.0001 to 1.1, the
    snake's spec with a = 2.5 and 2.9, and sharp-n for n = 4, 12, 20: proofs
    whole at depth 0, and proofs split to depth 4 with failures and
    undecided leaves."""
    for tau in (1e-9, 1e-6, 1e-4):
        for r in (1.0001, 1.001, 1.01, 1.05, 1.1):
            geom = build_snake(r)
            yield pytest.param(snake_coloring(geom, tau), snake_dissection_spec(geom), id=f"snake r={r} tau={tau}")
        geom = build_snake(1.001)
        for a in (2.5, 2.9):
            spec = dataclasses.replace(snake_dissection_spec(geom), a=a)
            yield pytest.param(snake_coloring(geom, tau), spec, id=f"snake a={a} tau={tau}")
        for n in (4, 12, 20):
            yield pytest.param(script_coloring(sharp_ndissected_script(n), tau), sharp_dissection_spec(n),
                               id=f"sharp n={n} tau={tau}")


def far_edge_input():
    """A loop with a corner inside ray 1's black rectangle [1, 3] x [0, 1]
    of a 2-dissection and an edge along y = 1.01, 0.01 from the rectangle:
    the rectangle splits, and its quarters read that edge through their
    parent's floor."""
    corners = [Point(1.2, 0.5), Point(0.5, 1.01), Point(3.5, 1.01), Point(3.5, 2.0), Point(-1.2, 1.86)]
    loop = PiecewisePath(tuple(Segment(corners[k - 1], corners[k]) for k in range(5)))
    spec = DissectionSpec(apex=Point(0, 0), n=2, a=1.0, b=3.0, d=1.0, phase=0.0)
    return pytest.param(region_coloring((loop,)), spec, id="far edge")


class TestPieceRectKernel:
    """dissection_check measures each piece near a part with
    geometry.piece_rect_distance, in place of the four-edge form of
    tests/oracles.py."""

    @pytest.mark.parametrize("coloring, spec", rect_proof_inputs())
    def test_same_proofs_as_the_four_edge_form(self, monkeypatch, coloring, spec):
        report = dissection_check(coloring, spec)
        monkeypatch.setattr(obstruction, "piece_rect_distance", piece_rect_distance_by_edges)
        edges = dissection_check(coloring, spec)
        assert same_proof(report, edges)
        assert abs(report.counts()["min_margin"] - edges.counts()["min_margin"]) <= 1e-15

    @pytest.mark.parametrize("coloring, spec", [*rect_proof_inputs(), far_edge_input()])
    def test_handed_down_pieces_give_the_same_proofs(self, monkeypatch, coloring, spec):
        # each part measures only the pieces its parent found within the
        # bound, with the parent's floor for the rest.  Against parts that
        # measure every piece, each part the rule sees gets the same answer
        # and, when decided, a margin no larger; the proofs have the same
        # leaves, witnesses and counters, kernel calls and min_margin
        # included.  A decided region part's margin stays a lower bound:
        # tau below its least exact distance to any piece
        driver, split = obstruction.branch_and_bound, obstruction._Part.split

        def proof(fresh: bool):
            seen = []

            def recorded(roots, rule, part_split, *rest):
                def rule_seen(context, part):
                    seen.append((context, part.s, part.h, *rule(context, part), part))
                    return seen[-1][3:5]

                if fresh:
                    part_split = lambda part: [obstruction._Part(c.frame, *c.s, *c.h) for c in split(part)]
                return driver(roots, rule_seen, part_split, *rest)

            monkeypatch.setattr(obstruction, "branch_and_bound", recorded)
            return dissection_check(coloring, spec), seen

        (report, seen), (full, seen_full) = proof(False), proof(True)
        assert [r[:4] for r in seen] == [r[:4] for r in seen_full]
        assert all(r[4] <= f[4] for r, f in zip(seen, seen_full) if r[3] is not None)
        assert same_proof(report, full)
        assert report.counts() == full.counts()
        if not isinstance(coloring.source, DrawingScript):
            pieces = [piece for loop in coloring.source for piece in loop.pieces]
            for _, s, h, answer, margin, part in seen:
                if answer is not None:
                    exact = min(geometry.piece_rect_distance(piece, part.frame, s, h) for piece in pieces)
                    assert margin + coloring.tau <= exact + 1e-12, (s, h)

    def test_a_far_edge_is_read_through_the_floor(self, monkeypatch):
        # the bottom right quarter of ray 1's black rectangle is 0.51 from
        # the edge y = 1.01 and farther from the corner inside the
        # rectangle; that edge is 0.01 + 2 tau from the shrunk rectangle,
        # past tau, so the quarter's margin is the floor's 0.01 + tau
        coloring, spec = far_edge_input().values
        margins = {}
        rule = obstruction.branch_and_bound

        def recorded(roots, part_rule, *rest):
            def rule_seen(context, part):
                margins[context, part.s, part.h] = answer = part_rule(context, part)
                return answer
            return rule(roots, rule_seen, *rest)

        monkeypatch.setattr(obstruction, "branch_and_bound", recorded)
        dissection_check(coloring, spec)
        t = coloring.tau
        shade, margin = margins[(1, 1), (2.0, spec.b - 2 * t), (2 * t, 0.5)]
        assert shade is Shade.WHITE and margin == pytest.approx(0.01 + t, abs=1e-15)

    def test_sub_parts_measure_only_the_pieces_handed_down(self, monkeypatch):
        # the snake's spec with a = 2.5 splits to depth 4: 157 kernel calls,
        # and 1584 box gaps when every sub-part measured every piece
        geom = build_snake(1.001)
        spec = dataclasses.replace(snake_dissection_spec(geom), a=2.5)
        gaps = []
        box_gap = obstruction.box_gap
        monkeypatch.setattr(obstruction, "box_gap", lambda a, b: gaps.append(a) or box_gap(a, b))
        counts = dissection_check(snake_coloring(geom), spec).counts()
        assert (counts["depth"], counts["kernel_calls"]) == (SPLIT_DEPTH, 157)
        assert len(gaps) <= 511

    def test_split_proofs_are_among_the_inputs(self):
        counts = [dissection_check(*param.values).counts() for param in rect_proof_inputs()]
        assert any(c["depth"] == SPLIT_DEPTH and c["failures"] and c["undecided"] for c in counts)

    @pytest.mark.parametrize("which", ["snake", "sharp"])
    def test_builds_no_segment_and_calls_no_piece_distance(self, monkeypatch, which):
        coloring, spec = dissected(which)
        calls, segments = [], []
        distance, check = geometry.piece_distance, Segment.__post_init__
        monkeypatch.setattr(geometry, "piece_distance", lambda p, q: calls.append(p) or distance(p, q))
        monkeypatch.setattr(Segment, "__post_init__", lambda self: segments.append(self) or check(self))
        assert dissection_check(coloring, spec).ok
        assert (len(calls), len(segments)) == (0, 0)
        # the count sees the Segments the four-edge form builds
        monkeypatch.setattr(obstruction, "piece_rect_distance", piece_rect_distance_by_edges)
        assert dissection_check(coloring, spec).ok and segments


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


class TestBranchAndBound:
    """The shared loop on a toy input: parts are intervals of [0, 1], the
    context names the root, and every part that is not split is a leaf."""

    @staticmethod
    def run(roots, answers, lemma, max_depth=3):
        """(result, the (context, part) pairs the rule saw, the settle calls);
        answers(part) gives the rule's (answer, margin)."""
        seen, settled = [], []

        def rule(context, part):
            seen.append((context, part))
            return answers(part)

        def settle(context, part, answer, margin):
            settled.append((context, part, answer))
            return (context, part, answer), ("undecided" if answer is None else "proved")

        def split(part):
            mid = 0.5 * (part[0] + part[1])
            return (part[0], mid), (mid, part[1])

        result = obstruction.branch_and_bound(roots, rule, split, max_depth, lemma, settle)
        return result, seen, settled

    def test_an_image_takes_an_answer_that_cleared_the_lemma(self):
        roots = [("k", True, "rep", (0.0, 1.0)), ("k", False, "image", (0.0, 1.0))]
        result, seen, _ = self.run(roots, lambda part: ("yes", 1.5), lemma=1.0)
        assert seen == [("rep", (0.0, 1.0))]
        assert result[0] == (("rep", (0.0, 1.0), "yes"), ("image", (0.0, 1.0), "yes"))

    def test_a_margin_equal_to_the_lemma_is_decided_again(self):
        roots = [("k", True, "rep", (0.0, 1.0)), ("k", False, "image", (0.0, 1.0))]
        _, seen, _ = self.run(roots, lambda part: ("yes", 1.0), lemma=1.0)
        assert seen == [("rep", (0.0, 1.0)), ("image", (0.0, 1.0))]

    def test_an_image_does_not_seed_the_replay(self):
        roots = [("k", False, "image", (0.0, 1.0)), ("k", True, "rep", (0.0, 1.0)), ("k", False, "other", (0.0, 1.0))]
        _, seen, _ = self.run(roots, lambda part: ("yes", 1.5), lemma=1.0)
        assert seen == [("image", (0.0, 1.0)), ("rep", (0.0, 1.0))]

    def test_an_open_part_at_the_cap_is_settled_without_an_answer(self):
        (proved, failed, undecided, visited, deepest), seen, settled = self.run(
            [("k", True, "rep", (0.0, 1.0))], lambda part: (None, 0.0), lemma=1.0, max_depth=2)
        quarters = [(0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 1.0)]  # the low half first
        assert settled == [("rep", q, None) for q in quarters]
        assert (proved, failed, undecided, visited, deepest) == ((), (), tuple(settled), 7, 2)
        assert len(seen) == 7

    def test_the_leaves_are_those_of_the_full_proof(self):
        # an interval away from 0.3 is proved with its distance to 0.3 as
        # margin; the images replay the representative's far parts and decide
        # the near ones again
        def answers(part):
            lo, hi = part
            return ("far", min(abs(lo - 0.3), abs(hi - 0.3))) if not lo < 0.3 < hi else (None, 0.0)

        roots = [(key, rep, (key, k), (0.0, 1.0)) for k, (key, rep) in enumerate([(0, True), (1, True), (0, False),
                                                                                   (1, False), (0, False)])]
        reduced, seen, _ = self.run(roots, answers, lemma=0.1)
        full, every, _ = self.run(roots, answers, lemma=math.inf)
        assert reduced[:3] == full[:3] and reduced[3:] == full[3:] == (5 * 7, 3)
        assert [part for (_, k), part, _ in full[0] if k == 0] == [(0.0, 0.25), (0.375, 0.5), (0.5, 1.0)]
        assert [k for (_, k), _, _ in full[0]] == sorted(k for (_, k), _, _ in full[0])
        assert len(every) == 5 * 7 and len(seen) < len(every)


def full_dissection_check(monkeypatch, coloring, spec):
    """dissection_check with the orbit finder patched to the trivial orbit."""
    with monkeypatch.context() as patch:
        patch.setattr(obstruction, "_ray_orbit", lambda source, spec: (spec.n, math.inf, 0.0))
        return dissection_check(coloring, spec)


def assert_orbit_matches_the_full_proof(monkeypatch, coloring, spec, orbit):
    report, full = dissection_check(coloring, spec), full_dissection_check(monkeypatch, coloring, spec)
    assert (report.counts()["orbit"], full.counts()["orbit"]) == (orbit, 1)
    assert same_proof(report, full)
    assert report.counts()["kernel_calls"] < full.counts()["kernel_calls"]
    return report


def turned(piece, centre, angle):
    if isinstance(piece, SinglePoint):
        return SinglePoint(rotate_about(piece.p, centre, angle))
    return piece.rotated(centre, angle)


@st.composite
def turned_scripts(draw):
    """(script, spec, m): one to three strokes, each holding m turned copies
    of one or two random points, segments and arcs about a random centre,
    and a spec of 2m rays about that centre, which the turn by 2*pi/m maps
    ray j onto ray j + 2."""
    m = draw(st.integers(2, 6))
    rng = random.Random(draw(st.integers(0, 2**16)))
    centre = random_point(rng)
    strokes = []
    for k in range(rng.randint(1, 3)):
        base = []
        while len(base) < rng.randint(1, 2):
            prim = random_primitive(rng)
            if isinstance(prim, (SinglePoint, Segment, Arc)):
                base.append(prim)
        prims = tuple(turned(p, centre, 2.0 * math.pi * q / m) for q in range(m) for p in base)
        strokes.append(Stroke(Tool.PENCIL if k % 2 == 0 else Tool.ERASER, CenterSet(prims)))
    a = rng.uniform(0.0, 2.0)
    spec = DissectionSpec(apex=centre, n=2 * m, a=a, b=a + rng.uniform(0.1, 3.0), d=rng.uniform(0.1, 2.0),
                          phase=rng.uniform(0.0, 2.0 * math.pi), first_orientation=rng.choice(["ccw", "cw"]))
    return DrawingScript(DiskModel.OPEN, tuple(strokes)), spec, m


class TestRayOrbit:
    """dissection_check decides rays 1..k and derives the others from them."""

    @pytest.mark.parametrize("start", [0, 5])
    def test_snake(self, monkeypatch, start):
        # the loop listed from another start piece turns onto itself all the same
        geom = build_snake(1.001)
        pieces = geom.boundary.pieces
        coloring = region_coloring((PiecewisePath(pieces[start:] + pieces[:start]),))
        assert_orbit_matches_the_full_proof(monkeypatch, coloring, snake_dissection_spec(geom), 2)

    @pytest.mark.parametrize("n", [4, 6, 12, 20])
    def test_sharp_scripts(self, monkeypatch, n):
        report = assert_orbit_matches_the_full_proof(
            monkeypatch, script_coloring(sharp_ndissected_script(n)), sharp_dissection_spec(n), n // 2)
        assert report.ok

    def test_failures_below_the_bound(self, monkeypatch):
        # below cot(pi/12) the slid disks leave parts of the rectangles white
        spec = dataclasses.replace(sharp_dissection_spec(12), a=0.5)
        report = assert_orbit_matches_the_full_proof(
            monkeypatch, script_coloring(sharp_ndissected_script(12)), spec, 6)
        assert len(report.failures) == 324 and len(report.undecided) == 144

    def test_printed_failures_below_the_bound(self, monkeypatch, capsys):
        spec = dataclasses.replace(sharp_dissection_spec(12), a=0.5)
        monkeypatch.setattr(cli, "sharp_dissection_spec", lambda n: spec)
        derived = cli.main(["verify", "sharp", "--n", "12"]), capsys.readouterr()
        monkeypatch.setattr(obstruction, "_ray_orbit", lambda source, spec: (spec.n, math.inf, 0.0))
        full = cli.main(["verify", "sharp", "--n", "12"]), capsys.readouterr()
        assert derived == full
        code, (out, err) = derived
        assert (code, err) == (1, "")
        assert len(out.splitlines()) == 6 and out.splitlines()[1].startswith("  ray ")

    @settings(DIFF, max_examples=25)
    @given(case=turned_scripts())
    def test_turned_scripts(self, monkeypatch, case):
        script, spec, m = case
        assert_orbit_matches_the_full_proof(monkeypatch, script_coloring(script), spec, m)

    def test_a_nudged_segment_has_no_orbit(self, monkeypatch):
        # 1e-10 is far beyond the symmetry slack (1e-12 times the extent)
        # and well inside the proof's margin
        (stroke,) = sharp_ndissected_script(12).strokes
        prims = list(stroke.centers.primitives)
        prims[3] = Segment(prims[3].a + Point(1e-10, 0.0), prims[3].b + Point(1e-10, 0.0))
        script = DrawingScript(DiskModel.OPEN, (Stroke(Tool.PENCIL, CenterSet(tuple(prims))),))
        coloring, spec = script_coloring(script), sharp_dissection_spec(12)
        report, full = dissection_check(coloring, spec), full_dissection_check(monkeypatch, coloring, spec)
        assert report == full and report.ok
        assert (report.counts()["orbit"], report.counts()["kernel_calls"]) == (1, 916)

    def test_a_half_plane_has_no_orbit(self, monkeypatch):
        (stroke,) = sharp_ndissected_script(12).strokes
        plane = OffsetHalfPlane(Point(0.0, 1.0), 100.0)
        script = DrawingScript(DiskModel.OPEN, (Stroke(Tool.PENCIL, CenterSet(stroke.centers.primitives + (plane,))),))
        report = dissection_check(script_coloring(script), sharp_dissection_spec(12))
        assert report.ok and report.counts()["orbit"] == 1


class TestShiftLookup:
    """_orbit and _ray_orbit take their shifts from geometry.turn_orbits,
    which tries the shifts nearest start first, against the search over
    every shift (tests/oracles.py) through each caller."""

    @staticmethod
    def assert_matches(monkeypatch, module, find, none):
        # the same (m or k, delta, slack) where an orbit is found; without
        # one (m or k equal to none), both deltas are above the slack
        got = find()
        with monkeypatch.context() as patch:
            patch.setattr(module, "turn_orbits", turn_orbits_every_shift)
            want = find()
        if want[0] != none:
            assert got == want
        else:
            assert got[0] == none and got[2] == want[2] and got[1] > got[2]
        return got

    def ray_orbit(self, monkeypatch, source, spec):
        return self.assert_matches(monkeypatch, obstruction, lambda: obstruction._ray_orbit(source, spec), spec.n)

    def orbit(self, monkeypatch, path):
        return self.assert_matches(monkeypatch, curvature, lambda: curvature._orbit(path, path.piece_offsets()), 1)

    @pytest.mark.parametrize("start", [0, 5, 17])
    def test_snake(self, monkeypatch, start):
        geom = build_snake(1.001)
        pieces = geom.boundary.pieces
        path = PiecewisePath(pieces[start:] + pieces[:start])
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return turn_mismatch(*args)

        turn_mismatch = geometry.turn_mismatch
        monkeypatch.setattr(geometry, "turn_mismatch", counted)
        assert self.ray_orbit(monkeypatch, (path,), snake_dissection_spec(geom))[0] == 6
        # k = 2, 4 and 6 take at most one call each, none when no piece
        # starts within the bound of piece 0's turned start; the search over
        # every shift took 28 for each
        assert calls == {0: 3, 5: 1, 17: 3}[start]
        assert self.orbit(monkeypatch, path)[0] == 2
        # and listed clockwise
        path = reversed_loop(path)
        assert self.ray_orbit(monkeypatch, (path,), snake_dissection_spec(geom))[0] == 6
        assert self.orbit(monkeypatch, path)[0] == 2

    @pytest.mark.parametrize("clockwise", [False, True])
    @pytest.mark.parametrize("m", range(3, 13))
    def test_regular_polygons(self, monkeypatch, m, clockwise):
        # the turn by 2*pi/m maps side k onto side k + 1, or k - 1 clockwise
        center = Point(3.0, -2.0)
        path = regular_polygon_path(m, 5.0, center, 0.3, 1 % m)
        path = reversed_loop(path) if clockwise else path
        assert self.orbit(monkeypatch, path)[0] == m
        spec = DissectionSpec(apex=center, n=2 * m, a=1.0, b=2.0, d=0.5, phase=0.1)
        assert self.ray_orbit(monkeypatch, (path,), spec)[0] == 2

    @pytest.mark.parametrize("n", [4, 6, 12, 20])
    def test_sharp_scripts(self, monkeypatch, n):
        assert self.ray_orbit(monkeypatch, sharp_ndissected_script(n), sharp_dissection_spec(n))[0] == 2

    def test_no_orbit(self, monkeypatch):
        (stroke,) = sharp_ndissected_script(12).strokes
        prims = list(stroke.centers.primitives)
        prims[3] = Segment(prims[3].a + Point(1e-10, 0.0), prims[3].b + Point(1e-10, 0.0))
        for extra in ((), (OffsetHalfPlane(Point(0.0, 1.0), 100.0),)):
            script = DrawingScript(DiskModel.OPEN, (Stroke(Tool.PENCIL, CenterSet(tuple(prims) + extra)),))
            assert self.ray_orbit(monkeypatch, script, sharp_dissection_spec(12))[0] == 12

    def test_two_pieces_start_where_piece_0_lands(self, monkeypatch):
        # the half turn takes S0 onto S1 (shift 2) and T onto U; T, at shift
        # 1, starts where S1 does, so the nearest start alone is a tie that
        # the lower, wrong shift wins
        p, q, r = Point(1.0, 0.5), Point(2.0, 1.5), Point(-0.5, 2.0)
        p_, q_, r_ = (v.scaled(-1.0) for v in (p, q, r))
        prims = (Segment(p, q), Segment(p_, r), Segment(p_, q_), Segment(p, r_))
        script = DrawingScript(DiskModel.OPEN, (Stroke(Tool.PENCIL, CenterSet(prims)),))
        spec = DissectionSpec(apex=Point(0.0, 0.0), n=4, a=0.5, b=3.0, d=1.0, phase=0.3)
        assert self.ray_orbit(monkeypatch, script, spec)[0] == 2

    @settings(DIFF, max_examples=50)
    @given(case=turned_scripts(), shuffle=st.randoms(use_true_random=False))
    def test_turned_scripts(self, monkeypatch, case, shuffle):
        # also with the primitives of each stroke listed in another order,
        # which no cyclic shift maps onto itself in general
        script, spec, m = case
        assert self.ray_orbit(monkeypatch, script, spec)[0] == 2
        strokes = []
        for stroke in script.strokes:
            prims = list(stroke.centers.primitives)
            shuffle.shuffle(prims)
            strokes.append(Stroke(stroke.tool, CenterSet(tuple(prims))))
        self.ray_orbit(monkeypatch, DrawingScript(script.model, tuple(strokes)), spec)


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
