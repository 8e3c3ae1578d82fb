import logging
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskdraw import (
    Arc,
    Point,
    Segment,
    build_snake,
    path_max_curvature,
    rolling_disk_check,
)
from diskdraw.constructions import PiecewisePath
from diskdraw import curvature
from diskdraw.curvature import CLEARANCE, MAX_DEPTH

from helpers import DIFF, regular_polygon_path, reversed_loop, same_proof, scaled_loop
from oracles import rolling_disk_sampled, tangent_disk_distance, window_parts_scanned


def circle_path(radius, center=Point(0, 0), split=math.pi):
    return PiecewisePath(
        (
            Arc(center, radius, 0.0, split, ccw=True),
            Arc(center, radius, split, 0.0, ccw=True),
        )
    )


def square_path(side=10.0):
    s = side
    return PiecewisePath(
        (
            Segment(Point(0, 0), Point(s, 0)),
            Segment(Point(s, 0), Point(s, s)),
            Segment(Point(s, s), Point(0, s)),
            Segment(Point(0, s), Point(0, 0)),
        )
    )


def rounded_rectangle(width, height, radius):
    """The rectangle [0, width] x [0, height] with its corners rounded to radius."""
    w, h, r = width, height, radius
    return PiecewisePath(
        (
            Segment(Point(r, 0), Point(w - r, 0)),
            Arc(Point(w - r, r), r, -0.5 * math.pi, 0.0),
            Segment(Point(w, r), Point(w, h - r)),
            Arc(Point(w - r, h - r), r, 0.0, 0.5 * math.pi),
            Segment(Point(w - r, h), Point(r, h)),
            Arc(Point(r, h - r), r, 0.5 * math.pi, math.pi),
            Segment(Point(0, h - r), Point(0, r)),
            Arc(Point(r, r), r, math.pi, 1.5 * math.pi),
        )
    )


@pytest.fixture(scope="module")
def snake_path():
    return build_snake(1.001).boundary


def failing_length(report):
    return sum(leaf.hi - leaf.lo for leaf in report.failures)


class TestMaxCurvature:
    def test_snake(self, snake_path):
        assert path_max_curvature(snake_path) == 1.0 / 1.001

    def test_circle(self):
        assert path_max_curvature(circle_path(2.0)) == pytest.approx(0.5, rel=1e-15)

    def test_square_pieces_are_flat(self):
        assert path_max_curvature(square_path()) == 0.0


class TestRollingDisk:
    def test_snake_passes(self, snake_path):
        report = rolling_disk_check(snake_path, eps=0.5)
        assert report.ok
        assert report.failures == () and report.undecided == ()

    def test_snake_is_cleared_without_a_split(self, snake_path):
        # each piece and side is cleared whole: 28 pieces x 2 sides, each
        # against its own piece and the two next to it, and the half turn
        # about the hub derives pieces 14..27 from pieces 0..13
        report = rolling_disk_check(snake_path, eps=0.5)
        assert report.counts() == {"intervals": 56, "kernel_calls": 84, "depth": 0,
                                   "min_cleared": 0.9999999999999981, "orbit": 2,
                                   "undecided": 0, "failures": 0}

    def test_a_whole_piece_is_its_own_window_part(self, snake_path):
        # a copy would move some ends by an ulp: point_at(1.0) of a segment
        # need not round to its end
        for piece in snake_path.pieces:
            assert curvature._subpiece(piece, 0.0, 1.0) is piece
        assert any(piece.point_at(1.0) != piece.end_point for piece in snake_path.pieces)

    def test_small_circle_fails_everywhere(self):
        path = circle_path(0.5)
        report = rolling_disk_check(path, eps=0.5)
        assert not report.ok
        # the failing leaves cover the path, on the inner side
        assert failing_length(report) >= path.total_length * 0.9
        assert {leaf.side for leaf in report.failures} == {1}

    def test_long_straight_edges_pass(self):
        # a huge square: corner failures are genuine (junctions are corners),
        # but the long flat runs must be cleared
        report = rolling_disk_check(square_path(40.0), eps=0.5)
        assert not report.ok
        for leaf in report.failures:
            dist_to_corner = min(abs((leaf.s % 40.0) - 0.0), abs((leaf.s % 40.0) - 40.0))
            assert dist_to_corner <= 0.5 + 1e-9

    def test_radius_dichotomy(self):
        for radius in (0.5, 0.9):
            report = rolling_disk_check(circle_path(radius), eps=0.4)
            assert not report.ok
        for radius in (1.1, 2.0):
            report = rolling_disk_check(circle_path(radius), eps=0.4)
            assert report.ok

    def test_rigid_motion_invariance(self, snake_path):
        rotated = PiecewisePath(
            tuple(p.rotated(Point(3.0, -2.0), 1.2345) for p in snake_path.pieces)
        )
        report = rolling_disk_check(rotated, eps=0.5)
        assert report.ok

    def test_invalid_arguments(self):
        for eps in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                rolling_disk_check(circle_path(2.0), eps=eps)

    def test_circle_of_radius_09_fails_with_a_witness(self):
        path = circle_path(0.9)
        report = rolling_disk_check(path, eps=0.5)
        assert not report.ok and report.failures
        offsets = path.piece_offsets()
        for leaf in report.failures[:: len(report.failures) // 7]:
            f = (leaf.s - offsets[leaf.piece]) / (offsets[leaf.piece + 1] - offsets[leaf.piece])
            s, center, distance = tangent_disk_distance(path, leaf.piece, f, leaf.side, eps=0.5)
            assert s == pytest.approx(leaf.s, abs=1e-12)
            assert center.distance_to(leaf.center) < 1e-12
            assert distance < CLEARANCE and distance == pytest.approx(leaf.distance, abs=1e-12)

    @pytest.mark.parametrize("radius", [1.0, 1.5])
    def test_circles_of_radius_at_least_one_pass(self, radius):
        report = rolling_disk_check(circle_path(radius), eps=0.5)
        assert report.ok
        assert report.counts()["depth"] == 0

    def test_counts_are_logged(self, caplog, snake_path):
        with caplog.at_level(logging.DEBUG, logger="diskdraw"):
            report = rolling_disk_check(snake_path, eps=0.5)
        (record,) = [r for r in caplog.records if r.getMessage().startswith("rolling disk:")]
        assert record.args[2:] == (56, 84, 0, report.counts()["min_cleared"], 2, 0, 0)
        delta, slack = record.args[:2]
        assert 0.0 < delta < 1e-12 < slack < 1e-11


@pytest.mark.parametrize("eps", [0.5, 1.0, 2.0, 4.0])
def test_window_bisection_matches_the_scan(monkeypatch, snake_path, eps):
    # the bisected windows visit the same (piece, shift) parts in the same
    # order as the full scan, so every field of the report is identical,
    # every leaf and the kernel count included (eps 4 has 1108 failures)
    bisected = rolling_disk_check(snake_path, eps=eps)
    monkeypatch.setattr(curvature, "_window_parts", window_parts_scanned)
    scanned = rolling_disk_check(snake_path, eps=eps)
    assert bisected == scanned
    assert (eps < 4.0) == (not bisected.failures)


def witnesses_scanned(monkeypatch, path, eps):
    """rolling_disk_check with every piece box at distance 0 from every
    point, so that each witness scan computes the distance to every part."""
    with monkeypatch.context() as patch:
        patch.setattr(curvature, "box_gap", lambda a, b: 0.0)
        return rolling_disk_check(path, eps)


@pytest.mark.parametrize("path, eps", [("snake", 4.0), (square_path(10.0), math.inf), (circle_path(0.5), math.inf),
                                       (rounded_rectangle(3.0, 2.0, 0.6), math.inf),
                                       (rounded_rectangle(3.0, 2.0, 0.6), 0.5)])
def test_witness_scan_matches_the_full_scan(monkeypatch, snake_path, path, eps):
    # the witness scan skips the parts whose piece box is too far to lower
    # the distance: every leaf, its witness and its distance are the full
    # scan's, bit for bit, and only the kernel count falls
    path = snake_path if path == "snake" else path
    report, full = rolling_disk_check(path, eps), witnesses_scanned(monkeypatch, path, eps)
    assert same_proof(report, full)
    assert report.failures and report.failures == full.failures
    assert report.counts()["kernel_calls"] < full.counts()["kernel_calls"]


# ---------------------------------------------------------------------------
# The branch and bound against the sampling oracle
# ---------------------------------------------------------------------------


def assert_sound(path, eps=0.5, step=0.05):
    """No interval the branch and bound cleared holds a sample that the
    oracle fails, and the oracle confirms the failure witnesses (40 of
    them, evenly spaced, when there are more)."""
    report = rolling_disk_check(path, eps=eps)
    offsets = path.piece_offsets()
    slack = 1e-9 * offsets[-1]
    open_leaves = {}
    for leaf in report.failures + report.undecided:
        open_leaves.setdefault((leaf.piece, leaf.side), []).append((leaf.lo, leaf.hi))
    for piece, s, side, _ in rolling_disk_sampled(path, step=step, eps=eps):
        assert any(lo - slack <= s <= hi + slack for lo, hi in open_leaves.get((piece, side), ())), \
            (piece, s, side)
    for leaf in report.failures[:: max(1, len(report.failures) // 40)]:
        f = (leaf.s - offsets[leaf.piece]) / (offsets[leaf.piece + 1] - offsets[leaf.piece])
        assert tangent_disk_distance(path, leaf.piece, f, leaf.side, eps)[2] < CLEARANCE
    assert report.counts()["depth"] <= MAX_DEPTH
    return report


class TestAgainstSampler:
    def test_oracle_small_circle_fails_everywhere(self):
        # the sampler form of the claim: one probe side fails at every sample
        path = circle_path(0.5)
        failures = rolling_disk_sampled(path, step=0.05, eps=0.5)
        sampled = {round(s, 9) for _, s, _, _ in failures}
        assert len(sampled) * 0.05 >= path.total_length * 0.9

    @DIFF
    @given(radius=st.floats(0.5, 3.0), split=st.floats(0.2, 2.0 * math.pi - 0.2),
           center=st.tuples(st.floats(-5, 5), st.floats(-5, 5)))
    def test_split_circles(self, radius, split, center):
        report = assert_sound(circle_path(radius, Point(*center), split))
        assert report.ok == (radius >= 1.0)

    @settings(DIFF, max_examples=25)
    @given(radius=st.floats(0.5, 2.0), width=st.floats(0.1, 6.0), height=st.floats(0.1, 6.0))
    def test_rounded_rectangles(self, radius, width, height):
        path = rounded_rectangle(2.0 * radius + width, 2.0 * radius + height, radius)
        report = assert_sound(path)
        if radius >= 1.0:
            assert report.ok

    @settings(DIFF, max_examples=25)
    @given(side=st.floats(1.0, 40.0))
    def test_square_corners(self, side):
        report = assert_sound(square_path(side))
        assert not report.ok

    @settings(DIFF, max_examples=6)
    @given(scale=st.sampled_from([0.98, 1.0, 1.5]), angle=st.floats(0.0, 2.0 * math.pi))
    def test_snake_scaled_and_rotated(self, snake_path, scale, angle):
        pieces = scaled_loop(snake_path, scale, Point(0.0, 0.0)).pieces
        path = PiecewisePath(tuple(p.rotated(Point(1.0, 2.0), angle) for p in pieces))
        report = assert_sound(path, step=0.25)
        assert report.ok == (scale >= 1.0)


# ---------------------------------------------------------------------------
# One representative per orbit against the full proof
# ---------------------------------------------------------------------------


def full_proof(monkeypatch, path, eps):
    """rolling_disk_check with the orbit finder patched to the trivial orbit."""
    with monkeypatch.context() as patch:
        patch.setattr(curvature, "_orbit", lambda path, offsets: (1, math.inf, 0.0))
        return rolling_disk_check(path, eps)


def assert_orbit_matches_the_full_proof(monkeypatch, path, eps, orbit, saves=True):
    report, full = rolling_disk_check(path, eps), full_proof(monkeypatch, path, eps)
    assert (report.counts()["orbit"], full.counts()["orbit"]) == (orbit, 1)
    assert same_proof(report, full)
    assert (report.counts()["kernel_calls"] < full.counts()["kernel_calls"]) == saves
    return report


def moved(piece, by: Point):
    """The piece translated by the vector by."""
    if isinstance(piece, Segment):
        return Segment(piece.a + by, piece.b + by)
    return Arc(piece.center + by, piece.radius, piece.start_angle, piece.end_angle, piece.ccw)


class TestOrbit:
    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0, 4.0])
    def test_snake(self, monkeypatch, snake_path, eps):
        # pieces 0..13 represent the half-turn orbits; eps 4 has 1108 failures
        report = assert_orbit_matches_the_full_proof(monkeypatch, snake_path, eps, 2)
        assert len(report.failures) == (1108 if eps == 4.0 else 0)

    @pytest.mark.parametrize("path, orbit", [(circle_path(0.9), 2), (circle_path(1.5, Point(2.0, -1.0)), 2),
                                             (square_path(10.0), 4)])
    def test_circles_and_squares(self, monkeypatch, path, orbit):
        assert_orbit_matches_the_full_proof(monkeypatch, path, 0.5, orbit)

    @pytest.mark.parametrize("scale", [1e-3, 1e6])
    def test_snake_scaled_and_moved(self, monkeypatch, snake_path, scale):
        # at 1e6 the slack, 1e-12 times the extent, is about 1e-5, more than
        # the 1e-9 between CLEARANCE and the distance 1 from an offset curve
        # to its own piece, so every interval of an image is decided again
        loop = scaled_loop(snake_path, scale, Point(-7.0 * scale, 3.0 * scale))
        path = PiecewisePath(tuple(p.rotated(Point(scale, 2.0 * scale), 1.2345) for p in loop.pieces))
        report = assert_orbit_matches_the_full_proof(monkeypatch, path, 0.5 * scale, 2, saves=scale < 1.0)
        assert bool(report.failures) == (scale < 1.0)

    @settings(DIFF, max_examples=25)
    @given(m=st.integers(3, 12), radius=st.floats(2.0, 20.0), center=st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
           turn=st.floats(0.0, 2.0 * math.pi), start=st.integers(0, 11))
    def test_regular_polygons(self, monkeypatch, m, radius, center, turn, start):
        # listed clockwise, the turn maps piece k onto piece k - 1 = k + (m - 1)
        path = regular_polygon_path(m, radius, Point(*center), turn, start % m)
        for loop in (path, reversed_loop(path)):
            assert_orbit_matches_the_full_proof(monkeypatch, loop, 0.5, m)

    def test_a_nudged_piece_has_no_orbit(self, monkeypatch, snake_path):
        # 1e-10 is inside the junction slack (1e-9 times the extent), so the
        # path still closes, and far beyond the symmetry slack (1e-12 times it)
        pieces = list(snake_path.pieces)
        pieces[5] = moved(pieces[5], Point(1e-10, 0.0))
        nudged = PiecewisePath(tuple(pieces))
        report, full = rolling_disk_check(nudged, 0.5), full_proof(monkeypatch, nudged, 0.5)
        assert report == full and report.ok
        assert (report.counts()["orbit"], report.counts()["kernel_calls"]) == (1, 168)

    def test_another_start_piece_keeps_the_orbit(self, monkeypatch, snake_path):
        pieces = snake_path.pieces
        path = PiecewisePath(pieces[5:] + pieces[:5])
        assert_orbit_matches_the_full_proof(monkeypatch, path, 4.0, 2)
