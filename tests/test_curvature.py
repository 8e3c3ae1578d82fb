import math

import pytest

from diskdraw import (
    Arc,
    Point,
    Segment,
    build_snake,
    path_max_curvature,
    rolling_disk_check,
)
from diskdraw.constructions import PiecewisePath


def circle_path(radius, center=Point(0, 0)):
    return PiecewisePath(
        (
            Arc(center, radius, 0.0, math.pi, ccw=True),
            Arc(center, radius, math.pi, 0.0, ccw=True),
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


@pytest.fixture(scope="module")
def snake_path():
    return build_snake(1.001).boundary


class TestMaxCurvature:
    def test_snake(self, snake_path):
        report = path_max_curvature(snake_path)
        assert report.max_unsigned_curvature == 1.0 / 1.001

    def test_circle(self):
        report = path_max_curvature(circle_path(2.0))
        assert report.max_unsigned_curvature == pytest.approx(0.5, rel=1e-15)

    def test_square_pieces_are_flat(self):
        report = path_max_curvature(square_path())
        assert report.max_unsigned_curvature == 0.0
        assert all(k == 0.0 for _, k in report.per_piece)


class TestRollingDisk:
    def test_snake_passes(self, snake_path):
        report = rolling_disk_check(snake_path, step=0.05, eps=0.5)
        assert report.rolling_disk_ok
        assert report.failures == ()
        assert report.max_unsigned_curvature < 1.0

    def test_small_circle_fails_everywhere(self):
        path = circle_path(0.5)
        report = rolling_disk_check(path, step=0.05, eps=0.5)
        assert not report.rolling_disk_ok
        # one probe side fails at every sample
        sampled = {round(s, 9) for s, _, _ in report.failures}
        assert len(sampled) * 0.05 >= path.total_length * 0.9

    def test_long_straight_edges_pass(self):
        # a huge square: corner failures are genuine (junctions are corners),
        # but samples on the long flat runs must pass
        report = rolling_disk_check(square_path(40.0), step=1.0, eps=0.5)
        for s, _, _ in report.failures:
            dist_to_corner = min(abs((s % 40.0) - 0.0), abs((s % 40.0) - 40.0))
            assert dist_to_corner <= 0.5 + 1e-9

    def test_radius_dichotomy(self):
        for radius in (0.5, 0.9):
            report = rolling_disk_check(circle_path(radius), step=0.1, eps=0.4)
            assert not report.rolling_disk_ok
        for radius in (1.1, 2.0):
            report = rolling_disk_check(circle_path(radius), step=0.1, eps=0.4)
            assert report.rolling_disk_ok

    def test_rigid_motion_invariance(self, snake_path):
        rotated = PiecewisePath(
            tuple(p.rotated(Point(3.0, -2.0), 1.2345) for p in snake_path.pieces)
        )
        report = rolling_disk_check(rotated, step=0.25, eps=0.5)
        assert report.rolling_disk_ok

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            rolling_disk_check(circle_path(2.0), step=0.0, eps=0.5)
