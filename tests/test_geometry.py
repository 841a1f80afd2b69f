"""Unit and property tests for repro.spatial.geometry."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.spatial.geometry import Point, euclidean, travel_time

coords = st.floats(
    min_value=-100, max_value=100, allow_nan=False, allow_infinity=False
)


class TestPoint:
    def test_distance_basic(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == 5.0

    def test_distance_zero(self):
        p = Point(1.5, -2.5)
        assert p.distance_to(p) == 0.0

    def test_as_tuple(self):
        assert Point(1.0, 2.0).as_tuple() == (1.0, 2.0)

    def test_translated(self):
        assert Point(1, 1).translated(2, -1) == Point(3, 0)

    def test_points_hashable(self):
        assert len({Point(0, 0), Point(0, 0), Point(1, 0)}) == 2

    @given(coords, coords, coords, coords)
    def test_distance_symmetric(self, x1, y1, x2, y2):
        a, b = Point(x1, y1), Point(x2, y2)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    @given(coords, coords, coords, coords, coords, coords)
    def test_triangle_inequality(self, x1, y1, x2, y2, x3, y3):
        a, b, c = Point(x1, y1), Point(x2, y2), Point(x3, y3)
        assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-9


class TestTravelTime:
    def test_basic(self):
        assert travel_time(Point(0, 0), Point(0, 2), speed=0.5) == 4.0

    def test_zero_speed_far(self):
        assert travel_time(Point(0, 0), Point(1, 0), speed=0.0) == math.inf

    def test_zero_speed_at_location(self):
        assert travel_time(Point(1, 1), Point(1, 1), speed=0.0) == 0.0

    def test_euclidean_helper(self):
        assert euclidean(Point(0, 0), Point(0, 3)) == 3.0
