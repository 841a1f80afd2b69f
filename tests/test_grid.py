"""Tests for the uniform grid index, including equivalence with a
brute-force scan on random workloads."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spatial.geometry import Point
from repro.spatial.grid import GridIndex


def random_points(rng, count):
    xy = rng.uniform(0, 1, size=(count, 2))
    return [(i, Point(float(x), float(y))) for i, (x, y) in enumerate(xy)]


class TestGridBasics:
    def test_bad_cell_size(self):
        with pytest.raises(ValueError):
            GridIndex(cell_size=0.0)

    def test_insert_query(self):
        grid = GridIndex(0.25)
        grid.insert("a", Point(0.1, 0.1))
        grid.insert("b", Point(0.9, 0.9))
        assert grid.query_circle(Point(0, 0), 0.2) == ["a"]
        assert sorted(grid.query_circle(Point(0.5, 0.5), 1.0)) == ["a", "b"]

    def test_negative_radius(self):
        grid = GridIndex(0.5)
        with pytest.raises(ValueError):
            grid.query_circle(Point(0, 0), -1)

    def test_negative_coordinates_work(self):
        grid = GridIndex(0.3)
        grid.insert("neg", Point(-0.7, -0.7))
        assert grid.query_circle(Point(-0.7, -0.7), 0.01) == ["neg"]

    def test_delete(self):
        grid = GridIndex(0.5)
        grid.insert("a", Point(0.1, 0.1))
        assert grid.delete("a", Point(0.1, 0.1))
        assert not grid.delete("a", Point(0.1, 0.1))
        assert len(grid) == 0
        assert grid.query_circle(Point(0.1, 0.1), 0.5) == []

    def test_delete_wrong_point(self):
        grid = GridIndex(0.5)
        grid.insert("a", Point(0.1, 0.1))
        assert not grid.delete("a", Point(0.2, 0.2))
        assert len(grid) == 1

    def test_iter_and_len(self):
        rng = np.random.default_rng(0)
        points = random_points(rng, 30)
        grid = GridIndex.build(points, 0.2)
        assert len(grid) == 30
        assert sorted(item for item, _ in grid) == list(range(30))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 150),
    st.floats(0.05, 0.8),
    st.integers(0, 2**31),
)
def test_grid_matches_brute_force(count, cell_size, seed):
    """Circle queries return exactly the points a full scan keeps."""
    rng = np.random.default_rng(seed)
    points = random_points(rng, count)
    grid = GridIndex.build(points, cell_size)
    for _ in range(5):
        center = Point(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
        radius = float(rng.uniform(0, 0.6))
        assert sorted(grid.query_circle(center, radius)) == [
            item for item, point in points if point.distance_to(center) <= radius
        ]
