"""Micro-benchmarks for the substrates: the grid index, grid validity
against its brute-force reference, max-flow, and the incremental
revenue engine."""

import numpy as np
import pytest

from repro.core.assignment import Assignment
from repro.core.validity import compute_valid_pairs, compute_valid_pairs_reference
from repro.flow.bipartite import max_bipartite_assignment
from repro.spatial.geometry import Point
from repro.spatial.grid import GridIndex

from benchmarks.conftest import make_batch

POINT_COUNT = 2000
QUERY_COUNT = 200


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(0)
    xy = rng.uniform(0, 1, size=(POINT_COUNT, 2))
    return [(i, Point(float(x), float(y))) for i, (x, y) in enumerate(xy)]


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(1)
    centers = rng.uniform(0, 1, size=(QUERY_COUNT, 2))
    return [Point(float(x), float(y)) for x, y in centers]


def test_grid_circle_queries(benchmark, points, queries):
    grid = GridIndex.build(points, cell_size=0.08)

    def run():
        return sum(len(grid.query_circle(center, 0.08)) for center in queries)

    benchmark(run)


@pytest.mark.parametrize(
    "compute", [compute_valid_pairs, compute_valid_pairs_reference],
    ids=["grid", "reference"],
)
def test_validity(benchmark, compute):
    instance, _ = make_batch(dataset="unif")
    benchmark(compute, instance)


def test_dinic_bipartite(benchmark):
    rng = np.random.default_rng(2)
    workers, tasks = 1000, 200
    valid = [
        sorted(set(rng.integers(0, tasks, size=8).tolist())) for _ in range(workers)
    ]
    capacities = [4] * tasks
    benchmark(max_bipartite_assignment, workers, tasks, valid, capacities)


def test_incremental_assignment_ops(benchmark):
    instance, valid_pairs = make_batch(dataset="unif")
    rng = np.random.default_rng(3)
    moves = [
        (int(rng.integers(instance.worker_count)), int(rng.integers(instance.task_count)))
        for _ in range(2000)
    ]

    def churn():
        assignment = Assignment(instance, allow_overflow=True)
        for worker, task in moves:
            assignment.move(worker, task)
        return assignment.total_score()

    benchmark(churn)
