"""Shared fixtures for the CA-SC test suite."""

from __future__ import annotations

import itertools
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.model import Instance, Task, Worker
from repro.core.quality import CooperationMatrix
from repro.core.validity import ValidPairs, compute_valid_pairs
from repro.datasets.synthetic import generate_instance
from repro.spatial.geometry import Point
from repro.utils.deadline import Deadline


@contextmanager
def patch_expiry(after: int):
    """Make deadlines expire by count instead of by clock: the first
    ``after`` checks find every deadline ahead, all later ones passed.
    Yields the check counter."""
    checks = itertools.count()
    original = Deadline.expired
    Deadline.expired = lambda self: next(checks) >= after
    try:
        yield checks
    finally:
        Deadline.expired = original


def count_checks(solve, instance, valid_pairs) -> int:
    """How many deadline checks ``solve`` takes on a budgeted call that
    runs to completion."""
    from repro.core.fallback import FallbackSolver

    with patch_expiry(after=float("inf")) as checks:
        FallbackSolver(solve, budget=60.0)(instance, valid_pairs)
    return next(checks)


def make_dense_instance(
    worker_count: int = 30,
    task_count: int = 6,
    capacity: int = 4,
    min_group_size: int = 3,
    seed: int = 0,
) -> Instance:
    """A small instance where most worker-task pairs are valid.

    Large radii/speeds so solvers have real choices; community-structured
    quality so cooperation-awareness matters.
    """
    return generate_instance(
        worker_count,
        task_count,
        capacity=capacity,
        min_group_size=min_group_size,
        speed_range=(0.2, 0.5),
        radius_range=(0.5, 0.9),
        remaining_time=3.0,
        seed=seed,
    )


@pytest.fixture
def dense_instance() -> Instance:
    return make_dense_instance()


@pytest.fixture
def dense_pairs(dense_instance):
    return compute_valid_pairs(dense_instance)


@pytest.fixture
def sparse_instance() -> Instance:
    """Paper-default sparsity: few valid pairs per worker."""
    return generate_instance(80, 12, seed=11)


def make_example1_instance() -> tuple[Instance, dict[str, int], dict[str, int]]:
    """The paper's Example 1 (Figure 1): 4 workers, 2 tasks, B = 2.

    Quality edges (Figure 1(b)): q(w1,w2)=0.1, q(w1,w4)=0.9, q(w2,w3)=0.9,
    q(w3,w4)=0.1. Worker w1 can only reach t1, workers w2..w4 reach both.
    Assigning {w1,w2}->t1 and {w3,w4}->t2 scores 0.2; the optimum
    {w1,w4}->t1 and {w2,w3}->t2 scores 1.8.

    The example counts each unordered pair once while Equation 2 sums
    ordered pairs, so each edge value v is stored as v/2 per direction —
    group scores then reproduce the paper's numbers exactly.
    """
    q = np.zeros((4, 4))
    edges = {(0, 1): 0.1, (0, 3): 0.9, (1, 2): 0.9, (2, 3): 0.1}
    for (i, k), value in edges.items():
        q[i, k] = q[k, i] = value / 2.0
    quality = CooperationMatrix(q)

    t1 = Point(0.3, 0.5)
    t2 = Point(0.7, 0.5)
    # w1 sits close to t1 with a small radius; the rest can reach both.
    workers = [
        Worker(worker_id=0, location=Point(0.25, 0.5), speed=1.0, radius=0.1),
        Worker(worker_id=1, location=Point(0.5, 0.5), speed=1.0, radius=0.5),
        Worker(worker_id=2, location=Point(0.5, 0.4), speed=1.0, radius=0.5),
        Worker(worker_id=3, location=Point(0.5, 0.6), speed=1.0, radius=0.5),
    ]
    tasks = [
        Task(task_id=0, location=t1, capacity=2, deadline=5.0),
        Task(task_id=1, location=t2, capacity=2, deadline=5.0),
    ]
    instance = Instance(
        workers=workers, tasks=tasks, quality=quality, min_group_size=2
    )
    worker_names = {"w1": 0, "w2": 1, "w3": 2, "w4": 3}
    task_names = {"t1": 0, "t2": 1}
    return instance, worker_names, task_names


@pytest.fixture
def example1():
    return make_example1_instance()


def one_task_blocks(quality, candidates):
    """TPG stage 1's block cache over one task whose valid workers are
    ``candidates``, with every worker available: ``(blocks, available)``."""
    from repro.core.quality_store import task_blocks
    from repro.core.tpg import _CandidateBlocks

    wanted = set(candidates)
    pairs = ValidPairs.from_worker_lists(
        [[0] if worker in wanted else [] for worker in range(quality.size)], 1
    )
    available = np.ones(quality.size, dtype=bool)
    return _CandidateBlocks(task_blocks(quality, pairs), pairs, available), available
