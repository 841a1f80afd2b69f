"""White-box tests for the LUB invalidation rules (Theorems V.3/V.4).

These exercise ``_BestResponseDynamics._after_membership_change``
directly: pure growth must keep cached-best watchers clean, an exchange
must apply the quality comparisons, and shrinks must invalidate everyone.
"""

import numpy as np
import pytest

from repro.core.assignment import Assignment
from repro.core.game import _BestResponseDynamics
from repro.core.model import Instance, Task, Worker
from repro.core.quality import CooperationMatrix
from repro.core.validity import compute_valid_pairs
from repro.spatial.geometry import Point


def make_setup(q: np.ndarray, capacity: int = 3, b: int = 2):
    count = q.shape[0]
    origin = Point(0.5, 0.5)
    workers = [
        Worker(worker_id=i, location=origin, speed=1.0, radius=1.0)
        for i in range(count)
    ]
    tasks = [
        Task(task_id=j, location=origin, capacity=capacity, deadline=5.0)
        for j in range(2)
    ]
    instance = Instance(
        workers, tasks, CooperationMatrix(q), min_group_size=b
    )
    pairs = compute_valid_pairs(instance)
    assignment = Assignment(instance, pairs, allow_overflow=True)
    dynamics = _BestResponseDynamics(
        instance, pairs, assignment, tolerance=1e-9, lazy_update=True
    )
    return instance, pairs, assignment, dynamics


class TestLUBInvalidation:
    def test_pure_growth_keeps_cached_best_clean(self):
        q = np.full((5, 5), 0.5)
        instance, pairs, assignment, dynamics = make_setup(q)
        # Worker 4's cached best response is task 0; workers 2, 3 cache
        # task 1.
        dynamics._dirty[:] = False
        dynamics._cached_best[:] = [0, 0, 1, 1, 0]
        assignment.assign(0, 0)
        dynamics._after_membership_change(0)
        # Worker 4 (cached best == 0, per Theorem V.3) stays clean...
        assert not dynamics._dirty[4]
        # ...while workers cached on other tasks must rescan.
        assert dynamics._dirty[2]
        assert dynamics._dirty[3]

    def test_shrink_invalidates_everyone(self):
        q = np.full((5, 5), 0.5)
        instance, pairs, assignment, dynamics = make_setup(q)
        assignment.assign(0, 0)
        assignment.assign(1, 0)
        dynamics._counted[0] = dynamics.assignment.counted_members(0)
        dynamics._dirty[:] = False
        assignment.unassign(1)
        dynamics._after_membership_change(0)
        assert dynamics._dirty.all()

    def test_exchange_applies_quality_comparison(self):
        # Task capacity 2; members {0, 1}. Worker 2 joins and crowds out
        # worker 1 (worker 2 pairs better with 0 than 1 does).
        q = np.zeros((5, 5))
        q[0, 1] = q[1, 0] = 0.4
        q[0, 2] = q[2, 0] = 0.9
        # Watcher 3: prefers the leaver (q[3,1]=0.8 > q[3,2]=0.1).
        q[3, 1] = q[1, 3] = 0.8
        q[3, 2] = q[2, 3] = 0.1
        # Watcher 4: prefers the joiner (q[4,2]=0.7 > q[4,1]=0.2).
        q[4, 2] = q[2, 4] = 0.7
        q[4, 1] = q[1, 4] = 0.2
        instance, pairs, assignment, dynamics = make_setup(q, capacity=2, b=2)
        assignment.assign(0, 0)
        assignment.assign(1, 0)
        dynamics._counted[0] = dynamics.assignment.counted_members(0)
        dynamics._dirty[:] = False
        # Watchers 3 and 4 both cache task 1 (not the changed task).
        dynamics._cached_best[:] = [0, 0, 1, 1, 1]
        assignment.assign(2, 0)  # overflow: counted subset becomes {0, 2}
        dynamics._after_membership_change(0)
        # Theorem V.4 (cached best != changed task): dirty iff the worker
        # prefers the joiner over the leaver.
        assert not dynamics._dirty[3]  # prefers leaver: cannot be lured
        assert dynamics._dirty[4]  # prefers joiner: may now want task 0

    def test_exchange_cached_on_task_theorem_v3(self):
        q = np.zeros((5, 5))
        q[0, 1] = q[1, 0] = 0.4
        q[0, 2] = q[2, 0] = 0.9
        q[3, 1] = q[1, 3] = 0.8  # prefers the crowded-out worker 1
        q[3, 2] = q[2, 3] = 0.1
        q[4, 2] = q[2, 4] = 0.7  # prefers the joiner 2
        q[4, 1] = q[1, 4] = 0.2
        instance, pairs, assignment, dynamics = make_setup(q, capacity=2, b=2)
        assignment.assign(0, 0)
        assignment.assign(1, 0)
        dynamics._counted[0] = dynamics.assignment.counted_members(0)
        dynamics._dirty[:] = False
        # Watchers 3 and 4 cache the changed task itself.
        dynamics._cached_best[:] = [0, 0, 1, 0, 0]
        assignment.assign(2, 0)
        dynamics._after_membership_change(0)
        # Theorem V.3 (cached best == changed task): dirty iff the worker
        # preferred the leaver (its anchor there was crowded out).
        assert dynamics._dirty[3]
        assert not dynamics._dirty[4]

    def test_mover_itself_always_dirty_on_exchange(self):
        q = np.zeros((4, 4))
        q[0, 1] = q[1, 0] = 0.4
        q[0, 2] = q[2, 0] = 0.9
        instance, pairs, assignment, dynamics = make_setup(q, capacity=2, b=2)
        assignment.assign(0, 0)
        assignment.assign(1, 0)
        dynamics._counted[0] = dynamics.assignment.counted_members(0)
        dynamics._dirty[:] = False
        assignment.assign(2, 0)
        dynamics._after_membership_change(0)
        assert dynamics._dirty[1]  # the crowded-out worker
        assert dynamics._dirty[2]  # the joiner
