"""Stateful (model-based) property tests with hypothesis.

Three rule-based state machines drive long random operation sequences:

* the grid index against a brute-force list model (insert/delete/query
  must always agree across arbitrarily long mutation sequences, as the
  incremental validity index relies on between rounds);
* the Assignment against a from-scratch Equation 2/3 evaluation
  (incremental pair sums and revenues must never drift);
* the RevenueCache directly, with random join/leave/exchange moves
  including deep overflow states, against :func:`group_revenue` — the
  incremental engine's determinism contract — and the same moves on a
  cache reading task-local blocks, in lockstep with a store-reading one.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.assignment import UNASSIGNED, Assignment
from repro.core.quality import CooperationMatrix
from repro.core.quality_store import SparseQualityStore, task_blocks
from repro.core.revenue import RevenueCache, best_counted_subset, group_revenue
from repro.core.validity import ValidPairs
from repro.spatial.geometry import Point
from repro.spatial.grid import GridIndex

from tests.conftest import make_dense_instance

coordinates = st.tuples(
    st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False)
)


class GridIndexMachine(RuleBasedStateMachine):
    """The grid index must behave exactly like a list of (id, point)."""

    def __init__(self):
        super().__init__()
        self.grid: GridIndex | None = None
        self.model: list[tuple[int, Point]] = []
        self.next_id = 0

    @initialize(cell_size=st.floats(0.05, 0.8))
    def build(self, cell_size):
        self.grid = GridIndex(cell_size=cell_size)

    @rule(xy=coordinates)
    def insert(self, xy):
        point = Point(*xy)
        self.grid.insert(self.next_id, point)
        self.model.append((self.next_id, point))
        self.next_id += 1

    @rule(data=st.data())
    @precondition(lambda self: self.model)
    def delete_existing(self, data):
        index = data.draw(st.integers(0, len(self.model) - 1))
        item, point = self.model.pop(index)
        assert self.grid.delete(item, point)

    @rule(xy=coordinates)
    def delete_missing(self, xy):
        assert not self.grid.delete(-1, Point(*xy))

    @rule(xy=coordinates, radius=st.floats(0, 1.5))
    def query_circle(self, xy, radius):
        center = Point(*xy)
        expected = sorted(
            item for item, p in self.model if p.distance_to(center) <= radius
        )
        assert sorted(self.grid.query_circle(center, radius)) == expected

    @invariant()
    def contents_match(self):
        if self.grid is not None:
            assert len(self.grid) == len(self.model)
            assert sorted(self.grid) == sorted(self.model, key=lambda e: e[0])


class AssignmentMachine(RuleBasedStateMachine):
    """Incremental revenue caches must match from-scratch evaluation."""

    def __init__(self):
        super().__init__()
        self.instance = make_dense_instance(14, 4, capacity=4, seed=99)
        self.assignment = Assignment(self.instance, allow_overflow=True)
        self.model_task_of = [UNASSIGNED] * self.instance.worker_count

    @initialize()
    def setup(self):
        pass

    @rule(worker=st.integers(0, 13), task=st.integers(0, 3))
    def assign_or_move(self, worker, task):
        if self.model_task_of[worker] == task:
            return
        self.assignment.move(worker, task)
        self.model_task_of[worker] = task

    @rule(worker=st.integers(0, 13))
    def unassign(self, worker):
        if self.model_task_of[worker] == UNASSIGNED:
            return
        self.assignment.unassign(worker)
        self.model_task_of[worker] = UNASSIGNED

    @invariant()
    def revenues_match_scratch(self):
        for task in range(self.instance.task_count):
            members = [
                worker
                for worker, assigned in enumerate(self.model_task_of)
                if assigned == task
            ]
            assert sorted(self.assignment.members(task)) == members
            expected = group_revenue(
                self.instance.quality,
                members,
                self.instance.tasks[task].capacity,
                self.instance.min_group_size,
            )
            assert abs(self.assignment.revenue_of(task) - expected) < 1e-8
        assert (
            abs(self.assignment.total_score() - self.assignment.recompute_total())
            < 1e-8
        )


class RevenueCacheMachine(RuleBasedStateMachine):
    """The incremental revenue engine against from-scratch Equation 2.

    Drives join/leave/exchange directly on a :class:`RevenueCache` whose
    tasks have mixed capacities and are allowed to overflow well past
    ``a_j``, so both the delta path and the peeling path are exercised.
    After every step each task's cached revenue, counted subset and the
    total must agree with the uncached oracle.
    """

    WORKERS = 12

    def __init__(self):
        super().__init__()
        self.quality = CooperationMatrix.random_uniform(self.WORKERS, seed=17)
        self.capacities = [2, 3, 4]
        self.minimum = 3
        self.cache = RevenueCache(self.quality, self.capacities, self.minimum)
        self.model: list[set[int]] = [set() for _ in self.capacities]

    def _task_of(self, worker):
        for task, members in enumerate(self.model):
            if worker in members:
                return task
        return None

    @rule(worker=st.integers(0, WORKERS - 1), task=st.integers(0, 2))
    def join(self, worker, task):
        if self._task_of(worker) is not None:
            return
        self.cache.join(worker, task)
        self.model[task].add(worker)

    @rule(worker=st.integers(0, WORKERS - 1))
    def leave(self, worker):
        task = self._task_of(worker)
        if task is None:
            return
        self.cache.leave(worker, task)
        self.model[task].discard(worker)

    @rule(
        task=st.integers(0, 2),
        entering=st.integers(0, WORKERS - 1),
        data=st.data(),
    )
    def exchange(self, task, entering, data):
        if not self.model[task] or self._task_of(entering) is not None:
            return
        leaving = data.draw(
            st.sampled_from(sorted(self.model[task])), label="leaving"
        )
        self.cache.exchange(task, leaving=leaving, entering=entering)
        self.model[task].discard(leaving)
        self.model[task].add(entering)

    @rule(task=st.integers(0, 2))
    def clear(self, task):
        self.cache.clear(task)
        self.model[task].clear()

    @invariant()
    def cache_matches_oracle(self):
        for task, members in enumerate(self.model):
            assert sorted(self.cache.members(task)) == sorted(members)
            expected = group_revenue(
                self.quality,
                sorted(members),
                self.capacities[task],
                self.minimum,
            )
            assert abs(self.cache.revenue(task) - expected) < 1e-9
            if len(members) > self.capacities[task]:
                # Over capacity the refresh peels from scratch, so the
                # counted subset (and the revenue) are exactly the
                # oracle's, not merely within tolerance.
                assert self.cache.counted_subset(task) == tuple(
                    best_counted_subset(
                        self.quality, sorted(members), self.capacities[task]
                    )
                )
                assert self.cache.revenue(task) == expected
        assert abs(self.cache.total() - self.cache.recompute_total()) < 1e-9


def _plain(value):
    """A repr-comparable copy of a cache field (arrays as typed lists)."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.tolist())
    if isinstance(value, (list, tuple)):
        return type(value)(_plain(item) for item in value)
    return value


class _Lockstep:
    """Applies every mutation to each cache in turn; reads the last."""

    MUTATIONS = ("join", "leave", "exchange", "clear")

    def __init__(self, *caches):
        self.caches = caches

    def __getattr__(self, name):
        if name not in self.MUTATIONS:
            return getattr(self.caches[-1], name)

        def apply(*args, **kwargs):
            for cache in self.caches:
                getattr(cache, name)(*args, **kwargs)

        return apply


class TaskBlockCacheMachine(RevenueCacheMachine):
    """The RevenueCache machine's moves on a cache that reads task-local
    blocks of an asymmetric sparse store (every worker watches every
    task, so a worker's position differs from its id), in lockstep with
    a cache reading the same store directly: after every step the two
    ``state_dict``s are equal bit for bit, the reader and its cached
    member positions aside."""

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(23)
        # One decimal: many entries sit at the prior, others are stored,
        # and q[i, k] != q[k, i] in general.
        self.quality = CooperationMatrix(
            np.round(rng.uniform(size=(self.WORKERS, self.WORKERS)), 1)
        )
        store = SparseQualityStore.from_dense(self.quality, prior=0.5)
        pairs = ValidPairs.from_worker_lists(
            [range(len(self.capacities))] * self.WORKERS, len(self.capacities)
        )
        blocked = RevenueCache(store, self.capacities, self.minimum)
        blocked.use_reads(task_blocks(store, pairs))
        self.cache = _Lockstep(
            RevenueCache(store, self.capacities, self.minimum), blocked
        )

    @invariant()
    def state_matches_the_store_reading_cache(self):
        plain, blocked = (cache.state_dict() for cache in self.cache.caches)
        for state in (plain, blocked):
            del state["reads"], state["_member_positions"]
        assert repr(_plain(blocked)) == repr(_plain(plain))


TestRevenueCacheStateful = RevenueCacheMachine.TestCase
TestRevenueCacheStateful.settings = settings(
    max_examples=30, stateful_step_count=60, deadline=None
)

TestGridIndexStateful = GridIndexMachine.TestCase
TestGridIndexStateful.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)

TestAssignmentStateful = AssignmentMachine.TestCase
TestAssignmentStateful.settings = settings(
    max_examples=25, stateful_step_count=50, deadline=None
)

TestTaskBlockCacheStateful = TaskBlockCacheMachine.TestCase
TestTaskBlockCacheStateful.settings = settings(
    max_examples=30, stateful_step_count=60, deadline=None
)
