"""Tests for the Assignment state object, including property-based
consistency of the incremental revenue maintenance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import UNASSIGNED, Assignment
from repro.core.game import solve_game_theoretic
from repro.core.revenue import group_revenue
from repro.core.tpg import solve_tpg
from repro.core.validity import ValidPairs, compute_valid_pairs
from repro.datasets.synthetic import generate_instance
from repro.utils.errors import CapacityError, ValidityError

from tests.conftest import make_dense_instance


@pytest.fixture
def instance():
    return make_dense_instance(20, 4, capacity=4, min_group_size=3, seed=1)


@pytest.fixture
def pairs(instance):
    return compute_valid_pairs(instance)


class TestBasicOperations:
    def test_initial_state(self, instance):
        assignment = Assignment(instance)
        assert assignment.total_score() == 0.0
        assert assignment.assigned_worker_count() == 0
        assert assignment.task_of(0) == UNASSIGNED
        assert not assignment.is_assigned(0)
        assert assignment.to_pairs() == []

    def test_assign_and_members(self, instance):
        assignment = Assignment(instance)
        assignment.assign(0, 1)
        assignment.assign(5, 1)
        assert assignment.members(1) == (0, 5)
        assert assignment.task_of(0) == 1
        assert assignment.assigned_count(1) == 2
        assert assignment.to_pairs() == [(0, 1), (5, 1)]

    def test_double_assign_rejected(self, instance):
        assignment = Assignment(instance)
        assignment.assign(0, 1)
        with pytest.raises(ValidityError):
            assignment.assign(0, 2)

    def test_unassign(self, instance):
        assignment = Assignment(instance)
        assignment.assign(0, 1)
        assert assignment.unassign(0) == 1
        assert assignment.task_of(0) == UNASSIGNED
        with pytest.raises(ValidityError):
            assignment.unassign(0)

    def test_move(self, instance):
        assignment = Assignment(instance)
        assignment.assign(0, 1)
        assignment.move(0, 2)
        assert assignment.task_of(0) == 2
        assert assignment.members(1) == ()

    def test_capacity_enforced(self, instance):
        assignment = Assignment(instance)
        for worker in range(instance.tasks[0].capacity):
            assignment.assign(worker, 0)
        with pytest.raises(CapacityError):
            assignment.assign(10, 0)

    def test_overflow_allowed_when_enabled(self, instance):
        assignment = Assignment(instance, allow_overflow=True)
        for worker in range(instance.tasks[0].capacity + 2):
            assignment.assign(worker, 0)
        assert assignment.assigned_count(0) == instance.tasks[0].capacity + 2
        # Revenue equals the best-capacity-subset revenue.
        expected = group_revenue(
            instance.quality,
            assignment.members(0),
            instance.tasks[0].capacity,
            instance.min_group_size,
        )
        assert assignment.revenue_of(0) == pytest.approx(expected)

    def test_validity_enforced(self, instance, pairs):
        assignment = Assignment(instance, pairs)
        invalid = None
        for worker in range(instance.worker_count):
            for task in range(instance.task_count):
                if not pairs.is_valid(worker, task):
                    invalid = (worker, task)
                    break
            if invalid:
                break
        if invalid is None:
            pytest.skip("dense instance has no invalid pair")
        with pytest.raises(ValidityError):
            assignment.assign(*invalid)

    def test_revenue_zero_below_minimum(self, instance):
        assignment = Assignment(instance)
        assignment.assign(0, 0)
        assignment.assign(1, 0)
        assert assignment.revenue_of(0) == 0.0
        assignment.assign(2, 0)
        assert assignment.revenue_of(0) > 0.0

    def test_copy_is_independent(self, instance):
        assignment = Assignment(instance)
        assignment.assign(0, 0)
        clone = assignment.copy()
        clone.assign(1, 0)
        assert assignment.assigned_count(0) == 1
        assert clone.assigned_count(0) == 2

    def test_repr_mentions_score(self, instance):
        assignment = Assignment(instance)
        assert "score=" in repr(assignment)


class TestIndicesOutsideTheBatch:
    """An index outside ``[0, m) x [0, n)`` is rejected, with or without
    a validity structure: a negative worker must not alias the last one."""

    @pytest.fixture
    def batch(self):
        instance = generate_instance(60, 20, radius_range=(0.2, 0.4), seed=0)
        pairs = compute_valid_pairs(instance)
        # A task the last worker may serve, so ``-1`` would alias a
        # valid pair.
        return instance, pairs, pairs.tasks_for_worker[-1][0]

    @pytest.mark.parametrize("attached", [True, False])
    def test_assign_rejects_a_negative_worker(self, batch, attached):
        instance, pairs, task = batch
        assignment = Assignment(instance, pairs if attached else None)
        with pytest.raises(ValidityError):
            assignment.assign(-1, task)
        assert assignment.to_pairs() == []
        assert assignment.revenue_cache.members(task) == ()

    @pytest.mark.parametrize("attached", [True, False])
    def test_assign_pairs_rejects_a_negative_worker(self, batch, attached):
        instance, pairs, task = batch
        assignment = Assignment(instance, pairs if attached else None)
        with pytest.raises(ValidityError):
            assignment.assign_pairs([(-1, task)])
        assert assignment.to_pairs() == []
        assert assignment.revenue_cache.members(task) == ()

    @pytest.mark.parametrize("attached", [True, False])
    @pytest.mark.parametrize("worker, task", [(60, 0), (0, -1), (0, 20)])
    def test_indices_past_either_end_are_rejected(
        self, batch, attached, worker, task
    ):
        instance, pairs, _ = batch
        for bulk in (False, True):
            assignment = Assignment(instance, pairs if attached else None)
            with pytest.raises(ValidityError):
                if bulk:
                    assignment.assign_pairs([(worker, task)])
                else:
                    assignment.assign(worker, task)
            assert assignment.to_pairs() == []


class TestMarginals:
    def test_join_gain_matches_actual_join(self, instance):
        assignment = Assignment(instance)
        for worker, task in [(0, 0), (1, 0), (4, 0), (7, 1), (8, 1)]:
            assignment.assign(worker, task)
        for worker, task in [(2, 0), (9, 1), (3, 2)]:
            predicted = assignment.join_gain(worker, task)
            before = assignment.total_score()
            assignment.assign(worker, task)
            actual = assignment.total_score() - before
            assert predicted == pytest.approx(actual)
            assignment.unassign(worker)

    def test_leave_delta_matches_actual_leave(self, instance):
        assignment = Assignment(instance)
        for worker, task in [(0, 0), (1, 0), (4, 0), (6, 0)]:
            assignment.assign(worker, task)
        for worker in (0, 1, 4, 6):
            predicted = assignment.leave_delta(worker)
            before = assignment.total_score()
            task = assignment.unassign(worker)
            actual = before - assignment.total_score()
            assert predicted == pytest.approx(actual)
            assignment.assign(worker, task)

    def test_leave_delta_idle_worker(self, instance):
        assignment = Assignment(instance)
        assert assignment.leave_delta(3) == 0.0


class TestFeasibility:
    def test_check_feasible_passes(self, instance, pairs):
        assignment = Assignment(instance, pairs)
        worker = pairs.workers_for_task[0][0]
        assignment.assign(worker, 0)
        assignment.check_feasible()

    def test_clamp_to_capacity(self, instance):
        assignment = Assignment(instance, allow_overflow=True)
        capacity = instance.tasks[0].capacity
        for worker in range(capacity + 3):
            assignment.assign(worker, 0)
        score_before = assignment.total_score()
        dropped = assignment.clamp_to_capacity()
        assert len(dropped) == 3
        assert assignment.assigned_count(0) == capacity
        # Clamping removes only uncounted members: score unchanged.
        assert assignment.total_score() == pytest.approx(score_before)
        assignment.check_feasible()

    def test_drop_incomplete_groups(self, instance):
        assignment = Assignment(instance)
        assignment.assign(0, 0)
        assignment.assign(1, 0)  # below B=3
        assignment.assign(2, 1)
        assignment.assign(3, 1)
        assignment.assign(4, 1)  # complete
        dropped = assignment.drop_incomplete_groups()
        assert sorted(dropped) == [0, 1]
        assert assignment.members(1) == (2, 3, 4)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(10, 25), st.integers(2, 5))
def test_property_incremental_score_matches_scratch(seed, worker_count, task_count):
    """A random mutation sequence keeps the cached score equal to a
    from-scratch Equation 3 evaluation."""
    instance = make_dense_instance(
        worker_count, task_count, capacity=4, min_group_size=3, seed=seed
    )
    rng = np.random.default_rng(seed)
    assignment = Assignment(instance, allow_overflow=True)
    for _ in range(60):
        worker = int(rng.integers(worker_count))
        if assignment.is_assigned(worker) and rng.random() < 0.4:
            assignment.unassign(worker)
        else:
            task = int(rng.integers(task_count))
            if assignment.is_assigned(worker):
                assignment.move(worker, task)
            else:
                assignment.assign(worker, task)
    assert assignment.total_score() == pytest.approx(
        assignment.recompute_total(), abs=1e-8
    )


class TestCopyClonesRevenueCache:
    def test_state_dict_round_trip_covers_all_slots(self, instance, pairs):
        from repro.core.revenue import RevenueCache

        assignment = Assignment(instance, pairs)
        for worker in range(instance.worker_count):
            for task in pairs.tasks_for_worker[worker]:
                if assignment.assigned_count(task) < instance.tasks[task].capacity:
                    assignment.assign(worker, task)
                    break
        clone = assignment.copy()
        original_state = assignment.revenue_cache.state_dict()
        clone_state = clone.revenue_cache.state_dict()
        # Every slot is present in both (clone() raises on fields it
        # does not know how to copy, so additions cannot slip through).
        assert set(original_state) == set(RevenueCache.__slots__)
        assert set(clone_state) == set(RevenueCache.__slots__)
        for name in RevenueCache.__slots__:
            left, right = original_state[name], clone_state[name]
            if isinstance(left, np.ndarray):
                assert np.array_equal(left, right), name
            else:
                assert left == right, name
        # The quality store is shared (immutable), arrays are not.
        assert clone.revenue_cache.quality is assignment.revenue_cache.quality
        assert clone.revenue_cache.pair_sums is not assignment.revenue_cache.pair_sums

    def test_clone_preserves_instrumentation_counters(self, instance, pairs):
        # The old hand-copy dropped full_evaluations/incremental_updates.
        assignment = Assignment(instance, pairs)
        worker = next(
            w for w in range(instance.worker_count) if pairs.tasks_for_worker[w]
        )
        assignment.assign(worker, pairs.tasks_for_worker[worker][0])
        clone = assignment.copy()
        assert (
            clone.revenue_cache.incremental_updates
            == assignment.revenue_cache.incremental_updates
        )
        assert (
            clone.revenue_cache.full_evaluations
            == assignment.revenue_cache.full_evaluations
        )

    def test_clone_mutation_isolation(self, instance, pairs):
        assignment = Assignment(instance, pairs)
        clone = assignment.copy()
        worker = next(
            w for w in range(instance.worker_count) if pairs.tasks_for_worker[w]
        )
        clone.assign(worker, pairs.tasks_for_worker[worker][0])
        assert not assignment.is_assigned(worker)
        assert assignment.total_score() == 0.0
        assert assignment.audit() == []
        assert clone.audit() == []


def _plain(value):
    """A repr-comparable copy of a cache field (arrays as typed lists)."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.tolist())
    if isinstance(value, (list, tuple)):
        return type(value)(_plain(item) for item in value)
    return value


def _cache_state(assignment) -> str:
    state = assignment.revenue_cache.state_dict()
    del state["quality"]  # shared, immutable
    return repr({name: _plain(value) for name, value in state.items()})


class TestAssignPairs:
    """``assign_pairs`` must leave exactly the state of a sequential
    ``assign`` loop — every float, version, counted subset and counter —
    and reject bad pairs with ``assign``'s own errors."""

    #: (capacity, members before, members joined) per task: final group
    #: sizes 7, 8, 9 and 10 straddle the pairwise-summation cliff, two
    #: more 8-from-empty tasks share a lockstep shape, two tasks overflow
    #: (one was full, one already over capacity), and four single joins
    #: probe cross sums of 7 to 10 terms (see _scenario).
    PLAN = [(12, 3, 4), (12, 0, 8), (12, 6, 3), (12, 1, 9), (5, 5, 3),
            (4, 6, 2), (12, 0, 8), (12, 0, 8),
            (12, 7, 1), (12, 8, 1), (12, 9, 1), (12, 10, 1)]

    @staticmethod
    def _instance(quality, capacities):
        from repro.core.model import Instance, Task, Worker
        from repro.core.quality import CooperationMatrix
        from repro.spatial.geometry import Point

        origin = Point(0.0, 0.0)
        workers = [
            Worker(worker_id=i, location=origin, speed=1.0, radius=10.0)
            for i in range(quality.shape[0])
        ]
        tasks = [
            Task(task_id=j, location=origin, capacity=c, deadline=100.0)
            for j, c in enumerate(capacities)
        ]
        return Instance(
            workers=workers, tasks=tasks, quality=CooperationMatrix(quality),
            min_group_size=3,
        )

    def _scenario(self, seed):
        rng = np.random.default_rng(seed)
        count = sum(before + joined for _, before, joined in self.PLAN) + 10
        # Magnitudes over sixteen decades: whether a small term is
        # absorbed depends on what it is added to, so a reordered cross
        # sum differs in its last bits.
        quality = 10.0 ** rng.uniform(-16.0, 0.0, size=(count, count))
        np.fill_diagonal(quality, 0.0)
        workers = rng.permutation(count).tolist()
        before, joins = [], []
        for task, (_, present, joined) in enumerate(self.PLAN):
            members = [workers.pop() for _ in range(present)]
            if joined == 1:
                # Probe: a zero pair sum before the join, so the joined
                # pair sum *is* the cross sum, bit for bit.
                quality[np.ix_(members, members)] = 0.0
            before += [(worker, task) for worker in members]
            joins += [(workers.pop(), task) for _ in range(joined)]
        order = rng.permutation(len(joins))
        base = self._instance(quality, [c for c, _, _ in self.PLAN])
        return base, before, [joins[i] for i in order]

    @pytest.mark.parametrize("backend", ["dense", "sparse", "shared"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_state_matches_the_sequential_replay(self, backend, seed):
        from repro.audit.differential import _with_backend

        base, before, joins = self._scenario(seed)
        instance, cleanup = _with_backend(base, backend)
        try:
            valid = compute_valid_pairs(instance)
            states = []
            for bulk in (False, True):
                assignment = Assignment(instance, valid, allow_overflow=True)
                for worker, task in before:
                    assignment.assign(worker, task)
                if bulk:
                    assignment.assign_pairs(joins)
                else:
                    for worker, task in joins:
                        assignment.assign(worker, task)
                states.append(
                    (_cache_state(assignment), assignment.to_pairs())
                )
            assert states[0] == states[1]
            cache = assignment.revenue_cache
            assert cache.peel_kernel_calls > 0  # the overflow tail peeled
            assert sorted(cache.counts.tolist()) == sorted(
                before + joined for _, before, joined in self.PLAN
            )
        finally:
            if cleanup is not None:
                cleanup()

    def test_empty_batch_is_a_no_op(self, instance, pairs):
        assignment = Assignment(instance, pairs)
        state = _cache_state(assignment)
        assignment.assign_pairs([])
        assert _cache_state(assignment) == state

    @staticmethod
    def _outcome(assignment, pairs, bulk):
        try:
            if bulk:
                assignment.assign_pairs(pairs)
            else:
                for worker, task in pairs:
                    assignment.assign(worker, task)
        except Exception as error:  # noqa: BLE001 — compared below
            return type(error), str(error)
        return None

    def _bad_batches(self, instance, pairs):
        invalid = next(
            (worker, task)
            for worker in range(instance.worker_count)
            for task in range(instance.task_count)
            if not pairs.is_valid(worker, task)
        )
        usable = [
            (worker, pairs.tasks_for_worker[worker][0])
            for worker in range(instance.worker_count)
            if pairs.tasks_for_worker[worker] and worker != invalid[0]
        ]
        task = usable[0][1]
        crowd = [
            (worker, task) for worker in pairs.workers_for_task[task]
            if worker != invalid[0]
        ]
        assert len(crowd) > instance.tasks[task].capacity
        return {
            "duplicate": [usable[1], usable[2], (usable[1][0], usable[3][1])],
            "already_assigned": [usable[1], usable[0]],
            "invalid": [usable[1], invalid, usable[2]],
            "over_capacity": crowd,
        }

    @pytest.mark.parametrize(
        "kind", ["duplicate", "already_assigned", "invalid", "over_capacity"]
    )
    def test_bad_pairs_raise_the_sequential_error(self, instance, pairs, kind):
        batch = self._bad_batches(instance, pairs)[kind]
        outcomes = []
        for bulk in (False, True):
            assignment = Assignment(instance, pairs)
            if kind == "already_assigned":
                assignment.assign(*batch[1])
            before = _cache_state(assignment)
            outcomes.append(self._outcome(assignment, batch, bulk))
            if bulk:
                # Rejected up front: nothing of the batch was applied.
                assert _cache_state(assignment) == before
        assert outcomes[0] is not None
        assert outcomes[0] == outcomes[1]
        expected = CapacityError if kind == "over_capacity" else ValidityError
        assert outcomes[1][0] is expected

    def test_merge_names_the_failing_shard(self, instance, pairs):
        from repro.core.sharding import merge_shard_pairs

        batch = self._bad_batches(instance, pairs)["invalid"]
        with pytest.raises(RuntimeError, match="^shard 1 merge failed") as info:
            merge_shard_pairs(instance, pairs, [batch[:1], batch[1:]])
        assert isinstance(info.value.__cause__, ValidityError)


#: The solvers whose incremental totals the Table II oracle test checks.
TABLE_II_SOLVERS = {
    "TPG": solve_tpg,
    "GT": lambda instance, pairs: solve_game_theoretic(instance, pairs).assignment,
    "GT+ALL": lambda instance, pairs: solve_game_theoretic(
        instance, pairs, epsilon=0.05, lazy_update=True
    ).assignment,
}


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("solver", TABLE_II_SOLVERS)
def test_table_ii_incremental_total_matches_from_scratch(solver, seed):
    """At the Table II defaults (m = 1000, n = 500) each solver's
    incrementally maintained total equals a from-scratch Equation 3
    evaluation. The delta path accumulates pair sums one move at a time,
    so the totals may differ by about one ulp per move; a cache bug
    shows up orders of magnitude above 1e-9."""
    instance = generate_instance(1000, 500, seed=seed)
    assignment = TABLE_II_SOLVERS[solver](instance, compute_valid_pairs(instance))
    assert math.isclose(
        assignment.total_score(),
        assignment.recompute_total(),
        rel_tol=1e-9,
        abs_tol=1e-9,
    )
