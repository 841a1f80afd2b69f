"""Tests for the Task-Priority Greedy solver (Algorithm 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.reference import (
    reference_best_group,
    reference_seed_groups,
    stage_one_trace,
)
from repro.core.quality import CooperationMatrix
from repro.core.tpg import (
    EXACT_SEED_THRESHOLD,
    seed_groups,
    solve_tpg,
    solve_tpg_with_stats,
)
from repro.core.validity import compute_valid_pairs
from repro.datasets.synthetic import generate_instance

from tests.conftest import (
    make_dense_instance,
    make_example1_instance,
    one_task_blocks,
)


def stage_one_group(quality, candidates, size):
    """Stage 1's evaluation of one task whose valid workers are
    ``candidates``: greedy above :data:`EXACT_SEED_THRESHOLD` of them,
    exhaustive at or below."""
    blocks, _ = one_task_blocks(quality, candidates)
    return blocks.best_group(0, size, None)


class TestGreedyBestGroup:
    def test_not_enough_candidates(self):
        q = CooperationMatrix.random_uniform(5, seed=0)
        assert stage_one_group(q, [0, 1], 3) == ([], 0.0)
        assert stage_one_group(q, [], 2) == ([], 0.0)

    def test_pair_is_exact(self):
        q = np.zeros((4, 4))
        q[0, 1] = q[1, 0] = 0.2
        q[2, 3] = q[3, 2] = 0.9
        matrix = CooperationMatrix(q)
        group, score = stage_one_group(matrix, [0, 1, 2, 3], 2)
        assert sorted(group) == [2, 3]
        assert score == pytest.approx(1.8)

    def test_group_score_matches_revenue_formula(self):
        q = CooperationMatrix.random_uniform(10, seed=1)
        group, score = stage_one_group(q, list(range(10)), 4)
        assert len(group) == 4
        assert score == pytest.approx(q.ordered_pair_sum(group) / 3)

    def test_subset_of_candidates(self):
        q = CooperationMatrix.random_uniform(10, seed=2)
        candidates = [1, 4, 7, 9]
        group, _ = stage_one_group(q, candidates, 3)
        assert set(group) <= set(candidates)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.integers(3, 8))
    def test_greedy_close_to_exhaustive(self, seed, count):
        import itertools

        q = CooperationMatrix.random_uniform(count, seed=seed)
        candidates = list(range(count))
        group, score = stage_one_group(q, candidates, 3)
        best = max(
            q.ordered_pair_sum(list(combo)) / 2
            for combo in itertools.combinations(candidates, 3)
        )
        assert score >= 0.5 * best - 1e-9
        assert score <= best + 1e-9


class TestSolveTPG:
    def test_feasible_on_dense_instance(self):
        instance = make_dense_instance(30, 6, seed=2)
        pairs = compute_valid_pairs(instance)
        assignment = solve_tpg(instance, pairs)
        assignment.check_feasible()
        assert assignment.total_score() > 0

    def test_respects_validity_on_sparse_instance(self):
        instance = generate_instance(80, 15, seed=9)
        pairs = compute_valid_pairs(instance)
        assignment = solve_tpg(instance, pairs)
        assignment.check_feasible()
        for worker, task in assignment.to_pairs():
            assert pairs.is_valid(worker, task)

    def test_computes_valid_pairs_when_omitted(self):
        instance = make_dense_instance(20, 4, seed=3)
        assert solve_tpg(instance).total_score() == pytest.approx(
            solve_tpg(instance, compute_valid_pairs(instance)).total_score()
        )

    def test_beats_random_on_community_instance(self):
        from repro.core.baselines.random_assign import solve_random

        instance = make_dense_instance(40, 6, seed=4)
        pairs = compute_valid_pairs(instance)
        tpg_score = solve_tpg(instance, pairs).total_score()
        random_scores = [
            solve_random(instance, pairs, seed=s).total_score() for s in range(5)
        ]
        assert tpg_score >= max(random_scores)

    def test_solves_example1_optimally(self):
        instance, w, t = make_example1_instance()
        pairs = compute_valid_pairs(instance)
        assignment = solve_tpg(instance, pairs)
        # Optimal: {w1,w4} -> t1 and {w2,w3} -> t2, total 1.8.
        assert assignment.total_score() == pytest.approx(1.8)
        assert sorted(assignment.members(t["t1"])) == [w["w1"], w["w4"]]
        assert sorted(assignment.members(t["t2"])) == [w["w2"], w["w3"]]

    def test_no_workers(self):
        instance = generate_instance(0, 5, seed=0)
        assignment = solve_tpg(instance)
        assert assignment.total_score() == 0.0

    def test_no_tasks(self):
        instance = generate_instance(10, 0, seed=0)
        assignment = solve_tpg(instance)
        assert assignment.total_score() == 0.0

    def test_seeded_tasks_counted(self):
        instance = make_dense_instance(30, 5, seed=6)
        pairs = compute_valid_pairs(instance)
        result = solve_tpg_with_stats(instance, pairs)
        assert 0 <= result.seeded_tasks <= instance.task_count
        # Every seeded task has at least B members in the assignment.
        completed = result.assignment.completed_task_count()
        assert completed >= result.seeded_tasks or completed == result.seeded_tasks

    def test_stage_two_fills_to_capacity_when_profitable(self):
        # All-equal quality: every addition has positive gain, so seeded
        # tasks should fill completely while workers remain.
        q = CooperationMatrix(np.full((12, 12), 0.5))
        instance = make_dense_instance(12, 2, capacity=5, seed=7)
        instance = type(instance)(
            workers=instance.workers,
            tasks=instance.tasks,
            quality=q,
            min_group_size=instance.min_group_size,
        )
        pairs = compute_valid_pairs(instance)
        assignment = solve_tpg(instance, pairs)
        filled = sum(
            assignment.assigned_count(task) for task in range(instance.task_count)
        )
        available = sum(
            1
            for worker in range(instance.worker_count)
            if pairs.tasks_for_worker[worker]
        )
        expected = min(available, 5 * instance.task_count)
        assert filled == expected

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6))
    def test_property_always_feasible(self, seed):
        instance = generate_instance(
            40,
            8,
            speed_range=(0.05, 0.3),
            radius_range=(0.1, 0.5),
            seed=seed,
        )
        pairs = compute_valid_pairs(instance)
        assignment = solve_tpg(instance, pairs)
        assignment.check_feasible()
        assert assignment.total_score() >= -1e-9


def _tie_instance(quality: np.ndarray, workers_for_task, backend: str):
    """Hand-built batch: B = 2, capacity 2, validity given per task."""
    from repro.core.model import Instance, Task, Worker
    from repro.core.quality_store import SparseQualityStore
    from repro.core.validity import ValidPairs
    from repro.spatial.geometry import Point

    size = quality.shape[0]
    store = CooperationMatrix(quality)
    if backend == "sparse":
        store = SparseQualityStore.from_dense(store, prior=0.0)
    workers = [
        Worker(worker_id=i, location=Point(0.5, 0.5), speed=1.0, radius=1.0)
        for i in range(size)
    ]
    tasks = [
        Task(task_id=j, location=Point(0.5, 0.5), capacity=2, deadline=5.0)
        for j in range(len(workers_for_task))
    ]
    tasks_for_worker = [
        [task for task, valid in enumerate(workers_for_task) if worker in valid]
        for worker in range(size)
    ]
    instance = Instance(
        workers=workers, tasks=tasks, quality=store, min_group_size=2
    )
    return instance, ValidPairs.from_worker_lists(
        tasks_for_worker, len(workers_for_task)
    )


@pytest.mark.parametrize("backend", ["dense", "sparse"])
class TestStageOneTies:
    """Paper lines 6-9: how stage 1 breaks equal group scores."""

    def test_same_group_goes_to_the_task_with_more_candidates(self, backend):
        # Both tasks' best group is {0, 1} with the same score; task 1 can
        # also use worker 2, so it has more candidates and takes the group.
        q = np.full((3, 3), 0.1)
        q[0, 1] = q[1, 0] = 0.9
        instance, pairs = _tie_instance(q, [(0, 1), (0, 1, 2)], backend)
        result = solve_tpg_with_stats(instance, pairs)
        assert result.assignment.members(1) == (0, 1)
        assert result.assignment.members(0) == ()
        assert result.seeded_tasks == 1

    def test_different_groups_go_to_the_lowest_task_id(self, backend):
        # Task 0's best group {0, 1} and task 1's best group {1, 2} score
        # the same. Task 1 has more candidates, but the groups differ, so
        # the lowest task id commits first and task 1 re-seeds from the
        # workers left.
        q = np.zeros((4, 4))
        q[0, 1] = q[1, 0] = 0.5
        q[1, 2] = q[2, 1] = 0.5
        instance, pairs = _tie_instance(q, [(0, 1), (1, 2, 3)], backend)
        result = solve_tpg_with_stats(instance, pairs)
        assert result.assignment.members(0) == (0, 1)
        assert sorted(result.assignment.members(1)) == [2, 3]
        assert result.seeded_tasks == 2


class TestStageTwoParity:
    """Stage 2 scores a task's idle candidates in one block evaluation;
    every gain, hence every assignment and counter, must match the scalar
    oracle ``reference_join_gain``."""

    @staticmethod
    def _stores(size: int, seed: int):
        from repro.core.quality_store import (
            SharedDenseQualityStore,
            SparseQualityStore,
        )

        rng = np.random.default_rng(seed)
        # Mixed magnitudes make sequential and pairwise sums differ.
        q = rng.uniform(0.0, 1.0, size=(size, size))
        q[rng.random((size, size)) < 0.4] = 1e-16
        q[rng.random((size, size)) < 0.3] = 0.25  # becomes the sparse prior
        dense = CooperationMatrix(q)
        shared = SharedDenseQualityStore.create(dense)
        return {
            "dense": dense,
            "sparse": SparseQualityStore.from_dense(dense, prior=0.25),
            "shared": shared,
        }, shared

    @pytest.mark.parametrize("min_group_size", [1, 2, 3])
    def test_block_gains_match_scalar_join_gain(self, min_group_size):
        from repro.audit.reference import reference_join_gain
        from repro.core.revenue import RevenueCache

        size = 24
        stores, shared = self._stores(size, seed=min_group_size)
        try:
            for backend, store in stores.items():
                for count in range(1, 12):
                    for capacity in (count, count + 1, 12):
                        cache = RevenueCache(store, [capacity], min_group_size)
                        for worker in range(count):
                            cache.join(worker, 0)
                        idle = np.arange(count, size, dtype=np.intp)[::-1]
                        batched = cache.join_gains(idle, 0)
                        scalar = [
                            reference_join_gain(cache, int(w), 0) for w in idle
                        ]
                        assert [repr(g) for g in batched] == [
                            repr(float(g)) for g in scalar
                        ], (backend, count, capacity)
        finally:
            shared.close()
            shared.unlink()

    @pytest.mark.parametrize("allow_negative_gain", [False, True])
    @pytest.mark.parametrize("backend", ["dense", "sparse", "shared"])
    def test_tpg_matches_a_scalar_stage_two(
        self, backend, allow_negative_gain, monkeypatch
    ):
        from repro.core.model import Instance
        from repro.core.quality_store import (
            SharedDenseQualityStore,
            SparseQualityStore,
        )
        from repro.audit.reference import reference_join_gain
        from repro.core.revenue import RevenueCache

        base = generate_instance(
            90, 8, capacity=12, min_group_size=2, remaining_time=5,
            speed_range=(0.1, 0.2), radius_range=(0.3, 0.5), seed=3,
        )
        dense = base.quality.to_dense()
        store = {
            "dense": dense,
            "sparse": SparseQualityStore.from_dense(dense, prior=0.3),
            "shared": SharedDenseQualityStore.create(dense),
        }[backend]
        instance = Instance(
            workers=base.workers, tasks=base.tasks, quality=store,
            min_group_size=base.min_group_size,
        )
        pairs = compute_valid_pairs(instance)

        def run():
            result = solve_tpg_with_stats(
                instance, pairs, allow_negative_gain=allow_negative_gain
            )
            stats = result.stats
            return (
                result.assignment.to_pairs(),
                repr(result.assignment.total_score()),
                stats.gain_evaluations,
                stats.incremental_updates,
                stats.peel_kernel_calls,
                stats.revenue_evaluations,
            )

        try:
            # The groups grow past numpy's 8-element pairwise cliff.
            filled = solve_tpg(instance, pairs, allow_negative_gain=True)
            assert max(
                filled.assigned_count(task) for task in range(instance.task_count)
            ) > 9
            batched = run()
            monkeypatch.setattr(
                RevenueCache,
                "join_gains",
                lambda self, workers, task: [
                    reference_join_gain(self, worker, task)
                    for worker in workers.tolist()
                ],
            )
            scalar = run()
        finally:
            if backend == "shared":
                store.close()
                store.unlink()
        assert batched == scalar


class TestExactBestGroup:
    def test_exact_is_optimal(self):
        import itertools

        q = CooperationMatrix.random_uniform(8, seed=5)
        group, score = reference_best_group(q, list(range(8)), 3)
        best = max(
            q.ordered_pair_sum(list(combo)) / 2
            for combo in itertools.combinations(range(8), 3)
        )
        assert score == pytest.approx(best)
        assert len(group) == 3

    def test_exact_not_enough_candidates(self):
        q = CooperationMatrix.random_uniform(4, seed=0)
        assert reference_best_group(q, [0, 1], 3) == ([], 0.0)

    def test_greedy_uses_exact_below_threshold(self):
        """With <= EXACT_SEED_THRESHOLD candidates stage 1's result must
        equal the exhaustive optimum."""
        import itertools

        q = CooperationMatrix.random_uniform(EXACT_SEED_THRESHOLD, seed=6)
        candidates = list(range(EXACT_SEED_THRESHOLD))
        greedy_group, greedy_score = stage_one_group(q, candidates, 3)
        exact_group, exact_score = reference_best_group(q, candidates, 3)
        assert (greedy_group, repr(greedy_score)) == (
            exact_group, repr(exact_score)
        )
        assert exact_score == pytest.approx(
            max(
                q.ordered_pair_sum(list(combo)) / 2
                for combo in itertools.combinations(candidates, 3)
            )
        )


class TestStageOneParity:
    """Stage 1 gathers each task's candidate block once and commits every
    group in one ``assign_pairs``; the from-scratch loop re-gathers every
    stale task through the store and assigns member by member. Commits,
    groups, score reprs, kernel calls and the revenue cache must match."""

    @staticmethod
    def _instance(backend: str, workers: int, tasks: int, radius, seed: int):
        from repro.core.model import Instance
        from repro.core.quality_store import (
            SharedDenseQualityStore,
            SparseQualityStore,
        )

        base = generate_instance(
            workers, tasks, capacity=6, min_group_size=3, remaining_time=5,
            speed_range=(0.1, 0.2), radius_range=radius, seed=seed,
        )
        dense = base.quality.to_dense()
        # Mixed magnitudes and a common prior, so the sparse store holds
        # both stored entries and prior defaults inside every block.
        q = np.array(dense.values)
        rng = np.random.default_rng(seed)
        q[rng.random(q.shape) < 0.4] = 0.3
        np.fill_diagonal(q, 0.0)
        dense = CooperationMatrix(q)
        store = {
            "dense": lambda: dense,
            "sparse": lambda: SparseQualityStore.from_dense(dense, prior=0.3),
            "shared": lambda: SharedDenseQualityStore.create(dense),
        }[backend]()
        instance = Instance(
            workers=base.workers, tasks=base.tasks, quality=store,
            min_group_size=base.min_group_size,
        )
        return instance, store

    @pytest.mark.parametrize("backend", ["dense", "sparse", "shared"])
    @pytest.mark.parametrize(
        "radius",
        [(0.12, 0.22), (0.3, 0.5)],
        ids=["straddling-threshold", "greedy-regime"],
    )
    @pytest.mark.parametrize(
        "prefer_wider, positive_only, share",
        [(True, False, 1.0), (False, True, 0.6)],
        ids=["tpg", "border"],
    )
    def test_cached_stage_one_matches_from_scratch(
        self, backend, radius, prefer_wider, positive_only, share
    ):
        for seed in range(3):
            instance, store = self._instance(backend, 120, 24, radius, seed)
            try:
                pairs = compute_valid_pairs(instance)
                counts = [len(workers) for workers in pairs.workers_for_task]
                # Re-evaluations of shrinking blocks cross the threshold
                # either way.
                if radius[1] < 0.3:
                    assert min(counts) <= EXACT_SEED_THRESHOLD < max(counts)
                else:
                    assert min(counts) > EXACT_SEED_THRESHOLD
                rng = np.random.default_rng(seed)
                available = rng.random(instance.worker_count) < share
                tasks = range(instance.task_count)
                flags = dict(prefer_wider=prefer_wider, positive_only=positive_only)
                cached = stage_one_trace(
                    seed_groups, instance, pairs, available, tasks, **flags
                )
                scratch = stage_one_trace(
                    reference_seed_groups, instance, pairs, available, tasks,
                    **flags,
                )
                assert cached[0], "nothing committed"
                assert cached == scratch, (seed, backend)
            finally:
                if backend == "shared":
                    store.close()
                    store.unlink()

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("prefer_wider", [True, False])
    def test_tie_shapes(self, backend, prefer_wider):
        shapes = []
        q = np.full((3, 3), 0.1)
        q[0, 1] = q[1, 0] = 0.9
        shapes.append((q, [(0, 1), (0, 1, 2)]))
        q = np.zeros((4, 4))
        q[0, 1] = q[1, 0] = 0.5
        q[1, 2] = q[2, 1] = 0.5
        shapes.append((q, [(0, 1), (1, 2, 3)]))
        for quality, workers_for_task in shapes:
            instance, pairs = _tie_instance(quality, workers_for_task, backend)
            available = np.ones(instance.worker_count, dtype=bool)
            tasks = range(instance.task_count)
            flags = dict(prefer_wider=prefer_wider, positive_only=False)
            assert stage_one_trace(
                seed_groups, instance, pairs, available, tasks, **flags
            ) == stage_one_trace(
                reference_seed_groups, instance, pairs, available, tasks, **flags
            )
