"""Tests for Equation 2's revenue function and its marginal forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.reference import (
    reference_counted_subset,
    reference_join_gain,
    reference_leave_delta,
)
from repro.core.quality import CooperationMatrix
from repro.core.revenue import (
    best_counted_subset,
    group_revenue,
    worker_average_quality,
)


def uniform_matrix(size, value):
    q = np.full((size, size), value)
    return CooperationMatrix(q)


class TestGroupRevenue:
    def test_below_minimum_is_zero(self):
        q = CooperationMatrix.random_uniform(5, seed=0)
        assert group_revenue(q, [0, 1], capacity=4, min_group_size=3) == 0.0
        assert group_revenue(q, [], capacity=4, min_group_size=3) == 0.0

    def test_equation_two_denominator(self):
        # Uniform quality c: group of size s scores s*(s-1)*c / (s-1) = s*c.
        q = uniform_matrix(6, 0.5)
        for size in (3, 4, 5):
            members = list(range(size))
            assert group_revenue(
                q, members, capacity=6, min_group_size=3
            ) == pytest.approx(size * 0.5)

    def test_paper_example_values(self):
        # Example 1: pairs (w1,w4)=0.9 and (w2,w3)=0.9 give 1.8 total;
        # (w1,w2)=0.1 and (w3,w4)=0.1 give 0.2. The paper counts each
        # unordered pair once while Equation 2 sums ordered pairs, so the
        # example's pair quality v is stored as v/2 per direction.
        q = np.zeros((4, 4))
        for (i, k), v in {(0, 1): 0.1, (0, 3): 0.9, (1, 2): 0.9, (2, 3): 0.1}.items():
            q[i, k] = q[k, i] = v / 2.0
        matrix = CooperationMatrix(q)
        good = group_revenue(matrix, [0, 3], 2, 2) + group_revenue(matrix, [1, 2], 2, 2)
        bad = group_revenue(matrix, [0, 1], 2, 2) + group_revenue(matrix, [2, 3], 2, 2)
        assert good == pytest.approx(1.8)
        assert bad == pytest.approx(0.2)

    def test_overflow_uses_best_subset(self):
        # Workers 0-2 cooperate perfectly; worker 3 poorly with everyone.
        q = np.full((4, 4), 1.0)
        q[3, :] = q[:, 3] = 0.05
        matrix = CooperationMatrix(q)
        full = group_revenue(matrix, [0, 1, 2, 3], capacity=3, min_group_size=2)
        best = group_revenue(matrix, [0, 1, 2], capacity=3, min_group_size=2)
        assert full == pytest.approx(best)

    def test_asymmetric_quality(self):
        q = np.array([[0, 0.2, 0], [0.8, 0, 0], [0, 0, 0]])
        matrix = CooperationMatrix(q)
        assert group_revenue(matrix, [0, 1], 2, 2) == pytest.approx(1.0)


class TestBestCountedSubset:
    def test_keeps_everything_when_size_sufficient(self):
        q = CooperationMatrix.random_uniform(5, seed=1)
        assert best_counted_subset(q, [2, 0, 4], 3) == [0, 2, 4]
        assert best_counted_subset(q, [2, 0], 5) == [0, 2]

    def test_negative_size_rejected(self):
        q = CooperationMatrix.random_uniform(3, seed=1)
        with pytest.raises(ValueError):
            best_counted_subset(q, [0, 1], -1)

    def test_duplicates_rejected(self):
        q = CooperationMatrix.random_uniform(3, seed=1)
        with pytest.raises(ValueError):
            best_counted_subset(q, [0, 0, 1], 2)

    def test_drops_weakest(self):
        q = np.full((4, 4), 0.9)
        q[3, :] = q[:, 3] = 0.01
        matrix = CooperationMatrix(q)
        assert best_counted_subset(matrix, [0, 1, 2, 3], 3) == [0, 1, 2]

    def test_deterministic_on_ties(self):
        matrix = uniform_matrix(5, 0.5)
        first = best_counted_subset(matrix, [4, 2, 0, 1, 3], 3)
        second = best_counted_subset(matrix, [0, 1, 2, 3, 4], 3)
        assert first == second

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_greedy_close_to_exhaustive(self, seed):
        """Greedy peeling finds a subset within 25% of the true optimum
        on small random groups (it is exact surprisingly often)."""
        import itertools

        rng = np.random.default_rng(seed)
        size = int(rng.integers(4, 7))
        matrix = CooperationMatrix.random_uniform(size, seed=seed)
        members = list(range(size))
        keep = size - 1
        greedy = best_counted_subset(matrix, members, keep)
        greedy_value = matrix.ordered_pair_sum(greedy)
        best_value = max(
            matrix.ordered_pair_sum(list(combo))
            for combo in itertools.combinations(members, keep)
        )
        assert greedy_value >= 0.75 * best_value - 1e-12


def _group_cache(quality, members, capacity, minimum):
    """A one-task revenue cache holding ``members``."""
    from repro.core.revenue import RevenueCache

    cache = RevenueCache(quality, [capacity], minimum)
    for worker in members:
        cache.join(worker, 0)
    return cache


class TestMarginals:
    """The revenue cache's two evaluators against differences of the
    from-scratch :func:`group_revenue`."""

    def test_marginal_matches_difference(self):
        q = CooperationMatrix.random_uniform(8, seed=3)
        members = [0, 2, 5]
        gain = _group_cache(q, members, 5, 3).join_gains([6], 0)[0]
        expected = group_revenue(q, members + [6], 5, 3) - group_revenue(
            q, members, 5, 3
        )
        assert gain == pytest.approx(expected)

    def test_marginal_rejects_member(self):
        q = CooperationMatrix.random_uniform(4, seed=0)
        with pytest.raises(ValueError):
            _group_cache(q, [0, 1], 4, 2).join_gains([1], 0)

    def test_removal_delta_matches_difference(self):
        q = CooperationMatrix.random_uniform(8, seed=4)
        members = [1, 3, 4, 6]
        delta = _group_cache(q, members, 5, 3).leave_deltas([3], 0)[0]
        expected = group_revenue(q, members, 5, 3) - group_revenue(
            q, [1, 4, 6], 5, 3
        )
        assert delta == pytest.approx(expected)

    def test_removal_rejects_non_member(self):
        q = CooperationMatrix.random_uniform(4, seed=0)
        with pytest.raises(ValueError):
            _group_cache(q, [0, 1], 4, 2).leave_deltas([3], 0)

    def test_crossing_b_boundary(self):
        """Adding the B-th worker jumps revenue from 0 to the full score."""
        q = uniform_matrix(4, 0.6)
        gain = _group_cache(q, [0, 1], 4, 3).join_gains([2], 0)[0]
        assert gain == pytest.approx(3 * 0.6)

    def test_negative_gain_possible(self):
        q = np.full((4, 4), 0.9)
        q[3, :] = q[:, 3] = 0.0
        matrix = CooperationMatrix(q)
        gain = _group_cache(matrix, [0, 1, 2], 4, 3).join_gains([3], 0)[0]
        assert gain < 0

    def test_worker_average_quality(self):
        q = uniform_matrix(5, 0.4)
        avg = worker_average_quality(q, 0, [0, 1, 2, 3], capacity=4)
        assert avg == pytest.approx(0.4)
        assert worker_average_quality(q, 0, [0], capacity=4) == 0.0


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 10), st.integers(2, 6), st.integers(0, 10**6))
def test_property_revenue_invariants(group_size, min_group_size, seed):
    """Revenue is non-negative, zero below B, permutation invariant, and
    bounded by size * max_quality."""
    rng = np.random.default_rng(seed)
    matrix = CooperationMatrix.random_uniform(group_size + 2, seed=seed)
    members = rng.permutation(group_size + 2)[:group_size].tolist()
    capacity = max(group_size, min_group_size)
    value = group_revenue(matrix, members, capacity, min_group_size)
    assert value >= 0.0
    if group_size < min_group_size:
        assert value == 0.0
    else:
        shuffled = rng.permutation(members).tolist()
        assert group_revenue(matrix, shuffled, capacity, min_group_size) == (
            pytest.approx(value)
        )
        assert value <= group_size * 1.0 + 1e-9


@settings(max_examples=50, deadline=None)
@given(st.integers(3, 8), st.integers(0, 10**6))
def test_property_revenue_sum_of_averages(size, seed):
    """Q(W) equals the sum of the members' average qualities q_i(W_j) —
    the identity Section II uses to interpret Equation 2."""
    matrix = CooperationMatrix.random_uniform(size, seed=seed)
    members = list(range(size))
    total = group_revenue(matrix, members, capacity=size, min_group_size=2)
    summed = sum(
        worker_average_quality(matrix, worker, members, capacity=size)
        for worker in members
    )
    assert total == pytest.approx(summed)


class TestEquationTwoEdgeCases:
    """Regression tests for the B <= 1 edge cases (former crashes)."""

    def test_singleton_group_with_b1_scores_zero(self):
        # A singleton group has no cooperation pairs, so Equation 2's
        # numerator is empty and the revenue is 0 — this used to divide
        # by ``count - 1 == 0`` when min_group_size=1.
        q = CooperationMatrix.random_uniform(5, seed=0)
        assert group_revenue(q, [2], capacity=4, min_group_size=1) == 0.0
        assert group_revenue(q, [0], capacity=1, min_group_size=0) == 0.0

    def test_singleton_capacity_one_overflow(self):
        # Two members clamped to a capacity-1 best subset: the counted
        # group is a singleton, which must score 0, not crash.
        q = CooperationMatrix.random_uniform(5, seed=1)
        assert group_revenue(q, [0, 3], capacity=1, min_group_size=1) == 0.0

    def test_pair_group_with_b1_uses_normal_denominator(self):
        q = uniform_matrix(4, 0.3)
        assert group_revenue(q, [0, 1], capacity=4, min_group_size=1) == (
            pytest.approx(0.6)
        )

    def test_cache_join_gain_b1_singleton(self):
        from repro.core.revenue import RevenueCache

        q = CooperationMatrix.random_uniform(4, seed=2)
        cache = RevenueCache(q, capacities=[3], min_group_size=1)
        # Joining an empty task forms a singleton: gain must be 0.
        assert cache.join_gains([0], 0) == [0.0]
        cache.join(0, 0)
        assert cache.revenue(0) == 0.0
        # Leaving the singleton symmetrically yields delta 0.
        assert cache.leave_deltas([0], 0) == [0.0]


def _backend_quality(matrix: CooperationMatrix, backend: str):
    """``(store, cleanup-or-None)`` with the matrix on one backend."""
    from repro.core.quality_store import (
        SharedDenseQualityStore,
        SparseQualityStore,
    )

    if backend == "dense":
        return matrix, None
    if backend == "sparse":
        return SparseQualityStore.from_dense(matrix, prior=0.0), None
    store = SharedDenseQualityStore.create(matrix)

    def cleanup() -> None:
        store.close()
        store.unlink()

    return store, cleanup


#: The two peels under the edge-case pins: the batched production peel
#: and the scalar reference the kernel tests hold it to.
PEELS = {"native": best_counted_subset, "python": reference_counted_subset}


@pytest.mark.parametrize("peel", ["python", "native"])
@pytest.mark.parametrize("backend", ["dense", "sparse", "shared"])
class TestBestCountedSubsetEdges:
    """Edge regimes of the peel, pinned on every backend for both the
    batched peel and its scalar reference."""

    def run(self, matrix, members, size, backend, peel):
        quality, cleanup = _backend_quality(matrix, backend)
        try:
            return PEELS[peel](quality, members, size)
        finally:
            if cleanup is not None:
                cleanup()

    def test_size_zero_peels_to_empty(self, backend, peel):
        matrix = CooperationMatrix.random_uniform(9, seed=3)
        assert self.run(matrix, list(range(9)), 0, backend, peel) == []
        assert self.run(matrix, [], 0, backend, peel) == []

    def test_size_equal_to_members_is_identity(self, backend, peel):
        matrix = CooperationMatrix.random_uniform(9, seed=3)
        members = [6, 1, 8, 0, 3]
        kept = self.run(matrix, members, len(members), backend, peel)
        assert kept == sorted(members)

    def test_duplicates_rejected_before_dispatch(self, backend, peel):
        matrix = CooperationMatrix.random_uniform(5, seed=3)
        quality, cleanup = _backend_quality(matrix, backend)
        try:
            with pytest.raises(ValueError, match="duplicate"):
                PEELS[peel](quality, [0, 0, 1], 2)
            with pytest.raises(ValueError):
                PEELS[peel](quality, [0, 1], -1)
        finally:
            if cleanup is not None:
                cleanup()

    def test_all_tied_peels_highest_index_first(self, backend, peel):
        # Uniform quality ties every contribution at every step; the
        # peel must shed indices from the top on both sides of the
        # pairwise cliff (10 -> 9 -> 8 -> 7 -> ... -> 3).
        matrix = uniform_matrix(10, 0.5)
        for size in (9, 8, 7, 3):
            kept = self.run(matrix, list(range(10)), size, backend, peel)
            assert kept == list(range(size)), (backend, peel, size)

    def test_cliff_sizes_match_python_oracle(self, backend, peel):
        # kept counts 7/8/9 straddle numpy's pairwise-summation cliff;
        # every (members, size) cell must agree with the scalar
        # reference peel on the dense matrix repr-exactly.
        matrix = CooperationMatrix.random_uniform(12, seed=17)
        for members_count in (7, 8, 9, 10):
            members = list(range(members_count))
            for size in range(members_count):
                expected = reference_counted_subset(matrix, members, size)
                assert (
                    self.run(matrix, members, size, backend, peel) == expected
                ), (backend, peel, members_count, size)


class TestTieBreakPin:
    """The documented tie-break: ties peel the *highest* worker index."""

    def test_uniform_ties_keep_lowest_indices(self):
        # Every contribution ties on a uniform matrix, so the peel must
        # repeatedly drop the highest index: 4, then 3.
        matrix = uniform_matrix(5, 0.5)
        assert best_counted_subset(matrix, [0, 1, 2, 3, 4], 3) == [0, 1, 2]
        # Membership order must not matter.
        assert best_counted_subset(matrix, [3, 1, 4, 0, 2], 3) == [0, 1, 2]

    def test_partial_tie_between_two_members(self):
        # Workers 1 and 3 contribute identically (symmetric roles); the
        # higher index, 3, must be the one peeled.
        q = np.full((4, 4), 0.5)
        q[0, 2] = q[2, 0] = 0.9
        matrix = CooperationMatrix(q)
        assert best_counted_subset(matrix, [0, 1, 2, 3], 3) == [0, 1, 2]

    def test_tie_break_consistent_above_vector_limit(self):
        # A ten-member peel scores more than eight terms per member;
        # the tie-break must be the same there.
        matrix = uniform_matrix(10, 0.5)
        assert best_counted_subset(matrix, list(range(10)), 4) == [0, 1, 2, 3]


class TestRevenueCacheIncremental:
    def make_cache(self, seed=7, capacities=(3, 4), minimum=2):
        from repro.core.revenue import RevenueCache

        q = CooperationMatrix.random_uniform(10, seed=seed)
        return q, RevenueCache(q, list(capacities), minimum)

    def test_join_leave_matches_scratch(self):
        q, cache = self.make_cache()
        for worker in (0, 4, 2):
            cache.join(worker, 0)
            assert cache.revenue(0) == pytest.approx(cache.revenue_from_scratch(0))
        cache.leave(4, 0)
        assert cache.revenue(0) == pytest.approx(cache.revenue_from_scratch(0))

    def test_overflow_revenue_exactly_matches_scratch(self):
        # Over capacity the refresh re-peels from scratch, so the cached
        # revenue is exactly the oracle value (not just approximately).
        q, cache = self.make_cache(capacities=(2, 4))
        for worker in (0, 1, 2, 3):
            cache.join(worker, 0)
        assert cache.revenue(0) == cache.revenue_from_scratch(0)
        assert cache.counted_subset(0) == tuple(
            best_counted_subset(q, [0, 1, 2, 3], 2)
        )

    def test_exchange_is_leave_plus_join(self):
        q, cache = self.make_cache()
        cache.join(0, 1)
        cache.join(5, 1)
        cache.exchange(1, leaving=5, entering=8)
        assert cache.members(1) == (0, 8)
        assert cache.revenue(1) == pytest.approx(cache.revenue_from_scratch(1))

    def test_version_stamps_move_on_every_mutation(self):
        q, cache = self.make_cache()
        v0 = cache.versions[0]
        cache.join(3, 0)
        assert cache.versions[0] == v0 + 1
        cache.leave(3, 0)
        assert cache.versions[0] == v0 + 2
        cache.clear(0)
        assert cache.versions[0] == v0 + 3
        assert cache.versions[1] == 0

    def test_evaluation_counters(self):
        q, cache = self.make_cache(capacities=(2, 4))
        cache.join(0, 0)
        cache.join(1, 0)
        assert cache.incremental_updates == 2
        assert cache.full_evaluations == 0
        cache.join(2, 0)  # overflow: triggers a from-scratch peel
        assert cache.full_evaluations == 1
        cache.join_gains([3], 0)  # overflow probe counts as full evaluation
        assert cache.full_evaluations == 2

    def test_native_kernel_overflow_is_repr_identical(self):
        # Overflow revenues come from the batched peel; they must be the
        # reference peel's subset and pair sum, and every peel is counted.
        q, cache = self.make_cache(capacities=(2, 4))
        for worker in (0, 1, 2, 3):
            cache.join(worker, 0)
        kept = reference_counted_subset(q, [0, 1, 2, 3], 2)
        assert cache.counted_subset(0) == tuple(kept)
        assert repr(cache.revenue(0)) == repr(q.submatrix_sum(np.asarray(kept)))
        assert cache.peel_kernel_calls == 2  # joins 3 and 4 overflow
        # Overflow probes peel (and count) too.
        gain = cache.join_gains([4], 0)[0]
        assert repr(gain) == repr(
            q.submatrix_sum(
                np.asarray(reference_counted_subset(q, [0, 1, 2, 3, 4], 2))
            )
            - cache.revenue(0)
        )
        assert repr(gain) == repr(reference_join_gain(cache, 4, 0))
        assert cache.peel_kernel_calls == 3

    def test_overflow_join_gains_rejects_joins_that_need_no_peel(self):
        # A capacity-1 task would divide the peel's pair sum by
        # capacity - 1 == 0: its overflowing join scores 0 - Q with one
        # full evaluation and no peel, never nan. A join that fits runs
        # no peel either.
        q, cache = self.make_cache(capacities=(1, 4), minimum=1)
        cache.join(0, 0)
        cache.join(2, 1)
        gains = cache.join_gains([1, 3, 1], [0, 0, 1])
        assert not np.isnan(gains).any()
        assert gains[:2] == [0.0 - cache.revenue(0)] * 2
        assert gains[2] == reference_join_gain(cache, 1, 1) > 0.0
        assert cache.full_evaluations == 2
        assert cache.peel_kernel_calls == 0

    def test_clone_copies_peel_counter(self):
        q, cache = self.make_cache(capacities=(2, 4))
        for worker in (0, 1, 2):
            cache.join(worker, 0)
        clone = cache.clone()
        assert clone.peel_kernel_calls == cache.peel_kernel_calls > 0

    def test_join_gain_matches_mutation(self):
        q, cache = self.make_cache()
        cache.join(0, 0)
        cache.join(1, 0)
        for worker in (2, 9):
            predicted = cache.join_gains([worker], 0)[0]
            before = cache.revenue(0)
            cache.join(worker, 0)
            assert cache.revenue(0) - before == pytest.approx(predicted)
            cache.leave(worker, 0)


class TestEvaluatorsRejectBadPairs:
    """A join of a member and a leave of a non-member have no Equation
    4/5 value; the evaluators raise instead of answering a float."""

    @staticmethod
    def _cache():
        from repro.core.revenue import RevenueCache

        cache = RevenueCache(CooperationMatrix.random_uniform(6, seed=4), [4, 4], 2)
        for worker in (1, 2, 3):
            cache.join(worker, 0)
        return cache

    def test_leave_deltas_rejects_a_non_member(self):
        cache = self._cache()
        with pytest.raises(ValueError, match="not a member"):
            cache.leave_deltas(np.array([0]), np.array([0]))
        # Also where the survivors would fall below B, and in a batch.
        with pytest.raises(ValueError, match="not a member"):
            cache.leave_deltas(np.array([1, 2]), np.array([0, 1]))
        with pytest.raises(ValueError, match="not a member"):
            reference_leave_delta(cache, 0, 0)
        assert cache.full_evaluations == cache.peel_kernel_calls == 0

    def test_join_gains_rejects_a_member(self):
        cache = self._cache()
        with pytest.raises(ValueError, match="already a member"):
            cache.join_gains(np.array([1]), 0)
        with pytest.raises(ValueError, match="already a member"):
            cache.join_gains([0, 3], [1, 0])
        with pytest.raises(ValueError, match="already a member"):
            reference_join_gain(cache, 1, 0)
        assert cache.full_evaluations == cache.peel_kernel_calls == 0


#: Workers and tasks of the evaluator property's caches.
_EVAL_WORKERS, _EVAL_TASKS = 16, 4


@pytest.fixture(scope="module")
def evaluator_stores():
    """One asymmetric mixed-magnitude matrix on every backend, and as the
    sparse store's task-block reader (positions differ from ids)."""
    from repro.core.quality_store import (
        SharedDenseQualityStore,
        SparseQualityStore,
        task_blocks,
    )
    from repro.core.validity import ValidPairs

    rng = np.random.default_rng(29)
    size = _EVAL_WORKERS
    q = rng.uniform(size=(size, size))
    q[rng.random((size, size)) < 0.3] = 1e-16
    q[rng.random((size, size)) < 0.3] = 0.25  # the sparse prior
    dense = CooperationMatrix(q)
    sparse = SparseQualityStore.from_dense(dense, prior=0.25)
    shared = SharedDenseQualityStore.create(dense)
    pairs = ValidPairs.from_worker_lists(
        [range(_EVAL_TASKS)] * _EVAL_WORKERS, _EVAL_TASKS
    )
    yield {
        "dense": (dense, None),
        "sparse": (sparse, None),
        "shared": (shared, None),
        "blocks": (sparse, lambda: task_blocks(sparse, pairs)),
    }
    shared.close()
    shared.unlink()


@settings(max_examples=80, deadline=None)
@given(
    backend=st.sampled_from(["dense", "sparse", "shared", "blocks"]),
    capacities=st.lists(
        st.integers(1, 5), min_size=_EVAL_TASKS, max_size=_EVAL_TASKS
    ),
    minimum=st.integers(1, 4),
    owners=st.lists(
        st.integers(-1, _EVAL_TASKS - 1),
        min_size=_EVAL_WORKERS,
        max_size=_EVAL_WORKERS,
    ),
    joins=st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(0, _EVAL_TASKS - 1)),
        max_size=12,
    ),
    leaves=st.lists(st.integers(0, 10**6), max_size=12),
)
def test_evaluators_match_the_oracles_and_a_pairwise_replay(
    evaluator_stores, backend, capacities, minimum, owners, joins, leaves
):
    """Mixed batches (fits, below ``B``, ``B = 1``, overflow, capacity 1,
    repeated tasks): ``join_gains`` and ``leave_deltas`` equal the scalar
    oracles repr-exactly, and count the full evaluations and peels of
    scoring the pairs one at a time."""
    from repro.core.revenue import RevenueCache

    store, reader = evaluator_stores[backend]
    cache = RevenueCache(store, capacities, minimum)
    if reader is not None:
        cache.use_reads(reader())
    for worker, task in enumerate(owners):
        if task >= 0:
            cache.join(worker, task)

    def counters():
        return cache.full_evaluations, cache.peel_kernel_calls

    def check(evaluate, oracle, workers, tasks):
        before = counters()
        batch = evaluate(np.asarray(workers), np.asarray(tasks))
        middle = counters()
        single = [evaluate([w], t)[0] for w, t in zip(workers, tasks)]
        after = counters()
        expected = [oracle(cache, w, t) for w, t in zip(workers, tasks)]
        assert [type(value) for value in batch] == [float] * len(workers)
        assert repr(batch) == repr(single) == repr(expected)
        assert np.subtract(middle, before).tolist() == (
            np.subtract(after, middle).tolist()
        )

    idle = [worker for worker, task in enumerate(owners) if task < 0]
    if idle:
        pairs = [(idle[pick % len(idle)], task) for pick, task in joins]
        check(
            cache.join_gains,
            reference_join_gain,
            [worker for worker, _ in pairs],
            [task for _, task in pairs],
        )
    members = [worker for worker, task in enumerate(owners) if task >= 0]
    if members:
        leavers = [members[pick % len(members)] for pick in leaves]
        check(
            cache.leave_deltas,
            reference_leave_delta,
            leavers,
            [owners[worker] for worker in leavers],
        )
