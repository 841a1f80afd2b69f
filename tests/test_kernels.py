"""Kernel suite — the batched evaluations against their scalar references.

Every kernel in :mod:`repro.core.kernels` replaced a scalar evaluation
and must reproduce its floats bit for bit on every quality-store
backend: :func:`~repro.core.kernels.score_candidates` rows against the
per-candidate ``join_gain`` scan, :func:`~repro.core.kernels.
counted_subset_select` against the greedy reference peel (both kept in
:mod:`repro.audit.reference`), and the gathers against the stores' own
lookups. Solve-level outputs are pinned by ``tests/test_golden.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.audit.fuzzer import _KERNEL_SHAPES, fuzz_instance
from repro.audit.reference import (
    VECTOR_PEEL_LIMIT,
    reference_best_alternative,
    reference_counted_subset,
    reference_utilities,
)
from repro.core.assignment import Assignment
from repro.core.game import DEFAULT_TOLERANCE, _VECTOR_GROUP_LIMIT, _BestResponseDynamics
from repro.core.kernels import (
    CODE_CURRENT,
    CODE_SCALAR,
    PAIRWISE_CLIFF,
    counted_subset_select,
    gather_block,
    gather_symmetric,
    ordered_row_sums,
    score_candidates,
    verify_pairwise_cliff,
)
from repro.core.model import Instance
from repro.core.quality import CooperationMatrix
from repro.core.quality_store import (
    SharedDenseQualityStore,
    SparseQualityStore,
)
from repro.core.tpg import solve_tpg
from repro.core.validity import compute_valid_pairs
from tests.conftest import make_dense_instance

CORPUS_DIR = "tests/data/audit_corpus"
BACKENDS = ("dense", "sparse", "shared")


def _with_backend(instance: Instance, backend: str):
    """``(instance on backend, cleanup-or-None)`` — audit-runner idiom."""
    dense = instance.quality.to_dense()
    if backend == "dense":
        return instance, None
    if backend == "sparse":
        store = SparseQualityStore.from_dense(dense, prior=0.0)
    else:
        store = SharedDenseQualityStore.create(dense)
    swapped = Instance(
        workers=instance.workers,
        tasks=instance.tasks,
        quality=store,
        min_group_size=instance.min_group_size,
        now=instance.now,
    )
    if backend == "shared":
        def cleanup() -> None:
            store.close()
            store.unlink()

        return swapped, cleanup
    return swapped, None


class TestKernelBuffers:
    def test_dense_and_csr_agree(self, dense_instance):
        sparse = SparseQualityStore.from_dense(
            dense_instance.quality.to_dense(), prior=0.0
        )
        dense_buffers = dense_instance.quality.as_kernel_buffers()
        csr_buffers = sparse.as_kernel_buffers()
        assert dense_buffers.is_dense and not csr_buffers.is_dense
        size = dense_instance.worker_count
        assert dense_buffers.size == csr_buffers.size == size
        assert dense_buffers.dense.shape == (size, size)
        # Rebuild the dense matrix from the CSR key/value arrays.
        rebuilt = np.full((size, size), csr_buffers.prior)
        np.fill_diagonal(rebuilt, 0.0)
        rows, cols = np.divmod(csr_buffers.row_keys, size)
        rebuilt[rows, cols] = csr_buffers.row_values
        assert np.array_equal(rebuilt, dense_buffers.dense)


class TestKernelBoundaryShapes:
    """The fuzzer's kernel-boundary layouts and their committed repros."""

    def test_group8_saturates_vector_limit(self):
        from repro.audit.corpus import load_corpus_entry

        instance, _ = load_corpus_entry(f"{CORPUS_DIR}/kernel_group8.json")
        assert instance.worker_count == _VECTOR_GROUP_LIMIT + 1
        assert instance.tasks[0].capacity == _VECTOR_GROUP_LIMIT

    def test_fuzzer_emits_every_shape_deterministically(self):
        seen = {}
        for index in range(400):
            seed = (606, index)
            instance = fuzz_instance(seed)
            capacity = instance.tasks[0].capacity
            if instance.worker_count == 1:
                seen.setdefault("solo", seed)
            elif instance.task_count == 1 and (
                instance.worker_count,
                capacity,
            ) == (9, 8):
                seen.setdefault("group8", seed)
            elif instance.task_count == 1 and (
                instance.worker_count,
                capacity,
            ) == (9, 6):
                seen.setdefault("peelcliff", seed)
            elif instance.task_count == 1 and (
                instance.worker_count,
                capacity,
            ) == (9, 7):
                seen.setdefault("tiedpeel", seed)
            elif instance.task_count == 1 and instance.worker_count in (
                8,
                10,
            ) and capacity == instance.worker_count - 1:
                seen.setdefault("peelfit", seed)
            elif not any(compute_valid_pairs(instance).tasks_for_worker):
                seen.setdefault("nopairs", seed)
            if len(seen) == len(_KERNEL_SHAPES):
                break
        assert set(seen) == set(_KERNEL_SHAPES)
        for seed in seen.values():
            first = fuzz_instance(seed)
            second = fuzz_instance(seed)
            assert repr(first.workers) == repr(second.workers)
            assert repr(first.tasks) == repr(second.tasks)


class TestPairwiseCliff:
    """The peel kernel's bit-identity proof leans on numpy summing
    sequentially below 8 elements and block-pairwise at 8. These tests
    are the tripwire for a numpy release moving that threshold."""

    def test_real_numpy_matches_the_assumed_cliff(self):
        verify_pairwise_cliff()  # must not raise on the pinned numpy

    def test_cliff_constant_matches_the_oracle_limit(self):
        assert PAIRWISE_CLIFF == VECTOR_PEEL_LIMIT + 1 == 8

    def test_always_sequential_impostor_is_rejected(self):
        # A numpy whose sum stayed sequential at 8 elements would make
        # the scalar-branch replay diverge from the oracle.
        def sequential(values):
            total = 0.0
            for value in values:
                total = total + float(value)
            return total

        with pytest.raises(RuntimeError, match="pairwise-summation cliff"):
            verify_pairwise_cliff(sum_func=sequential)

    def test_early_pairwise_impostor_is_rejected(self):
        # ... and one that went pairwise below 8 breaks the endgame.
        def pairwise(values):
            values = [float(v) for v in values]
            if len(values) == 1:
                return values[0]
            mid = (len(values) + 1) // 2
            return pairwise(values[:mid]) + pairwise(values[mid:])

        with pytest.raises(RuntimeError, match="pairwise-summation cliff"):
            verify_pairwise_cliff(sum_func=pairwise)

    def test_ordered_row_sums_is_strictly_sequential(self):
        rng = np.random.default_rng(11)
        matrix = rng.uniform(0.0, 1.0, size=(9, 9))
        sums = ordered_row_sums(matrix)
        for row in range(9):
            expected = 0.0
            for value in matrix[row]:
                expected = expected + float(value)
            assert repr(float(sums[row])) == repr(expected)
        assert ordered_row_sums(np.empty((3, 0))).tolist() == [0.0] * 3


class TestGatherBlock:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_multi_row_gather_matches_dense_lookup(self, backend):
        base = make_dense_instance(24, 5, seed=7)
        instance, cleanup = _with_backend(base, backend)
        try:
            dense = base.quality.to_dense().values
            rng = np.random.default_rng(3)
            rows = rng.integers(0, 24, size=6)
            cols = rng.integers(0, 24, size=9)
            block = gather_block(
                instance.quality.as_kernel_buffers(), rows, cols
            )
            expected = dense[rows[:, None], cols].copy()
            expected[rows[:, None] == cols[None, :]] = 0.0
            assert np.array_equal(block, expected)
            # The store-level protocol method routes through the same path.
            assert np.array_equal(
                instance.quality.gather_rows(rows, cols), block
            )
        finally:
            if cleanup is not None:
                cleanup()

    def test_square_gather_matches_legacy_gather(self):
        base = make_dense_instance(20, 4, seed=8)
        sparse = SparseQualityStore.from_dense(
            base.quality.to_dense(), prior=0.25
        )
        index = np.array([1, 4, 9, 13, 17])
        assert np.array_equal(
            sparse.gather(index), sparse.gather_rows(index, index)
        )


class TestGatherSymmetric:
    """The sparse branch scatters the candidates' CSR row segments; it
    must equal the global key search and the dense gather exactly."""

    @staticmethod
    def _sparse(seed: int):
        rng = np.random.default_rng(seed)
        size = 30
        q = rng.uniform(0.0, 1.0, size=(size, size))
        q[rng.random((size, size)) < 0.6] = 0.4  # the prior
        q[:, 5] = q[5, :] = 0.4  # worker 5: no stored deviation at all
        q[7, :] = 0.4  # worker 7: no stored row (its column is stored)
        dense = CooperationMatrix(q)
        return dense, SparseQualityStore.from_dense(dense, prior=0.4)

    @pytest.mark.parametrize(
        "index",
        [
            [17, 3, 29, 0, 11, 8],  # unsorted
            [4, 22],  # size 2
            [22, 4],
            [5, 7, 1, 2],  # workers without stored deviations
            [5, 7],
            list(range(30))[::-1],
        ],
    )
    def test_matches_key_search_and_dense_gather(self, index):
        for seed in range(3):
            dense, sparse = self._sparse(seed)
            buffers = sparse.as_kernel_buffers()
            index = np.asarray(index)
            scattered = gather_symmetric(buffers, index)
            searched = gather_block(buffers, index, index)
            sub = dense.gather(index)
            assert np.array_equal(scattered, searched + searched.T)
            assert np.array_equal(scattered, sub + sub.T)
            assert np.array_equal(
                scattered, gather_symmetric(dense.as_kernel_buffers(), index)
            )

    def test_buffers_share_the_store_csr(self):
        _, sparse = self._sparse(0)
        buffers = sparse.as_kernel_buffers()
        assert buffers.indptr is sparse._indptr
        assert buffers.indices is sparse._indices


class TestPeelPairSum:
    """``counted_subset_select`` returns the kept block's pair sum from its
    one master gather; it must be the store's ``submatrix_sum`` bit for
    bit."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pair_sum_matches_submatrix_sum(self, backend):
        base = make_dense_instance(16, 3, seed=12)
        instance, cleanup = _with_backend(base, backend)
        try:
            quality = instance.quality
            buffers = quality.as_kernel_buffers()
            rng = np.random.default_rng(6)
            for members_count in range(7, 13):
                members = [
                    int(w)
                    for w in rng.choice(16, size=members_count, replace=False)
                ]
                for size in range(members_count + 1):
                    kept, pair_sum = counted_subset_select(buffers, members, size)
                    expected = quality.submatrix_sum(
                        np.asarray(kept, dtype=np.intp)
                    )
                    assert repr(pair_sum) == repr(expected), (
                        backend, members_count, size,
                    )
        finally:
            if cleanup is not None:
                cleanup()


class TestCountedSubsetSelectParity:
    """The peel kernel must reproduce the scalar reference peel
    bit-for-bit at every kept size around the pairwise cliff, on every
    backend."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_peel_matches_oracle_across_the_cliff(self, backend):
        base = make_dense_instance(16, 3, seed=9)
        instance, cleanup = _with_backend(base, backend)
        try:
            quality = instance.quality
            buffers = quality.as_kernel_buffers()
            rng = np.random.default_rng(4)
            for members_count in (7, 8, 9, 10, 12):
                members = sorted(
                    int(w)
                    for w in rng.choice(16, size=members_count, replace=False)
                )
                for size in range(members_count + 1):
                    oracle = reference_counted_subset(quality, members, size)
                    kernel, _ = counted_subset_select(buffers, members, size)
                    assert kernel == oracle, (backend, members_count, size)
        finally:
            if cleanup is not None:
                cleanup()


    def test_native_gt_counts_peel_dispatches_on_overflow(self):
        from repro.audit.fuzzer import _kernel_boundary_instance
        from repro.core.game import solve_game_theoretic

        instance = _kernel_boundary_instance(
            "tiedpeel", np.random.default_rng(0)
        )
        result = solve_game_theoretic(instance, compute_valid_pairs(instance))
        assert result.stats.peel_kernel_calls > 0


class TestScoreCandidatesParity:
    """A batched row, its deferred slots filled, must equal the scalar
    ``join_gain`` scan slot for slot, on every backend."""

    @staticmethod
    def _rows(assignment: Assignment, tasks_lists: list[list[int]]):
        cache = assignment.revenue_cache
        counts = [len(tasks) for tasks in tasks_lists]
        vp_indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        vp_tasks = np.asarray(
            [task for tasks in tasks_lists for task in tasks], dtype=np.int64
        )
        mem_indptr, mem_flat = cache.members_csr()
        current = np.asarray(
            [assignment.task_of(w) for w in range(len(tasks_lists))],
            dtype=np.int64,
        )
        values, codes = score_candidates(
            assignment.instance.quality.as_kernel_buffers(),
            vp_indptr,
            vp_tasks,
            mem_indptr,
            mem_flat,
            cache.pair_sums,
            cache.revenues,
            cache.capacities,
            assignment.instance.min_group_size,
            _VECTOR_GROUP_LIMIT,
            current,
        )
        return vp_indptr, values, codes

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rows_match_the_reference_scan(self, backend):
        # 60 workers for 6 tasks of capacity 8: full tasks defer to the
        # scalar peel, 7-member ones are the widest batched segments.
        base = make_dense_instance(60, 6, capacity=8, seed=3)
        instance, cleanup = _with_backend(base, backend)
        try:
            pairs = compute_valid_pairs(instance)
            tasks_lists = [list(tasks) for tasks in pairs.tasks_for_worker]
            assignment = Assignment(instance, pairs, allow_overflow=True)
            for worker, task in solve_tpg(instance, pairs).to_pairs():
                assignment.assign(worker, task)
            dynamics = _BestResponseDynamics(
                instance, pairs, assignment, DEFAULT_TOLERANCE, lazy_update=False
            )
            seen_codes = set()
            for _ in range(3):  # the TPG seed, then states after moves
                indptr, values, codes = self._rows(assignment, tasks_lists)
                seen_codes.update(codes.tolist())
                for worker, tasks in enumerate(tasks_lists):
                    row = slice(indptr[worker], indptr[worker + 1])
                    utilities = values[row].copy()
                    expected = reference_utilities(assignment, worker, tasks)
                    for position, code in enumerate(codes[row]):
                        if code in (CODE_SCALAR, CODE_CURRENT):
                            utilities[position] = expected[position]
                    assert [repr(float(u)) for u in utilities] == [
                        repr(float(e)) for e in expected
                    ], (backend, worker)
                    if tasks:
                        best = int(np.argmax(utilities))
                        assert reference_best_alternative(
                            assignment, worker, tasks
                        ) == (tasks[best], float(utilities[best]))
                dynamics.run_round()
            assert {CODE_SCALAR, CODE_CURRENT} <= seen_codes
        finally:
            if cleanup is not None:
                cleanup()
