"""Kernel suite — the batched evaluations against their scalar references.

Every kernel in :mod:`repro.core.kernels` replaced a scalar evaluation
and must reproduce its floats bit for bit on every quality-store
backend: :func:`~repro.core.kernels.score_candidates` rows against the
per-candidate scan of the scalar oracles, the lockstep peel
(:func:`~repro.core.kernels.counted_subset_batch` and its single-group
:func:`~repro.core.kernels.counted_subset_select`) against the greedy
reference peel (both kept in :mod:`repro.audit.reference`), TPG stage
1's two selection kernels against their plain-loop oracles, and the
stores' block reads against the dense matrix. Solve-level outputs are pinned by ``tests/test_golden.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.fuzzer import _KERNEL_SHAPES, fuzz_instance
from repro.audit.invariants import oracle_counted_subset
from repro.audit.reference import (
    reference_best_alternative,
    reference_counted_subset,
    reference_exact_select,
    reference_greedy_select,
    reference_join_gain,
    reference_leave_delta,
    reference_utilities,
)
from repro.core.assignment import Assignment
from repro.core.game import DEFAULT_TOLERANCE, _BestResponseDynamics
from repro.core.kernels import (
    CODE_CURRENT,
    CODE_SCALAR,
    PEEL_CHUNK,
    counted_subset_batch,
    counted_subset_select,
    exact_group_select,
    greedy_group_select,
    ordered_row_sums,
    score_candidates,
)
from repro.core.model import Instance
from repro.core.quality import CooperationMatrix
from repro.core.quality_store import (
    SharedDenseQualityStore,
    SparseQualityStore,
    task_blocks,
)
from repro.core.revenue import RevenueCache
from repro.core.tpg import EXACT_SEED_THRESHOLD, _combo_table, solve_tpg
from repro.core.validity import ValidPairs, compute_valid_pairs
from tests.conftest import make_dense_instance
from tests.test_revenue import _backend_quality

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


class TestKernelBoundaryShapes:
    """The fuzzer's kernel-boundary layouts and their committed repros."""

    def test_group8_saturates_vector_limit(self):
        from repro.audit.corpus import load_corpus_entry

        instance, _ = load_corpus_entry(f"{CORPUS_DIR}/kernel_group8.json")
        assert instance.worker_count == 9
        assert instance.tasks[0].capacity == 8

    def test_wide_fills_twelve_slots(self):
        from repro.audit.corpus import load_corpus_entry

        instance, _ = load_corpus_entry(f"{CORPUS_DIR}/kernel_wide.json")
        assert (instance.worker_count, instance.task_count) == (13, 1)
        assert instance.tasks[0].capacity == 12

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
            elif instance.task_count == 1 and (
                instance.worker_count,
                capacity,
            ) == (13, 12):
                seen.setdefault("wide", seed)
            elif instance.task_count == 1 and instance.worker_count in (
                8,
                10,
            ) and capacity == instance.worker_count - 1:
                seen.setdefault("peelfit", seed)
            elif instance.now == 0.0:
                seen.setdefault("hypotband", seed)
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


def _loop(values) -> float:
    """Strict Python left-to-right sum."""
    total = 0.0
    for value in values:
        total += float(value)
    return total


def _order_matrices(size: int) -> dict:
    """Quality matrices whose sums tell summation orders apart.

    Qualities lie in [0, 1], so both discriminators are scaled into it:
    ``1e16`` followed by ones becomes ``1.0`` followed by ``1e-16``
    (sequential addition absorbs every small term, a reordering does
    not), and random magnitudes from 1e-8 to 1e8 become 1e-16 to 1.
    """
    spike = np.full((size, size), 1e-16)
    spike[0, 1] = spike[1, 0] = 1.0
    rng = np.random.default_rng(31)
    spread = 10.0 ** rng.uniform(-16.0, 0.0, (size, size))
    for q in (spike, spread):
        np.fill_diagonal(q, 0.0)
    return {"spike": spike, "spread": spread}


class TestPairwiseCliff:
    """Equation 2 has one summation order and no pairwise cliff: every
    reduction, scalar and batched, sums strictly left to right over the
    members in their given order (row-major over a block), at every
    width — here 1 to 20, straddling the eight elements from which
    ``ndarray.sum()`` reorders. Scalars are builtin ``float``."""

    WIDTHS = range(1, 21)

    @staticmethod
    def _replay(q, sequence):
        """Pair sum of joining ``sequence`` one worker at a time."""
        total = 0.0
        for index, worker in enumerate(sequence):
            before = sequence[:index]
            total += _loop(q[worker, before]) + _loop(q[before, worker])
        return total

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kind", ["spike", "spread"])
    def test_store_sums_are_sequential(self, backend, kind):
        q = _order_matrices(max(self.WIDTHS) + 2)[kind]
        quality, cleanup = _backend_quality(CooperationMatrix(q), backend)
        try:
            for width in self.WIDTHS:
                members = list(range(1, width + 1))
                cross = quality.cross_sum(0, members)
                assert type(cross) is float
                assert repr(cross) == repr(
                    _loop(q[0, members]) + _loop(q[members, 0])
                ), width
                index = np.arange(width + 1)
                block = quality.submatrix_sum(index)
                assert type(block) is float
                assert repr(block) == repr(
                    _loop(q[index[:, None], index].reshape(-1))
                ), width
        finally:
            if cleanup is not None:
                cleanup()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kind", ["spike", "spread"])
    def test_revenue_evaluations_are_sequential(self, backend, kind):
        q = _order_matrices(max(self.WIDTHS) + 2)[kind]
        quality, cleanup = _backend_quality(CooperationMatrix(q), backend)
        try:
            for width in self.WIDTHS:
                members = list(range(1, width + 1))
                outsider = width + 1
                # Task 0 has room for worker 0; task 1 is full without it.
                cache = RevenueCache(quality, [width + 1, width], 2)
                for member in members:
                    cache.join(member, 0)
                    cache.join(member, 1)
                pair_sum = self._replay(q, members)
                assert repr(float(cache.pair_sums[0])) == repr(pair_sum)
                revenue = cache.revenue(0)

                gain = reference_join_gain(cache, 0, 0)
                cross = _loop(q[0, members]) + _loop(q[members, 0])
                assert type(gain) is float
                assert repr(gain) == repr((pair_sum + cross) / width - revenue)
                gains = cache.join_gains(np.array([0, outsider]), 0)
                assert [type(value) for value in gains] == [float, float]
                assert gains == [gain, reference_join_gain(cache, outsider, 0)]
                overflow = reference_join_gain(cache, 0, 1)
                assert type(overflow) is float
                assert cache.join_gains([0], [1]) == [overflow]

                joined = RevenueCache(quality, [width + 1], 2)
                joined.join_pairs(members + [0], [0] * (width + 1))
                assert repr(float(joined.pair_sums[0])) == repr(
                    self._replay(q, members + [0])
                ), width

                cache.join(0, 0)
                cache.join(0, 1)
                everyone = np.array(members + [0])
                for task in (0, 1):
                    deltas = cache.leave_deltas(everyone, np.full(everyone.size, task))
                    for worker, delta in zip(everyone.tolist(), deltas):
                        single = reference_leave_delta(cache, worker, task)
                        assert type(single) is float and type(delta) is float
                        assert repr(delta) == repr(single), (width, task, worker)
                current = cache.revenue(0)
                expected = current
                if width >= 2:
                    with_worker = float(cache.pair_sums[0])
                    expected = current - (with_worker - cross) / (width - 1)
                assert repr(cache.leave_deltas([0], 0)[0]) == repr(expected), width
                if width >= 3:
                    # Over capacity, the survivors fit: their block sum.
                    survivors = np.array(members)
                    block = _loop(q[survivors[:, None], survivors].reshape(-1))
                    assert repr(cache.leave_deltas([0], 1)[0]) == repr(
                        cache.revenue(1) - block / (width - 1)
                    ), width
        finally:
            if cleanup is not None:
                cleanup()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kind", ["spike", "spread"])
    def test_peel_scores_and_pair_sums_are_sequential(self, backend, kind):
        q = _order_matrices(max(self.WIDTHS) + 2)[kind]
        quality, cleanup = _backend_quality(CooperationMatrix(q), backend)
        try:
            for width in self.WIDTHS:
                group = np.arange(width).reshape(1, width)
                for size in sorted({width, width - 1, width // 2}):
                    kept, pair_sums = counted_subset_batch(quality, group, size)
                    assert kept[0].tolist() == oracle_counted_subset(
                        quality, group[0].tolist(), size
                    ), (width, size)
                    index = kept[0]
                    assert repr(float(pair_sums[0])) == repr(
                        _loop(q[index[:, None], index].reshape(-1))
                    ), (width, size)
        finally:
            if cleanup is not None:
                cleanup()

    def test_peel_near_ties_follow_the_sequential_scores(self):
        # One-decimal qualities tie many contributions in exact
        # arithmetic, so the order alone picks the weakest member. The
        # check only counts if scoring with ``ndarray.sum()`` would
        # peel some of these groups differently.
        rng = np.random.default_rng(8)
        q = np.round(rng.uniform(0.0, 1.0, (60, 60)), 1)
        np.fill_diagonal(q, 0.0)
        quality = CooperationMatrix(q)
        flipped = 0
        for width in range(8, 21):
            groups = np.sort(
                np.stack([rng.choice(60, size=width, replace=False) for _ in range(300)]),
                axis=1,
            )
            kept, _ = counted_subset_batch(quality, groups, width - 1)
            for row, members in enumerate(groups):
                block = q[members[:, None], members]
                sequential = [
                    _loop(block[p]) + _loop(block[:, p]) for p in range(width)
                ]
                pairwise = block.sum(axis=1) + block.sum(axis=0)
                weakest = width - 1 - sequential[::-1].index(min(sequential))
                assert kept[row].tolist() == np.delete(members, weakest).tolist()
                ties = np.flatnonzero(pairwise == pairwise.min())
                flipped += int(ties[-1] != weakest)
        assert flipped

    def test_ordered_row_sums_is_strictly_sequential(self):
        rng = np.random.default_rng(11)
        # Few rows take the cumsum, many rows the column loop.
        for rows in (9, 200):
            matrix = rng.uniform(0.0, 1.0, size=(rows, 9))
            sums = ordered_row_sums(matrix)
            for row in range(rows):
                expected = 0.0
                for value in matrix[row]:
                    expected = expected + float(value)
                assert repr(float(sums[row])) == repr(expected)
        assert repr(float(ordered_row_sums(matrix[0]))) == repr(_loop(matrix[0]))
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
            block = instance.quality.block(rows, cols)
            expected = dense[rows[:, None], cols].copy()
            expected[rows[:, None] == cols[None, :]] = 0.0
            assert np.array_equal(block, expected)
            assert block.flags["C_CONTIGUOUS"] and block.dtype == np.float64
            # Leading batch dimensions give a stack of blocks.
            stacked = instance.quality.block(
                np.stack([rows, rows[::-1]]), np.stack([cols, cols[::-1]])
            )
            assert np.array_equal(stacked[0], block)
            assert np.array_equal(
                stacked[1], instance.quality.block(rows[::-1], cols[::-1])
            )
        finally:
            if cleanup is not None:
                cleanup()

    def test_square_gather_matches_legacy_gather(self):
        dense = make_dense_instance(20, 4, seed=8).quality.to_dense()
        sparse = SparseQualityStore.from_dense(dense, prior=0.25)
        index = np.array([1, 4, 9, 13, 17])
        assert np.array_equal(
            sparse.block(index, index), dense.values[index[:, None], index]
        )


class TestGatherSymmetric:
    """Stage 1's symmetric block comes from the task-local block
    (``quality_store.SparseTaskBlocks``: codes into a small value table,
    scattered from the watchers' row segments); its live block plus its
    transpose must equal the store's own block and the dense block
    exactly, and the codes must mark the prior, the diagonal and the
    stored entries."""

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
            index = np.asarray(index)
            # One task watched by exactly the indexed workers.
            pairs = ValidPairs.from_worker_lists(
                [[0] if worker in index else [] for worker in range(30)], 1
            )
            reader = task_blocks(sparse, pairs)
            positions = reader.locate(0, index)
            assert np.array_equal(reader.worker_ids(positions), index)
            sub = reader.block(positions, positions)
            searched = sparse.block(index, index)
            assert np.array_equal(sub, searched)
            assert np.array_equal(sub + sub.T, searched + searched.T)
            gathered = dense.block(index, index)
            assert np.array_equal(sub + sub.T, gathered + gathered.T)
            ids = np.sort(index)
            codes = reader.codes(0)
            diagonal = np.eye(ids.size, dtype=bool)
            stored = (dense.block(ids, ids) != 0.4) & ~diagonal
            assert np.array_equal(codes == 1, diagonal)
            assert np.array_equal(codes >= 2, stored)
            assert reader.built == 1


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
            rng = np.random.default_rng(6)
            for members_count in range(7, 13):
                members = [
                    int(w)
                    for w in rng.choice(16, size=members_count, replace=False)
                ]
                for size in range(members_count + 1):
                    kept, pair_sum = counted_subset_select(quality, members, size)
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
            rng = np.random.default_rng(4)
            for members_count in (7, 8, 9, 10, 12):
                members = sorted(
                    int(w)
                    for w in rng.choice(16, size=members_count, replace=False)
                )
                for size in range(members_count + 1):
                    oracle = reference_counted_subset(quality, members, size)
                    kernel, _ = counted_subset_select(quality, members, size)
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


class TestCountedSubsetBatchParity:
    """The lockstep peel of ``B`` equal-shaped groups: every row's kept
    members must be the reference peel's and every pair sum the store's
    ``submatrix_sum``, repr-exactly, on every backend."""

    @staticmethod
    def _groups(count: int, width: int, workers: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return np.sort(
            np.stack(
                [rng.choice(workers, size=width, replace=False) for _ in range(count)]
            ),
            axis=1,
        )

    @staticmethod
    def _assert_rows_match(quality, groups, size, kept, pair_sums, label):
        assert kept.shape == (groups.shape[0], min(size, groups.shape[1]))
        for row, members in enumerate(groups.tolist()):
            oracle = reference_counted_subset(quality, members, size)
            assert kept[row].tolist() == oracle, (label, row)
            expected = quality.submatrix_sum(np.asarray(oracle, dtype=np.intp))
            assert repr(float(pair_sums[row])) == repr(expected), (label, row)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("width", [5, 8, 9, 10, 12, 17])
    def test_every_size_matches_the_reference(self, backend, width):
        base = make_dense_instance(24, 3, seed=21)
        instance, cleanup = _with_backend(base, backend)
        try:
            quality = instance.quality
            groups = self._groups(4, width, 24, seed=width)
            for size in range(width + 1):
                kept, pair_sums = counted_subset_batch(quality, groups, size)
                self._assert_rows_match(
                    quality, groups, size, kept, pair_sums, (backend, width, size)
                )
        finally:
            if cleanup is not None:
                cleanup()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "width, size", [(5, 4), (8, 7), (9, 8), (10, 8), (12, 8), (17, 8)]
    )
    def test_census_shapes_match_the_reference(self, backend, width, size):
        base = make_dense_instance(40, 3, seed=22)
        instance, cleanup = _with_backend(base, backend)
        try:
            quality = instance.quality
            groups = self._groups(12, width, 40, seed=100 + width)
            kept, pair_sums = counted_subset_batch(
                quality, groups, size
            )
            self._assert_rows_match(
                quality, groups, size, kept, pair_sums, (backend, width, size)
            )
        finally:
            if cleanup is not None:
                cleanup()

    @staticmethod
    def _with_quality(q: np.ndarray) -> Instance:
        base = make_dense_instance(q.shape[0], 2, seed=0)
        return Instance(
            workers=base.workers,
            tasks=base.tasks,
            quality=CooperationMatrix(q),
            min_group_size=base.min_group_size,
            now=base.now,
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_near_ties_follow_the_reference_summation_order(self, backend):
        # One-decimal qualities make many contributions equal in exact
        # arithmetic, so the summation order alone picks the weakest
        # member: a reduction in any other order than the reference's
        # (pairwise instead of sequential at eight elements, or the
        # reverse) peels differently in about one percent of these groups.
        q = np.round(np.random.default_rng(8).uniform(0.0, 1.0, (60, 60)), 1)
        np.fill_diagonal(q, 0.0)
        instance, cleanup = _with_backend(self._with_quality(q), backend)
        try:
            quality = instance.quality
            for width, size in ((8, 7), (8, 4), (9, 8), (10, 8), (12, 8), (17, 8)):
                groups = self._groups(400, width, 60, seed=width)
                kept, pair_sums = counted_subset_batch(quality, groups, size)
                self._assert_rows_match(
                    quality, groups, size, kept, pair_sums, (backend, width)
                )
        finally:
            if cleanup is not None:
                cleanup()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_all_tied_contributions_peel_the_highest_index(self, backend):
        count = 20
        q = np.full((count, count), 0.5)
        np.fill_diagonal(q, 0.0)
        instance, cleanup = _with_backend(self._with_quality(q), backend)
        try:
            quality = instance.quality
            groups = self._groups(6, 12, count, seed=5)
            for size in (11, 8, 7, 3):
                kept, pair_sums = counted_subset_batch(
                    quality, groups, size
                )
                # Every contribution ties at every step, so each row
                # keeps its lowest-index members.
                assert kept.tolist() == groups[:, :size].tolist()
                self._assert_rows_match(
                    quality, groups, size, kept, pair_sums, (backend, size)
                )
        finally:
            if cleanup is not None:
                cleanup()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_single_group_is_the_select_call(self, backend):
        base = make_dense_instance(24, 3, seed=23)
        instance, cleanup = _with_backend(base, backend)
        try:
            quality = instance.quality
            for width in (5, 9, 12):
                members = self._groups(1, width, 24, seed=width)
                for size in (0, width - 1, 8, width):
                    kept, pair_sums = counted_subset_batch(quality, members, size)
                    single = counted_subset_select(
                        quality, members[0][::-1].tolist(), size
                    )
                    assert (kept[0].tolist(), repr(float(pair_sums[0]))) == (
                        single[0], repr(single[1]),
                    )
        finally:
            if cleanup is not None:
                cleanup()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batches_straddling_the_chunk_boundary(self, backend):
        base = make_dense_instance(30, 3, seed=24)
        instance, cleanup = _with_backend(base, backend)
        try:
            quality = instance.quality
            for width, size in ((5, 4), (9, 8)):
                groups = self._groups(PEEL_CHUNK + 3, width, 30, seed=width)
                kept, pair_sums = counted_subset_batch(quality, groups, size)
                for row in (0, PEEL_CHUNK - 1, PEEL_CHUNK, PEEL_CHUNK + 2):
                    single = counted_subset_select(
                        quality, groups[row].tolist(), size
                    )
                    assert (kept[row].tolist(), repr(float(pair_sums[row]))) == (
                        single[0], repr(single[1]),
                    ), (width, row)
                self._assert_rows_match(
                    quality, groups, size, kept, pair_sums, (backend, width)
                )
        finally:
            if cleanup is not None:
                cleanup()


class TestScoreCandidatesParity:
    """A batched row, its deferred slots filled, must equal the scan of
    the scalar oracles slot for slot, on every backend."""

    @staticmethod
    def _rows(assignment: Assignment, tasks_lists: list[list[int]]):
        cache = assignment.revenue_cache
        counts = [len(tasks) for tasks in tasks_lists]
        vp_indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        vp_tasks = np.asarray(
            [task for tasks in tasks_lists for task in tasks], dtype=np.int64
        )
        # Every task's members as one flat CSR, in the cache's order.
        members = [cache.member_list(task) for task in range(cache.task_count)]
        mem_indptr = np.concatenate(
            [[0], np.cumsum([len(group) for group in members])]
        ).astype(np.int64)
        mem_flat = np.asarray(
            [worker for group in members for worker in group], dtype=np.int64
        )
        current = np.asarray(
            [assignment.task_of(w) for w in range(len(tasks_lists))],
            dtype=np.int64,
        )
        values, codes = score_candidates(
            assignment.instance.quality,
            vp_indptr,
            vp_tasks,
            mem_indptr,
            mem_flat,
            cache.pair_sums,
            cache.revenues,
            cache.capacities,
            assignment.instance.min_group_size,
            current,
        )
        return vp_indptr, values, codes

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rows_match_the_reference_scan(self, backend):
        # 60 workers for 6 tasks of capacity 8: full tasks defer to the
        # peel, 7-member ones are the widest batched segments.
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


@st.composite
def _pair_blocks(draw):
    """A stage-1 pair block (``q + q.T``, zero diagonal) and a group
    size ``B`` of 2-4: uniform values, or multiples of 1/8, whose exact
    sums tie often; counts around the exact/greedy boundary are drawn
    more often."""
    count = draw(
        st.one_of(
            st.integers(2, 16),
            st.sampled_from([EXACT_SEED_THRESHOLD, EXACT_SEED_THRESHOLD + 1]),
        )
    )
    size = draw(st.integers(2, min(4, count)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        q = rng.integers(0, 9, size=(count, count)) / 8.0
    else:
        q = rng.random((count, count))
    np.fill_diagonal(q, 0.0)
    return q + q.T, size


class TestGroupSelectParity:
    """Stage 1's selection kernels pick the plain loops' groups, ties
    included, with their pair sums repr-exact."""

    @settings(max_examples=150, deadline=None)
    @given(_pair_blocks())
    def test_greedy_matches_scalar_loop(self, block):
        symmetric, size = block
        chosen, pair_sum = greedy_group_select(symmetric.copy(), size)
        expected, expected_sum = reference_greedy_select(symmetric, size)
        assert (chosen, repr(pair_sum)) == (expected, repr(expected_sum))

    @settings(max_examples=150, deadline=None)
    @given(_pair_blocks())
    def test_exact_matches_scalar_loop(self, block):
        symmetric, size = block
        combos, offsets = _combo_table(symmetric.shape[0], size)
        best, pair_sum = exact_group_select(symmetric.copy(), offsets)
        expected, expected_sum = reference_exact_select(symmetric, size)
        assert (combos[best].tolist(), repr(pair_sum)) == (
            expected,
            repr(expected_sum),
        )
