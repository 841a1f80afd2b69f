"""Kernel parity suite — ``python`` vs ``native`` must be repr-identical.

The contract under test (``repro.core.kernels`` module docstring): the
choice of best-response kernel never changes an assignment — not its
pairs, not its score repr, not its string form — on any quality-store
backend, with or without numba installed. The suite runs in full on
both configurations: when numba is absent the ``native`` kernel
exercises the numpy fallback (and the counters prove which path ran);
the numba-specific compile test skips gracefully.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.audit.corpus import load_corpus_entry
from repro.audit.fuzzer import _KERNEL_SHAPES, fuzz_instance
from repro.core.fallback import FallbackSolver
from repro.core.kernels import (
    DEFAULT_KERNEL,
    KERNELS,
    NUMBA_AVAILABLE,
    PAIRWISE_CLIFF,
    KernelBuffers,
    counted_subset_select,
    gather_block,
    gather_symmetric,
    ordered_row_sums,
    resolve_kernel,
    segment_sums_ordered,
    verify_pairwise_cliff,
)
from repro.core.model import Instance
from repro.core.quality import CooperationMatrix
from repro.core.quality_store import (
    SharedDenseQualityStore,
    SparseQualityStore,
)
from repro.core.stats import SolverStats
from repro.core.validity import compute_valid_pairs
from repro.experiments.config import make_solver
from tests.conftest import make_dense_instance

CORPUS_DIR = "tests/data/audit_corpus"
BACKENDS = ("dense", "sparse", "shared")
#: All three dispatch through the kernel under ``native``: the GT family
#: via prepass/rescan gain scoring, TPG via the stage-1 group kernel.
PARITY_APPROACHES = ("GT", "GT+ALL", "TPG")


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


def _signature(assignment) -> tuple:
    return (
        tuple(assignment.to_pairs()),
        repr(assignment.total_score()),
        repr(assignment),
    )


def _solve(instance, approach: str, kernel: str):
    pairs = compute_valid_pairs(instance)
    solver = make_solver(approach, epsilon=0.01, seed=5, kernel=kernel)
    assignment = solver(instance, pairs)
    log = getattr(solver, "stats_log", None)
    stats = SolverStats.merged(log) if log else None
    return _signature(assignment), stats


class TestResolveKernel:
    def test_known_names_pass_through(self):
        for name in KERNELS:
            assert resolve_kernel(name) == name
        assert DEFAULT_KERNEL in KERNELS

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            resolve_kernel("fortran")


class TestSegmentSumsOrdered:
    def test_matches_sequential_python_sum_bitwise(self):
        rng = np.random.default_rng(9)
        values = rng.uniform(0.0, 1.0, size=64)
        lengths = np.array([0, 1, 2, 3, 7, 8, 9, 16, 18], dtype=np.intp)
        starts = np.zeros_like(lengths)
        np.cumsum(lengths[:-1], out=starts[1:])
        sums = segment_sums_ordered(values, starts, lengths)
        for i, (start, length) in enumerate(zip(starts, lengths)):
            expected = 0.0
            for value in values[start : start + length]:
                expected = expected + float(value)
            assert repr(float(sums[i])) == repr(expected), f"segment {i}"

    def test_empty_input(self):
        empty = np.array([], dtype=np.intp)
        assert segment_sums_ordered(np.array([]), empty, empty).size == 0


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


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("approach", PARITY_APPROACHES)
class TestKernelParity:
    def test_native_matches_python_repr_exactly(self, approach, backend):
        base = make_dense_instance(30, 6, seed=2)
        instance, cleanup = _with_backend(base, backend)
        try:
            python_sig, _ = _solve(instance, approach, "python")
            native_sig, native_stats = _solve(instance, approach, "native")
        finally:
            if cleanup is not None:
                cleanup()
        assert native_sig == python_sig
        assert native_stats is not None
        ran = (
            native_stats.kernel_compiled_calls
            + native_stats.kernel_fallback_calls
        )
        assert ran > 0, "native solve never entered the kernel"
        if not NUMBA_AVAILABLE:
            assert native_stats.kernel_compiled_calls == 0


class TestFallbackChainParity:
    def test_budgetless_fallback_wrapper_is_kernel_invariant(self):
        instance = make_dense_instance(25, 5, seed=4)
        pairs = compute_valid_pairs(instance)
        signatures = []
        for kernel in KERNELS:
            primary = make_solver("GT+ALL", epsilon=0.01, seed=5, kernel=kernel)
            wrapped = FallbackSolver(primary, budget=None, label="GT+ALL")
            signatures.append(_signature(wrapped(instance, pairs)))
            assert not wrapped.degradation_log[-1].degraded
        assert signatures[0] == signatures[1]


class TestKernelBoundaryShapes:
    """The fuzzer's kernel-boundary layouts and their committed repros."""

    @pytest.mark.parametrize(
        "name",
        ["kernel_group8", "kernel_solo_worker", "kernel_zero_pairs"],
    )
    def test_corpus_entry_is_kernel_invariant(self, name):
        instance, metadata = load_corpus_entry(f"{CORPUS_DIR}/{name}.json")
        assert metadata["findings"] == []
        python_sig, _ = _solve(instance, "GT", "python")
        native_sig, _ = _solve(instance, "GT", "native")
        assert native_sig == python_sig

    def test_group8_saturates_vector_limit(self):
        from repro.core.game import _VECTOR_GROUP_LIMIT

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
        from repro.core.revenue import _VECTOR_PEEL_LIMIT

        assert PAIRWISE_CLIFF == _VECTOR_PEEL_LIMIT + 1 == 8

    def test_always_sequential_impostor_is_rejected(self):
        # A numpy whose sum stayed sequential at 8 elements would make
        # the scalar-branch replay diverge from the oracle.
        def sequential(values):
            total = 0.0
            for value in values:
                total = total + float(value)
            return total

        with pytest.raises(RuntimeError, match="_VECTOR_PEEL_LIMIT"):
            verify_pairwise_cliff(sum_func=sequential)

    def test_early_pairwise_impostor_is_rejected(self):
        # ... and one that went pairwise below 8 breaks the endgame.
        def pairwise(values):
            values = [float(v) for v in values]
            if len(values) == 1:
                return values[0]
            mid = (len(values) + 1) // 2
            return pairwise(values[:mid]) + pairwise(values[mid:])

        with pytest.raises(RuntimeError, match="_VECTOR_PEEL_LIMIT"):
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
    """The peel kernel must reproduce the scalar oracle bit-for-bit at
    every kept size around the pairwise cliff, on every backend."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_peel_matches_oracle_across_the_cliff(self, backend):
        from repro.core.revenue import best_counted_subset

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
                    oracle = best_counted_subset(quality, members, size)
                    kernel, _ = counted_subset_select(buffers, members, size)
                    assert kernel == oracle, (backend, members_count, size)
        finally:
            if cleanup is not None:
                cleanup()

    def test_peel_boundary_shapes_are_kernel_invariant(self):
        from repro.audit.fuzzer import _kernel_boundary_instance

        for shape in ("peelcliff", "peelfit", "tiedpeel"):
            for seed in range(3):
                instance = _kernel_boundary_instance(
                    shape, np.random.default_rng(seed)
                )
                python_sig, _ = _solve(instance, "GT", "python")
                native_sig, stats = _solve(instance, "GT", "native")
                assert native_sig == python_sig, (shape, seed)

    def test_native_gt_counts_peel_dispatches_on_overflow(self):
        from repro.audit.fuzzer import _kernel_boundary_instance

        instance = _kernel_boundary_instance(
            "tiedpeel", np.random.default_rng(0)
        )
        _, python_stats = _solve(instance, "GT", "python")
        _, native_stats = _solve(instance, "GT", "native")
        assert python_stats.peel_kernel_calls == 0
        assert native_stats.peel_kernel_calls > 0


@pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
class TestCompiledKernels:
    def test_compiled_path_reports_compiled_calls(self):
        instance = make_dense_instance(20, 4, seed=6)
        _, stats = _solve(instance, "GT", "native")
        assert stats is not None and stats.kernel_compiled_calls > 0
        assert stats.kernel_fallback_calls == 0
