"""Parity suite for TPG's stage-1 group kernel.

``tpg.greedy_best_group`` / ``tpg.exact_best_group`` evaluate through
:func:`repro.core.kernels.best_group` over the store's flat kernel
buffers; the selection primitives run on the store's own
``quality.gather`` must give the same groups and the same floats. The
solve-level outputs of the batched path (mid-round rescans, stage 1,
border seeding) are pinned by ``tests/test_golden.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kernels import best_group, exact_group_select, greedy_group_select
from repro.core.model import Instance
from repro.core.quality_store import (
    SharedDenseQualityStore,
    SparseQualityStore,
)
from repro.core.stats import SolverStats
from repro.core.tpg import (
    EXACT_SEED_THRESHOLD,
    _combo_table,
    greedy_best_group,
    solve_tpg_with_stats,
)
from repro.core.validity import compute_valid_pairs
from tests.conftest import make_dense_instance


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


def _store_group(quality, candidates: list[int], size: int):
    """The stage-1 selection run on the store's own ``gather``."""
    if len(candidates) <= EXACT_SEED_THRESHOLD:
        ordered = sorted(candidates)
        index = np.asarray(ordered, dtype=np.intp)
        sub = quality.gather(index)
        combos, pair_columns = _combo_table(len(ordered), size)
        best, pair_sum = exact_group_select(sub + sub.T, pair_columns)
        return [ordered[i] for i in combos[best]], pair_sum / (size - 1)
    index = np.asarray(candidates, dtype=np.intp)
    sub = quality.gather(index)
    selection = greedy_group_select(sub + sub.T, size)
    if selection is None:
        return [], 0.0
    chosen, pair_sum = selection
    return [int(index[local]) for local in chosen], pair_sum / (size - 1)


#: (candidate_count, group_size) shapes spanning both selection regimes
#: and the exactly-8-member boundary (= game._VECTOR_GROUP_LIMIT, the
#: scalar/vector watershed elsewhere in the engine): exact enumeration
#: at count <= EXACT_SEED_THRESHOLD, greedy above it.
GROUP_SHAPES = (
    (8, 8),  # exact, single combination, 8-member group
    (9, 8),  # exact, 8-member group with a real choice
    (12, 3),  # exact, at the threshold
    (13, 3),  # greedy, just past the threshold
    (20, 8),  # greedy, 8-member group
    (24, 2),  # greedy, pair groups
)


class TestStageOneGroupKernel:
    @pytest.mark.parametrize("backend", ("dense", "sparse", "shared"))
    @pytest.mark.parametrize("count, size", GROUP_SHAPES)
    def test_best_group_matches_store_path(self, count, size, backend):
        base = make_dense_instance(40, 6, seed=9)
        instance, cleanup = _with_backend(base, backend)
        try:
            quality = instance.quality
            rng = np.random.default_rng(count * 31 + size)
            for trial in range(3):
                candidates = sorted(
                    int(x)
                    for x in rng.choice(
                        instance.worker_count, size=count, replace=False
                    )
                )
                store_group, store_score = _store_group(
                    quality, candidates, size
                )
                stats = SolverStats()
                kernel_group, kernel_score = greedy_best_group(
                    quality, candidates, size, stats=stats
                )
                assert kernel_group == store_group, (count, size, trial)
                assert repr(kernel_score) == repr(store_score)
                assert len(kernel_group) == size
                assert stats.kernel_fallback_calls == 1
        finally:
            if cleanup is not None:
                cleanup()

    def test_exact_regime_boundary_is_honoured(self):
        # C(12, 3) enumerates; 13 candidates go greedy — both through
        # the kernel, both matching the store's gather (previous test); here
        # we pin the threshold itself so a drive-by change is visible.
        assert EXACT_SEED_THRESHOLD == 12

    def test_too_few_candidates_returns_empty(self):
        instance = make_dense_instance(10, 2, seed=1)
        group, score = greedy_best_group(instance.quality, [1, 2], 3)
        assert group == [] and score == 0.0

    def test_tpg_native_reports_kernel_dispatches(self):
        instance = make_dense_instance(60, 12, seed=3)
        result = solve_tpg_with_stats(instance, compute_valid_pairs(instance))
        assert result.stats.kernel_fallback_calls > 0, "stage 1 never ran"
        assert result.stats.kernel_compiled_calls == 0

    def test_best_group_rejects_short_candidate_lists(self):
        # best_group's contract: the caller (greedy/exact_best_group)
        # guarantees len(candidates) >= size >= 2 — the guard lives
        # there, so tpg.greedy_best_group stays total.
        instance = make_dense_instance(12, 2, seed=2)
        buffers = instance.quality.as_kernel_buffers()
        group, score = best_group(buffers, list(range(4)), 3)
        assert len(group) == 3
        assert isinstance(score, float)
