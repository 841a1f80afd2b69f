"""Parity suite for TPG's stage-1 group evaluation.

``tpg.seed_groups`` evaluates each task through its cached candidate
block (``tpg._CandidateBlocks``): gathered once, then re-evaluated over
the still-available workers. Every evaluation must give the groups and
the floats of the from-scratch oracle
(:func:`repro.audit.reference.reference_best_group`), which gathers the
survivors through the store's own ``quality.gather``. The solve-level
outputs of the batched path (mid-round rescans, stage 1, border seeding)
are pinned by ``tests/test_golden.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.audit.reference import reference_best_group
from repro.core.model import Instance
from repro.core.quality_store import (
    SharedDenseQualityStore,
    SparseQualityStore,
)
from repro.core.stats import SolverStats
from repro.core.tpg import EXACT_SEED_THRESHOLD, solve_tpg_with_stats
from repro.core.validity import compute_valid_pairs
from tests.conftest import make_dense_instance, one_task_blocks


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


#: (candidate_count, group_size) shapes spanning both selection regimes,
#: exact enumeration at count <= EXACT_SEED_THRESHOLD and greedy above
#: it, with 8-member groups in each (eight summed elements is where
#: ``ndarray.sum()`` would start to reorder; stage 1 adds sequentially).
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
                        instance.worker_count, size=count + 3, replace=False
                    )
                )
                blocks, available = one_task_blocks(quality, candidates)
                # The first evaluation sees count + 3 candidates, the
                # re-evaluation the count survivors of three departures.
                for live in (candidates, candidates[3:]):
                    available[:] = False
                    available[live] = True
                    store_group, store_score = reference_best_group(
                        quality, live, size
                    )
                    stats = SolverStats()
                    group, score = blocks.best_group(0, size, stats)
                    assert group == store_group, (count, size, trial)
                    assert repr(score) == repr(store_score)
                    assert len(group) == size
                    assert stats.kernel_fallback_calls == 1
        finally:
            if cleanup is not None:
                cleanup()

    def test_exact_regime_boundary_is_honoured(self):
        # C(12, 3) enumerates; 13 candidates go greedy — both matching
        # the store's gather (previous test); here we pin the threshold
        # itself so a drive-by change is visible.
        assert EXACT_SEED_THRESHOLD == 12

    def test_too_few_candidates_returns_empty(self):
        instance = make_dense_instance(10, 2, seed=1)
        blocks, _ = one_task_blocks(instance.quality, [1, 2])
        stats = SolverStats()
        assert blocks.best_group(0, 3, stats) == ([], 0.0)
        assert stats.kernel_fallback_calls == 0

    def test_tpg_native_reports_kernel_dispatches(self):
        instance = make_dense_instance(60, 12, seed=3)
        result = solve_tpg_with_stats(instance, compute_valid_pairs(instance))
        assert result.stats.kernel_fallback_calls > 0, "stage 1 never ran"
        assert result.stats.kernel_compiled_calls == 0
