"""Carving shard-local sub-instances with stable global<->local remaps.

A :class:`ShardInstance` is one shard's self-contained slice of the
batch: a fresh :class:`~repro.core.model.Instance` (records copied, the
quality store restricted in O(nnz) via ``QualityStore.restricted_to``)
plus the shard-local :class:`~repro.core.validity.ValidPairs` obtained
by *restricting* the global structure to in-shard pairs — never by
recomputing validity on the carved geometry, so the restriction is an
exact subset of the global relation by construction.

Both id maps are ascending, hence order-preserving: local index order
equals global index order, which keeps every argmax/heap tie-break in
the shard-local solve identical to the decision the monolithic solve
would have made among the same candidates. That property is what makes
the zero-border case bit-identical (asserted by the audit harness).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.model import Instance
from repro.core.sharding.partition import ShardPlan
from repro.core.validity import ValidPairs

__all__ = ["ShardInstance", "carve_shard"]


@dataclass(frozen=True)
class ShardInstance:
    """One shard's carved sub-problem.

    ``worker_ids[local] -> global`` and ``task_ids[local] -> global``
    are ascending; ``valid_pairs`` is expressed in local indices.
    """

    shard: int
    instance: Instance
    worker_ids: np.ndarray
    task_ids: np.ndarray
    valid_pairs: ValidPairs

    @property
    def worker_count(self) -> int:
        return int(self.worker_ids.size)

    @property
    def task_count(self) -> int:
        return int(self.task_ids.size)

    def to_global_pairs(self, local_pairs) -> list[tuple[int, int]]:
        """Map shard-local ``(worker, task)`` pairs back to global ids."""
        return [
            (int(self.worker_ids[worker]), int(self.task_ids[task]))
            for worker, task in local_pairs
        ]


def carve_shard(
    instance: Instance,
    valid_pairs: ValidPairs,
    plan: ShardPlan,
    shard: int,
) -> ShardInstance:
    """Carve ``shard``'s sub-instance out of the batch.

    The local validity structure keeps exactly the global valid pairs
    whose worker *and* task live in the shard. Border workers may lose
    cross-shard candidates here — deliberately: those deviations are
    re-examined by the halo-reconcile passes on the merged global
    assignment. Interior workers lose nothing (their whole valid set is
    in-shard, by the partition's reach bound).
    """
    worker_ids = plan.workers_of(shard)
    task_ids = plan.tasks_of(shard)
    sub = instance.carve(worker_ids, task_ids)
    worker_local = np.full(instance.worker_count, -1, dtype=np.int64)
    worker_local[worker_ids] = np.arange(worker_ids.size)
    task_local = np.full(instance.task_count, -1, dtype=np.int64)
    task_local[task_ids] = np.arange(task_ids.size)
    workers, tasks = valid_pairs.pair_workers(), valid_pairs.worker_tasks
    keep = (plan.worker_shard[workers] == shard) & (plan.task_shard[tasks] == shard)
    local_pairs = ValidPairs.from_pairs(
        worker_local[workers[keep]],
        task_local[tasks[keep]],
        worker_ids.size,
        task_ids.size,
    )
    return ShardInstance(
        shard=int(shard),
        instance=sub,
        worker_ids=worker_ids,
        task_ids=task_ids,
        valid_pairs=local_pairs,
    )
