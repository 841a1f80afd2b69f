"""Spatial shard partitioning — the first leg of geo-sharded solving.

The plane is tiled into square cells whose side is at least the *maximum
effective reach* of any worker in the batch (``min(r_i, v_i *
max_remaining)``, the same bound :mod:`repro.core.validity` uses for its
range queries, inflated by a relative margin so float rounding in the
``floor(x / cell)`` keys can never push a reachable task more than one
cell away). Every valid pair ``<w_i, t_j>`` therefore connects a worker
to a task in the worker's home cell or its 3x3 neighbour ring.

Occupied cells (cells holding at least one worker or task) are sorted
lexicographically and split into contiguous blocks weighted by worker
count — one block per shard. A worker or task is *border* when any cell
of its 3x3 ring is occupied and belongs to a different shard. Because
reach <= cell size, border workers are a strict superset of the workers
with cross-shard valid pairs: interior workers lose nothing when their
shard is solved in isolation, and only border workers need the
halo-reconcile passes of :mod:`repro.core.sharding.reconcile`.

Everything here is deterministic — sorted cells, stable weights, fixed
neighbour order — so a seeded sharded solve is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.model import Instance
from repro.core.validity import _max_remaining, _reach_limits

__all__ = ["ShardPlan", "partition_instance", "resolve_shard_request"]

#: Workers per shard that ``shards="auto"`` aims for.
TARGET_WORKERS_PER_SHARD = 2500

#: Floor on the cell side, mirroring the grid index's guard against
#: zero-radius/zero-speed batches collapsing the tiling.
_MIN_CELL = 1e-6

#: Relative inflation of the cell side over the maximum reach. The reach
#: limit itself is slack-adjusted by a few ulps; this much larger margin
#: guarantees ``floor(x_t / cell) - floor(x_w / cell)`` stays in
#: ``{-1, 0, 1}`` per axis for every valid pair even when the division
#: rounds adversarially at a cell boundary.
_CELL_MARGIN = 1.0 + 1e-9

_NEIGHBOR_OFFSETS = tuple(
    (dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if (dx, dy) != (0, 0)
)


def resolve_shard_request(value) -> "int | str":
    """Normalize a ``--shards`` value to ``"auto"`` or a positive int."""
    if isinstance(value, str):
        text = value.strip().lower()
        if text == "auto":
            return "auto"
        try:
            value = int(text)
        except ValueError:
            raise ValueError(
                f"shards must be 'auto' or a positive integer, got {text!r}"
            ) from None
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(
            f"shards must be 'auto' or a positive integer, got {value!r}"
        )
    if value < 1:
        raise ValueError(f"shards must be >= 1, got {value}")
    return int(value)


@dataclass(frozen=True)
class ShardPlan:
    """The partition of one batch into spatial shards.

    ``worker_shard[i]`` / ``task_shard[j]`` give each entity's single
    home shard (every worker and task belongs to exactly one);
    ``worker_border`` / ``task_border`` mark the entities whose 3x3 cell
    ring touches another shard. ``cell_size`` is the tiling side used,
    ``occupied_cells`` the number of non-empty cells it produced.
    """

    shard_count: int
    cell_size: float
    worker_shard: np.ndarray
    task_shard: np.ndarray
    worker_border: np.ndarray
    task_border: np.ndarray
    occupied_cells: int

    def workers_of(self, shard: int) -> np.ndarray:
        """Global worker indices of ``shard``, ascending."""
        return np.flatnonzero(self.worker_shard == shard)

    def tasks_of(self, shard: int) -> np.ndarray:
        """Global task indices of ``shard``, ascending."""
        return np.flatnonzero(self.task_shard == shard)

    def border_worker_indices(self) -> np.ndarray:
        """All border workers, ascending (the halo-reconcile players)."""
        return np.flatnonzero(self.worker_border)

    @property
    def border_worker_count(self) -> int:
        return int(self.worker_border.sum())


def _trivial_plan(instance: Instance, occupied: int) -> ShardPlan:
    return ShardPlan(
        shard_count=1,
        cell_size=_MIN_CELL,
        worker_shard=np.zeros(instance.worker_count, dtype=np.int64),
        task_shard=np.zeros(instance.task_count, dtype=np.int64),
        worker_border=np.zeros(instance.worker_count, dtype=bool),
        task_border=np.zeros(instance.task_count, dtype=bool),
        occupied_cells=occupied,
    )


def partition_instance(
    instance: Instance, shards: "int | str" = "auto"
) -> ShardPlan:
    """Tile the batch into shards of spatially contiguous cells.

    ``shards`` is ``"auto"`` (aim for :data:`TARGET_WORKERS_PER_SHARD`
    workers per shard) or an explicit count; either way the result is
    capped by the number of occupied cells — a batch that fits one cell
    yields a single-shard plan, which the solver treats as monolithic
    passthrough.
    """
    request = resolve_shard_request(shards)
    worker_count = instance.worker_count
    task_count = instance.task_count
    if worker_count == 0 or task_count == 0:
        return _trivial_plan(instance, occupied=0)

    max_reach = float(
        _reach_limits(
            np.array([worker.radius for worker in instance.workers]),
            np.array([worker.speed for worker in instance.workers]),
            _max_remaining(instance),
        ).max()
    )
    cell_size = max(_MIN_CELL, max_reach * _CELL_MARGIN)

    worker_cells = np.floor(instance.worker_locations() / cell_size).astype(
        np.int64
    )
    task_cells = np.floor(instance.task_locations() / cell_size).astype(np.int64)

    worker_weight: dict[tuple[int, int], int] = {}
    for cx, cy in worker_cells:
        key = (int(cx), int(cy))
        worker_weight[key] = worker_weight.get(key, 0) + 1
    occupied = set(worker_weight)
    occupied.update((int(cx), int(cy)) for cx, cy in task_cells)
    ordered = sorted(occupied)
    occupied_count = len(ordered)

    if request == "auto":
        count = max(1, round(worker_count / TARGET_WORKERS_PER_SHARD))
    else:
        count = request
    count = max(1, min(count, occupied_count))
    if count == 1:
        return _trivial_plan(instance, occupied=occupied_count)

    # Contiguous blocks over the sorted cells, weighted by worker count
    # (+1 per cell so task-only cells still get a home and contribute to
    # balance). Weights are integers and the prefix scan is sequential,
    # so the cell -> shard map is deterministic.
    weights = [worker_weight.get(key, 0) + 1 for key in ordered]
    total = sum(weights)
    shard_of_cell: dict[tuple[int, int], int] = {}
    prefix = 0
    for key, weight in zip(ordered, weights):
        shard_of_cell[key] = min(count - 1, prefix * count // total)
        prefix += weight

    border_cell = {
        key: any(
            shard_of_cell.get((key[0] + dx, key[1] + dy), home) != home
            for dx, dy in _NEIGHBOR_OFFSETS
        )
        for key, home in shard_of_cell.items()
    }

    worker_shard = np.empty(worker_count, dtype=np.int64)
    worker_border = np.zeros(worker_count, dtype=bool)
    for index, (cx, cy) in enumerate(worker_cells):
        key = (int(cx), int(cy))
        worker_shard[index] = shard_of_cell[key]
        worker_border[index] = border_cell[key]
    task_shard = np.empty(task_count, dtype=np.int64)
    task_border = np.zeros(task_count, dtype=bool)
    for index, (cx, cy) in enumerate(task_cells):
        key = (int(cx), int(cy))
        task_shard[index] = shard_of_cell[key]
        task_border[index] = border_cell[key]

    return ShardPlan(
        shard_count=count,
        cell_size=float(cell_size),
        worker_shard=worker_shard,
        task_shard=task_shard,
        worker_border=worker_border,
        task_border=task_border,
        occupied_cells=occupied_count,
    )
