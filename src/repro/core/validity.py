"""Valid worker-and-task pairs — Definition 3 and Algorithm 1 lines 4-5.

A pair ``<w_i, t_j>`` is valid when the task lies inside the worker's
working area (radius ``r_i``) and the worker can reach the task location
before its deadline at speed ``v_i``. The paper computes each worker's
valid task set ``T_i`` with a circular range query over an R-tree of
task locations, then applies the deadline filter.

This module answers every worker's range query at once, as one grid
join (:func:`_grid_join`): the tasks are bucketed by uniform grid cell
(one sort of their cell ids), each worker's reach circle expands into
the task runs of the cell columns its bounding rectangle covers, and the
resulting candidate pairs are filtered elementwise, a bounded slice of
workers at a time. On every named bench regime the grid beat an R-tree,
a k-d tree and a dense distance matrix (docs/PERFORMANCE.md,
"Substrates"), so it is the only production path, behind
:func:`compute_valid_pairs`.

:func:`compute_valid_pairs_reference` is its oracle: a brute-force
scalar scan of every ``(worker, task)`` pair through
:meth:`~repro.core.model.Instance.is_pair_valid`. It shares no cell,
rectangle or reach-limit code with the grid.

:class:`ValidPairs` holds the relation once, as the join's two CSR
sides, which every solver slices; its tuple rows are views built on
first read, for the scalar baselines, the oracles and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain, islice

import numpy as np

from repro.core.model import Instance
from repro.spatial.grid import GridIndex

__all__ = [
    "ValidPairs",
    "compute_valid_pairs",
    "compute_valid_pairs_reference",
]


@dataclass(frozen=True, eq=False)
class ValidPairs:
    """Definition 3's valid pairs of one batch, as two CSR sides.

    Worker ``i``'s valid tasks (the paper's ``T_i``) are
    ``worker_tasks[worker_ptr[i] : worker_ptr[i + 1]]``; ``task_ptr`` and
    ``task_workers`` hold the transpose. Every row is ascending, and the
    four ``int64`` arrays are read-only.
    """

    worker_ptr: np.ndarray
    worker_tasks: np.ndarray
    task_ptr: np.ndarray
    task_workers: np.ndarray

    def __post_init__(self) -> None:
        for field in fields(self):
            array = np.asarray(getattr(self, field.name), dtype=np.int64)
            array.flags.writeable = False
            object.__setattr__(self, field.name, array)

    def __reduce__(self):
        # The arrays only: the views and the key set rebuild on demand.
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ValidPairs):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)
        )

    @property
    def pair_count(self) -> int:
        """Total number of valid worker-task pairs."""
        return self.worker_tasks.size

    def workers_of(self, task: int) -> np.ndarray:
        """Task ``task``'s valid workers, ascending (a read-only slice)."""
        return self.task_workers[self.task_ptr[task] : self.task_ptr[task + 1]]

    def pair_workers(self) -> np.ndarray:
        """The worker of each entry of ``worker_tasks``."""
        return np.repeat(np.arange(self.worker_ptr.size - 1), np.diff(self.worker_ptr))

    def is_valid(self, worker: int, task: int) -> bool:
        """Membership, ``False`` outside the batch: one probe of a flat
        ``worker * n + task`` key set, as the callers check pair by pair."""
        keys, task_count = self._keys
        return 0 <= task < task_count and worker * task_count + task in keys

    @cached_property
    def _keys(self) -> tuple[frozenset, int]:
        task_count = self.task_ptr.size - 1
        keys = self.pair_workers() * task_count + self.worker_tasks
        return frozenset(keys.tolist()), task_count

    @cached_property
    def tasks_for_worker(self) -> tuple[tuple[int, ...], ...]:
        """Each worker's valid tasks as tuples, built on first read."""
        return _rows(self.worker_ptr, self.worker_tasks)

    @cached_property
    def workers_for_task(self) -> tuple[tuple[int, ...], ...]:
        """Each task's valid workers as tuples, built on first read."""
        return _rows(self.task_ptr, self.task_workers)

    def iter_pairs(self):
        """All valid ``(worker, task)`` pairs, worker-major."""
        return zip(self.pair_workers().tolist(), self.worker_tasks.tolist())

    @classmethod
    def from_worker_lists(cls, tasks_for_worker, task_count: int) -> "ValidPairs":
        """Build from per-worker task lists (any order, repeats allowed)."""
        rows = [set(tasks) for tasks in tasks_for_worker]
        tasks = np.fromiter(chain.from_iterable(rows), dtype=np.int64)
        outside = tasks[(tasks < 0) | (tasks >= task_count)]
        if outside.size:
            raise ValueError(f"task index {outside[0]} out of range")
        workers = np.repeat(np.arange(len(rows)), [len(row) for row in rows])
        return cls.from_pairs(workers, tasks, len(rows), task_count)

    @classmethod
    def from_pairs(
        cls,
        workers: np.ndarray,
        tasks: np.ndarray,
        worker_count: int,
        task_count: int,
    ) -> "ValidPairs":
        """Build from duplicate-free, in-range pair arrays in any order
        (the grid join's output).

        Each side is one sort of unique integer keys (``worker * n +
        task`` and ``task * m + worker``; numpy's unstable sort of such
        keys is several times faster than a stable argsort), whose
        remainders are the rows, and one ``bincount`` of the pointers.
        """
        sides = []
        for major, minor, majors, minors in (
            (workers, tasks, worker_count, task_count),
            (tasks, workers, task_count, worker_count),
        ):
            major = np.asarray(major, dtype=np.int64)
            ptr = np.zeros(majors + 1, dtype=np.int64)
            np.cumsum(np.bincount(major, minlength=majors), out=ptr[1:])
            sides += [ptr, np.sort(major * minors + minor) % minors]
        return cls(*sides)


def _rows(ptr: np.ndarray, items: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The CSR rows ``items[ptr[k] : ptr[k + 1]]`` as tuples."""
    values = iter(items.tolist())
    return tuple(tuple(islice(values, width)) for width in np.diff(ptr).tolist())


def compute_valid_pairs(
    instance: Instance, strategy: str = "grid", travel_model=None
) -> ValidPairs:
    """Compute Definition 3's valid pairs for a batch.

    Parameters
    ----------
    instance:
        The batch to analyse.
    strategy:
        Must be ``"grid"``, the only validity path (see the module
        docstring); any other value raises ``ValueError``.
    travel_model:
        Optional alternative travel metric (e.g.
        :class:`~repro.spatial.roadnet.RoadNetworkTravel`). The working
        area stays Euclidean (it is the worker's stated *preference*
        radius), but the can-the-worker-arrive-in-time check uses the
        model's distances. ``None`` keeps the paper's straight-line
        travel.
    """
    if strategy != "grid":
        raise ValueError(f"unknown strategy {strategy!r}; expected 'grid'")
    if instance.task_count == 0 or instance.worker_count == 0:
        return _no_pairs(instance)
    if travel_model is not None:
        return _compute_with_travel_model(instance, travel_model)
    return _grid_join(instance, _max_remaining(instance))


def compute_valid_pairs_reference(instance: Instance) -> ValidPairs:
    """Brute-force Definition 3 — the grid's oracle.

    Tests every ``(worker, task)`` pair with the scalar
    :meth:`~repro.core.model.Instance.is_pair_valid` (``math.hypot``
    distance against the radius, then the deadline test), so it shares
    no cell, rectangle or reach-limit code with the grid. O(m x n); the
    audit harness and the tests compare it against
    :func:`compute_valid_pairs`.
    """
    return ValidPairs.from_worker_lists(
        [
            [
                task
                for task in range(instance.task_count)
                if instance.is_pair_valid(worker, task)
            ]
            for worker in range(instance.worker_count)
        ],
        instance.task_count,
    )


def _no_pairs(instance: Instance) -> ValidPairs:
    empty = np.empty(0, dtype=np.int64)
    return ValidPairs.from_pairs(
        empty, empty, instance.worker_count, instance.task_count
    )


#: Relative slack on the speed x deadline reach bound. A valid pair
#: satisfies ``distance / v_i <= remaining_j`` under *rounded* float
#: division, which does not strictly imply ``distance <= v_i *
#: remaining_j`` under rounded multiplication; a few ulps of headroom
#: keep the range query a superset of the post-filtered valid set.
_REACH_SLACK = 1.0 + 1e-12


def _max_remaining(instance: Instance) -> float:
    """Longest remaining deadline over the batch's tasks, clamped >= 0."""
    if not instance.tasks:
        return 0.0
    return max(
        0.0, max(task.remaining_time(instance.now) for task in instance.tasks)
    )


def _reach_limits(
    radii: np.ndarray, speeds: np.ndarray, max_remaining: float
) -> np.ndarray:
    """Each worker's effective reach, ``min(r_i, v_i * max_remaining)``.

    Within the radius *and* within speed x longest remaining deadline is
    necessary for validity; the per-task deadline check happens after
    the range query. The slack factor keeps the bound a superset of the
    deadline test. A zero-speed worker only ever reaches distance 0, so
    its limit is 0 outright — ``0 * inf`` would be NaN when some task
    never expires.
    """
    with np.errstate(invalid="ignore"):
        reach = np.minimum(radii, speeds * max_remaining * _REACH_SLACK)
    return np.where(speeds > 0, reach, 0.0)


#: Cell side of :func:`compute_valid_pairs`' join relative to the mean
#: worker radius. Membership is invariant to the cell size (the distance
#: and deadline filters are exact); smaller cells cut the candidate
#: superset, larger ones the strips per worker, and 0.5-1x measured
#: fastest on every bench regime (docs/PERFORMANCE.md, "Substrates").
_CELL_FACTOR = 0.75

#: Candidate pairs scored per slice of workers: bounds the join's
#: working arrays (a dozen per candidate) to a few MB whatever the
#: batch size.
_CANDIDATE_BUDGET = 1 << 15

#: Cap on the join's grid resolution, in cells across the tasks' extent.
_MAX_CELLS_PER_SIDE = 4096

#: Relative distance band around the radius and the deadline reach
#: inside which the grid re-measures a pair with ``math.hypot`` (the
#: oracle's distance; ``np.hypot`` can differ from it by one ulp, and the
#: reach ``speed * remaining`` adds a rounding of its own).
_HYPOT_BAND = 8 * np.finfo(np.float64).eps


def _coordinates(points, count: int) -> tuple[np.ndarray, np.ndarray]:
    xs = np.fromiter((p.location.x for p in points), dtype=np.float64, count=count)
    ys = np.fromiter((p.location.y for p in points), dtype=np.float64, count=count)
    return xs, ys


def _grid_join(
    instance: Instance, max_remaining: float, cell_size: float | None = None
) -> ValidPairs:
    """Definition 3's pairs of a non-empty batch, as one grid join.

    The tasks are sorted by cell id (``x`` column major, ``y`` within a
    column), so the tasks of one column's cell range are one run of the
    sorted order, found by two ``searchsorted``. Each worker's query
    circle has its reach limit (:func:`_reach_limits`) as radius; its
    inclusive cell rectangle (the floor of ``(centre -+ limit) /
    cell``), clipped to the tasks' cells, is one strip per column.
    Workers are scored in slices of at most :data:`_CANDIDATE_BUDGET`
    candidates (one worker's alone may exceed it): the strips expand
    into candidate pairs with ``np.repeat``, distances come from
    ``np.hypot``, re-measured with the oracle's ``math.hypot`` within a
    few ulps of the reach limit or the deadline reach
    (:data:`_HYPOT_BAND`), then two masks: within the reach limit, and
    deadline-feasible (``remaining < 0`` rejects; zero-speed workers
    only reach distance 0; otherwise ``distance / speed <= remaining``).
    Membership is Definition 3's, which
    :func:`compute_valid_pairs_reference` checks by brute force; a task
    lies in one cell and a worker's strips are disjoint, so no pair
    repeats, and :meth:`ValidPairs.from_pairs` sorts the kept pairs
    both ways.

    ``cell_size`` defaults to :data:`_CELL_FACTOR` times the mean worker
    radius.
    """
    workers, tasks = instance.workers, instance.tasks
    worker_count, task_count = len(workers), len(tasks)
    wx, wy = _coordinates(workers, worker_count)
    radii = np.fromiter(
        (w.radius for w in workers), dtype=np.float64, count=worker_count
    )
    speeds = np.fromiter(
        (w.speed for w in workers), dtype=np.float64, count=worker_count
    )
    limits = _reach_limits(radii, speeds, max_remaining)
    tx, ty = _coordinates(tasks, task_count)
    remaining = np.fromiter(
        (task.remaining_time(instance.now) for task in tasks),
        dtype=np.float64,
        count=task_count,
    )
    if cell_size is None:
        cell_size = float(np.mean(radii)) * _CELL_FACTOR
    # At most _MAX_CELLS_PER_SIDE cells across the tasks' extent: keeps
    # the cell ids well inside int64 and a worker's strips bounded
    # whatever the radii.
    extent = max(np.ptp(tx), np.ptp(ty))
    cell_size = max(cell_size, extent / _MAX_CELLS_PER_SIDE, 1e-6)

    def cell_of(values: np.ndarray) -> np.ndarray:
        return np.floor(values / cell_size).astype(np.int64)

    column, row = cell_of(tx), cell_of(ty)
    x0, y0 = column.min(), row.min()
    columns, rows = column.max() - x0 + 1, row.max() - y0 + 1
    cell_ids = (column - x0) * rows + (row - y0)
    by_cell = np.argsort(cell_ids, kind="stable")
    cell_ids = cell_ids[by_cell]

    # Each worker's cell rectangle, clipped to the tasks' cells, as one
    # strip per column: strip ``k`` of worker ``i`` is column
    # ``lo_x[i] + k`` and covers sorted tasks ``first : first + length``.
    lo_x = np.maximum(cell_of(wx - limits) - x0, 0)
    hi_x = np.minimum(cell_of(wx + limits) - x0, columns - 1)
    lo_y = np.maximum(cell_of(wy - limits) - y0, 0)
    hi_y = np.minimum(cell_of(wy + limits) - y0, rows - 1)
    widths = np.where(lo_y <= hi_y, np.maximum(hi_x - lo_x + 1, 0), 0)
    strip_ptr = np.zeros(worker_count + 1, dtype=np.int64)
    np.cumsum(widths, out=strip_ptr[1:])
    owner = np.repeat(np.arange(worker_count), widths)
    strip_x = np.arange(strip_ptr[-1]) - np.repeat(strip_ptr[:-1] - lo_x, widths)
    first = cell_ids.searchsorted(strip_x * rows + lo_y[owner], "left")
    lengths = cell_ids.searchsorted(strip_x * rows + hi_y[owner], "right") - first
    candidate_ptr = np.zeros(worker_count + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(owner, lengths, worker_count).astype(np.int64),
        out=candidate_ptr[1:],
    )

    kept = []
    stop = 0
    while stop < worker_count:
        start = stop
        budget = candidate_ptr[start] + _CANDIDATE_BUDGET
        stop = max(int(candidate_ptr.searchsorted(budget, "right")) - 1, start + 1)
        strips = slice(strip_ptr[start], strip_ptr[stop])
        runs = lengths[strips]
        total = int(candidate_ptr[stop] - candidate_ptr[start])
        if not total:
            continue
        pair_worker = np.repeat(owner[strips], runs)
        run_offsets = first[strips] - (np.cumsum(runs) - runs)
        pair_task = by_cell[np.arange(total) + np.repeat(run_offsets, runs)]
        dx = tx[pair_task] - wx[pair_worker]
        dy = ty[pair_task] - wy[pair_worker]
        dist = np.hypot(dx, dy)
        speed = speeds[pair_worker]
        rem = remaining[pair_task]
        limit = limits[pair_worker]
        # Definition 3's oracle measures with math.hypot, which can
        # differ from np.hypot by an ulp: re-measure the pairs that lie
        # within a few ulps of the reach limit (the radius when it
        # binds) or of the deadline reach.
        with np.errstate(invalid="ignore", over="ignore"):
            gap = np.abs(dist - limit)
            np.minimum(gap, np.abs(dist - speed * rem), out=gap)
        for hit in np.flatnonzero(gap <= _HYPOT_BAND * dist).tolist():
            dist[hit] = math.hypot(dx[hit], dy[hit])
        with np.errstate(divide="ignore", invalid="ignore"):
            travel = np.where(speed > 0, dist / np.maximum(speed, 1e-300), np.inf)
        keep = (
            (dist <= limit)
            & (rem >= 0)
            & np.where(speed > 0, travel <= rem, dist == 0.0)
        )
        kept.append((pair_worker[keep], pair_task[keep]))

    empty = np.empty(0, dtype=np.int64)
    return ValidPairs.from_pairs(
        np.concatenate([pair[0] for pair in kept] or [empty]),
        np.concatenate([pair[1] for pair in kept] or [empty]),
        worker_count,
        task_count,
    )


def _compute_with_travel_model(instance: Instance, travel_model) -> ValidPairs:
    """Validity with a pluggable travel metric (one batched distance
    query per worker over the worker's Euclidean range candidates)."""
    task_items = [(index, task.location) for index, task in enumerate(instance.tasks)]
    mean_radius = float(np.mean([worker.radius for worker in instance.workers]))
    index = GridIndex.build(task_items, cell_size=max(mean_radius, 1e-6))

    tasks_for_worker: list[list[int]] = []
    for worker in instance.workers:
        candidates = index.query_circle(worker.location, worker.radius)
        if not candidates:
            tasks_for_worker.append([])
            continue
        travel = travel_model.distances_from(
            worker.location,
            [instance.tasks[task].location for task in candidates],
        )
        valid: list[int] = []
        for position, task_index in enumerate(candidates):
            remaining = instance.tasks[task_index].remaining_time(instance.now)
            if remaining < 0:
                continue
            distance = float(travel[position])
            if worker.speed <= 0:
                if distance == 0.0:
                    valid.append(task_index)
            elif distance / worker.speed <= remaining:
                valid.append(task_index)
        tasks_for_worker.append(valid)
    return ValidPairs.from_worker_lists(tasks_for_worker, instance.task_count)
