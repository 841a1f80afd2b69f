"""Valid worker-and-task pairs — Definition 3 and Algorithm 1 lines 4-5.

A pair ``<w_i, t_j>`` is valid when the task lies inside the worker's
working area (radius ``r_i``) and the worker can reach the task location
before its deadline at speed ``v_i``. The paper computes each worker's
valid task set ``T_i`` with a circular range query over an R-tree of
task locations, then applies the deadline filter.

This module answers the same range query with a uniform grid
(:class:`~repro.spatial.grid.GridIndex`) instead of an R-tree: workers
whose query circles cover the same cell rectangle are scored as one
numpy block. On every named bench regime the grid beat an R-tree, a
k-d tree and a dense distance matrix (docs/PERFORMANCE.md,
"Substrates"), so it is the only production path — shared by
:func:`compute_valid_pairs` and :class:`IncrementalValidityIndex`.

:func:`compute_valid_pairs_reference` is its oracle: a brute-force
scalar scan of every ``(worker, task)`` pair through
:meth:`~repro.core.model.Instance.is_pair_valid`. It shares no cell,
rectangle or reach-limit code with the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from repro.core.model import Instance, Task
from repro.spatial.grid import GridIndex

__all__ = [
    "ValidPairs",
    "compute_valid_pairs",
    "compute_valid_pairs_reference",
    "IncrementalValidityIndex",
]


@dataclass(frozen=True)
class ValidPairs:
    """The bipartite validity structure of one batch.

    ``tasks_for_worker[i]`` lists task indices worker ``i`` may serve
    (the paper's ``T_i``); ``workers_for_task[j]`` is the transpose view.
    Both sides are sorted ascending for determinism.
    """

    tasks_for_worker: tuple[tuple[int, ...], ...]
    workers_for_task: tuple[tuple[int, ...], ...]

    @property
    def pair_count(self) -> int:
        """Total number of valid worker-task pairs (cached).

        Read every simulation round by the batch reporter and inside
        stats loops; the tuple-of-tuples re-sum is O(m) per call, so the
        first computation is memoized on the frozen instance the same
        way as the ``is_valid`` side-index.
        """
        cached = self.__dict__.get("_pair_count_cache")
        if cached is None:
            cached = sum(len(tasks) for tasks in self.tasks_for_worker)
            object.__setattr__(self, "_pair_count_cache", cached)
        return cached

    def is_valid(self, worker: int, task: int) -> bool:
        """O(1) membership via a lazily-built frozenset side-index.

        Called inside ``Assignment.assign`` and the local-search inner
        loops, where the previous O(k) tuple scan was a measurable cost
        for high-degree workers.
        """
        return task in self._task_sets[worker]

    @property
    def _task_sets(self) -> tuple[frozenset, ...]:
        cached = self.__dict__.get("_task_sets_cache")
        if cached is None:
            cached = tuple(frozenset(tasks) for tasks in self.tasks_for_worker)
            object.__setattr__(self, "_task_sets_cache", cached)
        return cached

    def iter_pairs(self):
        """Yield all valid ``(worker, task)`` pairs."""
        for worker, tasks in enumerate(self.tasks_for_worker):
            for task in tasks:
                yield worker, task

    @classmethod
    def from_worker_lists(
        cls, tasks_for_worker, task_count: int
    ) -> "ValidPairs":
        """Build (and transpose) from per-worker task lists."""
        per_worker = tuple(tuple(sorted(set(tasks))) for tasks in tasks_for_worker)
        per_task: list[list[int]] = [[] for _ in range(task_count)]
        for worker, tasks in enumerate(per_worker):
            for task in tasks:
                if not 0 <= task < task_count:
                    raise ValueError(f"task index {task} out of range")
                per_task[task].append(worker)
        return cls(
            tasks_for_worker=per_worker,
            workers_for_task=tuple(tuple(workers) for workers in per_task),
        )

    @classmethod
    def from_sorted_rows(cls, rows, task_count: int) -> "ValidPairs":
        """Build from per-worker arrays already sorted and duplicate-free.

        The vectorized grid path emits rows with both properties by
        construction (each task lives in exactly one grid cell, and
        candidates are pre-sorted per rectangle group), so the
        per-element set/sort of :meth:`from_worker_lists` is skipped and
        the transpose comes from one stable argsort over the flattened
        pairs instead of per-pair list appends. Output is structurally
        identical to ``from_worker_lists`` on the same membership.
        """
        worker_count = len(rows)
        counts = np.fromiter(
            (len(row) for row in rows), dtype=np.int64, count=worker_count
        )
        total = int(counts.sum())
        if total == 0:
            return cls(
                tuple(() for _ in range(worker_count)),
                tuple(() for _ in range(task_count)),
            )
        tasks_flat = np.concatenate(
            [np.asarray(row, dtype=np.int64) for row in rows if len(row)]
        )
        if int(tasks_flat.min()) < 0 or int(tasks_flat.max()) >= task_count:
            raise ValueError("task index out of range")
        # One bulk tolist per side, then islice consumption — far
        # cheaper than a small ndarray.tolist per worker/task at scale.
        worker_iter = iter(tasks_flat.tolist())
        per_worker = tuple(
            tuple(islice(worker_iter, width)) for width in counts.tolist()
        )
        workers_flat = np.repeat(
            np.arange(worker_count, dtype=np.int32), counts
        )
        # int32 keys roughly halve the stable (radix) argsort cost and
        # are always wide enough: indices were range-checked above.
        order = np.argsort(tasks_flat.astype(np.int32), kind="stable")
        task_widths = np.bincount(
            tasks_flat, minlength=task_count
        ).tolist()
        task_iter = iter(workers_flat[order].tolist())
        per_task = tuple(
            tuple(islice(task_iter, width)) for width in task_widths
        )
        return cls(per_worker, per_task)


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
    mean_radius = float(np.mean([worker.radius for worker in instance.workers]))
    index = GridIndex.build(
        ((position, task.location) for position, task in enumerate(instance.tasks)),
        cell_size=max(mean_radius * _GRID_CELL_MULTIPLIER, 1e-6),
    )
    return ValidPairs.from_sorted_rows(
        _grid_valid_lists(instance, index, _max_remaining(instance)),
        instance.task_count,
    )


def compute_valid_pairs_reference(instance: Instance) -> ValidPairs:
    """Brute-force Definition 3 — the grid's oracle.

    Tests every ``(worker, task)`` pair with the scalar
    :meth:`~repro.core.model.Instance.is_pair_valid` (``math.hypot``
    distance against the radius, then the deadline test), so it shares
    no cell, rectangle or reach-limit code with the grid. O(m x n); the
    audit harness and the tests compare it against
    :func:`compute_valid_pairs` and :class:`IncrementalValidityIndex`.
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
    return ValidPairs.from_worker_lists(
        [[] for _ in range(instance.worker_count)], instance.task_count
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


#: Cell-size factor of the grid build relative to the mean worker
#: radius. Membership is invariant to the cell size (the distance and
#: deadline filters are exact); coarser cells trade a wider candidate
#: superset (cheap float32 prefilter cells) for far fewer worker
#: rectangle groups, and ~3x is the sweet spot at n = 20k.
_GRID_CELL_MULTIPLIER = 3.0

#: Row-chunk budget for the batched distance matrices: a worker-group's
#: (rows x candidates) block is processed in slices of at most this many
#: float64 cells, bounding peak memory regardless of how many workers
#: share one cell rectangle.
_GRID_BLOCK_CELLS = 2_000_000

#: Reach-margin factor of the squared-distance prefilter. The prefilter
#: runs in float32 (it only has to be a *superset* of the exact test,
#: and halving the bandwidth of the big block matrices is the point);
#: the comparison radius is inflated additively by ``scale * 1e-5``,
#: where ``scale`` bounds the coordinate magnitudes, which dwarfs the
#: worst-case float32 cast/subtract/square error (~4 ulps, i.e. ~2.4e-7
#: relative to ``scale``) while still rejecting essentially everything
#: outside the circle. Exact float64 hypot decides membership for the
#: survivors.
_PREFILTER_MARGIN = 1e-5


#: Relative distance band around the radius and the deadline reach
#: inside which the grid re-measures a pair with ``math.hypot`` (the
#: oracle's distance; ``np.hypot`` can differ from it by one ulp, and the
#: reach ``speed * remaining`` adds a rounding of its own).
_HYPOT_BAND = 8 * np.finfo(np.float64).eps


def _cell_table(index: GridIndex, position_of=None):
    """Per-cell candidate arrays: ``(cx, cy) -> (positions, xs, ys)``.

    ``position_of`` maps bucket items (stable task ids in the
    incremental index) to task positions; ``None`` means items already
    *are* positions (the fresh-build path).
    """
    table: dict = {}
    for key, bucket in index.cells():
        count = len(bucket)
        if position_of is None:
            positions = np.fromiter(
                (item for item, _ in bucket), dtype=np.int64, count=count
            )
        else:
            positions = np.fromiter(
                (position_of[item] for item, _ in bucket),
                dtype=np.int64,
                count=count,
            )
        xs = np.fromiter(
            (point.x for _, point in bucket), dtype=np.float64, count=count
        )
        ys = np.fromiter(
            (point.y for _, point in bucket), dtype=np.float64, count=count
        )
        table[key] = (positions, xs, ys)
    return table


def _grid_valid_lists(
    instance: Instance,
    index: GridIndex,
    max_remaining: float,
    position_of=None,
) -> "list[np.ndarray]":
    """Batched grid validity: per-worker valid task lists.

    Each worker's query circle has its reach limit (:func:`_reach_limits`)
    as radius, and workers whose circles cover the same cell rectangle
    are scored as one broadcast block — distances via :func:`np.hypot`,
    re-measured with the oracle's ``math.hypot`` within a few ulps of the
    radius or the deadline reach (:data:`_HYPOT_BAND`), then two masks: within the reach limit, and deadline-feasible
    (``remaining < 0`` rejects; zero-speed workers only reach distance
    0; otherwise ``distance / speed <= remaining``). Membership is
    Definition 3's, which :func:`compute_valid_pairs_reference` checks
    by brute force. Each emitted row is sorted ascending and
    duplicate-free (candidates are argsorted once per rectangle group; a
    task lives in exactly one cell), satisfying
    :meth:`ValidPairs.from_sorted_rows`'s contract.
    """
    workers = instance.workers
    cell_size = index.cell_size
    table = _cell_table(index, position_of)
    remaining = np.fromiter(
        (task.remaining_time(instance.now) for task in instance.tasks),
        dtype=np.float64,
        count=instance.task_count,
    )
    count = len(workers)
    wx = np.fromiter(
        (w.location.x for w in workers), dtype=np.float64, count=count
    )
    wy = np.fromiter(
        (w.location.y for w in workers), dtype=np.float64, count=count
    )
    radii = np.fromiter(
        (w.radius for w in workers), dtype=np.float64, count=count
    )
    speeds = np.fromiter(
        (w.speed for w in workers), dtype=np.float64, count=count
    )
    limits = _reach_limits(radii, speeds, max_remaining)
    # Coordinate/limit magnitude bound for the prefilter's additive
    # reach margin.
    scale = 1.0
    if count:
        scale = max(
            scale,
            float(np.abs(wx).max()),
            float(np.abs(wy).max()),
            float(limits.max()),
        )
    for _, xs, ys in table.values():
        scale = max(
            scale, float(np.abs(xs).max()), float(np.abs(ys).max())
        )
    margin = scale * _PREFILTER_MARGIN

    # The inclusive cell rectangle each reach circle covers, with the
    # same subtract/divide/floor as GridIndex.query_circle.
    min_cx = np.floor((wx - limits) / cell_size).astype(np.int64)
    max_cx = np.floor((wx + limits) / cell_size).astype(np.int64)
    min_cy = np.floor((wy - limits) / cell_size).astype(np.int64)
    max_cy = np.floor((wy + limits) / cell_size).astype(np.int64)

    groups: dict[tuple[int, int, int, int], list[int]] = {}
    for row in range(count):
        key = (
            int(min_cx[row]),
            int(max_cx[row]),
            int(min_cy[row]),
            int(max_cy[row]),
        )
        groups.setdefault(key, []).append(row)

    empty_row = np.empty(0, dtype=np.int64)
    result: list[np.ndarray] = [empty_row] * count
    # Distinct rectangles frequently clip to the same subset of present
    # cells (coarse cells, map edges), so the sorted candidate bundles
    # are memoized by that subset.
    bundles: dict = {}
    for (cx_lo, cx_hi, cy_lo, cy_hi), rows in groups.items():
        keys = tuple(
            (cx, cy)
            for cx in range(cx_lo, cx_hi + 1)
            for cy in range(cy_lo, cy_hi + 1)
            if (cx, cy) in table
        )
        if not keys:
            continue
        bundle = bundles.get(keys)
        if bundle is None:
            parts = [table[key] for key in keys]
            if len(parts) == 1:
                cand_pos, cand_x, cand_y = parts[0]
            else:
                cand_pos = np.concatenate([p[0] for p in parts])
                cand_x = np.concatenate([p[1] for p in parts])
                cand_y = np.concatenate([p[2] for p in parts])
            order = np.argsort(cand_pos)
            cand_pos = cand_pos[order]
            cand_x = cand_x[order]
            cand_y = cand_y[order]
            bundle = (
                cand_pos,
                cand_x,
                cand_y,
                cand_x.astype(np.float32),
                cand_y.astype(np.float32),
                remaining[cand_pos],
            )
            bundles[keys] = bundle
        cand_pos, cand_x, cand_y, cand_x32, cand_y32, cand_remaining = bundle
        rows_array = np.asarray(rows, dtype=np.int64)
        chunk = max(1, _GRID_BLOCK_CELLS // max(1, cand_pos.size))
        for start in range(0, rows_array.size, chunk):
            block = rows_array[start : start + chunk]
            block_wx = wx[block]
            block_wy = wy[block]
            block_limits = limits[block]
            dx32 = cand_x32[None, :] - block_wx.astype(np.float32)[:, None]
            dy32 = cand_y32[None, :] - block_wy.astype(np.float32)[:, None]
            # float32 squared-distance prefilter — a strict superset of
            # hypot(dx, dy) <= limit thanks to the additive margin (see
            # _PREFILTER_MARGIN); exact float64 hypot then decides
            # membership on the surviving cells only.
            threshold = (
                ((block_limits + margin) * (block_limits + margin))
                .astype(np.float32)[:, None]
            )
            near = dx32 * dx32 + dy32 * dy32 <= threshold
            row_hits, col_hits = np.nonzero(near)
            dx = cand_x[col_hits] - block_wx[row_hits]
            dy = cand_y[col_hits] - block_wy[row_hits]
            dist = np.hypot(dx, dy)
            speed = speeds[block][row_hits]
            rem = cand_remaining[col_hits]
            limit = block_limits[row_hits]
            # Definition 3's oracle measures with math.hypot, which can
            # differ from np.hypot by an ulp: re-measure the pairs that
            # lie within a few ulps of the reach limit (the radius when
            # it binds) or of the deadline reach.
            with np.errstate(invalid="ignore", over="ignore"):
                gap = np.abs(dist - limit)
                np.minimum(gap, np.abs(dist - speed * rem), out=gap)
            for hit in np.flatnonzero(gap <= _HYPOT_BAND * dist).tolist():
                dist[hit] = math.hypot(dx[hit], dy[hit])
            with np.errstate(divide="ignore", invalid="ignore"):
                travel = np.where(
                    speed > 0, dist / np.maximum(speed, 1e-300), np.inf
                )
            keep = (
                (dist <= limit)
                & (rem >= 0)
                & np.where(speed > 0, travel <= rem, dist == 0.0)
            )
            row_hits = row_hits[keep]
            kept_pos = cand_pos[col_hits[keep]]
            # np.nonzero is row-major, so kept_pos is grouped by row
            # with ascending candidate order inside each group; slice
            # views per row keep this allocation-free.
            row_counts = np.bincount(row_hits, minlength=block.size)
            bounds = np.concatenate(([0], np.cumsum(row_counts))).tolist()
            for offset, row in enumerate(block.tolist()):
                result[row] = kept_pos[bounds[offset] : bounds[offset + 1]]
    return result


class IncrementalValidityIndex:
    """Task-side validity state maintained *across* batch rounds.

    The batch simulator's task pool evolves by small deltas — arrivals,
    served/cancelled departures, deadline expiries — while the historical
    path rebuilt the whole spatial index from scratch every round. This
    class keeps one :class:`~repro.spatial.grid.GridIndex` alive and
    applies the pool's deltas via ``insert``/``delete`` (keyed by the
    stable ``task_id``), so per-round cost is proportional to the churn,
    not the pool size.

    Results are *identical* to :func:`compute_valid_pairs`: both run
    :func:`_grid_valid_lists`, whose exact distance and deadline filters
    make the outcome invariant to the index's cell size, which here is
    fixed at construction instead of re-derived from each round's mean
    worker radius. The test suite asserts the equivalence, and equality
    with :func:`compute_valid_pairs_reference`, round by round.

    Stale-deadline contract: the reach bound's ``max_remaining`` is
    re-derived from the *live* task set on every delta — an expired or
    departed task can never widen a worker's candidate radius. (The
    cached maximum is invalidated whenever the task holding it leaves;
    keeping it would only cost query time, not correctness, but the
    bound-tightness invariant is pinned by a regression test.)
    """

    def __init__(self, cell_size: float) -> None:
        self._index = GridIndex(cell_size=max(float(cell_size), 1e-6))
        self._tasks: dict[int, Task] = {}
        self._max_deadline = -np.inf
        self._max_stale = False

    def __len__(self) -> int:
        return len(self._tasks)

    def sync(self, tasks: "list[Task] | tuple[Task, ...]") -> tuple[int, int]:
        """Apply the pool's deltas: insert arrivals, drop departures.

        ``tasks`` is the current live pool (any order, unique
        ``task_id``s). Returns ``(added, removed)`` for observability.
        """
        current = {task.task_id: task for task in tasks}
        if len(current) != len(tasks):
            raise ValueError("duplicate task_id in the live pool")
        removed = [key for key in self._tasks if key not in current]
        for key in removed:
            task = self._tasks.pop(key)
            self._index.delete(key, task.location)
            if task.deadline == self._max_deadline:
                self._max_stale = True
        added = 0
        for key, task in current.items():
            if key in self._tasks:
                continue
            self._tasks[key] = task
            self._index.insert(key, task.location)
            added += 1
            if task.deadline > self._max_deadline and not self._max_stale:
                self._max_deadline = task.deadline
        return added, len(removed)

    def max_remaining(self, now: float) -> float:
        """Longest remaining deadline over the *live* tasks (>= 0).

        Bit-identical to :func:`_max_remaining` on an instance holding
        the same tasks: the maximizing task is the same either way, and
        ``max(deadline) - now`` is the same subtraction of the same two
        floats as ``max(deadline - now)``.
        """
        if not self._tasks:
            return 0.0
        if self._max_stale:
            self._max_deadline = max(
                task.deadline for task in self._tasks.values()
            )
            self._max_stale = False
        return max(0.0, self._max_deadline - now)

    def compute(self, instance: Instance) -> ValidPairs:
        """This round's :class:`ValidPairs` from the maintained index.

        ``instance.tasks`` must be exactly the pool last passed to
        :meth:`sync` (positions may differ from insertion order; the
        query is mapped back through ``task_id``).
        """
        if instance.task_count == 0 or instance.worker_count == 0:
            return _no_pairs(instance)
        position_of = {
            task.task_id: position
            for position, task in enumerate(instance.tasks)
        }
        if position_of.keys() != self._tasks.keys():
            raise ValueError(
                "instance task pool is out of sync with the index; "
                "call sync() with the live pool first"
            )
        max_remaining = self.max_remaining(instance.now)
        return ValidPairs.from_sorted_rows(
            _grid_valid_lists(
                instance, self._index, max_remaining, position_of=position_of
            ),
            instance.task_count,
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
