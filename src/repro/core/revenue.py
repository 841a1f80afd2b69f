"""Cooperation quality revenue — Equations 2 and 4.

``Q(W_j)`` is zero below the minimum group size ``B``, and otherwise the
ordered pair-quality sum divided by ``min(|W_j|, a_j) - 1``. When more
than ``a_j`` workers are attached to a task, only the best ``a_j``-subset
counts (the requester pays at most ``a_j`` workers). Finding that subset
is the NP-hard maximum-weight k-induced-subgraph problem, so
:func:`best_counted_subset` uses deterministic greedy peeling — groups are
tiny (``a_j <= 6`` in all experiments), and determinism is what keeps the
CA-SC game an *exact* potential game (see ``repro.core.game``).

:class:`RevenueCache` is the incremental engine behind every solver hot
path: it maintains per-task pair sums, revenues and (for overflowing
tasks) the counted best-``a_j``-subset across join/leave/exchange moves,
so Equation 4's delta form replaces from-scratch Equation 2 re-sums. It
also counts how often each path runs, feeding
:class:`~repro.core.stats.SolverStats`. It has one evaluator per kind
of move, each batched over any pairs: :meth:`RevenueCache.join_gains`
for joins and :meth:`RevenueCache.leave_deltas` for leaves. Both sum in
Equation 2's one left-to-right order
(:func:`~repro.core.kernels.ordered_row_sums`) and return builtin
``float`` values, the bits of the scalar oracles
:func:`repro.audit.reference.reference_join_gain` and
:func:`~repro.audit.reference.reference_leave_delta` at every group
size.

The cache reads qualities through its ``reads``: a solver sets it to
its own task-block reader for the length of the solve
(:meth:`RevenueCache.use_reads`,
:func:`~repro.core.quality_store.task_blocks`), and the cache passes
its members as the reader's positions (on the sparse store, their
places in their task's block); otherwise it reads the store
(:class:`~repro.core.quality_store.StoreReads`).
The module-level functions and :meth:`RevenueCache.revenue_from_scratch`
read the store itself: they are the oracle.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.kernels import (
    counted_subset_batch,
    counted_subset_select,
    cross_values,
    fit_join_gains,
    ordered_row_sums,
)
from repro.core.quality import CooperationMatrix
from repro.core.quality_store import QualityStore, StoreReads

__all__ = [
    "RevenueCache",
    "group_revenue",
    "best_counted_subset",
    "worker_average_quality",
]

def best_counted_subset(
    quality: QualityStore, members: Sequence[int], size: int
) -> list[int]:
    """The (approximately) best ``size``-subset of ``members``.

    Greedy peeling: repeatedly remove the member with the smallest
    ordered-pair contribution to the rest. Ties are broken by peeling the
    *highest* worker index, so the lower-indexed worker survives — the
    result, and therefore the revenue function, is deterministic. (This
    tie-break is part of the potential function's definition; changing it
    would change which equilibria the game reaches.)

    Evaluated by :func:`~repro.core.kernels.counted_subset_select`, the
    single-group call of the lockstep peel kernel, from one gather of the
    members' submatrix; its floats and tie-breaks are those of the scalar
    reference peel (:func:`repro.audit.reference.reference_counted_subset`).

    Returns the members themselves, sorted, when ``size >= len(members)``.
    """
    return _counted_subset(quality, members, size)[0]


def _counted_subset(
    quality: QualityStore, members: Sequence[int], size: int
) -> tuple[list[int], float]:
    """:func:`best_counted_subset` plus the kept members' ordered pair sum,
    taken from the peel's own gather — bit for bit
    ``quality.submatrix_sum(kept)``."""
    if size < 0:
        raise ValueError(f"size must be non-negative, got {size}")
    if len(members) != len(set(members)):
        raise ValueError(f"duplicate members: {sorted(members)}")
    return counted_subset_select(quality, members, size)


def group_revenue(
    quality: QualityStore,
    members: Sequence[int],
    capacity: int,
    min_group_size: int,
) -> float:
    """``Q(W_j)`` of Equation 2.

    * ``0`` when fewer than ``min_group_size`` (``B``) members;
    * ``0`` for a singleton group (one member has no cooperation pairs,
      so Equation 2's numerator is empty — reachable when ``B <= 1``);
    * ordered pair sum divided by ``|W_j| - 1`` when within capacity;
    * revenue of the best ``capacity``-subset when over capacity.

    >>> q = CooperationMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    >>> group_revenue(q, [0, 1, 2], capacity=3, min_group_size=2)
    3.0
    """
    count = len(members)
    if count < min_group_size:
        return 0.0
    if count <= capacity:
        if count < 2:
            return 0.0
        return quality.ordered_pair_sum(members) / (count - 1)
    _, pair_sum = _counted_subset(quality, members, capacity)
    if capacity < 2:
        return 0.0
    return pair_sum / (capacity - 1)


def worker_average_quality(
    quality: QualityStore, worker: int, members: Sequence[int], capacity: int
) -> float:
    """``q_i(W_j)`` — a member's average quality within the group.

    Defined in Section II as the member's quality sum over the other
    members divided by ``min(|W_j|, a_j) - 1``; the paper interprets it as
    the expected revenue from hiring that worker.
    """
    others = [m for m in members if m != worker]
    if not others:
        return 0.0
    denominator = min(len(members), capacity) - 1
    if denominator <= 0:
        return 0.0
    total = sum(quality.pair(worker, other) for other in others)
    return total / denominator


class RevenueCache:
    """Incremental Equation-2 state for every task group of one batch.

    The cache owns, per task: the member list, the ordered pair sum
    (Equation 2's numerator), the resulting revenue, and — for tasks over
    capacity — the counted best-``a_j``-subset. A join or leave updates
    the pair sum with one ``cross_sum`` (Equation 4's delta form) instead
    of re-summing the group; only overflowing tasks fall back to the
    peeling evaluation, and their counted subset is cached for reuse by
    the LUB invalidation rules and the final capacity clamp.

    ``quality`` is the store (the oracle's); every evaluation reads
    ``reads`` instead, with each task's members as positions cached per
    membership version (see the module docstring).

    Determinism contract: every evaluation matches its scalar oracle in
    :mod:`repro.audit.reference` bit for bit at every group size, and a
    batch matches scoring its pairs one at a time, because identical
    floats are what keep best-response dynamics an exact potential game
    (Theorem V.1). The hypothesis state machine in ``tests/test_stateful.py``
    drives random join/leave/exchange sequences — including overflow
    states — asserting the cache never drifts from :func:`group_revenue`.

    Observability: ``full_evaluations`` counts from-scratch Equation 2
    evaluations (the expensive path), ``incremental_updates`` the O(k)
    delta updates; :class:`~repro.core.stats.SolverStats` snapshots both.
    """

    __slots__ = (
        "quality",
        "reads",
        "min_group_size",
        "capacities",
        "pair_sums",
        "revenues",
        "counts",
        "versions",
        "_members",
        "_member_arrays",
        "_member_positions",
        "_counted",
        "full_evaluations",
        "incremental_updates",
        "peel_kernel_calls",
    )

    def __init__(
        self,
        quality: QualityStore,
        capacities: Sequence[int],
        min_group_size: int,
    ) -> None:
        task_count = len(capacities)
        self.quality = quality
        self.reads = StoreReads(quality)
        self.min_group_size = min_group_size
        self.capacities = np.asarray(capacities, dtype=np.int64)
        self.pair_sums = np.zeros(task_count)
        self.revenues = np.zeros(task_count)
        self.counts = np.zeros(task_count, dtype=np.int64)
        #: Per-task membership version, bumped on every join/leave/clear.
        #: Lets callers memoize pure functions of a task's membership
        #: (e.g. overflow join gains) and invalidate by integer compare.
        self.versions: list[int] = [0] * task_count
        self._members: list[list[int]] = [[] for _ in range(task_count)]
        self._member_arrays: list[np.ndarray | None] = [None] * task_count
        self._member_positions: list[np.ndarray | None] = [None] * task_count
        self._counted: list[tuple[int, ...] | None] = [None] * task_count
        self.full_evaluations = 0
        self.incremental_updates = 0
        #: Overflow peels run through the lockstep peel kernel, one per
        #: peeled group; surfaced via SolverStats.
        self.peel_kernel_calls = 0

    # ------------------------------------------------------------------
    # read access
    # ------------------------------------------------------------------
    @property
    def task_count(self) -> int:
        return len(self._members)

    def members(self, task: int) -> tuple[int, ...]:
        """Workers currently in the task's group (insertion order)."""
        return tuple(self._members[task])

    def member_list(self, task: int) -> list[int]:
        """Borrowed view of the member list — callers must not mutate."""
        return self._members[task]

    def member_array(self, task: int) -> np.ndarray:
        """The members as a cached numpy index array (insertion order).

        This is the gather index the vectorized best-response scorer
        uses; it is rebuilt lazily after membership changes.
        """
        array = self._member_arrays[task]
        if array is None:
            array = np.asarray(self._members[task], dtype=np.intp)
            self._member_arrays[task] = array
        return array

    def use_reads(self, reads) -> None:
        """Read through ``reads`` from now on; member positions are
        re-derived. Solvers hand their results the store
        (:class:`~repro.core.quality_store.StoreReads`) once the solve
        whose task-block reader they read is over."""
        self.reads = reads
        self._member_positions = [None] * self.task_count

    def member_positions(self, task: int) -> np.ndarray:
        """The members as ``reads`` positions (insertion order), cached
        until the membership changes."""
        positions = self._member_positions[task]
        if positions is None:
            positions = self.reads.locate(task, self.member_array(task))
            self._member_positions[task] = positions
        return positions

    def revenue(self, task: int) -> float:
        """Cached ``Q(W_j)``."""
        return float(self.revenues[task])

    def total(self) -> float:
        """Equation 3: the summed revenue over all tasks."""
        return float(self.revenues.sum())

    def counted_subset(self, task: int) -> tuple[int, ...]:
        """The members Equation 2 counts, sorted ascending.

        Within capacity that is every member; over capacity it is the
        cached best-``a_j``-subset from the last refresh (no re-peel).
        """
        cached = self._counted[task]
        if cached is not None:
            return cached
        return tuple(sorted(self._members[task]))

    def revenue_from_scratch(self, task: int) -> float:
        """Uncached Equation 2 — the oracle the cache is tested against."""
        return group_revenue(
            self.quality,
            self._members[task],
            int(self.capacities[task]),
            self.min_group_size,
        )

    def recompute_total(self) -> float:
        """From-scratch Equation 3 (drift check / debugging).

        Every per-task revenue is recomputed by the uncached
        :func:`group_revenue`, then reduced with the same numpy pairwise
        summation :meth:`total` uses — so the result is bit-identical to
        the incremental total exactly when no per-task value drifted
        (a Python ``sum`` here would reorder the reduction and differ by
        ~1e-12 on hundreds of tasks even with perfect per-task values).
        """
        values = np.array(
            [self.revenue_from_scratch(task) for task in range(self.task_count)]
        )
        return float(values.sum())

    # ------------------------------------------------------------------
    # copying
    # ------------------------------------------------------------------
    def clone(self) -> "RevenueCache":
        """An independent deep copy of the cache's mutable state.

        The quality store is shared (it is immutable by contract); every
        per-task structure is copied so mutations on the clone never leak
        back. This method — not callers hand-copying private fields — is
        the single place that knows the cache's layout: the trailing
        ``__slots__`` sweep makes a clone that misses a newly added field
        fail loudly instead of silently dropping it.
        """
        clone = RevenueCache.__new__(RevenueCache)
        clone.quality = self.quality
        clone.reads = self.reads
        clone.min_group_size = self.min_group_size
        clone.capacities = self.capacities.copy()
        clone.pair_sums = self.pair_sums.copy()
        clone.revenues = self.revenues.copy()
        clone.counts = self.counts.copy()
        clone.versions = list(self.versions)
        clone._members = [list(members) for members in self._members]
        # Cached member arrays are rebuilt (never mutated in place), so
        # sharing the array objects themselves is safe.
        clone._member_arrays = list(self._member_arrays)
        clone._member_positions = list(self._member_positions)
        clone._counted = list(self._counted)
        clone.full_evaluations = self.full_evaluations
        clone.incremental_updates = self.incremental_updates
        clone.peel_kernel_calls = self.peel_kernel_calls
        missing = [
            name for name in RevenueCache.__slots__ if not hasattr(clone, name)
        ]
        if missing:
            raise AttributeError(
                f"RevenueCache.clone() does not copy {missing}; update it "
                "alongside the new field(s)"
            )
        return clone

    def state_dict(self) -> dict:
        """Every field of the cache, keyed by slot name.

        Comparison-friendly snapshot for the audit harness and the clone
        round-trip test: covers ``__slots__`` exhaustively, so a field
        added by a future PR shows up here (and in the clone test)
        automatically.
        """
        return {name: getattr(self, name) for name in RevenueCache.__slots__}

    # ------------------------------------------------------------------
    # mutation — Equation 4's delta form
    # ------------------------------------------------------------------
    def join(self, worker: int, task: int) -> None:
        """Add ``worker`` to the task, updating the pair sum by one
        cross sum instead of re-summing the group. Raises
        ``ValueError`` for a worker already in the task."""
        members = self._members[task]
        if worker in members:
            raise ValueError(f"worker {worker} is already a member of task {task}")
        positions = np.append(
            self.member_positions(task), self.reads.locate(task, worker)
        )
        self.pair_sums[task] += self._cross_sum(positions[-1], positions[:-1])
        members.append(worker)
        self.counts[task] += 1
        self.versions[task] += 1
        self._member_arrays[task] = None
        self._member_positions[task] = positions
        self.incremental_updates += 1
        self._refresh(task)

    def join_pairs(self, workers: Sequence[int], tasks: Sequence[int]) -> None:
        """:meth:`join` of ``workers[i]`` to ``tasks[i]`` for every ``i``,
        in order — the state of the sequential replay, bit for bit.

        A task's state depends only on its own join sequence, so each
        task's joins are replayed in lockstep with every other task of
        the same shape (members already present, joins that fit within
        capacity), from one read per shape: the joiners' rows and
        columns over the final member list.
        Join ``i`` of a task with ``p`` members present adds the cross
        sum over its ``p + i`` predecessors, reduced in ``cross_sum``'s
        order (:func:`~repro.core.kernels.ordered_row_sums`). The joins
        that would overflow a task take the scalar :meth:`join`, so
        peels and counters match the sequential replay too. Raises
        ``ValueError``, before any join, when a worker would join a task
        it is already in.
        """
        joiners: dict[int, list[int]] = {}
        for worker, task in zip(workers, tasks):
            joiners.setdefault(task, []).append(worker)
        shapes: dict[tuple[int, int], list[int]] = {}
        overflow: list[tuple[int, int]] = []
        for task, joining in joiners.items():
            present = len(self._members[task])
            if len(set(self._members[task]).union(joining)) < present + len(joining):
                raise ValueError(f"a joining worker is already a member of task {task}")
            room = max(int(self.capacities[task]) - present, 0)
            if room < len(joining):
                overflow.extend((worker, task) for worker in joining[room:])
                joining = joiners[task] = joining[:room]
            if joining:
                shapes.setdefault((present, len(joining)), []).append(task)
        for (present, joins), group in shapes.items():
            index = np.asarray(group, dtype=np.intp)
            positions = self.reads.locate(
                index[:, None],
                [self._members[task] + joiners[task] for task in group],
            )
            rows, cols = cross_values(
                self.reads, positions[:, present:, None], positions[:, None, :]
            )
            pair_sums = self.pair_sums[index]
            for step in range(joins):
                width = present + step
                pair_sums += ordered_row_sums(rows[:, step, :width]) + (
                    ordered_row_sums(cols[:, step, :width])
                )
            self.pair_sums[index] = pair_sums
            count = present + joins
            if count < self.min_group_size or count < 2:
                self.revenues[index] = 0.0
            else:
                self.revenues[index] = pair_sums / (count - 1)
            self.counts[index] = count
            for row, task in enumerate(group):
                self._members[task].extend(joiners[task])
                self.versions[task] += joins
                self._member_arrays[task] = None
                self._member_positions[task] = positions[row]
                self._counted[task] = None
            self.incremental_updates += joins * len(group)
        for worker, task in overflow:
            self.join(worker, task)

    def leave(self, worker: int, task: int) -> None:
        """Remove ``worker`` from the task (incremental pair-sum delta)."""
        members = self._members[task]
        index = members.index(worker)
        positions = self.member_positions(task)
        rest = np.concatenate((positions[:index], positions[index + 1 :]))
        del members[index]
        self.pair_sums[task] -= self._cross_sum(positions[index], rest)
        self.counts[task] -= 1
        self.versions[task] += 1
        self._member_arrays[task] = None
        self._member_positions[task] = rest
        self.incremental_updates += 1
        self._refresh(task)

    def exchange(self, task: int, leaving: int, entering: int) -> None:
        """Swap one member for another — a leave and a join in one move
        (the crowd-out exchange of Theorems V.3/V.4)."""
        self.leave(leaving, task)
        self.join(entering, task)

    def clear(self, task: int) -> None:
        """Empty a task's group and reset its cached state."""
        self._members[task] = []
        self.pair_sums[task] = 0.0
        self.revenues[task] = 0.0
        self.counts[task] = 0
        self.versions[task] += 1
        self._member_arrays[task] = None
        self._member_positions[task] = None
        self._counted[task] = None

    def _cross_sum(self, position, positions: np.ndarray) -> float:
        """``cross_sum`` of the member at ``position`` over ``positions``:
        its row part and its column part, each summed left to right."""
        toward, back = cross_values(self.reads, position, positions)
        return float(ordered_row_sums(toward) + ordered_row_sums(back))

    def _refresh(self, task: int) -> None:
        """Recompute the task's revenue from the cached pair sum.

        Only the over-capacity branch evaluates Equation 2 from scratch
        (best-subset peel); its counted subset is cached for reuse.
        """
        count = len(self._members[task])
        capacity = int(self.capacities[task])
        self._counted[task] = None
        if count < self.min_group_size or count < 2:
            # Below B — or a singleton group, which has no pairs and
            # would otherwise divide by ``count - 1 == 0`` when B <= 1.
            self.revenues[task] = 0.0
        elif count <= capacity:
            self.revenues[task] = self.pair_sums[task] / (count - 1)
        else:
            order = np.sort(self.member_positions(task))
            if (order[1:] == order[:-1]).any():
                members = self.reads.worker_ids(order).tolist()
                raise ValueError(f"duplicate members: {members}")
            kept, pair_sums = counted_subset_batch(self.reads, order[None], capacity)
            self._counted[task] = tuple(self.reads.worker_ids(kept[0]).tolist())
            self.peel_kernel_calls += 1
            self.full_evaluations += 1
            self.revenues[task] = pair_sums[0] / (capacity - 1) if capacity >= 2 else 0.0

    # ------------------------------------------------------------------
    # marginal evaluations (the solvers' hot path)
    # ------------------------------------------------------------------
    def join_gains(self, workers, tasks) -> list[float]:
        """``DeltaQ(w_i, t_j)`` if each idle ``workers[i]`` joined
        ``tasks[i]`` (``tasks`` broadcast): Equation 4, with the floats
        and counters of scoring one pair at a time.

        A task's pairs share a case: ``0 - Q`` below ``B`` or for a
        singleton group; within capacity
        :func:`~repro.core.kernels.fit_join_gains`; over capacity one
        full evaluation each, ``0 - Q`` short of ``B`` or under a
        capacity of 2, else a peel, the groups of one shape peeled in
        lockstep (:func:`~repro.core.kernels.counted_subset_batch`).
        Raises ``ValueError`` for a worker already in its task.
        """
        workers = np.asarray(workers, dtype=np.int64)
        tasks = np.asarray(tasks, dtype=np.int64)
        positions = self.reads.locate(tasks, workers)
        gains = np.empty(workers.size)
        peels: dict[tuple[int, int], list] = {}
        for task, rows in _rows_by_task(tasks, workers.size):
            if not set(self._members[task]).isdisjoint(workers[rows].tolist()):
                raise ValueError(f"a joining worker is already a member of task {task}")
            members, joiners = self.member_positions(task), positions[rows]
            size, capacity = members.size + 1, int(self.capacities[task])
            revenue, pair_sum = self.revenues[task], self.pair_sums[task]
            if size > capacity:
                self.full_evaluations += rows.size
            if size < self.min_group_size or size < 2 or capacity < 2:
                gains[rows] = 0.0 - revenue
            elif size <= capacity:
                gains[rows] = fit_join_gains(
                    self.reads, joiners, members, members.size, pair_sum, revenue
                )
            else:
                groups = np.column_stack((np.tile(members, (rows.size, 1)), joiners))
                revenues = np.full(rows.size, revenue)
                peels.setdefault((size, capacity), []).append((rows, groups, revenues))
        for (_, capacity), entries in peels.items():
            rows, groups, revenues = map(np.concatenate, zip(*entries))
            # Positions sort like the worker ids within a task.
            groups.sort(axis=1)
            _, pair_sums = counted_subset_batch(self.reads, groups, capacity)
            gains[rows] = pair_sums / (capacity - 1) - revenues
            self.peel_kernel_calls += rows.size
        return gains.tolist()

    def leave_deltas(self, workers, tasks) -> list[float]:
        """``Q(W_j) - Q(W_j - {w_i})`` of each member ``workers[i]`` of
        ``tasks[i]`` (``tasks`` broadcast): Equation 5's current utility.

        Survivors below ``B`` (or one survivor) leave the whole revenue.
        Otherwise each leaver's survivors (the members in insertion
        order, the leaver cut out) form a row, bucketed by shape
        (members, capacity): within capacity the pair sum minus the
        cross values' sums (``cross_sum``'s floats); over capacity the
        survivors' ``block`` summed row-major when they fit, else a
        lockstep peel (:func:`~repro.core.kernels.counted_subset_batch`),
        with one full evaluation each. Raises ``ValueError`` for a
        worker that is not a member of its task.
        """
        workers = np.asarray(workers, dtype=np.int64)
        tasks = np.broadcast_to(np.asarray(tasks, dtype=np.int64), workers.shape)
        movers = self.reads.locate(tasks, workers)
        if not workers.size:
            return []
        groups, inverse = np.unique(tasks, return_inverse=True)
        counts = self.counts[groups]
        flat = np.concatenate([self.member_positions(task) for task in groups.tolist()])
        offsets = np.arange(int(counts.max()))
        starts = np.cumsum(counts) - counts
        index = starts[:, None] + np.minimum(offsets, counts[:, None] - 1)
        # Each task's members in insertion order, the last repeated; -1 for none.
        table = np.where(counts[:, None] > 0, flat.take(index, mode="clip"), -1)
        members, counts = table[inverse], counts[inverse]
        found = members == movers[:, None]
        if not found.any(axis=1).all():
            raise ValueError("a leaving worker is not a member of its task")
        capacities = self.capacities[tasks]
        deltas = self.revenues[tasks].copy()  # below B: the whole revenue
        live = np.flatnonzero((counts > self.min_group_size) & (counts > 2))
        if not live.size:
            return deltas.tolist()
        movers, tasks = movers[live], tasks[live]
        counts, capacities = counts[live], capacities[live]
        # The first match is the leaver's own lane; padding comes after.
        leaver = np.argmax(found[live], axis=1)
        columns = np.arange(members.shape[1] - 1)
        rest = np.take_along_axis(
            members[live], columns + (columns >= leaver[:, None]), axis=1
        )
        shapes, bucket_of = np.unique(
            counts * (int(capacities.max()) + 1) + capacities, return_inverse=True
        )
        for index in range(shapes.size):
            bucket = np.flatnonzero(bucket_of == index)
            count, capacity = int(counts[bucket[0]]), int(capacities[bucket[0]])
            group = rest[bucket, : count - 1]
            if count <= capacity:
                toward, back = cross_values(self.reads, movers[bucket, None], group)
                cross = ordered_row_sums(toward) + ordered_row_sums(back)
                without = (self.pair_sums[tasks[bucket]] - cross) / (count - 2)
            elif count - 1 <= capacity:
                block = self.reads.block(group, group)
                without = ordered_row_sums(block.reshape(bucket.size, -1)) / (count - 2)
                self.full_evaluations += bucket.size
            else:
                group.sort(axis=1)
                _, pair_sums = counted_subset_batch(self.reads, group, capacity)
                without = pair_sums / (capacity - 1) if capacity >= 2 else 0.0
                self.peel_kernel_calls += bucket.size
                self.full_evaluations += bucket.size
            deltas[live[bucket]] -= without
        return deltas.tolist()


def _rows_by_task(tasks: np.ndarray, count: int) -> list:
    """``(task, rows)`` for each distinct task of ``tasks``, broadcast
    over ``count`` rows; ``rows`` ascending."""
    if not tasks.ndim:
        return [(int(tasks), np.arange(count))]
    order = np.argsort(tasks, kind="stable")
    runs = np.split(order, np.flatnonzero(np.diff(tasks[order])) + 1)
    return [(int(tasks[rows[0]]), rows) for rows in runs if rows.size]
