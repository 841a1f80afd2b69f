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
:class:`~repro.core.stats.SolverStats`. Its batched evaluations sum in
Equation 2's one left-to-right order
(:func:`~repro.core.kernels.ordered_row_sums`), as the scalar ones do,
so a batch gives the scalar floats at every group size; every revenue
evaluation returns builtin ``float`` values.

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
    ordered_row_sums,
)
from repro.core.quality import CooperationMatrix
from repro.core.quality_store import QualityStore, StoreReads

__all__ = [
    "RevenueCache",
    "group_revenue",
    "best_counted_subset",
    "marginal_gain",
    "removal_delta",
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


def marginal_gain(
    quality: QualityStore,
    members: Sequence[int],
    worker: int,
    capacity: int,
    min_group_size: int,
) -> float:
    """``DeltaQ(w_i, t_j) = Q(W_j + {w_i}) - Q(W_j)`` (Equation 4 applied
    to a prospective join).

    ``members`` must not already contain ``worker``. The gain can be
    negative — a poorly-matched worker dilutes the per-member average —
    and is zero when even with the newcomer the group stays below ``B``.
    """
    if worker in members:
        raise ValueError(f"worker {worker} already in the group")
    before = group_revenue(quality, members, capacity, min_group_size)
    after = group_revenue(quality, [*members, worker], capacity, min_group_size)
    return after - before


def removal_delta(
    quality: QualityStore,
    members: Sequence[int],
    worker: int,
    capacity: int,
    min_group_size: int,
) -> float:
    """``Q(W_j) - Q(W_j - {w_i})`` — the utility a member currently
    derives from staying (Equation 5 evaluated at the current strategy)."""
    if worker not in members:
        raise ValueError(f"worker {worker} not in the group")
    with_worker = group_revenue(quality, members, capacity, min_group_size)
    rest = [m for m in members if m != worker]
    without_worker = group_revenue(quality, rest, capacity, min_group_size)
    return with_worker - without_worker


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

    Determinism contract: every batched evaluation matches its scalar
    twin bit for bit at every group size, because identical floats are
    what keep best-response dynamics an exact potential game (Theorem
    V.1). The hypothesis state machine in ``tests/test_stateful.py``
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
        cross sum instead of re-summing the group."""
        members = self._members[task]
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
        peels and counters match the sequential replay too.
        """
        joiners: dict[int, list[int]] = {}
        for worker, task in zip(workers, tasks):
            joiners.setdefault(task, []).append(worker)
        shapes: dict[tuple[int, int], list[int]] = {}
        overflow: list[tuple[int, int]] = []
        for task, joining in joiners.items():
            present = len(self._members[task])
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

    def _peel(self, positions: np.ndarray, capacity: int) -> tuple[list[int], float]:
        """Counted overflow peel of the members at ``positions``: the kept
        workers (ascending) and their ordered pair sum."""
        self.peel_kernel_calls += 1
        order = np.sort(positions)
        if (order[1:] == order[:-1]).any():
            members = self.reads.worker_ids(order).tolist()
            raise ValueError(f"duplicate members: {members}")
        kept, pair_sums = counted_subset_batch(
            self.reads, order.reshape(1, order.size), capacity
        )
        return self.reads.worker_ids(kept[0]).tolist(), float(pair_sums[0])

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
            kept, pair_sum = self._peel(self.member_positions(task), capacity)
            self._counted[task] = tuple(kept)
            self.full_evaluations += 1
            if capacity < 2:
                self.revenues[task] = 0.0
            else:
                self.revenues[task] = pair_sum / (capacity - 1)

    # ------------------------------------------------------------------
    # marginal evaluations (the solvers' hot path)
    # ------------------------------------------------------------------
    def join_gain(self, worker: int, task: int) -> float:
        """``DeltaQ(w_i, t_j)`` if the (idle) worker joined ``task``.

        Fast path: within capacity the new revenue is
        ``(S + cross) / (k_new - 1)`` with the cached pair sum ``S``; only
        overflow joins fall back to the peeling evaluation
        (:meth:`overflow_join_gains`).
        """
        members = self._members[task]
        new_count = len(members) + 1
        capacity = int(self.capacities[task])
        if new_count <= capacity:
            if new_count < self.min_group_size or new_count < 2:
                return 0.0 - float(self.revenues[task])
            cross = self._cross_sum(
                self.reads.locate(task, worker), self.member_positions(task)
            )
            new_revenue = (float(self.pair_sums[task]) + cross) / (new_count - 1)
        elif new_count < self.min_group_size or capacity < 2:
            self.full_evaluations += 1
            new_revenue = 0.0
        else:
            return self.overflow_join_gains([worker], [task])[0]
        return new_revenue - float(self.revenues[task])

    def join_gains(self, workers: np.ndarray, task: int) -> list[float]:
        """:meth:`join_gain` of each idle worker in ``workers`` for one task.

        Within capacity and at or above ``B`` every gain is
        ``(S + cross) / (k_new - 1) - Q`` with one ``cross`` per worker,
        so the whole set is scored from one read: the workers' rows and
        columns over the members. Each worker's row part and column part
        are summed left to right, then added — the floats of
        ``cross_sum``. Other joins (overflow, below ``B``) take the
        scalar path.
        """
        members = self._members[task]
        new_count = len(members) + 1
        if (
            new_count > int(self.capacities[task])
            or new_count < self.min_group_size
            or new_count < 2
        ):
            return [self.join_gain(w, task) for w in workers.tolist()]
        toward, back = cross_values(
            self.reads,
            self.reads.locate(task, workers)[:, None],
            self.member_positions(task),
        )
        cross = ordered_row_sums(toward) + ordered_row_sums(back)
        new_revenue = (self.pair_sums[task] + cross) / (new_count - 1)
        return (new_revenue - self.revenues[task]).tolist()

    def overflow_join_gains(
        self, workers: Sequence[int], tasks: Sequence[int]
    ) -> list[float]:
        """:meth:`join_gain` of each idle ``workers[i]`` for ``tasks[i]``,
        for joins that overflow a task of capacity at least 2 and reach
        ``B`` — the joins whose gain needs the counted-subset peel.

        The hypothetical groups are bucketed by shape (member count,
        capacity) and each bucket is peeled in lockstep by
        :func:`~repro.core.kernels.counted_subset_batch`; the new revenue
        is the counted subset's pair sum over ``capacity - 1`` (Equation
        2, inlined from :func:`group_revenue` bit for bit). Every group
        counts as one peel and one full evaluation, exactly as if it had
        been scored one at a time. Raises ``ValueError`` for a task of
        capacity below 2 or a join that does not overflow.
        """
        buckets: dict[tuple[int, int], list[int]] = {}
        for index, task in enumerate(tasks):
            shape = (len(self._members[task]) + 1, int(self.capacities[task]))
            buckets.setdefault(shape, []).append(index)
        gains = [0.0] * len(tasks)
        for (size, capacity), bucket in buckets.items():
            if capacity < 2 or size <= capacity:
                raise ValueError(
                    "overflow_join_gains needs a join past a capacity of at "
                    f"least 2; task {tasks[bucket[0]]} has capacity {capacity} "
                    f"and the join makes {size} members"
                )
            bucket_tasks = [tasks[i] for i in bucket]
            groups = self.reads.locate(
                np.asarray(bucket_tasks, dtype=np.int64)[:, None],
                [self._members[tasks[i]] + [workers[i]] for i in bucket],
            )
            # Positions sort like the worker ids within a task.
            groups.sort(axis=1)
            if (groups[:, 1:] == groups[:, :-1]).any():
                raise ValueError("a joining worker is already a member")
            _, pair_sums = counted_subset_batch(self.reads, groups, capacity)
            revenues = self.revenues[bucket_tasks]
            for index, gain in zip(
                bucket, (pair_sums / (capacity - 1) - revenues).tolist()
            ):
                gains[index] = gain
        self.peel_kernel_calls += len(tasks)
        self.full_evaluations += len(tasks)
        return gains

    def leave_deltas(self, workers: np.ndarray, tasks: np.ndarray) -> list[float]:
        """:meth:`leave_delta` of each member ``workers[i]`` of ``tasks[i]``,
        bit for bit, from batched reads.

        Each leaver's survivors (the members in insertion order, the
        leaver cut out) form a row; rows are bucketed by group shape
        (members, capacity). Within capacity a bucket sums its cross
        values rows (the floats of ``cross_sum``); over capacity,
        survivors that fit sum their ``block`` row-major (the floats of
        ``submatrix_sum``) and the others are peeled in lockstep
        (:func:`~repro.core.kernels.counted_subset_batch`), with
        :meth:`leave_delta`'s evaluation and peel counts.
        """
        counts, capacities = self.counts[tasks], self.capacities[tasks]
        deltas = self.revenues[tasks].copy()  # below B: the whole revenue
        live = np.flatnonzero((counts > self.min_group_size) & (counts > 2))
        if not live.size:
            return deltas.tolist()
        workers, tasks = workers[live], tasks[live]
        counts, capacities = counts[live], capacities[live]
        width = int(counts.max())
        groups, inverse = np.unique(tasks, return_inverse=True)
        table = np.zeros((groups.size, width), dtype=np.int64)
        for row, task in enumerate(groups.tolist()):
            positions = self.member_positions(task)
            table[row, : positions.size] = positions
        members = table[inverse]
        movers = self.reads.locate(tasks, workers)
        leaver = np.argmax(members == movers[:, None], axis=1)
        columns = np.arange(width - 1)
        rest = np.take_along_axis(
            members, columns + (columns >= leaver[:, None]), axis=1
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

    def leave_delta(self, worker: int, task: int) -> float:
        """``Q(W_j) - Q(W_j - {w_i})`` for a current member of ``task``."""
        members = self._members[task]
        count = len(members)
        capacity = int(self.capacities[task])
        current = float(self.revenues[task])
        if count - 1 < self.min_group_size or count - 1 < 2:
            # The survivors fall below B — or a lone survivor remains,
            # whose pairless group scores 0 (the B = 1 edge case).
            return current
        positions = self.member_positions(task)
        index = members.index(worker)
        rest = np.concatenate((positions[:index], positions[index + 1 :]))
        if count <= capacity:
            cross = self._cross_sum(positions[index], rest)
            without = (float(self.pair_sums[task]) - cross) / (count - 2)
        else:
            # group_revenue(rest): the survivors reach B and hold a pair.
            if rest.size > capacity:
                _, pair_sum = self._peel(rest, capacity)
                without = pair_sum / (capacity - 1) if capacity >= 2 else 0.0
            else:
                pair_sum = float(ordered_row_sums(self.reads.block(rest, rest).reshape(-1)))
                without = pair_sum / (rest.size - 1)
            self.full_evaluations += 1
        return current - without
