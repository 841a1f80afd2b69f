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
:class:`~repro.core.stats.SolverStats`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.kernels import counted_subset_select
from repro.core.quality import CooperationMatrix
from repro.core.quality_store import QualityStore

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

    Evaluated by :func:`~repro.core.kernels.counted_subset_select` from
    one bulk gather of the members' submatrix; its floats and tie-breaks
    are those of the scalar reference peel
    (:func:`repro.audit.reference.reference_counted_subset`).

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
    return counted_subset_select(quality.as_kernel_buffers(), members, size)


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

    Determinism contract: every arithmetic step matches the from-scratch
    evaluation bit-for-bit for the group sizes the experiments use
    (``a_j <= 6``), because identical floats are what keep best-response
    dynamics an exact potential game (Theorem V.1). The hypothesis state
    machine in ``tests/test_stateful.py`` drives random join/leave/
    exchange sequences — including overflow states — asserting the cache
    never drifts from :func:`group_revenue`.

    Observability: ``full_evaluations`` counts from-scratch Equation 2
    evaluations (the expensive path), ``incremental_updates`` the O(k)
    delta updates; :class:`~repro.core.stats.SolverStats` snapshots both.
    """

    __slots__ = (
        "quality",
        "min_group_size",
        "capacities",
        "pair_sums",
        "revenues",
        "counts",
        "versions",
        "_members",
        "_member_arrays",
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
        self._counted: list[tuple[int, ...] | None] = [None] * task_count
        self.full_evaluations = 0
        self.incremental_updates = 0
        #: Overflow peels run through ``kernels.counted_subset_select``;
        #: surfaced via SolverStats.
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

    def members_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """All memberships as one flat CSR pair ``(indptr, members)``.

        Segment ``indptr[j]:indptr[j+1]`` lists task ``j``'s members in
        insertion order — the exact gather order the scalar ``cross_sum``
        sums in, which the batched kernels must reproduce bit-for-bit.
        Rebuilt on demand (the kernel prepass snapshots it once per
        round, stamped by :attr:`versions`).
        """
        task_count = len(self._members)
        counts = np.fromiter(
            (len(members) for members in self._members),
            dtype=np.int64,
            count=task_count,
        )
        indptr = np.zeros(task_count + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        flat = np.empty(int(indptr[-1]), dtype=np.int64)
        for task, members in enumerate(self._members):
            flat[indptr[task] : indptr[task + 1]] = members
        return indptr, flat

    def revenue(self, task: int) -> float:
        """Cached ``Q(W_j)``."""
        return float(self.revenues[task])

    def pair_sum(self, task: int) -> float:
        """Cached Equation-2 numerator for the full member set."""
        return float(self.pair_sums[task])

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
        ``cross_sum`` instead of re-summing the group."""
        members = self._members[task]
        self.pair_sums[task] += self.quality.cross_sum(worker, members)
        members.append(worker)
        self.counts[task] += 1
        self.versions[task] += 1
        self._member_arrays[task] = None
        self.incremental_updates += 1
        self._refresh(task)

    def leave(self, worker: int, task: int) -> None:
        """Remove ``worker`` from the task (incremental pair-sum delta)."""
        members = self._members[task]
        members.remove(worker)
        self.pair_sums[task] -= self.quality.cross_sum(worker, members)
        self.counts[task] -= 1
        self.versions[task] += 1
        self._member_arrays[task] = None
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
        self._counted[task] = None

    def _peel(
        self, members: Sequence[int], capacity: int
    ) -> tuple[list[int], float]:
        """Counted overflow peel: the kept subset and its ordered pair sum."""
        self.peel_kernel_calls += 1
        return _counted_subset(self.quality, members, capacity)

    def _refresh(self, task: int) -> None:
        """Recompute the task's revenue from the cached pair sum.

        Only the over-capacity branch evaluates Equation 2 from scratch
        (best-subset peel); its counted subset is cached for reuse.
        """
        members = self._members[task]
        count = len(members)
        capacity = int(self.capacities[task])
        self._counted[task] = None
        if count < self.min_group_size or count < 2:
            # Below B — or a singleton group, which has no pairs and
            # would otherwise divide by ``count - 1 == 0`` when B <= 1.
            self.revenues[task] = 0.0
        elif count <= capacity:
            self.revenues[task] = self.pair_sums[task] / (count - 1)
        else:
            kept, pair_sum = self._peel(members, capacity)
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
        overflow joins fall back to the peeling evaluation.
        """
        members = self._members[task]
        new_count = len(members) + 1
        capacity = int(self.capacities[task])
        if new_count <= capacity:
            if new_count < self.min_group_size or new_count < 2:
                return 0.0 - self.revenues[task]
            cross = self.quality.cross_sum(worker, members)
            new_revenue = (self.pair_sums[task] + cross) / (new_count - 1)
        else:
            # Inlined ``group_revenue`` for the over-capacity join: peel
            # the hypothetical group; the peel also returns the counted
            # subset's pair sum. Arithmetic matches the public function
            # bit-for-bit.
            if new_count < self.min_group_size or capacity < 2:
                new_revenue = 0.0
            else:
                _, pair_sum = self._peel([*members, worker], capacity)
                new_revenue = pair_sum / (capacity - 1)
            self.full_evaluations += 1
        return new_revenue - float(self.revenues[task])

    def join_gains(self, workers: np.ndarray, task: int) -> list[float]:
        """:meth:`join_gain` of each idle worker in ``workers`` for one task.

        Within capacity and at or above ``B`` every gain is
        ``(S + cross) / (k_new - 1) - Q`` with one ``cross`` per worker,
        so the whole set is scored from two block gathers: the workers'
        rows over the members and the members' rows over the workers.
        Each worker's row part and column part are reduced separately
        over contiguous rows (numpy reduces a C-contiguous row exactly as
        it reduces the same values as a fresh 1-D array, on both sides of
        the pairwise cliff), then added — the floats of ``cross_sum``.
        Other joins (overflow, below ``B``) take the scalar path.
        """
        members = self._members[task]
        new_count = len(members) + 1
        if (
            new_count > int(self.capacities[task])
            or new_count < self.min_group_size
            or new_count < 2
        ):
            return [float(self.join_gain(w, task)) for w in workers.tolist()]
        index = self.member_array(task)
        row_part = self.quality.gather_rows(workers, index).sum(axis=1)
        col_part = np.ascontiguousarray(
            self.quality.gather_rows(index, workers).T
        ).sum(axis=1)
        new_revenue = (self.pair_sums[task] + (row_part + col_part)) / (new_count - 1)
        return (new_revenue - self.revenues[task]).tolist()

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
        if count <= capacity:
            cross = self.quality.cross_sum(
                worker, [m for m in members if m != worker]
            )
            without = (self.pair_sums[task] - cross) / (count - 2)
        else:
            rest = [m for m in members if m != worker]
            if len(rest) > capacity:
                self.peel_kernel_calls += 1
            without = group_revenue(
                self.quality, rest, capacity, self.min_group_size
            )
            self.full_evaluations += 1
        return current - without
