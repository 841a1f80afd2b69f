"""Assignments with incremental revenue maintenance.

An :class:`Assignment` is the object every solver builds and returns: a
mapping worker -> task (at most one task per worker — Definition 4's
assignment is a set of disjoint worker groups) layered over a
:class:`~repro.core.revenue.RevenueCache`, which maintains per-task pair
sums and revenues incrementally, so the greedy and game-theoretic solvers
can evaluate millions of marginal gains without recomputing Equation 2
from scratch.

Overflow semantics: a task may temporarily hold more than ``a_j`` workers
when ``allow_overflow=True`` (the game-theoretic solver models crowd-out
this way, per Theorems V.3/V.4); its revenue then counts only the best
``a_j``-subset, exactly as Equation 2 prescribes.
:meth:`Assignment.clamp_to_capacity` restores strict feasibility at the
end by idling the crowded-out workers.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import Instance
from repro.core.revenue import RevenueCache
from repro.core.validity import ValidPairs
from repro.utils.errors import CapacityError, ValidityError

__all__ = ["Assignment", "UNASSIGNED"]

UNASSIGNED = -1


class Assignment:
    """A (partial) solution of one CA-SC batch.

    Parameters
    ----------
    instance:
        The batch being solved.
    valid_pairs:
        When given, :meth:`assign` refuses pairs outside Definition 3.
    allow_overflow:
        When ``True``, tasks may exceed capacity (crowd-out modelling);
        revenue always follows Equation 2's best-subset rule.
    """

    def __init__(
        self,
        instance: Instance,
        valid_pairs: ValidPairs | None = None,
        allow_overflow: bool = False,
    ) -> None:
        self.instance = instance
        self.valid_pairs = valid_pairs
        self.allow_overflow = allow_overflow
        self.revenue_cache = RevenueCache(
            instance.quality,
            [task.capacity for task in instance.tasks],
            instance.min_group_size,
        )
        self._task_of = np.full(instance.worker_count, UNASSIGNED, dtype=int)

    # ------------------------------------------------------------------
    # read access
    # ------------------------------------------------------------------
    def members(self, task: int) -> tuple[int, ...]:
        """Workers currently attached to ``task`` (insertion order)."""
        return self.revenue_cache.members(task)

    def task_of(self, worker: int) -> int:
        """The worker's task index, or :data:`UNASSIGNED`."""
        return int(self._task_of[worker])

    def tasks_of(self, workers: np.ndarray) -> np.ndarray:
        """:meth:`task_of` of each of ``workers``, as one array."""
        return self._task_of[workers]

    def is_assigned(self, worker: int) -> bool:
        return self._task_of[worker] != UNASSIGNED

    def assigned_count(self, task: int) -> int:
        return int(self.revenue_cache.counts[task])

    def revenue_of(self, task: int) -> float:
        """Cached ``Q(W_j)`` for the task."""
        return self.revenue_cache.revenue(task)

    def total_score(self) -> float:
        """Equation 3: the summed revenue over all tasks."""
        return self.revenue_cache.total()

    def recompute_total(self) -> float:
        """Recompute the score from scratch (drift check / debugging)."""
        return self.revenue_cache.recompute_total()

    def counted_members(self, task: int) -> tuple[int, ...]:
        """The members Equation 2 counts for the task, sorted ascending.

        Over-capacity tasks reuse the cached best-subset from the last
        revenue refresh instead of re-peeling.
        """
        return self.revenue_cache.counted_subset(task)

    def to_pairs(self) -> list[tuple[int, int]]:
        """All assigned ``(worker_index, task_index)`` pairs, sorted."""
        return sorted(
            (worker, int(task))
            for worker, task in enumerate(self._task_of)
            if task != UNASSIGNED
        )

    def assigned_worker_count(self) -> int:
        return int((self._task_of != UNASSIGNED).sum())

    def completed_task_count(self) -> int:
        """Tasks holding at least ``B`` workers (i.e. that will run)."""
        minimum = self.instance.min_group_size
        return int((self.revenue_cache.counts >= minimum).sum())

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def assign(self, worker: int, task: int) -> None:
        """Attach an unassigned worker to a task.

        Raises
        ------
        ValidityError
            If a ``valid_pairs`` structure was provided and rejects the
            pair, or the worker is already assigned.
        CapacityError
            If the task is full and overflow is disabled.
        """
        self._check_assignable(worker, task, self._task_of, self.revenue_cache.counts)
        self.revenue_cache.join(worker, task)
        self._task_of[worker] = task

    def assign_pairs(self, pairs) -> None:
        """:meth:`assign` every ``(worker, task)`` pair, in order.

        Each pair is checked exactly as :meth:`assign` checks it against
        the state the earlier pairs leave behind, and the first failing
        pair raises :meth:`assign`'s error — before any pair is applied,
        so a rejected batch leaves the assignment untouched. The revenue
        state is then built by :meth:`RevenueCache.join_pairs
        <repro.core.revenue.RevenueCache.join_pairs>`, bit for bit that
        of the sequential ``assign`` loop.
        """
        pairs = [(int(worker), int(task)) for worker, task in pairs]
        task_of = self._task_of.copy()
        counts = self.revenue_cache.counts.copy()
        for worker, task in pairs:
            self._check_assignable(worker, task, task_of, counts)
            task_of[worker] = task
            counts[task] += 1
        if pairs:
            workers, tasks = zip(*pairs)
            self.revenue_cache.join_pairs(workers, tasks)
        self._task_of = task_of

    def _check_assignable(
        self, worker: int, task: int, task_of: np.ndarray, counts: np.ndarray
    ) -> None:
        """:meth:`assign`'s checks of one pair against the given state."""
        if task_of[worker] != UNASSIGNED:
            raise ValidityError(
                f"worker {worker} already assigned to task {task_of[worker]}"
            )
        if self.valid_pairs is not None and not self.valid_pairs.is_valid(worker, task):
            raise ValidityError(f"pair <{worker}, {task}> violates Definition 3")
        if not self.allow_overflow:
            capacity = self.instance.tasks[task].capacity
            if counts[task] >= capacity:
                raise CapacityError(f"task {task} is at capacity {capacity}")

    def unassign(self, worker: int) -> int:
        """Detach a worker; returns the task it was on.

        Raises :class:`ValidityError` when the worker is idle.
        """
        task = int(self._task_of[worker])
        if task == UNASSIGNED:
            raise ValidityError(f"worker {worker} is not assigned")
        self.revenue_cache.leave(worker, task)
        self._task_of[worker] = UNASSIGNED
        return task

    def move(self, worker: int, task: int) -> None:
        """Unassign (if needed) then assign — one best-response step."""
        if self._task_of[worker] != UNASSIGNED:
            self.unassign(worker)
        self.assign(worker, task)

    # ------------------------------------------------------------------
    # marginal evaluations (the solvers' hot path)
    # ------------------------------------------------------------------
    def join_gain(self, worker: int, task: int) -> float:
        """``DeltaQ(w_i, t_j)`` if the (idle) worker joined ``task``.

        The one-row call of :meth:`RevenueCache.join_gains
        <repro.core.revenue.RevenueCache.join_gains>`: within capacity
        the new revenue is ``(S + cross) / (k_new - 1)`` with the cached
        pair sum ``S``; only overflow joins run the peeling evaluation.
        """
        return self.revenue_cache.join_gains([worker], task)[0]

    def leave_delta(self, worker: int) -> float:
        """``Q(W_j) - Q(W_j - {w_i})`` at the worker's current task.

        This is the worker's current utility (Equation 5), the one-row
        call of :meth:`RevenueCache.leave_deltas
        <repro.core.revenue.RevenueCache.leave_deltas>`; zero for idle
        workers.
        """
        task = int(self._task_of[worker])
        if task == UNASSIGNED:
            return 0.0
        return self.revenue_cache.leave_deltas([worker], task)[0]

    # ------------------------------------------------------------------
    # feasibility
    # ------------------------------------------------------------------
    def check_feasible(self) -> None:
        """Raise if any Definition 4 constraint is violated.

        Checks capacity, validity (when a :class:`ValidPairs` is attached)
        and the worker-disjointness implied by the internal representation.
        """
        for task_index in range(self.instance.task_count):
            members = self.revenue_cache.member_list(task_index)
            capacity = self.instance.tasks[task_index].capacity
            if len(members) > capacity:
                raise CapacityError(
                    f"task {task_index} holds {len(members)} workers, "
                    f"capacity {capacity}"
                )
            if len(members) != len(set(members)):
                raise ValidityError(f"task {task_index} has duplicate members")
            for worker in members:
                if self._task_of[worker] != task_index:
                    raise ValidityError(
                        f"inconsistent state: worker {worker} listed on task "
                        f"{task_index} but mapped to {self._task_of[worker]}"
                    )
                if self.valid_pairs is not None and not self.valid_pairs.is_valid(
                    worker, task_index
                ):
                    raise ValidityError(
                        f"pair <{worker}, {task_index}> violates Definition 3"
                    )

    def clamp_to_capacity(self) -> list[int]:
        """Idle crowded-out workers so every task respects ``a_j``.

        For each over-capacity task the best ``a_j``-subset (the workers
        Equation 2 actually counts, reused from the revenue cache) is
        kept. Returns the dropped workers.
        """
        dropped: list[int] = []
        for task_index in range(self.instance.task_count):
            members = self.revenue_cache.member_list(task_index)
            capacity = self.instance.tasks[task_index].capacity
            if len(members) <= capacity:
                continue
            kept = set(self.revenue_cache.counted_subset(task_index))
            for worker in [m for m in members if m not in kept]:
                self.unassign(worker)
                dropped.append(worker)
        return dropped

    def drop_incomplete_groups(self) -> list[int]:
        """Idle workers on tasks that failed to reach ``B`` members.

        The batch framework calls this before dispatching: a task below
        the minimum group size yields zero revenue and does not start, so
        its workers stay available for the next batch.
        """
        dropped: list[int] = []
        minimum = self.instance.min_group_size
        for task_index in range(self.instance.task_count):
            members = list(self.revenue_cache.member_list(task_index))
            if 0 < len(members) < minimum:
                for worker in members:
                    self.unassign(worker)
                    dropped.append(worker)
        return dropped

    def audit(self, tolerance: float = 1e-9) -> list:
        """Run the invariant auditor on this assignment.

        Convenience hook into :func:`repro.audit.invariants.
        audit_assignment`: re-derives Definition 3/4 feasibility, the
        B-threshold and Equation-2/3 revenue against a from-scratch
        oracle, returning the list of findings (empty = clean). Unlike
        :meth:`check_feasible` this also catches silent
        :class:`~repro.core.revenue.RevenueCache` drift, at oracle
        recomputation cost — use it in tests and triage, not hot paths.
        """
        from repro.audit.invariants import audit_assignment

        return audit_assignment(self, tolerance=tolerance)

    def copy(self) -> "Assignment":
        """Deep copy sharing the (immutable) instance and validity.

        The revenue state is cloned by :meth:`RevenueCache.clone` — the
        cache owns its own layout, so fields added there later are copied
        (or fail loudly) without this method knowing about them.
        """
        clone = Assignment(self.instance, self.valid_pairs, self.allow_overflow)
        clone.revenue_cache = self.revenue_cache.clone()
        clone._task_of = self._task_of.copy()
        return clone

    def __repr__(self) -> str:
        return (
            f"Assignment(workers={self.assigned_worker_count()}/"
            f"{self.instance.worker_count}, "
            f"completed_tasks={self.completed_task_count()}/"
            f"{self.instance.task_count}, score={self.total_score():.4f})"
        )
