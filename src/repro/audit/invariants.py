"""Invariant auditor — Definition 3/4 and Equation 2/3 from first principles.

:func:`audit_assignment` takes any :class:`~repro.core.assignment.
Assignment` and re-derives every guarantee the solver stack promises,
against implementations that deliberately share *no* code with the hot
path beyond the quality store's reads:

* **Definition 3 validity** — each assigned pair is re-checked with
  :meth:`~repro.core.model.Instance.is_pair_valid` (pointwise geometry,
  not the spatial-index range queries of ``compute_valid_pairs``);
* **Definition 4 disjointness** — no worker appears in two task groups,
  and the worker->task map agrees with the per-task member lists;
* **Definition 4 capacity** — no group exceeds ``a_j`` (skipped while
  ``allow_overflow`` is set, i.e. mid-solve crowd-out states);
* **B-threshold** — groups below the minimum size ``B`` yield exactly
  zero revenue;
* **Equation 2 / 3 revenue** — every cached per-task revenue and the
  total are recomputed by :func:`oracle_group_revenue`, scalar Python
  arithmetic over one ``quality.block`` read per group (including its
  own greedy peel with the documented highest-index tie-break), catching
  :class:`~repro.core.revenue.RevenueCache` drift.

The oracle adds in Equation 2's left-to-right order, but the cache
builds a pair sum from one cross sum per join (Equation 4's delta form),
a different association, so revenues are compared within a relative
``tolerance`` (default ``1e-9`` — far above float reassociation noise,
far below any genuine accounting bug). The fuzzer keeps qualities on a
dyadic grid, making its oracle comparisons exact in practice. Cache
*drift* — the incremental total diverging from
:meth:`~repro.core.assignment.Assignment.recompute_total` — is held to
the same tolerance: the incremental pair sum adds one ``cross_sum`` per
join while the recompute reduces the gathered submatrix in one pass, so
the two association orders differ and identical state can still disagree
by an ulp (dyadic qualities shrink but do not eliminate the noise, since
partial sums leave the grid).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.assignment import UNASSIGNED, Assignment

__all__ = [
    "AuditFinding",
    "audit_assignment",
    "oracle_group_revenue",
    "oracle_pair_sum",
    "oracle_counted_subset",
    "oracle_total",
]


@dataclass(frozen=True)
class AuditFinding:
    """One violated invariant (or divergence) found by the harness.

    ``check`` is a stable machine-readable label (``"definition3"``,
    ``"definition4-disjoint"``, ``"definition4-capacity"``,
    ``"b-threshold"``, ``"equation2"``, ``"equation3"``,
    ``"revenue-drift"``, ``"validity-parity"``, ``"stage1-parity"``,
    ``"round-parity"``, ``"differential"``, ``"crash"``); ``context``
    carries the approach/backend combination that produced it (empty for
    direct assignment audits).
    """

    check: str
    detail: str
    context: str = ""
    task: int | None = None
    worker: int | None = None

    def __str__(self) -> str:
        where = f" ({self.context})" if self.context else ""
        return f"[{self.check}]{where} {self.detail}"

    def with_context(self, context: str) -> "AuditFinding":
        """A copy labelled with the producing combination."""
        return AuditFinding(
            check=self.check,
            detail=self.detail,
            context=context,
            task=self.task,
            worker=self.worker,
        )


# ---------------------------------------------------------------------------
# The from-scratch Equation-2 oracle (pure-Python arithmetic)
# ---------------------------------------------------------------------------
def oracle_pair_sum(quality, members) -> float:
    """Equation 2's numerator: scalar Python adds over the members'
    qualities, read in one ``block``."""
    values = quality.block(members, members).tolist()
    total = 0.0
    for i, row in zip(members, values):
        for k, value in zip(members, row):
            if i != k:
                total += value
    return total


def oracle_counted_subset(quality, members, size: int) -> list[int]:
    """Greedy peel mirroring :func:`repro.core.revenue.best_counted_subset`.

    Same contract — repeatedly drop the member with the smallest ordered
    pair contribution, ties peeling the *highest* worker index — but
    evaluated with Python arithmetic over one ``block`` read. A
    member's contribution is its row over the others, summed in member
    order, plus its column summed the same way: Equation 2's order, so
    near-ties peel as the kernel does.
    """
    kept = sorted(members)
    values = quality.block(kept, kept).tolist()
    at = {worker: position for position, worker in enumerate(kept)}
    while len(kept) > size:
        weakest_position = None
        weakest_key: tuple[float, int] | None = None
        for position, worker in enumerate(kept):
            row = column = 0.0
            for other in kept:
                if other != worker:
                    row += values[at[worker]][at[other]]
                    column += values[at[other]][at[worker]]
            key = (row + column, -worker)
            if weakest_key is None or key < weakest_key:
                weakest_key = key
                weakest_position = position
        kept.pop(weakest_position)
    return kept


def oracle_group_revenue(
    quality, members, capacity: int, min_group_size: int
) -> float:
    """Equation 2 evaluated from scratch (oracle twin of
    :func:`repro.core.revenue.group_revenue`)."""
    count = len(members)
    if count < min_group_size:
        return 0.0
    if count > capacity:
        members = oracle_counted_subset(quality, members, capacity)
        count = capacity
    if count < 2:
        return 0.0
    return oracle_pair_sum(quality, members) / (count - 1)


def oracle_total(assignment: Assignment) -> float:
    """Equation 3 via the oracle: summed per-task oracle revenues."""
    instance = assignment.instance
    return sum(
        oracle_group_revenue(
            instance.quality,
            assignment.members(task),
            instance.tasks[task].capacity,
            instance.min_group_size,
        )
        for task in range(instance.task_count)
    )


# ---------------------------------------------------------------------------
# The auditor
# ---------------------------------------------------------------------------
def _relative_close(actual: float, expected: float, tolerance: float) -> bool:
    return abs(actual - expected) <= tolerance * max(1.0, abs(expected))


def audit_assignment(
    assignment: Assignment, tolerance: float = 1e-9
) -> list[AuditFinding]:
    """Every invariant violation of one assignment, as findings.

    An empty list certifies Definition 3/4 feasibility, the B-threshold
    and Equation 2/3 agreement between the incremental cache and the
    from-scratch oracle. See the module docstring for the check list.
    """
    findings: list[AuditFinding] = []
    instance = assignment.instance
    minimum = instance.min_group_size

    # Definition 4 — disjointness and map/member-list consistency.
    owner: dict[int, int] = {}
    for task in range(instance.task_count):
        for worker in assignment.members(task):
            if worker in owner:
                findings.append(
                    AuditFinding(
                        check="definition4-disjoint",
                        detail=(
                            f"worker {worker} appears in task {owner[worker]} "
                            f"and task {task}"
                        ),
                        task=task,
                        worker=worker,
                    )
                )
            else:
                owner[worker] = task
            if assignment.task_of(worker) != task:
                findings.append(
                    AuditFinding(
                        check="definition4-disjoint",
                        detail=(
                            f"worker {worker} listed on task {task} but "
                            f"mapped to {assignment.task_of(worker)}"
                        ),
                        task=task,
                        worker=worker,
                    )
                )
    for worker in range(instance.worker_count):
        task = assignment.task_of(worker)
        if task != UNASSIGNED and worker not in owner:
            findings.append(
                AuditFinding(
                    check="definition4-disjoint",
                    detail=(
                        f"worker {worker} mapped to task {task} but absent "
                        "from its member list"
                    ),
                    task=task,
                    worker=worker,
                )
            )

    for task in range(instance.task_count):
        members = assignment.members(task)
        capacity = instance.tasks[task].capacity

        # Definition 4 — capacity (crowd-out states are exempt).
        if not assignment.allow_overflow and len(members) > capacity:
            findings.append(
                AuditFinding(
                    check="definition4-capacity",
                    detail=(
                        f"task {task} holds {len(members)} workers, "
                        f"capacity {capacity}"
                    ),
                    task=task,
                )
            )

        # Definition 3 — pointwise geometric validity.
        for worker in members:
            if not instance.is_pair_valid(worker, task):
                findings.append(
                    AuditFinding(
                        check="definition3",
                        detail=f"pair <{worker}, {task}> is invalid",
                        task=task,
                        worker=worker,
                    )
                )

        # B-threshold — undersized groups yield exactly zero.
        cached = assignment.revenue_of(task)
        if 0 < len(members) < minimum and cached != 0.0:
            findings.append(
                AuditFinding(
                    check="b-threshold",
                    detail=(
                        f"task {task} has {len(members)} < B={minimum} "
                        f"members but revenue {cached!r}"
                    ),
                    task=task,
                )
            )

        # Equation 2 — cached per-task revenue vs the oracle.
        expected = oracle_group_revenue(
            instance.quality, members, capacity, minimum
        )
        if not _relative_close(cached, expected, tolerance):
            findings.append(
                AuditFinding(
                    check="equation2",
                    detail=(
                        f"task {task}: cached revenue {cached!r} but the "
                        f"oracle computes {expected!r} "
                        f"(members {sorted(members)})"
                    ),
                    task=task,
                )
            )

    # Equation 3 — the total against the oracle sum.
    total = assignment.total_score()
    expected_total = oracle_total(assignment)
    if not _relative_close(total, expected_total, tolerance):
        findings.append(
            AuditFinding(
                check="equation3",
                detail=(
                    f"total score {total!r} but the oracle computes "
                    f"{expected_total!r}"
                ),
            )
        )

    # Cache drift — the incremental per-task pair sum accumulates one
    # cross_sum per join (grouped by the joining worker), while
    # recompute_total reduces each task's gathered submatrix in a single
    # numpy pass. Same state, different association: totals can disagree
    # by ulp-level noise (observed: exactly one ulp on a three-member
    # group under join-order-randomizing RAND). A genuine state bug — a
    # stale member, a double-counted pair — shifts the total by a whole
    # pair quality, orders of magnitude above the tolerance.
    recomputed = assignment.recompute_total()
    if not _relative_close(total, recomputed, tolerance):
        findings.append(
            AuditFinding(
                check="revenue-drift",
                detail=(
                    f"incremental total {total!r} != from-scratch "
                    f"recompute {recomputed!r}"
                ),
            )
        )

    return findings
