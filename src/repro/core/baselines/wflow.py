"""WFLOW — a quality-proxy weighted-flow baseline (extension).

MFLOW maximizes the *number* of assigned pairs and ignores cooperation
entirely. A natural stronger-but-still-flow-shaped baseline weights each
worker by a quality proxy — the Lemma V.2 score ``q_hat_{i,B}`` (the
worker's best possible average quality in any group) — and computes,
among maximum-cardinality assignments, one maximizing the summed proxy.

This is the strongest baseline expressible with edge-separable weights:
pairwise cooperation *within* a group cannot be captured that way (it is
exactly the NP-hard part), so WFLOW bounds what flow-shaped methods can
do and isolates how much of TPG/GT's advantage comes from true pairwise
reasoning rather than from merely preferring good workers.

Because the weights sit on *workers only*, the feasible worker sets form
a transversal matroid and the optimum is found greedily: process workers
in descending proxy weight, adding each via a Kuhn-style augmenting path
when one exists. This is exactly equivalent to the min-cost max-flow
formulation (asserted by tests against the SPFA min-cost flow oracle
in ``tests/mincost.py``) but runs orders of magnitude faster at the
paper's scales.
"""

from __future__ import annotations

from repro.core.assignment import Assignment
from repro.core.bounds import highest_average_quality
from repro.core.model import Instance
from repro.core.validity import ValidPairs, compute_valid_pairs

__all__ = ["solve_wflow"]


def solve_wflow(
    instance: Instance,
    valid_pairs: ValidPairs | None = None,
) -> Assignment:
    """Maximize assigned pairs, then summed per-worker quality proxies."""
    if valid_pairs is None:
        valid_pairs = compute_valid_pairs(instance)
    assignment = Assignment(instance, valid_pairs)
    if instance.worker_count == 0 or instance.task_count == 0:
        return assignment

    q_hat = [
        highest_average_quality(instance.quality, worker, instance.min_group_size)
        for worker in range(instance.worker_count)
    ]
    # Greedy over a transversal matroid: heavier workers first; each is
    # kept iff an augmenting path still exists. Ties break toward lower
    # worker index for determinism.
    order = sorted(
        range(instance.worker_count), key=lambda worker: (-q_hat[worker], worker)
    )

    slack = [task.capacity for task in instance.tasks]  # residual task room
    assigned_task = [-1] * instance.worker_count
    occupants: list[set[int]] = [set() for _ in range(instance.task_count)]

    def attach(worker: int, task: int) -> None:
        previous = assigned_task[worker]
        if previous >= 0:
            occupants[previous].discard(worker)
            slack[previous] += 1
        assigned_task[worker] = task
        occupants[task].add(worker)
        slack[task] -= 1

    def try_augment(worker: int, visited_tasks: set[int]) -> bool:
        """Kuhn augmentation with task capacities (live state)."""
        for task in valid_pairs.tasks_for_worker[worker]:
            if task in visited_tasks:
                continue
            visited_tasks.add(task)
            if slack[task] > 0:
                attach(worker, task)
                return True
            # Try to relocate any current occupant elsewhere.
            for other in list(occupants[task]):
                if try_augment(other, visited_tasks):
                    # ``other`` moved and freed one slot on ``task``.
                    attach(worker, task)
                    return True
        return False

    for worker in order:
        if valid_pairs.tasks_for_worker[worker]:
            try_augment(worker, set())

    for worker, task in enumerate(assigned_task):
        if task >= 0:
            assignment.assign(worker, task)
    # Like MFLOW, dissolve groups that missed the minimum size; WFLOW has
    # no notion of B either.
    assignment.drop_incomplete_groups()
    return assignment
