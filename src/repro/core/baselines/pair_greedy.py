"""PGREEDY — pure pair-greedy assignment (TPG stage-2 ablation).

Runs TPG's second stage from an empty assignment: repeatedly commit the
single valid worker-task pair with the highest marginal gain
``DeltaQ(w_i, t_j)``, with no task-priority seeding stage. Because every
group starts below the minimum size ``B`` (where marginal gains are 0
until the B-th member arrives), the plain greedy needs a look-ahead to
get off the ground: a pair's priority falls back to the worker's mean
quality toward the task's current members when the gain is zero.

This baseline isolates the contribution of TPG's stage 1: on
community-structured instances it trails TPG because it strands partial
groups, exactly the failure mode the task-priority stage prevents.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.assignment import Assignment
from repro.core.model import Instance
from repro.core.validity import ValidPairs, compute_valid_pairs
from repro.utils.deadline import current_deadline

__all__ = ["solve_pair_greedy"]


def _priority(assignment: Assignment, worker: int, task: int) -> float:
    """Marginal gain, with a sub-B look-ahead tiebreaker.

    Below ``B`` the true gain is 0 for all joins; prioritizing by the
    worker's cross-quality to the present members steers partial groups
    toward coherent teams.
    """
    gain = assignment.join_gain(worker, task)
    if gain > 0.0:
        return gain
    members = assignment.members(task)
    if not members:
        return 0.0
    cross = assignment.instance.quality.cross_sum(worker, list(members))
    return cross / (2.0 * len(members)) * 1e-6


def solve_pair_greedy(
    instance: Instance,
    valid_pairs: ValidPairs | None = None,
) -> Assignment:
    """Greedy max-gain pair selection without task-priority seeding;
    under a budget it stops before the first scoring or commit past the
    deadline (:func:`~repro.utils.deadline.deadline`)."""
    deadline = current_deadline()
    if valid_pairs is None:
        valid_pairs = compute_valid_pairs(instance)
    assignment = Assignment(instance, valid_pairs)
    available = np.ones(instance.worker_count, dtype=bool)
    open_tasks = set(range(instance.task_count))

    versions = [0] * instance.task_count
    heap: list[tuple[float, int, int, int]] = []

    def push_task(task: int) -> None:
        for worker in valid_pairs.workers_for_task[task]:
            if available[worker]:
                heapq.heappush(
                    heap,
                    (-_priority(assignment, worker, task), versions[task], worker, task),
                )

    for task in open_tasks:
        if deadline is not None and deadline.passed("PGREEDY", commit=0):
            break
        push_task(task)

    commits = 0
    while heap and open_tasks:
        if deadline is not None and deadline.passed("PGREEDY", commit=commits):
            break
        negative_priority, version, worker, task = heapq.heappop(heap)
        if task not in open_tasks or not available[worker]:
            continue
        if version != versions[task]:
            continue
        assignment.assign(worker, task)
        available[worker] = False
        commits += 1
        versions[task] += 1
        if assignment.assigned_count(task) >= instance.tasks[task].capacity:
            open_tasks.discard(task)
        else:
            push_task(task)

    assignment.drop_incomplete_groups()
    return assignment
