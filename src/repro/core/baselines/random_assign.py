"""RAND baseline — Section VI-A.

"It randomly chooses a task, and then randomly assigns a set of valid
workers to it." Tasks are visited in random order; each receives up to
``a_j`` uniformly chosen available valid workers. Groups that end below
the minimum size ``B`` release their workers back to the pool so they
remain usable by later tasks — without this, RAND strands workers on
hopeless tasks and scores even worse than the paper reports.

The draws never read the revenue state, so every pair reaches the
assignment in one :meth:`~repro.core.assignment.Assignment.assign_pairs`
call at the end, bit for bit the state of one ``assign`` per pair.
"""

from __future__ import annotations

import numpy as np

from repro.core.assignment import Assignment
from repro.core.model import Instance
from repro.core.validity import ValidPairs, compute_valid_pairs
from repro.utils.rng import ensure_rng

__all__ = ["solve_random"]


def solve_random(
    instance: Instance,
    valid_pairs: ValidPairs | None = None,
    seed=None,
) -> Assignment:
    """Random valid assignment (the paper's RAND baseline)."""
    if valid_pairs is None:
        valid_pairs = compute_valid_pairs(instance)
    rng = ensure_rng(seed)
    assignment = Assignment(instance, valid_pairs)
    available = np.ones(instance.worker_count, dtype=bool)
    pairs = []

    task_order = rng.permutation(instance.task_count)
    for task in task_order:
        candidates = [
            worker
            for worker in valid_pairs.workers_for_task[task]
            if available[worker]
        ]
        if len(candidates) < instance.min_group_size:
            continue
        capacity = instance.tasks[task].capacity
        take = min(capacity, len(candidates))
        chosen = rng.choice(len(candidates), size=take, replace=False)
        for local in chosen:
            worker = candidates[int(local)]
            pairs.append((worker, int(task)))
            available[worker] = False
    assignment.assign_pairs(pairs)
    return assignment
