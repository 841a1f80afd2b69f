"""Bit-exact scalar references for the batched GT/TPG kernels.

The solvers evaluate Equation 5 and the Equation-2 best-``a_j``-subset
peel through the batched kernels of :mod:`repro.core.kernels`. The
functions here are the scalar evaluations those kernels replaced, kept
as oracles: unlike :mod:`repro.audit.invariants`, whose from-scratch
Equation 2 shares no code with the hot path and is compared within a
tolerance, these reproduce the hot path's summation order, so the tests
compare the kernels against them repr-exactly.

* :func:`reference_counted_subset` — the greedy peel, one
  ``quality.gather`` (or ``cross_sum`` per member) per peeled worker;
* :func:`reference_utilities` / :func:`reference_best_alternative` — a
  worker's best-response scan as one scalar ``join_gain`` per candidate.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.assignment import UNASSIGNED, Assignment
from repro.core.kernels import ensure_pairwise_cliff, ordered_row_sums

__all__ = [
    "reference_counted_subset",
    "reference_utilities",
    "reference_best_alternative",
]

#: Member counts up to this bound peel from one gathered submatrix,
#: summed row by row in strict left-to-right order; larger groups call
#: ``cross_sum`` once per member, whose ``ndarray.sum()`` reduces
#: pairwise from :data:`~repro.core.kernels.PAIRWISE_CLIFF` elements on.
#: Below the cliff both evaluations give the same bits.
VECTOR_PEEL_LIMIT = 7


def reference_counted_subset(
    quality, members: Sequence[int], size: int
) -> list[int]:
    """The greedy counted-subset peel, evaluated through the store.

    Repeatedly removes the member with the smallest ordered-pair
    contribution to the rest, ties peeling the *highest* worker index —
    the contract of :func:`repro.core.revenue.best_counted_subset`, which
    must match this bit for bit. Returns the kept members sorted.
    """
    if size < 0:
        raise ValueError(f"size must be non-negative, got {size}")
    kept = sorted(members)
    if len(kept) != len(set(kept)):
        raise ValueError(f"duplicate members: {kept}")
    ensure_pairwise_cliff()
    while len(kept) > size:
        if len(kept) <= VECTOR_PEEL_LIMIT:
            sub = quality.gather(np.asarray(kept, dtype=np.intp))
            # The diagonal is exactly 0.0, so including it keeps every
            # partial sum bit-identical to cross_sum over the others.
            contributions = ordered_row_sums(sub) + ordered_row_sums(sub.T)
            minimum = contributions.min()
            # kept is sorted, so the highest index is the last minimum.
            weakest = int(np.flatnonzero(contributions == minimum)[-1])
        else:
            scored = [
                (quality.cross_sum(worker, [k for k in kept if k != worker]), -worker)
                for worker in kept
            ]
            weakest = min(range(len(kept)), key=lambda idx: scored[idx])
        kept.pop(weakest)
    return kept


def reference_utilities(
    assignment: Assignment, worker: int, tasks: Sequence[int]
) -> list[float]:
    """Equation-5 utility of each of ``tasks`` for ``worker``.

    One scalar evaluation per task: ``leave_delta`` for the worker's own
    task, ``join_gain`` for every other — the floats the batched scan
    (:func:`~repro.core.kernels.score_candidates` plus the scalar fill of
    its deferred slots) must reproduce.
    """
    current = assignment.task_of(worker)
    return [
        assignment.leave_delta(worker)
        if task == current
        else assignment.join_gain(worker, task)
        for task in tasks
    ]


def reference_best_alternative(
    assignment: Assignment, worker: int, tasks: Sequence[int]
) -> tuple[int, float]:
    """The first task of ``tasks`` with the highest utility, and that
    utility; ``(UNASSIGNED, 0.0)`` when ``tasks`` is empty."""
    best_task, best_utility = UNASSIGNED, -np.inf
    for task, utility in zip(tasks, reference_utilities(assignment, worker, tasks)):
        if utility > best_utility:
            best_task, best_utility = task, utility
    if best_task == UNASSIGNED:
        return UNASSIGNED, 0.0
    return best_task, float(best_utility)
