"""Swap-based local search on top of the game-theoretic solution.

A pure Nash equilibrium only rules out *unilateral* deviations: two
workers exchanging tasks (a coalitional move) can still improve the
total score. This extension polishes any starting assignment with
two kinds of moves until neither helps:

* **relocation** — move one worker to another task (the GT move, applied
  greedily on the total score rather than the worker's own utility);
* **swap** — exchange the tasks of two workers (possible even when both
  target tasks are full, which no unilateral move can achieve).

Because every accepted move strictly increases the total score and the
score is bounded, the search terminates; the result is both a Nash
equilibrium (relocations exhaust unilateral improvements — on the total
score, which by Theorem V.1 equals the mover's utility change) and
2-swap-stable. Quantifies how much of the Nash-vs-optimum gap
coalitional moves recover (see ``benchmarks/test_ablations.py``).

The search reads cooperation quality only through
:class:`~repro.core.assignment.Assignment`'s incremental scoring, so it
is agnostic to the instance's
:class:`~repro.core.quality_store.QualityStore` backend (dense, sparse
or shared memory) and produces identical moves under each.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.assignment import UNASSIGNED, Assignment
from repro.core.game import solve_game_theoretic
from repro.core.model import Instance
from repro.core.validity import ValidPairs, compute_valid_pairs
from repro.utils.deadline import current_deadline

__all__ = ["LocalSearchResult", "solve_local_search"]

DEFAULT_MAX_PASSES = 50


@dataclass(frozen=True)
class LocalSearchResult:
    """Outcome of the polish phase."""

    assignment: Assignment
    initial_score: float
    final_score: float
    relocations: int
    swaps: int
    passes: int

    @property
    def improvement(self) -> float:
        return self.final_score - self.initial_score


def solve_local_search(
    instance: Instance,
    valid_pairs: ValidPairs | None = None,
    start: Assignment | None = None,
    max_passes: int = DEFAULT_MAX_PASSES,
    tolerance: float = 1e-9,
) -> LocalSearchResult:
    """Polish an assignment with relocations and pairwise swaps.

    Parameters
    ----------
    start:
        Starting assignment; defaults to the GT+ALL solution. The object
        is copied — the caller's assignment is untouched.
    max_passes:
        Each pass scans all relocations then all swaps; the search stops
        early once a full pass accepts nothing.

    Under a budget (:func:`~repro.utils.deadline.deadline`) the search
    stops before the first relocation or swap scan past it.
    """
    deadline = current_deadline()
    if valid_pairs is None:
        valid_pairs = compute_valid_pairs(instance)
    if start is None:
        start = solve_game_theoretic(
            instance, valid_pairs, epsilon=0.0, lazy_update=True
        ).assignment
    working = start.copy()
    working.allow_overflow = False
    initial_score = working.total_score()

    relocations = 0
    swaps = 0
    passes = 0
    for _ in range(max_passes):
        passes += 1
        moved = _relocation_pass(instance, valid_pairs, working, tolerance, deadline)
        swapped = _swap_pass(instance, valid_pairs, working, tolerance, deadline)
        relocations += moved
        swaps += swapped
        if moved == 0 and swapped == 0:
            break
    return LocalSearchResult(
        assignment=working,
        initial_score=initial_score,
        final_score=working.total_score(),
        relocations=relocations,
        swaps=swaps,
        passes=passes,
    )


def _relocation_pass(
    instance: Instance,
    valid_pairs: ValidPairs,
    assignment: Assignment,
    tolerance: float,
    deadline=None,
) -> int:
    """Greedy single-worker relocations; returns accepted move count."""
    moves = 0
    for worker in range(instance.worker_count):
        if deadline is not None and deadline.passed("LSEARCH:relocate", worker=worker):
            break
        current_task = assignment.task_of(worker)
        current_utility = assignment.leave_delta(worker)
        best_task, best_value = current_task, current_utility
        for task in valid_pairs.tasks_for_worker[worker]:
            if task == current_task:
                continue
            if assignment.assigned_count(task) >= instance.tasks[task].capacity:
                continue
            gain = assignment.join_gain(worker, task)
            if gain > best_value + tolerance:
                best_task, best_value = task, gain
        # Idling is also a legal relocation when staying hurts the total.
        if 0.0 > best_value + tolerance:
            best_task, best_value = UNASSIGNED, 0.0
        if best_task != current_task:
            if current_task != UNASSIGNED:
                assignment.unassign(worker)
            if best_task != UNASSIGNED:
                assignment.assign(worker, best_task)
            moves += 1
    return moves


def _swap_pass(
    instance: Instance,
    valid_pairs: ValidPairs,
    assignment: Assignment,
    tolerance: float,
    deadline=None,
) -> int:
    """First-improvement pairwise swaps; returns accepted swap count.

    Instead of scanning all O(assigned^2) worker pairs, each worker only
    considers partners on tasks *it* is valid for — the only swaps that
    can be feasible — which cuts the candidate set to
    O(assigned * n_bar * a_bar).
    """
    swaps = 0
    assigned = [
        worker
        for worker in range(instance.worker_count)
        if assignment.task_of(worker) != UNASSIGNED
    ]
    for first in assigned:
        if deadline is not None and deadline.passed("LSEARCH:swap", worker=first):
            break
        task_a = assignment.task_of(first)
        if task_a == UNASSIGNED:
            continue  # moved by an earlier swap in this pass
        partners = [
            second
            for task_b in valid_pairs.tasks_for_worker[first]
            if task_b != task_a
            for second in assignment.members(task_b)
            if second > first
        ]
        for second in partners:
            task_b = assignment.task_of(second)
            if task_b == UNASSIGNED or task_b == task_a:
                continue
            if not (
                valid_pairs.is_valid(first, task_b)
                and valid_pairs.is_valid(second, task_a)
            ):
                continue
            before = assignment.revenue_of(task_a) + assignment.revenue_of(task_b)
            assignment.unassign(first)
            assignment.unassign(second)
            assignment.assign(first, task_b)
            assignment.assign(second, task_a)
            after = assignment.revenue_of(task_a) + assignment.revenue_of(task_b)
            if after > before + tolerance:
                swaps += 1
                task_a = assignment.task_of(first)  # == task_b now
            else:
                assignment.unassign(first)
                assignment.unassign(second)
                assignment.assign(first, task_a)
                assignment.assign(second, task_b)
    return swaps
