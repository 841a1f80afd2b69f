"""Boundary reconciliation — merging shard solutions and halo re-solve.

Per-shard solves are independent and tasks belong to exactly one shard,
so the merged assignment is capacity-feasible by construction; what it
can miss are *cross-shard* deviations of border workers (a border
worker may prefer a task in a neighbouring shard it never saw during
its shard-local solve). :func:`reconcile_borders` runs bounded
best-response passes over exactly those workers against the *global*
validity structure — the same :class:`~repro.core.game.
_BestResponseDynamics` engine as the GT solver, so every move is a
potential-increasing step (Theorem V.1) and the merged score is
monotone non-decreasing through reconciliation. Passes stop early when
a full border round makes no move (no cross-shard deviation improves
any border worker's utility) or after ``halo_rounds`` passes.

One class of loss best-response cannot repair on its own: a task whose
*every* viable group mixes workers from different shards sits empty
after the merge, and joining a below-minimum task has zero utility, so
no single halo move starts one. :func:`seed_border_groups` bootstraps
exactly those groups — TPG stage 1 replayed on the frontier of empty
border tasks and still-unassigned border workers — before the halo
passes grow and rebalance them.

Border workers are played in ascending global index order — the same
order the monolithic sequential dynamics would visit them — which keeps
sharded runs bit-reproducible across same-seed invocations.
"""

from __future__ import annotations

import numpy as np

from repro.core.assignment import UNASSIGNED, Assignment
from repro.core.game import DEFAULT_TOLERANCE, _BestResponseDynamics
from repro.core.model import Instance
from repro.core.stats import SolverStats
from repro.core.tpg import seed_groups
from repro.core.validity import ValidPairs

__all__ = ["merge_shard_pairs", "reconcile_borders", "seed_border_groups"]


def merge_shard_pairs(
    instance: Instance,
    valid_pairs: ValidPairs,
    shard_pairs,
) -> Assignment:
    """Replay per-shard ``(worker, task)`` pairs into one assignment.

    ``shard_pairs`` is an iterable of global-id pair lists, one per
    shard *in shard order* — together with each list being sorted
    (``Assignment.to_pairs`` output), the replay order, and hence the
    incremental revenue state, is deterministic. Overflow is enabled so
    the reconcile dynamics can model crowd-out on the merged state.
    """
    assignment = Assignment(instance, valid_pairs, allow_overflow=True)
    for shard, pairs in enumerate(shard_pairs):
        for worker, task in pairs:
            try:
                assignment.assign(int(worker), int(task))
            except Exception as error:
                # A bad pair here means a shard produced (or a failover
                # re-solve returned) an assignment that does not map back
                # into the global instance — name the shard so the repro
                # is findable instead of surfacing a bare index error.
                raise RuntimeError(
                    f"shard {shard} merge failed replaying pair "
                    f"(worker={worker}, task={task}): {error}"
                ) from error
    return assignment


def seed_border_groups(
    instance: Instance,
    valid_pairs: ValidPairs,
    assignment: Assignment,
    border_workers,
    border_tasks,
    stats: SolverStats | None = None,
) -> int:
    """Bootstrap the cross-shard groups best-response cannot form.

    TPG stage 1 replayed on the boundary frontier: for every *empty*
    border task, the best minimum-size group drawn from the
    still-unassigned border workers; the highest-revenue group commits
    first (lowest task id on exact ties), members leave the pool, and
    stale cached groups recompute — the stage-1 loop
    (:func:`~repro.core.tpg.seed_groups`), restricted to the entities the
    shard-local solves were blind to. Only strictly positive-revenue
    groups commit, so the merged score is monotone non-decreasing, and
    the paper's wider-candidate tie rule is not replayed; the halo
    passes afterwards grow and rebalance the new groups through ordinary
    best-response. Deterministic throughout (first-max commits),
    preserving sharded-run bit-reproducibility. Returns the number of
    workers seeded.
    """
    available = np.zeros(instance.worker_count, dtype=bool)
    for worker in border_workers:
        worker = int(worker)
        if assignment.task_of(worker) == UNASSIGNED:
            available[worker] = True
    if not available.any():
        return 0
    open_tasks = sorted(
        {int(task) for task in border_tasks if not assignment.members(int(task))}
    )
    committed = seed_groups(
        instance,
        valid_pairs,
        assignment,
        available,
        open_tasks,
        stats=stats,
        prefer_wider=False,
        positive_only=True,
    )
    # Every committed task was empty before, so its members are its seeds.
    return sum(assignment.assigned_count(task) for task in committed)


def reconcile_borders(
    instance: Instance,
    valid_pairs: ValidPairs,
    assignment: Assignment,
    border_workers,
    border_tasks=(),
    halo_rounds: int = 2,
    tolerance: float = DEFAULT_TOLERANCE,
    stats: SolverStats | None = None,
) -> tuple[int, int, int]:
    """Boundary repair: seed stranded groups, then bounded halo passes.

    Returns ``(rounds_run, total_moves, seeded_workers)``.
    ``assignment`` is mutated in place (it must allow overflow; callers
    clamp to capacity after). ``stats`` — when given — accumulates the
    passes' evaluation counters alongside the shard solves' merged
    numbers.
    """
    order = [int(worker) for worker in border_workers]
    seeded = 0
    if order and len(border_tasks):
        seeded = seed_border_groups(
            instance, valid_pairs, assignment, order, border_tasks,
            stats=stats,
        )
    if not order or halo_rounds <= 0:
        return 0, 0, seeded
    dynamics = _BestResponseDynamics(
        instance,
        valid_pairs,
        assignment,
        tolerance,
        lazy_update=False,
        stats=stats,
    )
    rounds_run = 0
    total_moves = 0
    for _ in range(halo_rounds):
        moves, _gain = dynamics.run_round(players=order)
        rounds_run += 1
        total_moves += moves
        if moves == 0:
            break
    return rounds_run, total_moves, seeded
