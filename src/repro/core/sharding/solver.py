"""Geo-sharded solving: partition -> solve-per-shard -> reconcile.

Entry point :func:`solve_sharded` scales the GT/TPG family to batches
far beyond what one monolithic solve handles: the plane is partitioned
into spatial shards (:mod:`.partition`), each shard's carved
sub-instance (:mod:`.subinstance`) is solved independently — inline or
fanned out over a :class:`~repro.utils.procpool.FanoutPool` — and the
per-shard solutions are merged and boundary-reconciled
(:mod:`.reconcile`) with bounded halo best-response passes over the
border workers.

``shards=1`` (or a plan that collapses to one shard) is a pure
passthrough to the monolithic solver — same call, same result object,
repr-identical assignment. Sharded runs are deterministic end to end:
the partition, the shard order, the merge replay and the halo player
order are all derived from sorted structures, so two same-seed
invocations produce bit-identical assignments.

The per-shard payload travels as plain picklable pieces (carved
``Instance``, local ``ValidPairs``, approach name and knobs); the
worker function is module-level for spawn-start pools.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.assignment import Assignment
from repro.core.model import Instance
from repro.core.sharding.partition import (
    ShardPlan,
    partition_instance,
    resolve_shard_request,
)
from repro.core.sharding.reconcile import merge_shard_pairs, reconcile_borders
from repro.core.sharding.subinstance import ShardInstance, carve_shard
from repro.core.stats import SolverStats
from repro.core.validity import ValidPairs, compute_valid_pairs
from repro.utils.procpool import FanoutPool

__all__ = ["SHARDABLE_APPROACHES", "ShardedSolveResult", "solve_sharded"]

#: Approaches whose shard-local solve composes with halo reconciliation.
#: (Flow/random baselines are global by nature and stay monolithic.)
SHARDABLE_APPROACHES = ("TPG", "GT", "GT+LUB", "GT+TSI", "GT+ALL")


@dataclass
class ShardedSolveResult:
    """Outcome of one sharded (or passthrough) solve.

    ``plan`` is ``None`` for the monolithic passthrough. ``stats``
    merges the per-shard solver counters, adds the halo passes' numbers
    and carries the shard/border/halo counters; ``shard_seconds`` holds
    each non-empty shard's solve wall-clock (child-measured on the pool
    path, so queueing never inflates it).
    """

    assignment: Assignment
    stats: SolverStats
    plan: ShardPlan | None = None
    shard_seconds: list[float] = field(default_factory=list)
    halo_rounds_run: int = 0
    halo_moves: int = 0
    border_seeded: int = 0


def _solve(payload: dict, wrap=None):
    """``make_solver`` -> call on the payload's instance.

    ``wrap`` (optional) decorates the made solver before the call.
    Returns the assignment and the solver's last stats (``None`` for
    uninstrumented approaches).
    """
    # Deferred: repro.experiments.config imports this package for the
    # --shards plumbing; importing it lazily keeps the layering acyclic.
    from repro.experiments.config import make_solver

    solver = make_solver(
        payload["approach"], epsilon=payload["epsilon"], seed=payload["seed"]
    )
    if wrap is not None:
        solver = wrap(solver)
    assignment = solver(payload["instance"], payload["valid_pairs"])
    stats_log = getattr(solver, "stats_log", None)
    return assignment, stats_log[-1] if stats_log else None


def _shard_solution(payload: dict, wrap=None) -> dict:
    """Solve one carved shard into plain picklable data: the shard-local
    assignment as sorted pairs, the solver's stats as a dict (``None``
    for uninstrumented approaches) and the measured solve seconds."""
    started = time.perf_counter()
    assignment, stats = _solve(payload, wrap)
    return {
        "pairs": assignment.to_pairs(),
        "stats": stats.to_dict() if stats is not None else None,
        "seconds": time.perf_counter() - started,
    }


def _solve_shard_payload(payload: dict, submitted_at: float) -> dict:
    """Pool worker: :func:`_shard_solution`; module-level for spawn-pool
    pickling."""
    return _shard_solution(payload)


def _failover_shard(
    piece: ShardInstance, payload: dict, shard_timeout: float | None
) -> dict:
    """Re-solve a crashed/hung/quarantined shard inline, in the parent.

    Goes through the anytime :class:`~repro.core.fallback.FallbackSolver`
    ladder with the shard timeout as its budget: the primary approach
    gets one more chance with real wall-clock room, and a shard whose
    primary genuinely cannot finish degrades to a cheaper tier instead
    of sinking the whole solve. With ``shard_timeout=None`` the ladder
    is a bit-identical passthrough — the failover is then simply an
    inline re-run of the primary.
    """
    # Deferred like make_solver: fallback sits above the experiments
    # layer from this package's point of view.
    from repro.core.fallback import FallbackSolver

    return _shard_solution(
        payload,
        lambda primary: FallbackSolver(
            primary,
            budget=shard_timeout,
            label=f"{payload['approach']}/shard{piece.shard}",
            seed=payload["seed"],
        ),
    )


def _passthrough(payload: dict, started: float) -> ShardedSolveResult:
    """Monolithic solve — ``shards=1`` must be repr-identical to it."""
    assignment, stats = _solve(payload)
    if stats is None:
        stats = SolverStats(solver=payload["approach"])
    stats.shard_count = 1
    stats.total_seconds = time.perf_counter() - started
    return ShardedSolveResult(assignment=assignment, stats=stats)


def solve_sharded(
    instance: Instance,
    valid_pairs: ValidPairs | None = None,
    approach: str = "GT",
    epsilon: float = 0.05,
    seed=None,
    shards: "int | str" = "auto",
    halo_rounds: int = 2,
    n_jobs: int = 1,
    shard_timeout: float | None = None,
) -> ShardedSolveResult:
    """Solve a batch by spatial shards with boundary reconciliation.

    Parameters mirror :func:`~repro.experiments.config.make_solver`
    plus the sharding knobs: ``shards`` is ``"auto"`` or an explicit
    count (``1`` = monolithic passthrough), ``halo_rounds`` bounds the
    border best-response passes, ``n_jobs`` fans shard solves out over
    a :class:`~repro.utils.procpool.FanoutPool` (``1`` solves them
    inline, in shard order).

    ``shard_timeout`` bounds each shard solve's wall-clock on the pool
    path. A shard solve that raises, times out or whose worker
    crashes/kills the pool is re-solved inline via
    :func:`_failover_shard` instead of failing the whole batch, counted
    in ``stats.shard_failures`` / ``stats.shard_failovers``.
    """
    if approach not in SHARDABLE_APPROACHES:
        raise ValueError(
            f"approach {approach!r} does not support sharded solving; "
            f"shardable: {SHARDABLE_APPROACHES}"
        )
    if halo_rounds < 0:
        raise ValueError(f"halo_rounds must be >= 0, got {halo_rounds}")
    if shard_timeout is not None and shard_timeout <= 0:
        raise ValueError(
            f"shard_timeout must be positive, got {shard_timeout}"
        )
    started = time.perf_counter()
    if valid_pairs is None:
        valid_pairs = compute_valid_pairs(instance)
    request = resolve_shard_request(shards)
    knobs = {"approach": approach, "epsilon": epsilon, "seed": seed}
    if request == 1:
        return _passthrough(
            dict(knobs, instance=instance, valid_pairs=valid_pairs), started
        )
    plan = partition_instance(instance, shards=request)
    if plan.shard_count == 1:
        return _passthrough(
            dict(knobs, instance=instance, valid_pairs=valid_pairs), started
        )
    partition_seconds = time.perf_counter() - started

    pieces: list[ShardInstance] = []
    for shard in range(plan.shard_count):
        if plan.workers_of(shard).size == 0 or plan.tasks_of(shard).size == 0:
            continue
        piece = carve_shard(instance, valid_pairs, plan, shard)
        if piece.valid_pairs.pair_count == 0:
            continue
        pieces.append(piece)
    carve_seconds = time.perf_counter() - started - partition_seconds

    payloads = [
        dict(knobs, instance=piece.instance, valid_pairs=piece.valid_pairs)
        for piece in pieces
    ]
    # Inline at n_jobs == 1 or with one shard, a process pool otherwise.
    pool = FanoutPool(
        n_jobs, timeout=shard_timeout, retries=0, chaos_scope="shard"
    )
    results = pool.run(_solve_shard_payload, payloads)
    outcomes = []
    shard_failures = 0
    for piece, payload, result in zip(pieces, payloads, results):
        if result.succeeded:
            outcomes.append(result.payload)
            continue
        # A raised, crashed, hung or quarantined shard never aborts the
        # batch: re-solve it inline via the fallback ladder.
        shard_failures += 1
        outcomes.append(_failover_shard(piece, payload, shard_timeout))

    stats = SolverStats.merged(
        SolverStats.from_dict(outcome["stats"])
        for outcome in outcomes
        if outcome["stats"] is not None
    )
    if stats is None:
        stats = SolverStats(solver=approach)
    stats.solver = approach
    stats.runs = 1
    shard_seconds = [float(outcome["seconds"]) for outcome in outcomes]

    merge_started = time.perf_counter()
    # The merged assignment reads the store: the replay reads each task
    # once and the halo passes touch few pairs per task, so building
    # their task blocks costs more than it saves (the border seeding's
    # stage 1 builds its own).
    assignment = merge_shard_pairs(
        instance,
        valid_pairs,
        (
            piece.to_global_pairs(outcome["pairs"])
            for piece, outcome in zip(pieces, outcomes)
        ),
    )
    halo_rounds_run, halo_moves, border_seeded = reconcile_borders(
        instance,
        valid_pairs,
        assignment,
        plan.border_worker_indices(),
        border_tasks=np.flatnonzero(plan.task_border),
        halo_rounds=halo_rounds,
        stats=stats,
    )
    assignment.clamp_to_capacity()
    reconcile_seconds = time.perf_counter() - merge_started
    # The merge replay, border seeding, halo passes and clamp all run on
    # the merged assignment's own revenue cache.
    stats.add_cache_counters(assignment.revenue_cache)

    stats.shard_count = plan.shard_count
    stats.border_workers = plan.border_worker_count
    stats.halo_rounds = halo_rounds_run
    stats.halo_moves = halo_moves
    stats.border_seeded = border_seeded
    stats.shard_failures = stats.shard_failovers = shard_failures
    stats.phase_seconds["partition"] = partition_seconds
    stats.phase_seconds["carve"] = carve_seconds
    stats.phase_seconds["shard_solve"] = float(np.sum(shard_seconds))
    stats.phase_seconds["reconcile"] = reconcile_seconds
    stats.total_seconds = time.perf_counter() - started
    return ShardedSolveResult(
        assignment=assignment,
        stats=stats,
        plan=plan,
        shard_seconds=shard_seconds,
        halo_rounds_run=halo_rounds_run,
        halo_moves=halo_moves,
        border_seeded=border_seeded,
    )
