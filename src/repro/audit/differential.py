"""Differential runner — hunt divergence between documented-identical runs.

The repo documents these equivalence families. The first five are the
parity axes of :data:`AXES`, each a fast path, its oracle, the cases
and backends to run them on, and an optional self-test mutation:

* ``validity-parity`` — the grid validity path, at its own cell size
  (:func:`~repro.core.validity.compute_valid_pairs`) and over cells of
  the mean worker radius alike, produces exactly Definition 3's pairs on
  both of its sides (each worker's tasks and each task's workers), as
  the brute-force oracle
  (:func:`~repro.core.validity.compute_valid_pairs_reference`) computes
  them;
* ``block-parity`` — every task's block in the solve's task-block reader
  (:func:`~repro.core.quality_store.task_blocks`), and TPG stage 1's
  pair block cut from it, equals the store's own ``block`` over the
  task's watchers, on every backend;
* ``stage1-parity`` — TPG stage 1 (:func:`~repro.core.tpg.seed_groups`)
  reproduces the from-scratch loop
  (:func:`~repro.audit.reference.reference_seed_groups`), on every
  backend, under both call sites' flags;
* ``stage2-parity`` — TPG stage 2 (:func:`~repro.core.tpg._stage_two`)
  reproduces the per-pair heap loop
  (:func:`~repro.audit.reference.reference_stage_two`), on every
  backend, with ``allow_negative_gain`` off and on;
* ``round-parity`` — GT's bulk best-response rounds replay the
  per-worker loop (:func:`~repro.audit.reference.reference_round`),
  LUB off and on, from the TPG seed and a seeded random profile;
* the three quality-store backends are *repr-identical* under every
  solver, and every registered approach is deterministic given its seed,
  so the same (approach, backend) combination must reproduce itself.

:func:`run_differential` runs every axis (:func:`run_axis`), then the
full cross-product ``approaches x backends``, on one instance and emits
an :class:`~repro.audit.invariants.AuditFinding` for every divergence —
plus the invariant audit of each produced assignment, so a combination
that agrees with its peers but violates Definition 3/4 or Equation 2/3
is still caught. A crash in an axis or a solver is converted into a
``"crash"`` finding rather than aborting the sweep (a crash on a valid
instance is itself a bug worth shrinking).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from repro.core import kernels, revenue, tpg, validity
from repro.core.assignment import Assignment
from repro.core.game import (
    DEFAULT_MAX_ROUNDS,
    DEFAULT_TOLERANCE,
    _initial_assignment,
    solve_game_theoretic,
)
from repro.core.model import Instance
from repro.core.quality_store import (
    SharedDenseQualityStore,
    SparseQualityStore,
    SparseTaskBlocks,
    task_blocks,
)
from repro.core.revenue import RevenueCache
from repro.core.stats import SolverStats
from repro.core.tpg import _stage_two, seed_groups
from repro.core.validity import compute_valid_pairs, compute_valid_pairs_reference
from repro.utils.rng import ensure_rng
from repro.audit.invariants import AuditFinding, audit_assignment
from repro.audit.reference import (
    reference_round,
    reference_seed_groups,
    reference_stage_two,
    stage_one_trace,
    stage_two_trace,
)

__all__ = [
    "AXES",
    "BACKENDS",
    "Axis",
    "injected_block_bug",
    "injected_join_gain_bug",
    "injected_pair_sum_bug",
    "injected_stage_one_bug",
    "injected_stage_two_bug",
    "run_axis",
    "run_differential",
    "run_sharded_check",
]

#: Quality-store backends the differential runner cycles through.
BACKENDS = ("dense", "sparse", "shared")


def _with_backend(instance: Instance, backend: str):
    """The instance rebuilt on ``backend``, plus a cleanup callable."""
    dense = instance.quality.to_dense()
    if backend == "dense":
        return instance if instance.quality is dense else _swap(instance, dense), None
    if backend == "sparse":
        store = SparseQualityStore.from_dense(dense, prior=0.0)
        return _swap(instance, store), None
    if backend == "shared":
        store = SharedDenseQualityStore.create(dense)

        def cleanup() -> None:
            store.close()
            store.unlink()

        return _swap(instance, store), cleanup
    raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")


def _swap(instance: Instance, store) -> Instance:
    return Instance(
        workers=instance.workers,
        tasks=instance.tasks,
        quality=store,
        min_group_size=instance.min_group_size,
        now=instance.now,
    )


def _signature(assignment: Assignment) -> tuple:
    """The comparison key two identical runs must share, repr-exactly."""
    return (
        tuple(assignment.to_pairs()),
        repr(assignment.total_score()),
        repr(assignment),
    )


@contextmanager
def _patched(*targets):
    """Set each ``(owner, attribute, wrapper)`` target's attribute to its
    wrapper for the duration; the originals are always restored."""
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in targets]
    try:
        for owner, name, wrapper in targets:
            setattr(owner, name, wrapper)
        yield
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


def injected_pair_sum_bug(offset: float = 1.0):
    """Mis-account every join's pair sum by ``offset``.

    The classic incremental-cache bug shape: the delta update drifts from
    the from-scratch value by a constant per operation, in
    :meth:`RevenueCache.join`. The invariant audit's oracle must flag it.
    """
    join = RevenueCache.join

    def buggy_join(self, worker: int, task: int) -> None:
        join(self, worker, task)
        if len(self._members[task]) >= 2:
            self.pair_sums[task] += offset
            self._refresh(task)

    return _patched((RevenueCache, "join", buggy_join))


def injected_block_bug():
    """Shift every sparse task block's value table by one, in
    :meth:`SparseTaskBlocks._build_task`: each code then reads its
    neighbour's value, which ``block-parity`` must flag."""
    build = SparseTaskBlocks._build_task

    def buggy_build(self, task: int) -> None:
        build(self, task)
        _, _, start, end = self._tasks[task]
        self._values[start:end] = np.roll(self._values[start:end], 1)

    return _patched((SparseTaskBlocks, "_build_task", buggy_build))


def injected_join_gain_bug():
    """Shift every within-capacity join gain by one ulp, in the join
    kernel GT's scan and ``RevenueCache.join_gains`` share
    (:func:`~repro.core.kernels.fit_join_gains`). The round oracle reads
    the store itself, so ``round-parity`` must flag the shift."""
    gains = kernels.fit_join_gains

    def buggy_gains(*args):
        return np.nextafter(gains(*args), np.inf)

    return _patched(
        (kernels, "fit_join_gains", buggy_gains),
        (revenue, "fit_join_gains", buggy_gains),
    )


def injected_stage_two_bug():
    """Shift TPG stage 2's initial running sums by one ulp
    (:func:`repro.core.tpg._slot_sums`, every slot's row and column sum
    over its task's members). The per-pair loop scores every join
    through the store, so ``stage2-parity`` must flag the shift."""
    slot_sums = tpg._slot_sums

    def buggy_sums(*args):
        return tuple(np.nextafter(sums, np.inf) for sums in slot_sums(*args))

    return _patched((tpg, "_slot_sums", buggy_sums))


def injected_stage_one_bug():
    """Break TPG stage 1's selection ties the wrong way: both selection
    kernels (:func:`~repro.core.kernels.greedy_group_select`,
    :func:`~repro.core.kernels.exact_group_select`) keep the *last*
    maximum instead of the first, by running on their input reversed
    and mapping the positions back. Only tied candidates change, and the
    scalar selection loops keep the first, so ``stage1-parity`` must
    flag it on tie-prone instances."""
    greedy, exact = tpg.greedy_group_select, tpg.exact_group_select

    def last_greedy(symmetric, size):
        count = symmetric.shape[0]
        selection = greedy(symmetric[::-1, ::-1], size)
        if selection is None:
            return None
        return [count - 1 - position for position in selection[0]], selection[1]

    def last_exact(symmetric, offsets):
        best, pair_sum = exact(symmetric, offsets[:, ::-1])
        return offsets.shape[1] - 1 - best, pair_sum

    return _patched(
        (tpg, "greedy_group_select", last_greedy),
        (tpg, "exact_group_select", last_exact),
    )


@dataclass(frozen=True)
class Axis:
    """One parity axis: a fast path, its oracle and where to run them.

    ``cases(instance, seed)`` yields ``(context, kwargs)`` pairs, the
    context possibly holding a ``{backend}`` field; ``fast(instance,
    valid_pairs, **kwargs)`` and ``oracle(...)`` return comparison keys
    (nested lists, tuples and dicts of ints, reprs and never-NaN floats)
    that must be equal. The axis runs on every backend, or only on the
    first one.
    ``mutation`` is its self-test bug, counted on ``mutation_backend``.
    """

    name: str
    cases: Callable
    fast: Callable
    oracle: Callable
    every_backend: bool = True
    mutation: Callable | None = None
    mutation_backend: str = "dense"


def _validity_cases(instance: Instance, seed: int):
    yield "validity=grid vs reference", {"retile": False}
    if instance.worker_count and instance.task_count:
        yield "validity=mean-radius cells vs reference", {"retile": True}


def _grid_pairs(instance: Instance, pairs, retile: bool):
    """The grid's pairs, both sides: the fresh build's, or a join over
    cells of the mean radius — a different tiling from the fresh
    build's."""
    if retile:
        radii = [worker.radius for worker in instance.workers]
        pairs = validity._grid_join(
            instance,
            validity._max_remaining(instance),
            cell_size=sum(radii) / len(radii),
        )
    return pairs.tasks_for_worker, pairs.workers_for_task


def _reference_pairs(instance: Instance, pairs, retile: bool):
    """The brute-force oracle's rows and their transpose by a plain scan
    (not by the fast path's task-side sort)."""
    rows = compute_valid_pairs_reference(instance).tasks_for_worker
    tasks = range(instance.task_count)
    return rows, tuple(tuple(w for w, row in enumerate(rows) if t in row) for t in tasks)


def _reader_blocks(instance: Instance, pairs) -> list:
    """Each task's block in the solve's task-block reader and stage 1's
    pair block cut from it, over the task's watchers."""
    reads = task_blocks(instance.quality, pairs)
    blocks = []
    for task, watchers in enumerate(pairs.workers_for_task):
        positions = reads.locate(task, np.asarray(watchers, dtype=np.int64))
        pair = reads.pair_block(task, np.arange(len(watchers)))
        blocks.append((reads.block(positions, positions).tolist(), pair.tolist()))
    return blocks


def _store_blocks(instance: Instance, pairs) -> list:
    """The store's own ``block`` over each task's watchers, and that
    block plus its transpose (``==`` on floats: qualities are never
    NaN)."""
    blocks = []
    for watchers in pairs.workers_for_task:
        ids = np.asarray(watchers, dtype=np.int64)
        block = instance.quality.block(ids, ids)
        blocks.append((block.tolist(), (block + block.T).tolist()))
    return blocks


def _stage_one_cases(instance: Instance, seed: int):
    """Stage 1's two call sites: TPG over every worker, and the sharded
    border seeding over a partial pool (every worker but each third)."""
    every = np.ones(instance.worker_count, dtype=bool)
    pool = every.copy()
    pool[::3] = False
    tasks = range(instance.task_count)
    yield "stage1=tpg backend={backend}", dict(
        available=every, tasks=tasks, prefer_wider=True, positive_only=False
    )
    yield "stage1=border backend={backend}", dict(
        available=pool, tasks=tasks, prefer_wider=False, positive_only=True
    )


def _stage_two_cases(instance: Instance, seed: int):
    for allow in (False, True):
        yield (
            f"stage2 allow_negative_gain={allow} backend={{backend}}",
            {"allow_negative_gain": allow},
        )


#: The scan counters the round oracle derives play by play.
_ROUND_COUNTERS = ("cache_hits", "cache_misses", "gain_evaluations",
                   "lub_invalidations")


def _round_cases(instance: Instance, seed: int):
    """LUB off and on, labelled with the default lineup's GT approach of
    each flag (the round trace ignores TSI's epsilon), each run to
    convergence from the TPG seed and from a seeded random profile."""
    for approach, lazy_update in (("GT", False), ("GT+ALL", True)):
        for init in ("tpg", "random"):
            yield f"approach={approach} backend={{backend}}", dict(
                lazy_update=lazy_update, init=init, seed=seed
            )


def _engine_rounds(instance: Instance, pairs, lazy_update, init, seed) -> tuple:
    result = solve_game_theoretic(
        instance, pairs, init=init, lazy_update=lazy_update, seed=seed
    )
    return (
        [(r.moves, repr(r.gain)) for r in result.stats.rounds],
        repr(result.final_score),
        [getattr(result.stats, name) for name in _ROUND_COUNTERS],
        result.equilibrium.to_pairs(),
    )


def _replayed_rounds(instance: Instance, pairs, lazy_update, init, seed) -> tuple:
    """:func:`reference_round` from the same start until a round makes
    no move (or the engine's round cap)."""
    replay, _ = _initial_assignment(instance, pairs, init, ensure_rng(seed))
    state, counted, trace = {}, SolverStats(), []
    while len(trace) < DEFAULT_MAX_ROUNDS and (not trace or trace[-1][0]):
        moves, gain = reference_round(
            replay, pairs, range(instance.worker_count), DEFAULT_TOLERANCE,
            lazy_update, state=state, stats=counted,
        )
        trace.append((moves, repr(float(gain))))
    return (
        trace,
        repr(replay.total_score()),
        [getattr(counted, name) for name in _ROUND_COUNTERS],
        replay.to_pairs(),
    )


#: The parity axes, in the order :func:`run_differential` runs them.
AXES = (
    Axis("validity-parity", _validity_cases, _grid_pairs, _reference_pairs,
         every_backend=False),
    Axis("block-parity", lambda instance, seed: [("backend={backend}", {})],
         _reader_blocks, _store_blocks,
         mutation=injected_block_bug, mutation_backend="sparse"),
    Axis("stage1-parity", _stage_one_cases,
         partial(stage_one_trace, seed_groups),
         partial(stage_one_trace, reference_seed_groups),
         mutation=injected_stage_one_bug),
    Axis("stage2-parity", _stage_two_cases,
         partial(stage_two_trace, _stage_two),
         partial(stage_two_trace, reference_stage_two),
         mutation=injected_stage_two_bug),
    Axis("round-parity", _round_cases, _engine_rounds, _replayed_rounds,
         every_backend=False, mutation=injected_join_gain_bug),
)


def _crash(context: str, error: Exception, prefix: str = "") -> AuditFinding:
    """The ``crash`` finding for an exception raised under ``context``."""
    detail = f"{prefix}{type(error).__name__}: {error}"
    return AuditFinding(check="crash", detail=detail, context=context)


def _first_difference(ours, theirs, where: str = "key") -> str:
    """Where two comparison keys first differ, and the two values there."""
    if isinstance(ours, dict) and isinstance(theirs, dict):
        for name in ours:
            other = theirs.get(name)
            if ours[name] != other:
                return _first_difference(ours[name], other, f"{where}[{name!r}]")
    elif isinstance(ours, (list, tuple)) and isinstance(theirs, (list, tuple)):
        for index, (mine, other) in enumerate(zip(ours, theirs)):
            if mine != other:
                return _first_difference(mine, other, f"{where}[{index}]")
        if len(ours) != len(theirs):
            return f"{where} has {len(ours)} vs {len(theirs)} entries"
    return f"{where}: {ours!r} vs {theirs!r}"


def run_axis(
    axis: Axis, instance: Instance, pairs, backend: str, seed: int = 0
) -> list[AuditFinding]:
    """Every case of ``axis`` on ``instance`` (already on ``backend``):
    a finding named after the axis for each key mismatch, a ``crash``
    finding for each exception."""
    findings = []
    for context, kwargs in axis.cases(instance, seed):
        context = context.format(backend=backend)
        try:
            ours = axis.fast(instance, pairs, **kwargs)
            theirs = axis.oracle(instance, pairs, **kwargs)
        except Exception as error:
            findings.append(_crash(context, error, prefix=f"{axis.name}: "))
            continue
        if ours != theirs:
            where = _first_difference(ours, theirs)
            detail = f"fast path diverges from its oracle at {where}"
            findings.append(
                AuditFinding(check=axis.name, detail=detail, context=context)
            )
    return findings


def run_differential(
    instance: Instance,
    approaches=None,
    backends=BACKENDS,
    seed: int = 0,
    epsilon: float = 0.05,
    tolerance: float = 1e-9,
    audit_each: bool = True,
) -> list[AuditFinding]:
    """All divergences and invariant violations on one instance.

    Every axis of :data:`AXES` runs on its backends first. Then every
    approach is instantiated fresh (same ``seed``) for each backend, so
    seeded randomness replays identically; the first backend of each
    approach is the reference and every other must match its assignment
    repr-exactly.
    """
    from repro.experiments.config import DIFFERENTIAL_APPROACH_ORDER, make_solver

    if approaches is None:
        approaches = DIFFERENTIAL_APPROACH_ORDER

    valid_pairs = compute_valid_pairs(instance)
    findings: list[AuditFinding] = []

    variants: list[tuple[str, Instance]] = []
    cleanups = []
    try:
        for backend in backends:
            variant, cleanup = _with_backend(instance, backend)
            variants.append((backend, variant))
            if cleanup is not None:
                cleanups.append(cleanup)
            for axis in AXES:
                if axis.every_backend or backend == backends[0]:
                    findings.extend(run_axis(axis, variant, valid_pairs, backend, seed))

        for approach in approaches:
            reference: tuple | None = None
            reference_combo = ""
            for backend, variant in variants:
                context = f"approach={approach} backend={backend}"
                solver = make_solver(approach, epsilon=epsilon, seed=seed)
                try:
                    assignment = solver(variant, valid_pairs)
                except Exception as error:
                    findings.append(_crash(context, error))
                    continue
                signature = _signature(assignment)
                if reference is None:
                    reference = signature
                    reference_combo = context
                elif signature != reference:
                    findings.append(
                        AuditFinding(
                            check="differential",
                            detail=(
                                f"diverges from reference "
                                f"[{reference_combo}]: {signature[2]} "
                                f"vs {reference[2]}"
                            ),
                            context=context,
                        )
                    )
                if audit_each:
                    findings.extend(
                        finding.with_context(context)
                        for finding in audit_assignment(
                            assignment, tolerance=tolerance
                        )
                    )
    finally:
        for cleanup in cleanups:
            cleanup()

    return findings


def run_sharded_check(
    instance: Instance,
    approaches: tuple[str, ...] = ("GT", "TPG"),
    shards: "int | str" = 2,
    halo_rounds: int = 2,
    gap_tolerance: float | None = 0.01,
    seed: int = 0,
    epsilon: float = 0.05,
    tolerance: float = 1e-9,
) -> list[AuditFinding]:
    """Sharded-vs-monolithic revenue comparison on one instance.

    Two regimes, chosen per instance from its partition:

    * **Zero border workers** (every shard's reach is self-contained,
      or the plan collapsed to one shard): the sharded solve must be
      *exactly* the monolithic one — same pairs, repr-identical
      recomputed score. This holds for GT (``epsilon=0``, TPG init)
      and TPG because the order-preserving id remaps keep every
      tie-break identical; the TSI variants compare round gains
      against a *global* score and are excluded from the default
      lineup for that reason.
    * **Border workers present**: sharding is an approximation (halo
      passes re-examine border deviations but cannot conjure
      cross-shard groups from nothing), so the check becomes a
      relative revenue gap against ``gap_tolerance``. Pass ``None``
      to skip the gap regime entirely — the fuzz loop does, because
      an adversarial fuzzed instance can place *all* of a task's
      potential group across a shard boundary and make any fixed
      tolerance flaky; curated corpus entries and the benchmark grid
      assert the 1% bound instead.

    The sharded assignment is also run through the invariant auditor —
    a feasibility violation is a bug regardless of the gap.
    """
    from repro.core.sharding import partition_instance
    from repro.experiments.config import make_solver

    valid_pairs = compute_valid_pairs(instance)
    plan = partition_instance(instance, shards=shards)
    zero_border = plan.border_worker_count == 0

    findings: list[AuditFinding] = []
    for approach in approaches:
        context = (
            f"approach={approach} shards={shards} "
            f"(planned {plan.shard_count}) halo_rounds={halo_rounds}"
        )
        try:
            mono = make_solver(approach, epsilon=epsilon, seed=seed)(
                instance, valid_pairs
            )
            sharded = make_solver(
                approach,
                epsilon=epsilon,
                seed=seed,
                shards=shards,
                halo_rounds=halo_rounds,
            )(instance, valid_pairs)
        except Exception as error:
            findings.append(_crash(context, error))
            continue
        findings.extend(
            finding.with_context(context)
            for finding in audit_assignment(sharded, tolerance=tolerance)
        )
        mono_score = mono.recompute_total()
        sharded_score = sharded.recompute_total()
        if zero_border or plan.shard_count == 1:
            if sharded.to_pairs() != mono.to_pairs() or repr(
                sharded_score
            ) != repr(mono_score):
                findings.append(
                    AuditFinding(
                        check="sharded-exact",
                        detail=(
                            "zero-border instance diverged from the "
                            f"monolithic solve: score {sharded_score!r} vs "
                            f"{mono_score!r}, "
                            f"{len(sharded.to_pairs())} vs "
                            f"{len(mono.to_pairs())} pairs"
                        ),
                        context=context,
                    )
                )
        elif gap_tolerance is not None:
            gap = abs(mono_score - sharded_score) / max(
                abs(mono_score), 1e-12
            )
            if gap > gap_tolerance:
                findings.append(
                    AuditFinding(
                        check="sharded-gap",
                        detail=(
                            f"revenue gap {gap:.4%} exceeds "
                            f"{gap_tolerance:.2%}: sharded "
                            f"{sharded_score!r} vs monolithic "
                            f"{mono_score!r} "
                            f"({plan.border_worker_count} border workers)"
                        ),
                        context=context,
                    )
                )
    return findings
