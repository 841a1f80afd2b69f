"""Differential runner — hunt divergence between documented-identical runs.

The repo documents these equivalence families:

* the vectorized grid validity path — the fresh build
  (:func:`~repro.core.validity.compute_valid_pairs`) and the
  round-to-round :class:`~repro.core.validity.IncrementalValidityIndex`
  alike — produces exactly Definition 3's pairs, as computed by the
  brute-force oracle
  (:func:`~repro.core.validity.compute_valid_pairs_reference`);
* TPG stage 1 (:func:`~repro.core.tpg.seed_groups`: cached candidate
  blocks, one bulk commit) reproduces the from-scratch loop
  (:func:`~repro.audit.reference.reference_seed_groups`) repr-exactly,
  on every backend, under both call sites' flags;
* TPG stage 2 (:func:`~repro.core.tpg._stage_two`: per-task heads over
  running cross sums, one bulk commit) reproduces the per-pair heap loop
  (:func:`~repro.audit.reference.reference_stage_two`) repr-exactly, on
  every backend, with ``allow_negative_gain`` off and on (the
  ``stage2-parity`` axis);
* GT's bulk best-response rounds
  (:meth:`~repro.core.game._BestResponseDynamics.run_round`) replay the
  per-worker loop (:func:`~repro.audit.reference.reference_round`)
  repr-exactly: each round's moves and gain, the final pairs and score,
  and the scan counters;
* the three quality-store backends are *repr-identical* under every
  solver (``repro.core.quality_store`` bit-identity contract);
* every task's block in the solve's task-block reader
  (:func:`~repro.core.quality_store.task_blocks`) — and TPG stage 1's
  pair block cut from it — equals the store's own ``block`` over the
  task's watchers, on every backend (the ``block-parity`` axis);
* every registered approach is deterministic given its seed, so the same
  (approach, backend) combination must reproduce itself.

:func:`run_differential` executes the full cross-product
``approaches x backends`` on one instance and emits an
:class:`~repro.audit.invariants.AuditFinding` for every divergence —
plus the invariant audit of each produced assignment, so a combination
that agrees with its peers but violates Definition 3/4 or Equation 2/3
is still caught. A solver crash on any combination is converted into a
``"crash"`` finding rather than aborting the sweep (a crash on a valid
instance is itself a bug worth shrinking).
"""

from __future__ import annotations

import numpy as np

from repro.core.assignment import Assignment
from repro.core.game import (
    DEFAULT_TOLERANCE,
    _initial_assignment,
    solve_game_theoretic,
)
from repro.core.model import Instance
from repro.core.quality_store import (
    SharedDenseQualityStore,
    SparseQualityStore,
    task_blocks,
)
from repro.core.stats import SolverStats
from repro.core.tpg import _stage_two, seed_groups
from repro.core.validity import (
    IncrementalValidityIndex,
    ValidPairs,
    compute_valid_pairs,
    compute_valid_pairs_reference,
)
from repro.utils.rng import ensure_rng
from repro.audit.invariants import AuditFinding, audit_assignment
from repro.audit.reference import (
    reference_round,
    reference_seed_groups,
    reference_stage_two,
    stage_one_trace,
    stage_two_trace,
)

__all__ = ["BACKENDS", "block_parity", "run_differential", "run_sharded_check"]

#: Quality-store backends the differential runner cycles through.
BACKENDS = ("dense", "sparse", "shared")


def _default_approaches() -> tuple[str, ...]:
    from repro.experiments.config import DIFFERENTIAL_APPROACH_ORDER

    return DIFFERENTIAL_APPROACH_ORDER


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


def _validity_parity(instance: Instance, pairs: ValidPairs) -> list[AuditFinding]:
    """The grid's pairs — fresh and incremental — against brute force."""
    reference = compute_valid_pairs_reference(instance).tasks_for_worker
    candidates = [("grid", pairs)]
    if len({task.task_id for task in instance.tasks}) == instance.task_count:
        # A fresh incremental index at the mean radius: a different
        # cell tiling from the fresh build's, over stable task ids.
        radii = [worker.radius for worker in instance.workers]
        index = IncrementalValidityIndex(
            cell_size=sum(radii) / len(radii) if radii else 1.0
        )
        index.sync(instance.tasks)
        candidates.append(("incremental", index.compute(instance)))
    return [
        AuditFinding(
            check="validity-parity",
            detail=(
                f"{name} membership diverges from the brute-force "
                f"reference: {candidate.tasks_for_worker} vs {reference}"
            ),
            context=f"validity={name} vs reference",
        )
        for name, candidate in candidates
        if candidate.tasks_for_worker != reference
    ]


#: Stage 1's two call sites: TPG over every worker, and the sharded
#: border seeding over a partial pool (here every worker but each third).
_STAGE_ONE_SITES = (
    ("tpg", dict(prefer_wider=True, positive_only=False), None),
    ("border", dict(prefer_wider=False, positive_only=True), 3),
)


def block_parity(
    backend: str, instance: Instance, pairs: ValidPairs
) -> list[AuditFinding]:
    """Each task's reader block against the store's block over its
    watchers, and stage 1's pair block against that block plus its
    transpose, ``array_equal`` (NaN never occurs: qualities lie in
    [0, 1])."""
    store = instance.quality
    findings = []
    reads = task_blocks(store, pairs)
    for task, watchers in enumerate(pairs.workers_for_task):
        ids = np.asarray(watchers, dtype=np.int64)
        expected = store.block(ids, ids)
        positions = reads.locate(task, ids)
        got = reads.block(positions, positions)
        pair = reads.pair_block(task, np.arange(ids.size))
        for name, value, wanted in (
            ("block", got, expected),
            ("pair block", pair, expected + expected.T),
        ):
            if not np.array_equal(value, wanted):
                row, col = np.argwhere(value != wanted)[0]
                findings.append(
                    AuditFinding(
                        check="block-parity",
                        detail=(
                            f"task {task}'s {name} differs from the "
                            f"store's at workers ({ids[row]}, {ids[col]}): "
                            f"{value[row, col]!r} vs {wanted[row, col]!r}"
                        ),
                        context=f"backend={backend}",
                    )
                )
    return findings


def _stage_one_parity(
    backend: str, instance: Instance, pairs: ValidPairs
) -> list[AuditFinding]:
    """Stage 1's cached blocks and bulk commit against the from-scratch
    loop: commits, groups, score reprs, kernel calls and revenue state."""
    findings = []
    tasks = range(instance.task_count)
    for site, flags, skip in _STAGE_ONE_SITES:
        available = np.ones(instance.worker_count, dtype=bool)
        if skip is not None:
            available[::skip] = False
        context = f"stage1={site} backend={backend}"
        try:
            cached = stage_one_trace(
                seed_groups, instance, pairs, available, tasks, **flags
            )
        except Exception as error:
            findings.append(
                AuditFinding(
                    check="crash",
                    detail=f"{type(error).__name__}: {error}",
                    context=context,
                )
            )
            continue
        scratch = stage_one_trace(
            reference_seed_groups, instance, pairs, available, tasks, **flags
        )
        if cached != scratch:
            findings.append(
                AuditFinding(
                    check="stage1-parity",
                    detail=(
                        "cached stage 1 diverges from the from-scratch "
                        f"loop: commits {cached[0]} vs {scratch[0]}"
                    ),
                    context=context,
                )
            )
    return findings


def _stage_two_parity(
    backend: str, instance: Instance, pairs: ValidPairs
) -> list[AuditFinding]:
    """Stage 2's per-task heads and bulk commit against the per-pair heap
    loop, from the same stage-1 seeding, with ``allow_negative_gain`` off
    and on: the commit trace (worker, task, gain repr),
    ``gain_evaluations`` and the final revenue-cache state."""
    findings = []
    for allow_negative_gain in (False, True):
        context = f"stage2 allow_negative_gain={allow_negative_gain} backend={backend}"
        try:
            heads = stage_two_trace(_stage_two, instance, pairs, allow_negative_gain)
        except Exception as error:
            findings.append(
                AuditFinding(
                    check="crash",
                    detail=f"{type(error).__name__}: {error}",
                    context=context,
                )
            )
            continue
        loop = stage_two_trace(
            reference_stage_two, instance, pairs, allow_negative_gain
        )
        if heads != loop:
            ours, theirs, first = heads[0], loop[0], 0
            while first < min(len(ours), len(theirs)) and ours[first] == theirs[first]:
                first += 1
            fields = [name for name in heads[2] if heads[2][name] != loop[2][name]]
            findings.append(
                AuditFinding(
                    check="stage2-parity",
                    detail=(
                        f"stage 2 diverges from the per-pair loop at commit "
                        f"{first} of {len(ours)} vs {len(theirs)}: "
                        f"{ours[first:first + 1]} vs {theirs[first:first + 1]}, "
                        f"gain evaluations {heads[1]} vs {loop[1]}, "
                        f"cache fields {fields}"
                    ),
                    context=context,
                )
            )
    return findings


#: The GT approaches the round axis replays, with their LUB flag.
_GT_LAZY_UPDATE = {"GT": False, "GT+LUB": True, "GT+TSI": False, "GT+ALL": True}

#: The scan counters the round oracle derives play by play.
_ROUND_COUNTERS = ("cache_hits", "cache_misses", "gain_evaluations",
                   "lub_invalidations")


def _round_parity(
    instance: Instance, pairs: ValidPairs, lazy_update: bool, seed: int
) -> list[AuditFinding]:
    """GT's bulk rounds against the per-worker oracle, run to convergence
    from the TPG seed and from a seeded random profile: each round's
    moves and gain, the equilibrium's pairs and score, and the scan
    counters, as :func:`reference_round` replays them."""
    findings = []
    for init in ("tpg", "random"):
        result = solve_game_theoretic(
            instance, pairs, init=init, lazy_update=lazy_update, seed=seed
        )
        replay, _ = _initial_assignment(instance, pairs, init, ensure_rng(seed))
        state, counted = {}, SolverStats()
        trace = [
            reference_round(
                replay, pairs, range(instance.worker_count), DEFAULT_TOLERANCE,
                lazy_update, state=state, stats=counted,
            )
            for _ in result.stats.rounds
        ]
        engine = (
            [(r.moves, repr(r.gain)) for r in result.stats.rounds],
            repr(result.final_score),
            [getattr(result.stats, name) for name in _ROUND_COUNTERS],
            result.equilibrium.to_pairs(),
        )
        oracle = (
            [(moves, repr(float(gain))) for moves, gain in trace],
            repr(replay.total_score()),
            [getattr(counted, name) for name in _ROUND_COUNTERS],
            replay.to_pairs(),
        )
        if engine != oracle:
            findings.append(
                AuditFinding(
                    check="round-parity",
                    detail=(
                        f"bulk rounds from the {init} start diverge from the "
                        "per-worker loop (rounds, score, counters): "
                        f"{engine[:3]} vs {oracle[:3]}"
                    ),
                )
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

    Every approach is instantiated fresh (same ``seed``) for each
    backend, so seeded randomness replays identically; the first
    backend of each approach is the reference and every other must
    match its assignment repr-exactly.
    """
    from repro.experiments.config import make_solver

    if approaches is None:
        approaches = _default_approaches()

    valid_pairs = compute_valid_pairs(instance)
    findings = _validity_parity(instance, valid_pairs)

    variants: list[tuple[str, Instance]] = []
    cleanups = []
    try:
        for backend in backends:
            variant, cleanup = _with_backend(instance, backend)
            variants.append((backend, variant))
            if cleanup is not None:
                cleanups.append(cleanup)
            findings.extend(block_parity(backend, variant, valid_pairs))
            findings.extend(_stage_one_parity(backend, variant, valid_pairs))
            findings.extend(_stage_two_parity(backend, variant, valid_pairs))

        for approach in approaches:
            reference: tuple | None = None
            reference_combo = ""
            for backend, variant in variants:
                context = f"approach={approach} backend={backend}"
                solver = make_solver(approach, epsilon=epsilon, seed=seed)
                try:
                    assignment = solver(variant, valid_pairs)
                except Exception as error:
                    findings.append(
                        AuditFinding(
                            check="crash",
                            detail=f"{type(error).__name__}: {error}",
                            context=context,
                        )
                    )
                    continue
                if approach in _GT_LAZY_UPDATE and backend == backends[0]:
                    try:
                        rounds = _round_parity(
                            variant, valid_pairs, _GT_LAZY_UPDATE[approach], seed
                        )
                    except Exception as error:
                        detail = f"{type(error).__name__}: {error}"
                        rounds = [AuditFinding(check="crash", detail=detail)]
                    findings.extend(f.with_context(context) for f in rounds)
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
        mono = make_solver(approach, epsilon=epsilon, seed=seed)(
            instance, valid_pairs
        )
        try:
            sharded = make_solver(
                approach,
                epsilon=epsilon,
                seed=seed,
                shards=shards,
                halo_rounds=halo_rounds,
            )(instance, valid_pairs)
        except Exception as error:
            findings.append(
                AuditFinding(
                    check="crash",
                    detail=f"{type(error).__name__}: {error}",
                    context=context,
                )
            )
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
