"""Differential runner — hunt divergence between documented-identical runs.

The repo documents three equivalence families:

* the four validity strategies produce *identical* valid-pair structures
  (``repro.core.validity`` module docstring), and the vectorized grid
  construction matches its scalar per-worker reference loop
  (:func:`~repro.core.validity.compute_valid_pairs_reference`);
* the three quality-store backends are *repr-identical* under every
  solver (``repro.core.quality_store`` bit-identity contract);
* every registered approach is deterministic given its seed, so the same
  (approach, backend, strategy) combination must reproduce itself.

:func:`run_differential` executes the full cross-product
``approaches x backends x strategies`` on one instance and emits an
:class:`~repro.audit.invariants.AuditFinding` for every divergence —
plus the invariant audit of each produced assignment, so a combination
that agrees with its peers but violates Definition 3/4 or Equation 2/3
is still caught. A solver crash on any combination is converted into a
``"crash"`` finding rather than aborting the sweep (a crash on a valid
instance is itself a bug worth shrinking).
"""

from __future__ import annotations

from repro.core.assignment import Assignment
from repro.core.model import Instance
from repro.core.quality_store import (
    SharedDenseQualityStore,
    SparseQualityStore,
)
from repro.core.validity import (
    STRATEGIES,
    ValidPairs,
    compute_valid_pairs,
    compute_valid_pairs_reference,
)
from repro.audit.invariants import AuditFinding, audit_assignment

__all__ = ["BACKENDS", "run_differential", "run_sharded_check"]

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


def run_differential(
    instance: Instance,
    approaches=None,
    backends=BACKENDS,
    strategies=STRATEGIES,
    seed: int = 0,
    epsilon: float = 0.05,
    tolerance: float = 1e-9,
    audit_each: bool = True,
) -> list[AuditFinding]:
    """All divergences and invariant violations on one instance.

    Every approach is instantiated fresh (same ``seed``) for each
    (backend, strategy) combination, so seeded randomness replays
    identically; the first combination of each approach is the reference
    and every other must match its assignment repr-exactly.
    """
    from repro.experiments.config import make_solver

    if approaches is None:
        approaches = _default_approaches()

    findings: list[AuditFinding] = []

    # Validity parity — the four strategies must agree pair-for-pair.
    pairs_by_strategy: dict[str, ValidPairs] = {}
    reference_strategy = strategies[0]
    for strategy in strategies:
        pairs_by_strategy[strategy] = compute_valid_pairs(instance, strategy)
        if (
            pairs_by_strategy[strategy].tasks_for_worker
            != pairs_by_strategy[reference_strategy].tasks_for_worker
        ):
            findings.append(
                AuditFinding(
                    check="validity-parity",
                    detail=(
                        f"strategy {strategy!r} disagrees with "
                        f"{reference_strategy!r}: "
                        f"{pairs_by_strategy[strategy].tasks_for_worker} vs "
                        f"{pairs_by_strategy[reference_strategy].tasks_for_worker}"
                    ),
                    context=f"strategy={strategy}",
                )
            )

    # The vectorized grid construction vs its scalar per-worker oracle —
    # same grid recipe, historical query_circle + _deadline_ok loop. The
    # strategy cross-check above cannot catch a bug that is symmetric
    # across the batched paths; the scalar oracle can.
    if "grid" in pairs_by_strategy:
        scalar_reference = compute_valid_pairs_reference(instance)
        if (
            scalar_reference.tasks_for_worker
            != pairs_by_strategy["grid"].tasks_for_worker
        ):
            findings.append(
                AuditFinding(
                    check="validity-parity",
                    detail=(
                        "vectorized grid membership diverges from the "
                        "scalar reference loop: "
                        f"{pairs_by_strategy['grid'].tasks_for_worker} vs "
                        f"{scalar_reference.tasks_for_worker}"
                    ),
                    context="strategy=grid vs scalar reference",
                )
            )

    variants: list[tuple[str, Instance]] = []
    cleanups = []
    try:
        for backend in backends:
            variant, cleanup = _with_backend(instance, backend)
            variants.append((backend, variant))
            if cleanup is not None:
                cleanups.append(cleanup)

        for approach in approaches:
            reference: tuple | None = None
            reference_combo = ""
            for backend, variant in variants:
                for strategy in strategies:
                    context = (
                        f"approach={approach} backend={backend} "
                        f"strategy={strategy}"
                    )
                    solver = make_solver(approach, epsilon=epsilon, seed=seed)
                    try:
                        assignment = solver(variant, pairs_by_strategy[strategy])
                    except Exception as error:
                        findings.append(
                            AuditFinding(
                                check="crash",
                                detail=f"{type(error).__name__}: {error}",
                                context=context,
                            )
                        )
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
