"""The ``repro audit`` session — corpus replay, budgeted fuzzing, self-test.

:func:`run_audit` is what the CLI subcommand drives: replay every
committed corpus entry through the differential runner, then fuzz fresh
boundary-biased instances until the wall-clock budget runs out. Any
failing instance is greedily shrunk to a minimal repro and serialized
(CI uploads these as artifacts; a maintainer commits the interesting
ones into the corpus — see docs/AUDIT.md).

:func:`run_self_test` is the harness's proof of usefulness: it injects a
deliberate pair-sum off-by-one into :class:`~repro.core.revenue.
RevenueCache` (mutation testing in miniature), then asserts the audit
loop detects the divergence and shrinks the repro to a handful of
workers. It also corrupts a sparse task block, shifts the shared
join kernel by one ulp and shifts TPG stage 2's initial running sums by
one ulp, and asserts the ``block-parity``, ``round-parity`` and
``stage2-parity`` axes flag them. A harness that cannot catch the class
of bug it exists for is worse than none — this keeps it honest on every
CI run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core import kernels, revenue, tpg
from repro.core.model import Instance
from repro.core.quality_store import SparseTaskBlocks
from repro.core.revenue import RevenueCache
from repro.core.validity import compute_valid_pairs
from repro.audit.corpus import iter_corpus, save_corpus_entry
from repro.audit.differential import (
    BACKENDS,
    _round_parity,
    _stage_two_parity,
    _with_backend,
    block_parity,
    run_differential,
    run_sharded_check,
)
from repro.audit.fuzzer import FuzzConfig, fuzz_instance
from repro.audit.invariants import AuditFinding
from repro.audit.shrink import shrink_instance

__all__ = [
    "AuditOutcome",
    "SelfTestResult",
    "audit_instance",
    "injected_block_bug",
    "injected_join_gain_bug",
    "injected_pair_sum_bug",
    "injected_stage_two_bug",
    "run_audit",
    "run_self_test",
]

#: Default location of the committed corpus, relative to the repo root.
DEFAULT_CORPUS_DIR = Path("tests") / "data" / "audit_corpus"


@dataclass
class AuditOutcome:
    """Everything one audit session found (and how hard it looked)."""

    findings: list[tuple[str, AuditFinding]] = field(default_factory=list)
    corpus_replayed: int = 0
    instances_fuzzed: int = 0
    elapsed_seconds: float = 0.0
    repro_paths: list[Path] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        """One human-readable line for the CLI."""
        verdict = (
            "no findings" if self.ok else f"{len(self.findings)} finding(s)"
        )
        return (
            f"audit: {verdict} over {self.corpus_replayed} corpus "
            f"entr{'y' if self.corpus_replayed == 1 else 'ies'} + "
            f"{self.instances_fuzzed} fuzzed instance(s) in "
            f"{self.elapsed_seconds:.1f}s"
        )


#: The approaches the sharded-vs-monolithic check exercises: exactly
#: the family whose zero-border solves are bit-identical (see
#: :func:`repro.audit.differential.run_sharded_check`).
SHARDED_CHECK_APPROACHES = ("GT", "TPG")


def audit_instance(
    instance: Instance,
    approaches=None,
    backends=BACKENDS,
    seed: int = 0,
    tolerance: float = 1e-9,
    sharded: bool = True,
    sharded_gap_tolerance: float | None = None,
) -> list[AuditFinding]:
    """Differential + invariant audit of one instance (see
    :func:`repro.audit.differential.run_differential`).

    ``sharded=True`` additionally cross-checks the geo-sharded solver
    against the monolithic one for GT/TPG (restricted to the requested
    ``approaches`` when given): exact equality on zero-border
    partitions always, plus a relative revenue-gap bound when
    ``sharded_gap_tolerance`` is set. The fuzz loop leaves the
    tolerance ``None`` — a fuzzed instance may place a whole potential
    group across a shard boundary, where best-response reconciliation
    legitimately cannot assemble it — while curated corpus entries
    assert the gap.
    """
    findings = run_differential(
        instance,
        approaches=approaches,
        backends=backends,
        seed=seed,
        tolerance=tolerance,
    )
    if sharded:
        checked = tuple(
            name
            for name in SHARDED_CHECK_APPROACHES
            if approaches is None or name in approaches
        )
        if checked:
            findings.extend(
                run_sharded_check(
                    instance,
                    approaches=checked,
                    gap_tolerance=sharded_gap_tolerance,
                    seed=seed,
                    tolerance=tolerance,
                )
            )
    return findings


def run_audit(
    budget: float = 30.0,
    seed: int = 0,
    corpus_dir: str | Path | None = DEFAULT_CORPUS_DIR,
    out_dir: str | Path | None = None,
    approaches=None,
    backends=BACKENDS,
    fuzz_config: FuzzConfig = FuzzConfig(),
    max_instances: int | None = None,
    tolerance: float = 1e-9,
    log=None,
) -> AuditOutcome:
    """One full audit session: corpus replay, then budgeted fuzzing.

    Parameters
    ----------
    budget:
        Wall-clock seconds for the fuzzing phase (corpus replay always
        runs to completion; ``0`` replays the corpus only).
    seed:
        Session seed; fuzzed instance ``i`` uses the derived seed
        ``(seed, i)``, so a session is reproducible end to end and any
        single instance can be regenerated by
        ``fuzz_instance((seed, i))``.
    corpus_dir:
        Directory of committed repros to replay first (``None`` skips).
    out_dir:
        Where shrunk repros of *new* failures are written (``None``
        keeps them in memory only — the findings still carry the seed).
    max_instances:
        Optional hard cap on fuzzed instances (useful in tests).
    log:
        Optional callable for progress lines (the CLI passes ``print``).
    """
    started = time.perf_counter()
    outcome = AuditOutcome()
    say = log if log is not None else (lambda message: None)

    def audit(
        instance: Instance, sharded_gap_tolerance: float | None = None
    ) -> list[AuditFinding]:
        return audit_instance(
            instance,
            approaches=approaches,
            backends=backends,
            seed=seed,
            tolerance=tolerance,
            sharded_gap_tolerance=sharded_gap_tolerance,
        )

    if corpus_dir is not None:
        for path, instance, metadata in iter_corpus(corpus_dir):
            # Curated entries additionally assert the sharded revenue
            # gap; fuzzed instances below only get the exact-equality
            # regime (see audit_instance).
            findings = audit(instance, sharded_gap_tolerance=0.01)
            outcome.corpus_replayed += 1
            if findings:
                say(f"corpus entry {path.name}: {len(findings)} finding(s)")
                outcome.findings.extend(
                    (f"corpus:{path.name}", finding) for finding in findings
                )
        say(f"replayed {outcome.corpus_replayed} corpus entries")

    index = 0
    while time.perf_counter() - started < budget:
        if max_instances is not None and outcome.instances_fuzzed >= max_instances:
            break
        instance_seed = (seed, index)
        instance = fuzz_instance(instance_seed, fuzz_config)
        findings = audit(instance)
        outcome.instances_fuzzed += 1
        index += 1
        if not findings:
            continue
        say(
            f"fuzz seed {instance_seed}: {len(findings)} finding(s) — "
            "shrinking"
        )
        shrunk = shrink_instance(instance, lambda i: bool(audit(i)))
        shrunk_findings = audit(shrunk)
        source = f"fuzz:seed={instance_seed}"
        outcome.findings.extend(
            (source, finding) for finding in shrunk_findings or findings
        )
        if out_dir is not None:
            path = save_corpus_entry(
                Path(out_dir) / f"repro_{seed}_{index - 1}.json",
                shrunk,
                description=(
                    f"shrunk from fuzz seed {instance_seed}: "
                    f"{shrunk.worker_count} workers, "
                    f"{shrunk.task_count} tasks"
                ),
                seed=instance_seed,
                findings=shrunk_findings or findings,
            )
            outcome.repro_paths.append(path)
            say(f"wrote shrunk repro to {path}")

    outcome.elapsed_seconds = time.perf_counter() - started
    return outcome


# ---------------------------------------------------------------------------
# Mutation self-test
# ---------------------------------------------------------------------------
@contextmanager
def injected_pair_sum_bug(offset: float = 1.0):
    """Temporarily mis-account every join's pair sum by ``offset``.

    The classic incremental-cache bug shape: the delta update drifts from
    the from-scratch value by a constant per operation. Installed by
    monkeypatching :meth:`RevenueCache.join`; the original method is
    always restored.
    """
    original = RevenueCache.join

    def buggy_join(self, worker: int, task: int) -> None:
        original(self, worker, task)
        if len(self._members[task]) >= 2:
            self.pair_sums[task] += offset
            self._refresh(task)

    RevenueCache.join = buggy_join
    try:
        yield
    finally:
        RevenueCache.join = original


@contextmanager
def injected_block_bug():
    """Temporarily shift every sparse task block's value table by one.

    A corrupted task-local block: each code then reads its neighbour's
    value. Installed by monkeypatching
    :meth:`SparseTaskBlocks._build_task`; the original method is always
    restored.
    """
    original = SparseTaskBlocks._build_task

    def buggy_build(self, task: int) -> None:
        original(self, task)
        _, _, start, end = self._tasks[task]
        self._values[start:end] = np.roll(self._values[start:end], 1)

    SparseTaskBlocks._build_task = buggy_build
    try:
        yield
    finally:
        SparseTaskBlocks._build_task = original


@contextmanager
def injected_join_gain_bug():
    """Temporarily shift every within-capacity join gain by one ulp, in
    the join kernel GT's scan and ``RevenueCache.join_gains`` share
    (:func:`~repro.core.kernels.fit_join_gains`). The round oracle reads
    the store itself, so ``round-parity`` must flag the shift."""
    original = kernels.fit_join_gains

    def buggy_gains(*args):
        return np.nextafter(original(*args), np.inf)

    kernels.fit_join_gains = revenue.fit_join_gains = buggy_gains
    try:
        yield
    finally:
        kernels.fit_join_gains = revenue.fit_join_gains = original


@contextmanager
def injected_stage_two_bug():
    """Temporarily shift TPG stage 2's initial running sums by one ulp
    (:func:`repro.core.tpg._slot_sums`, every slot's row and column sum
    over its task's members). The per-pair loop scores every join
    through the store, so ``stage2-parity`` must flag the shift."""
    original = tpg._slot_sums

    def buggy_sums(*args):
        return tuple(np.nextafter(sums, np.inf) for sums in original(*args))

    tpg._slot_sums = buggy_sums
    try:
        yield
    finally:
        tpg._slot_sums = original


@dataclass(frozen=True)
class SelfTestResult:
    """Outcome of one mutation self-test run: the injected pair-sum bug
    (detected, where, shrunk to what), the corrupted task block
    (``block_bug_detected`` by the ``block-parity`` axis), the
    shifted join kernel (``join_gain_bug_detected`` by ``round-parity``)
    and the shifted stage-2 running sums (``stage_two_bug_detected`` by
    ``stage2-parity``)."""

    detected: bool
    instances_until_detection: int
    shrunk_workers: int
    shrunk_tasks: int
    findings: tuple[AuditFinding, ...] = ()
    block_bug_detected: bool = False
    join_gain_bug_detected: bool = False
    stage_two_bug_detected: bool = False

    def summary(self) -> str:
        if not self.detected:
            return (
                "self-test FAILED: injected pair-sum bug not detected "
                f"within {self.instances_until_detection} instance(s)"
            )
        if not self.block_bug_detected:
            return "self-test FAILED: corrupted task block not flagged"
        if not self.join_gain_bug_detected:
            return "self-test FAILED: shifted join gains not flagged by round-parity"
        if not self.stage_two_bug_detected:
            return (
                "self-test FAILED: shifted stage-2 running sums not flagged "
                "by stage2-parity"
            )
        return (
            "self-test passed: injected pair-sum bug detected after "
            f"{self.instances_until_detection} instance(s), shrunk to "
            f"{self.shrunk_workers} worker(s) / {self.shrunk_tasks} task(s); "
            "corrupted task block flagged by block-parity; "
            "shifted join gains flagged by round-parity; "
            "shifted stage-2 running sums flagged by stage2-parity"
        )


def run_self_test(
    seed: int = 0,
    max_instances: int = 100,
    offset: float = 1.0,
    approaches=("PGREEDY",),
    backends=("dense",),
) -> SelfTestResult:
    """Prove the harness catches an injected pair-sum off-by-one.

    A single cheap deterministic approach on one backend is enough —
    the mutation corrupts the revenue cache itself, which the invariant
    auditor's oracle recomputation flags regardless of which solver
    built the assignment. Runs entirely under
    :func:`injected_pair_sum_bug`, including the shrink, and reports the
    minimal repro size. Then, under :func:`injected_block_bug`, the
    ``block-parity`` axis must flag the corrupted sparse task blocks,
    under :func:`injected_join_gain_bug` the ``round-parity`` axis the
    shifted join gains, and under :func:`injected_stage_two_bug` the
    ``stage2-parity`` axis the shifted running sums.
    """
    def block_flagged(instance: Instance) -> bool:
        instance, _ = _with_backend(instance, "sparse")
        findings = block_parity("sparse", instance, compute_valid_pairs(instance))
        return any(finding.check == "block-parity" for finding in findings)

    def rounds_flagged(instance: Instance) -> bool:
        pairs = compute_valid_pairs(instance)
        return bool(_round_parity(instance, pairs, lazy_update=False, seed=seed))

    def stage_two_flagged(instance: Instance) -> bool:
        pairs = compute_valid_pairs(instance)
        findings = _stage_two_parity("dense", instance, pairs)
        return any(finding.check == "stage2-parity" for finding in findings)

    block_bug_detected, join_gain_bug_detected, stage_two_bug_detected = (
        _flagged(mutation, check, seed, max_instances)
        for mutation, check in (
            (injected_block_bug, block_flagged),
            (injected_join_gain_bug, rounds_flagged),
            (injected_stage_two_bug, stage_two_flagged),
        )
    )
    with injected_pair_sum_bug(offset):

        def audit(instance: Instance) -> list[AuditFinding]:
            return audit_instance(
                instance,
                approaches=approaches,
                backends=backends,
                seed=seed,
                sharded=False,
            )

        for index in range(max_instances):
            instance = fuzz_instance((seed, index))
            findings = audit(instance)
            if not findings:
                continue
            shrunk = shrink_instance(instance, lambda i: bool(audit(i)))
            return SelfTestResult(
                detected=True,
                instances_until_detection=index + 1,
                shrunk_workers=shrunk.worker_count,
                shrunk_tasks=shrunk.task_count,
                findings=tuple(audit(shrunk)),
                block_bug_detected=block_bug_detected,
                join_gain_bug_detected=join_gain_bug_detected,
                stage_two_bug_detected=stage_two_bug_detected,
            )
    return SelfTestResult(
        detected=False,
        instances_until_detection=max_instances,
        shrunk_workers=0,
        shrunk_tasks=0,
        block_bug_detected=block_bug_detected,
        join_gain_bug_detected=join_gain_bug_detected,
        stage_two_bug_detected=stage_two_bug_detected,
    )


def _flagged(mutation, check, seed: int, max_instances: int) -> bool:
    """Whether ``check`` flags one of the first ``max_instances`` fuzzed
    instances under ``mutation``."""
    with mutation():
        return any(check(fuzz_instance((seed, i))) for i in range(max_instances))
