"""The ``repro audit`` session — corpus replay, budgeted fuzzing, self-test.

:func:`run_audit` is what the CLI subcommand drives: replay every
committed corpus entry through the differential runner, then fuzz fresh
boundary-biased instances until the wall-clock budget runs out. Any
failing instance is greedily shrunk to a minimal repro and serialized
(CI uploads these as artifacts; a maintainer commits the interesting
ones into the corpus — see docs/AUDIT.md).

:func:`run_self_test` is the harness's proof of usefulness (mutation
testing in miniature). It injects a deliberate pair-sum off-by-one into
:class:`~repro.core.revenue.RevenueCache` and asserts the audit loop
detects the divergence and shrinks the repro to a handful of workers.
Then, for every axis of :data:`~repro.audit.differential.AXES` with a
mutation, it counts how many of the first :data:`KILL_BUDGET` fuzzed
instances the axis flags under that mutation, and fails below
:data:`KILL_RATE_FLOOR`. A harness that cannot catch the class of bug
it exists for is worse than none — this keeps it honest on every CI
run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.model import Instance
from repro.core.validity import compute_valid_pairs
from repro.audit.corpus import iter_corpus, save_corpus_entry
from repro.audit.differential import (
    AXES,
    BACKENDS,
    _with_backend,
    injected_block_bug,
    injected_join_gain_bug,
    injected_pair_sum_bug,
    injected_stage_one_bug,
    injected_stage_two_bug,
    run_axis,
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
    "injected_stage_one_bug",
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
#: The self-test runs each axis mutation over this many fuzzed
#: instances: the first ones of the session seed.
KILL_BUDGET = 200

#: The lowest share of those instances an axis must flag under its
#: mutation: 4 of 200, below every count measured on seeds 0-4 (block
#: 81-97, stage 1 24-33, round 9-16, stage 2 9-14).
KILL_RATE_FLOOR = 0.02


@dataclass(frozen=True)
class SelfTestResult:
    """Outcome of one mutation self-test run: the injected pair-sum bug
    (detected, where, shrunk to what), and one ``(name, kills, tried)``
    row per axis mutation — how many of ``tried`` fuzzed instances the
    axis ``name`` flagged under it."""

    detected: bool
    instances_until_detection: int
    shrunk_workers: int
    shrunk_tasks: int
    findings: tuple[AuditFinding, ...] = ()
    kill_rows: tuple[tuple[str, int, int], ...] = ()

    @property
    def ok(self) -> bool:
        """Pair-sum bug caught and shrunk to at most 6 workers / 3 tasks,
        every kill rate at or above :data:`KILL_RATE_FLOOR`."""
        return (
            self.detected
            and self.shrunk_workers <= 6
            and self.shrunk_tasks <= 3
            and all(
                kills >= KILL_RATE_FLOOR * tried for _, kills, tried in self.kill_rows
            )
        )

    def summary(self) -> str:
        if self.detected:
            pair_sum = (
                f"detected after {self.instances_until_detection} instance(s), "
                f"shrunk to {self.shrunk_workers} worker(s) / "
                f"{self.shrunk_tasks} task(s) (contract: at most 6 / 3)"
            )
        else:
            pair_sum = (
                f"not detected within {self.instances_until_detection} instance(s)"
            )
        verdict = "passed" if self.ok else "FAILED"
        return "\n".join(
            [f"self-test {verdict}: injected pair-sum bug {pair_sum}"]
            + [
                f"  {name} mutation: killed on {kills}/{tried} fuzzed "
                f"instances (floor {KILL_RATE_FLOOR:.0%})"
                for name, kills, tried in self.kill_rows
            ]
        )


def run_self_test(
    seed: int = 0,
    max_instances: int = 100,
    offset: float = 1.0,
    approaches=("PGREEDY",),
    backends=("dense",),
) -> SelfTestResult:
    """Prove the harness catches its mutations.

    Each axis mutation runs over the first :data:`KILL_BUDGET` fuzzed
    instances of ``seed``, its axis on the mutation's backend, and gives
    one kill row. Then the pair-sum off-by-one: a single cheap
    deterministic approach on one backend is enough — the mutation
    corrupts the revenue cache itself, which the invariant auditor's
    oracle recomputation flags regardless of which solver built the
    assignment. Runs entirely under :func:`injected_pair_sum_bug`,
    including the shrink, and reports the minimal repro size.
    """
    kill_rows = tuple(
        (axis.name, _kills(axis, seed), KILL_BUDGET)
        for axis in AXES
        if axis.mutation is not None
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
                kill_rows=kill_rows,
            )
    return SelfTestResult(
        detected=False,
        instances_until_detection=max_instances,
        shrunk_workers=0,
        shrunk_tasks=0,
        kill_rows=kill_rows,
    )


def _kills(axis, seed: int) -> int:
    """How many of the first :data:`KILL_BUDGET` fuzzed instances
    ``axis`` flags under its mutation."""
    kills = 0
    with axis.mutation():
        for index in range(KILL_BUDGET):
            instance, cleanup = _with_backend(
                fuzz_instance((seed, index)), axis.mutation_backend
            )
            pairs = compute_valid_pairs(instance)
            findings = run_axis(axis, instance, pairs, axis.mutation_backend, seed)
            kills += any(finding.check == axis.name for finding in findings)
            if cleanup is not None:
                cleanup()
    return kills
