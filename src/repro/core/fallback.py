"""Anytime solver fallback chain — bounded-time assignment, always.

A production dispatcher cannot wait arbitrarily long for a batch
assignment: the batch interval is a hard deadline. :class:`FallbackSolver`
wraps any solver with a wall-clock budget and a degradation ladder

    primary (e.g. GT)  ->  TPG  ->  pair-greedy  ->  random

Each tier runs in a watchdog thread and is abandoned (daemon thread keeps
running, its result discarded) when the *remaining* budget expires or it
raises a :class:`~repro.utils.errors.ReproError`; the next tier gets
whatever budget is left. The final tier always runs inline with no
enforcement, so the chain returns a valid assignment no matter how small
the budget — the anytime guarantee. Every call appends a structured
:class:`DegradationRecord` (which tier answered, why the earlier tiers
did not, per-tier elapsed) to ``degradation_log``, and a
:class:`~repro.core.stats.SolverStats` entry to ``stats_log`` so the
experiment runner and CLI surface degradations exactly like any other
solver instrumentation.

With ``budget=None`` the wrapper adds no thread, no timing check and no
behavioral change: the primary runs inline and its assignment is
bit-identical to an unwrapped call.

The chain never touches the cooperation store directly — every tier goes
through the instance's :class:`~repro.core.quality_store.QualityStore`
interface — so degradation behaves identically under the dense, sparse
and shared-memory backends.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.core.assignment import Assignment
from repro.core.baselines.pair_greedy import solve_pair_greedy
from repro.core.baselines.random_assign import solve_random
from repro.core.model import Instance
from repro.core.stats import SolverStats
from repro.core.tpg import solve_tpg
from repro.core.validity import ValidPairs
from repro.utils.errors import DegradedResultError, ReproError, SolverTimeoutError
from repro.utils.rng import ensure_rng

__all__ = [
    "TierAttempt",
    "DegradationRecord",
    "FallbackSolver",
    "default_tiers",
]

SolverFn = Callable[[Instance, ValidPairs], Assignment]


@dataclass(frozen=True)
class TierAttempt:
    """What one tier of the chain did for one call.

    ``outcome`` is ``"answered"`` (its assignment was returned),
    ``"timeout"`` (abandoned at the budget), ``"error"`` (raised a
    :class:`~repro.utils.errors.ReproError`), or ``"skipped"`` (the
    budget was already exhausted when its turn came).
    """

    tier: str
    outcome: str
    seconds: float = 0.0
    error: str = ""


@dataclass(frozen=True)
class DegradationRecord:
    """Structured account of one fallback-chain call."""

    budget_seconds: float | None
    answered_by: str
    degraded: bool
    attempts: tuple[TierAttempt, ...] = ()

    @property
    def reason(self) -> str:
        """Why the primary did not answer (empty when it did)."""
        if not self.degraded:
            return ""
        first = self.attempts[0]
        return first.error if first.error else first.outcome

    def summary(self) -> str:
        """One human-readable line for CLI output."""
        if not self.degraded:
            return f"answered by {self.answered_by} within budget"
        trail = " -> ".join(
            f"{a.tier}:{a.outcome}({a.seconds * 1e3:.0f}ms)"
            for a in self.attempts
        )
        return f"DEGRADED to {self.answered_by}: {trail}"


def default_tiers(seed=None) -> tuple[tuple[str, SolverFn], ...]:
    """The standard degradation ladder below the primary.

    TPG keeps most of the cooperation score at a fraction of GT's cost;
    pair-greedy drops the task-priority seeding; seeded random is the
    O(m) floor that cannot fail or meaningfully overrun.
    """
    rng = ensure_rng(seed)

    def tpg_tier(instance: Instance, valid_pairs: ValidPairs) -> Assignment:
        return solve_tpg(instance, valid_pairs)

    def rand_tier(instance: Instance, valid_pairs: ValidPairs) -> Assignment:
        return solve_random(instance, valid_pairs, seed=rng)

    return (
        ("TPG", tpg_tier),
        ("PGREEDY", solve_pair_greedy),
        ("RAND", rand_tier),
    )


class _TierThread:
    """Runs one tier in a daemon thread so it can be abandoned."""

    def __init__(self, fn: SolverFn, instance: Instance, valid_pairs: ValidPairs):
        self.result: Assignment | None = None
        self.error: BaseException | None = None

        def target() -> None:
            try:
                self.result = fn(instance, valid_pairs)
            except BaseException as error:  # noqa: BLE001 — re-raised by caller
                self.error = error

        self.thread = threading.Thread(target=target, daemon=True)

    def run(self, budget: float | None) -> Assignment:
        """Execute with a wall-clock cap; raise on timeout or tier error."""
        self.thread.start()
        self.thread.join(budget)
        if self.thread.is_alive():
            raise SolverTimeoutError(
                f"tier exceeded its remaining budget of {budget:g}s"
            )
        if self.error is not None:
            raise self.error
        assert self.result is not None
        return self.result


class FallbackSolver:
    """Wrap a solver with a budget and the degradation ladder.

    Parameters
    ----------
    primary:
        The preferred solver (any ``(instance, valid_pairs) ->
        Assignment`` callable, e.g. from
        :func:`~repro.experiments.config.make_solver`).
    budget:
        Wall-clock budget in seconds for the *whole chain* (the final
        tier runs regardless, so a response is always produced).
        ``None`` disables enforcement entirely — the primary runs inline
        and unwatched, bit-identical to an unwrapped call.
    label:
        Display name of the primary tier (defaults to ``"primary"``).
    tiers:
        Override the ladder below the primary; defaults to
        :func:`default_tiers`.
    seed:
        Seeds the default ladder's random tier.
    on_degrade:
        ``"record"`` (default) returns the lower tier's assignment and
        records the degradation; ``"raise"`` raises
        :class:`~repro.utils.errors.DegradedResultError` after recording
        it, for callers that must not serve degraded answers.
    """

    def __init__(
        self,
        primary: SolverFn,
        budget: float | None = None,
        label: str = "primary",
        tiers: tuple[tuple[str, SolverFn], ...] | None = None,
        seed=None,
        on_degrade: str = "record",
    ) -> None:
        if budget is not None and budget <= 0:
            raise ValueError(f"budget must be positive, got {budget}")
        if on_degrade not in ("record", "raise"):
            raise ValueError(
                f"on_degrade must be 'record' or 'raise', got {on_degrade!r}"
            )
        self.primary = primary
        self.budget = budget
        self.label = label
        self.tiers = default_tiers(seed=seed) if tiers is None else tuple(tiers)
        self.on_degrade = on_degrade
        self.degradation_log: list[DegradationRecord] = []
        self.stats_log: list[SolverStats] = []

    def __call__(
        self, instance: Instance, valid_pairs: ValidPairs
    ) -> Assignment:
        started = time.perf_counter()
        if self.budget is None:
            # No budget -> no watchdog thread, no degradation: the
            # wrapped call is bit-identical to the unwrapped one.
            assignment = self.primary(instance, valid_pairs)
            self._record(
                started,
                answered_by=self.label,
                attempts=[
                    TierAttempt(
                        tier=self.label,
                        outcome="answered",
                        seconds=time.perf_counter() - started,
                    )
                ],
            )
            return assignment

        deadline = started + self.budget
        attempts: list[TierAttempt] = []
        ladder = ((self.label, self.primary), *self.tiers)
        for position, (name, fn) in enumerate(ladder):
            is_last = position == len(ladder) - 1
            remaining = deadline - time.perf_counter()
            if not is_last and remaining <= 0:
                attempts.append(TierAttempt(tier=name, outcome="skipped"))
                continue
            tier_started = time.perf_counter()
            try:
                if is_last:
                    # The floor tier runs inline and unwatched: the
                    # anytime guarantee is that *something* valid returns.
                    assignment = fn(instance, valid_pairs)
                else:
                    assignment = _TierThread(fn, instance, valid_pairs).run(
                        remaining
                    )
            except SolverTimeoutError as error:
                attempts.append(
                    TierAttempt(
                        tier=name,
                        outcome="timeout",
                        seconds=time.perf_counter() - tier_started,
                        error=str(error),
                    )
                )
                continue
            except ReproError as error:
                attempts.append(
                    TierAttempt(
                        tier=name,
                        outcome="error",
                        seconds=time.perf_counter() - tier_started,
                        error=f"{type(error).__name__}: {error}",
                    )
                )
                continue
            attempts.append(
                TierAttempt(
                    tier=name,
                    outcome="answered",
                    seconds=time.perf_counter() - tier_started,
                )
            )
            record = self._record(started, answered_by=name, attempts=attempts)
            if record.degraded and self.on_degrade == "raise":
                raise DegradedResultError(
                    f"budget {self.budget:g}s forced degradation to {name} "
                    f"({record.reason})"
                )
            return assignment
        raise AssertionError("unreachable: the floor tier always answers")

    # ------------------------------------------------------------------
    def _record(
        self,
        started: float,
        answered_by: str,
        attempts: list[TierAttempt],
    ) -> DegradationRecord:
        record = DegradationRecord(
            budget_seconds=self.budget,
            answered_by=answered_by,
            degraded=answered_by != self.label,
            attempts=tuple(attempts),
        )
        self.degradation_log.append(record)

        stats = SolverStats(
            degraded_solves=1 if record.degraded else 0,
            fallback_answers={answered_by: 1},
        )
        # Fold the primary's own instrumentation (when it answered and
        # exposes a stats_log) into the chain's entry, so counters like
        # revenue evaluations stay visible through the wrapper.
        primary_log = getattr(self.primary, "stats_log", None)
        if not record.degraded and primary_log:
            stats.merge(primary_log[-1])
        # The chain's wall-clock supersedes the folded tier timing, and
        # per-tier elapsed is reported as extra phases.
        stats.solver = f"{self.label}~anytime"
        stats.runs = 1
        stats.total_seconds = time.perf_counter() - started
        for attempt in attempts:
            if attempt.seconds > 0:
                stats.phase_seconds[f"tier:{attempt.tier}"] = attempt.seconds
        self.stats_log.append(stats)
        return record
