"""Anytime solving — a wall-clock budget the solver checks itself.

A production dispatcher cannot wait arbitrarily long for a batch
assignment: the batch interval is a hard deadline. :class:`FallbackSolver`
runs any solver inline under a :func:`~repro.utils.deadline.deadline`
``budget`` seconds away. GT (between moves and rounds), TPG (between
stage-1 and stage-2 commits, also as GT's initialisation), local search
(between relocations and swaps) and pair-greedy (between commits) check
it and, once it has passed, return their feasible state so far; by
Theorem V.1 a stopped GT scores at least its TPG start. MFLOW, ONLINE,
WFLOW and RAND are single passes and run to completion. No thread is
started.

Seeded random assignment (RAND) is the floor: it runs only when the
primary raised a :class:`~repro.utils.errors.ReproError` or was
stopped, and replaces a stopped primary's answer only when it scores
higher (always when nothing was committed yet). Every call appends a
:class:`DegradationRecord` to ``degradation_log`` and a
:class:`~repro.core.stats.SolverStats` entry to ``stats_log``. With
``budget=None`` no deadline is set: the call is bit-identical to an
unwrapped one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.core.assignment import Assignment
from repro.core.baselines.random_assign import solve_random
from repro.core.model import Instance
from repro.core.stats import SolverStats
from repro.core.validity import ValidPairs
from repro.utils.deadline import deadline
from repro.utils.errors import DegradedResultError, ReproError
from repro.utils.rng import ensure_rng

__all__ = ["DegradationRecord", "FallbackSolver"]

SolverFn = Callable[[Instance, ValidPairs], Assignment]


@dataclass(frozen=True)
class DegradationRecord:
    """Account of one budgeted call.

    ``stopped_at`` is where the deadline stopped the primary (empty when
    it finished), ``error`` the :class:`~repro.utils.errors.ReproError`
    it raised (empty when none), ``seconds`` the call's wall-clock.
    """

    budget_seconds: float | None
    primary: str
    answered_by: str
    stopped_at: str = ""
    error: str = ""
    seconds: float = 0.0

    @property
    def degraded(self) -> bool:
        """Whether the answer is less than the primary's full solve."""
        return bool(self.stopped_at or self.error)

    @property
    def reason(self) -> str:
        """Why the primary's full solve was not returned (empty when it
        was)."""
        if self.error:
            return self.error
        return f"stopped at {self.stopped_at}" if self.stopped_at else ""

    def summary(self) -> str:
        """One human-readable line for CLI output."""
        if not self.degraded:
            return f"answered by {self.answered_by} within budget"
        return (
            f"DEGRADED to {self.answered_by}: {self.primary} {self.reason} "
            f"({self.seconds * 1e3:.0f}ms)"
        )


class FallbackSolver:
    """Run a solver under a wall-clock budget, with a random floor.

    Parameters
    ----------
    primary:
        The preferred solver (any ``(instance, valid_pairs) ->
        Assignment`` callable, e.g. from
        :func:`~repro.experiments.config.make_solver`).
    budget:
        Wall-clock budget in seconds: the deadline the primary's loops
        check. ``None`` sets no deadline — the primary runs unchecked,
        bit-identical to an unwrapped call.
    label:
        Display name of the primary (defaults to ``"primary"``).
    seed:
        Seeds the random floor.
    on_degrade:
        ``"record"`` (default) returns the degraded answer and records
        it; ``"raise"`` raises
        :class:`~repro.utils.errors.DegradedResultError` after recording
        it, for callers that must not serve degraded answers.
    """

    def __init__(
        self,
        primary: SolverFn,
        budget: float | None = None,
        label: str = "primary",
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
        self.rng = ensure_rng(seed)
        self.on_degrade = on_degrade
        self.degradation_log: list[DegradationRecord] = []
        self.stats_log: list[SolverStats] = []

    def __call__(
        self, instance: Instance, valid_pairs: ValidPairs
    ) -> Assignment:
        started = time.perf_counter()
        if self.budget is None:
            assignment = self.primary(instance, valid_pairs)
            self._record(started, self.label)
            return assignment

        error = ""
        with deadline(self.budget) as clock:
            try:
                assignment = self.primary(instance, valid_pairs)
            except ReproError as exc:
                error = f"{type(exc).__name__}: {exc}"
        answered_by = self.label
        if error or clock.stopped_at:
            floor = solve_random(instance, valid_pairs, seed=self.rng)
            if error or floor.total_score() > assignment.total_score():
                assignment, answered_by = floor, "RAND"
        record = self._record(started, answered_by, clock.stopped_at, error)
        if record.degraded and self.on_degrade == "raise":
            raise DegradedResultError(
                f"budget {self.budget:g}s: {record.summary()}"
            )
        return assignment

    # ------------------------------------------------------------------
    def _record(
        self,
        started: float,
        answered_by: str,
        stopped_at: str = "",
        error: str = "",
    ) -> DegradationRecord:
        record = DegradationRecord(
            budget_seconds=self.budget,
            primary=self.label,
            answered_by=answered_by,
            stopped_at=stopped_at,
            error=error,
            seconds=time.perf_counter() - started,
        )
        self.degradation_log.append(record)

        stats = SolverStats(
            degraded_solves=int(record.degraded),
            fallback_answers={answered_by: 1},
        )
        # Fold the primary's own instrumentation (when it answered and
        # exposes a stats_log) into the call's entry, so counters like
        # revenue evaluations stay visible through the wrapper.
        primary_log = getattr(self.primary, "stats_log", None)
        if answered_by == self.label and primary_log:
            stats.merge(primary_log[-1])
        stats.solver = f"{self.label}~anytime"
        stats.runs = 1
        stats.total_seconds = record.seconds
        self.stats_log.append(stats)
        return record
