"""Solver observability — counters and timings for the hot paths.

The ROADMAP's north star demands hot paths run "as fast as the hardware
allows" *with observability to prove it*. :class:`SolverStats` is the
instrument: every revenue evaluation, incremental cache update, LUB
cache hit/miss and invalidation is counted, and each best-response round
(or TPG stage) is timed with ``perf_counter``. The GT and TPG solvers
attach one to their result objects; the experiment runner and the CLI
aggregate and print them, and ``benchmarks/bench_guard.py`` persists
them as the repo's perf-trajectory record.

Counting is cheap (integer adds on the :class:`~repro.core.revenue.
RevenueCache` and the dynamics object); there is deliberately no off
switch, so the numbers are always available after a solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterable

__all__ = ["RoundStats", "SolverStats"]


@dataclass(frozen=True)
class RoundStats:
    """One best-response round (or one named solver phase).

    ``gain`` is the potential increase of the round; ``evaluations`` the
    number of candidate ``(worker, task)`` utilities scored in it.
    """

    index: int
    seconds: float
    moves: int = 0
    gain: float = 0.0
    evaluations: int = 0


@dataclass
class SolverStats:
    """Aggregated instrumentation of one (or several merged) solver runs.

    Attributes
    ----------
    solver:
        Approach label (``"GT"``, ``"TPG"``, ...).
    revenue_evaluations:
        Full Equation-2 evaluations — the expensive from-scratch path
        (overflow peeling via ``best_counted_subset`` plus the final
        subset pair sum). The incremental engine exists to keep this low.
    incremental_updates:
        O(k) per-task pair-sum delta updates (joins/leaves) served by the
        :class:`~repro.core.revenue.RevenueCache` instead of a re-sum.
    gain_evaluations:
        Candidate ``(worker, task)`` utilities scored by the solvers'
        marginal-gain machinery.
    cache_hits / cache_misses:
        LUB best-response cache: a *hit* re-evaluates only the cached
        candidate task, a *miss* rescans the worker's whole valid set.
        Without LUB every scan counts as a miss, so the hit ratio is the
        direct measure of what LUB saves.
    lub_invalidations:
        Workers marked dirty by the Theorem V.3/V.4 invalidation rules.
    total_seconds:
        Wall-clock of the instrumented section(s).
    phase_seconds:
        Named sub-phase timings (e.g. TPG ``stage1``/``stage2``, GT
        ``init``/``rounds``).
    rounds:
        Per-round timings of the best-response dynamics.
    runs:
        Number of solver invocations merged into this object.
    degraded_solves:
        Calls an anytime :class:`~repro.core.fallback.FallbackSolver`
        had to answer with a lower tier (0 for unwrapped solvers).
    fallback_answers:
        Per-tier answer counts of a fallback chain (empty for unwrapped
        solvers); sums to ``runs`` when every call went through a chain.
    kernel_fallback_calls:
        Batched kernel calls (:mod:`repro.core.kernels`): GT's round
        prepasses and row rescans plus TPG's stage-1 group evaluations.
        The name predates the removal of the compiled variant; the
        benchmark reads it as ``kernels.calls``.
    peel_kernel_calls:
        Overflow counted-subset peels run through the bulk-gather peel
        kernel (``kernels.counted_subset_select``) by the
        :class:`~repro.core.revenue.RevenueCache`.
    rescan_batches / rescan_rows:
        Mid-round dirty rescan: batched refresh calls issued after
        accepted moves, and how many stale prepass rows they re-scored
        in total.
    shard_count / border_workers / halo_rounds / halo_moves:
        Geo-sharded solving (:mod:`repro.core.sharding`): number of
        spatial shards the instance was split into (1 = monolithic or
        ``--shards 1`` passthrough), workers classified as border (their
        reach touches a differently-sharded cell), halo-reconcile
        best-response rounds actually run, and strategy changes those
        rounds made. All zero for unsharded solves.
    border_seeded:
        Workers placed by the boundary group-seeding pass (cross-shard
        groups best-response alone cannot bootstrap; see
        :func:`repro.core.sharding.reconcile.seed_border_groups`).
    shard_failures / shard_failovers:
        Shard solves that crashed, hung past ``shard_timeout`` or were
        quarantined (failures), and how many of those were recovered by
        the inline fallback-ladder re-solve (failovers). Both zero on a
        healthy run.
    """

    solver: str = ""
    revenue_evaluations: int = 0
    incremental_updates: int = 0
    gain_evaluations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    lub_invalidations: int = 0
    total_seconds: float = 0.0
    phase_seconds: dict[str, float] = field(default_factory=dict)
    rounds: list[RoundStats] = field(default_factory=list)
    runs: int = 1
    degraded_solves: int = 0
    fallback_answers: dict[str, int] = field(default_factory=dict)
    kernel_fallback_calls: int = 0
    peel_kernel_calls: int = 0
    rescan_batches: int = 0
    rescan_rows: int = 0
    shard_count: int = 0
    border_workers: int = 0
    halo_rounds: int = 0
    halo_moves: int = 0
    border_seeded: int = 0
    shard_failures: int = 0
    shard_failovers: int = 0

    def merge(self, other: "SolverStats") -> "SolverStats":
        """Accumulate another run's counters into this object (in place).

        Per-round details are concatenated; phase timings are summed by
        name. Returns ``self`` for chaining.
        """
        if not self.solver:
            self.solver = other.solver
        self.revenue_evaluations += other.revenue_evaluations
        self.incremental_updates += other.incremental_updates
        self.gain_evaluations += other.gain_evaluations
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.lub_invalidations += other.lub_invalidations
        self.total_seconds += other.total_seconds
        for name, seconds in other.phase_seconds.items():
            self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds
        self.degraded_solves += other.degraded_solves
        for tier, count in other.fallback_answers.items():
            self.fallback_answers[tier] = (
                self.fallback_answers.get(tier, 0) + count
            )
        self.kernel_fallback_calls += other.kernel_fallback_calls
        self.peel_kernel_calls += other.peel_kernel_calls
        self.rescan_batches += other.rescan_batches
        self.rescan_rows += other.rescan_rows
        self.shard_count += other.shard_count
        self.border_workers += other.border_workers
        self.halo_rounds += other.halo_rounds
        self.halo_moves += other.halo_moves
        self.border_seeded += other.border_seeded
        self.shard_failures += other.shard_failures
        self.shard_failovers += other.shard_failovers
        self.rounds.extend(other.rounds)
        # ``runs`` adds like every other counter: an incoming object that
        # itself aggregates k runs contributes exactly k. (A previous
        # version added ``other.runs - 1`` and then skipped the final +1
        # for multi-run inputs, so merging {runs: 3} into {runs: 1}
        # yielded 3 instead of 4.)
        self.runs += other.runs
        return self

    @classmethod
    def merged(cls, runs: Iterable["SolverStats"]) -> "SolverStats | None":
        """Sum a sequence of per-run stats; ``None`` for an empty one."""
        total: SolverStats | None = None
        for stats in runs:
            if total is None:
                total = SolverStats(solver=stats.solver, runs=0)
            total.merge(stats)
        if total is not None and total.runs == 0:
            total.runs = 1
        return total

    @property
    def kernel_compiled_calls(self) -> int:
        """Always 0: there is no compiled kernel variant any more. Kept,
        read-only, because ``bench/workloads.py`` still reads it."""
        return 0

    @property
    def cache_hit_ratio(self) -> float:
        """LUB hits over all best-response scans (0 when none ran)."""
        scans = self.cache_hits + self.cache_misses
        return self.cache_hits / scans if scans else 0.0

    def to_dict(self) -> dict:
        """JSON-ready representation (used by ``bench_guard``)."""
        return {
            "solver": self.solver,
            "revenue_evaluations": self.revenue_evaluations,
            "incremental_updates": self.incremental_updates,
            "gain_evaluations": self.gain_evaluations,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "lub_invalidations": self.lub_invalidations,
            "total_seconds": self.total_seconds,
            "phase_seconds": dict(self.phase_seconds),
            "rounds": [
                {
                    "index": r.index,
                    "seconds": r.seconds,
                    "moves": r.moves,
                    "gain": r.gain,
                    "evaluations": r.evaluations,
                }
                for r in self.rounds
            ],
            "runs": self.runs,
            "degraded_solves": self.degraded_solves,
            "fallback_answers": dict(self.fallback_answers),
            "kernel_fallback_calls": self.kernel_fallback_calls,
            "peel_kernel_calls": self.peel_kernel_calls,
            "rescan_batches": self.rescan_batches,
            "rescan_rows": self.rescan_rows,
            "shard_count": self.shard_count,
            "border_workers": self.border_workers,
            "halo_rounds": self.halo_rounds,
            "halo_moves": self.halo_moves,
            "border_seeded": self.border_seeded,
            "shard_failures": self.shard_failures,
            "shard_failovers": self.shard_failovers,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SolverStats":
        """Inverse of :meth:`to_dict` (used by the sweep checkpoint
        journal). Tolerates records written before newer fields existed,
        and ignores keys of fields since dropped (e.g.
        ``kernel_compile_seconds``)."""
        known = {f.name for f in fields(cls)}
        payload = {key: value for key, value in payload.items() if key in known}
        rounds = [RoundStats(**entry) for entry in payload.pop("rounds", [])]
        return cls(rounds=rounds, **payload)

    def summary(self) -> str:
        """One human-readable line for CLI/benchmark output."""
        parts = [
            f"evals={self.gain_evaluations}",
            f"full_Q={self.revenue_evaluations}",
            f"incr={self.incremental_updates}",
        ]
        if self.cache_hits or self.cache_misses:
            parts.append(
                f"lub_hit={self.cache_hit_ratio:.0%}"
                f" inval={self.lub_invalidations}"
            )
        if self.rounds:
            parts.append(f"rounds={len(self.rounds)}")
        if self.fallback_answers:
            answers = ",".join(
                f"{tier}:{count}"
                for tier, count in sorted(self.fallback_answers.items())
            )
            parts.append(f"degraded={self.degraded_solves} via={answers}")
        if self.kernel_fallback_calls:
            parts.append(f"kernels={self.kernel_fallback_calls}")
        if self.peel_kernel_calls:
            parts.append(f"peel={self.peel_kernel_calls}k")
        if self.rescan_batches:
            parts.append(
                f"rescan={self.rescan_batches}b/{self.rescan_rows}r"
            )
        if self.shard_count > 1:
            parts.append(
                f"shards={self.shard_count} border={self.border_workers}"
                f" halo={self.halo_rounds}r/{self.halo_moves}m"
                f" seeded={self.border_seeded}"
            )
        if self.shard_failures or self.shard_failovers:
            parts.append(
                f"shard_failures={self.shard_failures}"
                f" failovers={self.shard_failovers}"
            )
        for name, seconds in self.phase_seconds.items():
            parts.append(f"{name}={seconds * 1e3:.1f}ms")
        parts.append(f"total={self.total_seconds * 1e3:.1f}ms")
        return " ".join(parts)
