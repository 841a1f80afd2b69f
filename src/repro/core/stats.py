"""Solver observability — counters and timings for the hot paths.

The ROADMAP's north star demands hot paths run "as fast as the hardware
allows" *with observability to prove it*. :class:`SolverStats` is the
instrument: every revenue evaluation, incremental cache update, LUB
cache hit/miss and invalidation is counted, and each best-response round
(or TPG stage) is timed with ``perf_counter``. The GT and TPG solvers
attach one to their result objects; the experiment runner and the CLI
aggregate and print them, and the sweep journal persists them through
:meth:`SolverStats.to_dict` / :meth:`SolverStats.from_dict`.

Counting is cheap (integer adds on the :class:`~repro.core.revenue.
RevenueCache` and the dynamics object); there is deliberately no off
switch, so the numbers are always available after a solve.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
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
        (overflow peeling plus the counted subset's pair sum) —
        evaluated, including peels batched ahead of the scan that reads
        them. The incremental engine exists to keep this low.
    incremental_updates:
        O(k) per-task pair-sum delta updates (joins/leaves) served by the
        :class:`~repro.core.revenue.RevenueCache` instead of a re-sum.
        These two and ``peel_kernel_calls`` are read from the solve's
        revenue caches (:meth:`add_cache_counters`); a sharded solve adds
        the merged assignment's cache — merge replay, border seeding,
        halo passes and clamp — to the shards' counts.
    gain_evaluations:
        Candidate ``(worker, task)`` utilities scored by the solvers'
        marginal-gain machinery.
    cache_hits / cache_misses:
        Best-response plays served without / with a full scan: a *hit*
        is a LUB re-read of the cached candidate task, or a worker whose
        candidate memberships are unchanged since its last full scan; a
        *miss* scans the worker's whole valid set.
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
        Overflow counted-subset peels run through the lockstep peel
        kernel (``kernels.counted_subset_batch``) by the
        :class:`~repro.core.revenue.RevenueCache`, one per peeled group —
        evaluated, including peels batched ahead of the scan that reads
        them.
    rescan_batches / rescan_rows:
        Mid-round re-scores: batched calls over the rows accepted moves
        staled that are still ahead in the play order, and how many rows
        they re-scored in total (full and player-restricted rounds
        alike).
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
    blocks_built:
        Task-local quality blocks built by the solve's task-block reader
        (:class:`~repro.core.quality_store.SparseTaskBlocks`), at most one
        per task and solve; their build time is the phase ``blocks``, a
        part of ``init``/``rounds`` (TPG: ``stage1``/``stage2``; sharded:
        the shard solves and the border seeding). Zero on the dense
        stores, which build none.
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
    blocks_built: int = 0

    def add_cache_counters(self, cache) -> None:
        """Add a :class:`~repro.core.revenue.RevenueCache`'s counters:
        full evaluations, incremental updates and overflow peels."""
        self.revenue_evaluations += cache.full_evaluations
        self.incremental_updates += cache.incremental_updates
        self.peel_kernel_calls += cache.peel_kernel_calls

    def add_block_counters(self, reads) -> None:
        """Add a task-block reader's builds
        (:func:`~repro.core.quality_store.task_blocks`): ``blocks_built``,
        and their build time to the phase ``blocks`` when any was built."""
        if reads.built:
            self.blocks_built += reads.built
            self.phase_seconds["blocks"] = (
                self.phase_seconds.get("blocks", 0.0) + reads.build_seconds
            )

    def merge(self, other: "SolverStats") -> "SolverStats":
        """Accumulate another run's counters into this object (in place).

        Derived from the dataclass fields: ``solver`` keeps the first
        non-empty label, numbers (``runs`` included) add, dicts add by
        key and ``rounds`` concatenates. Returns ``self`` for chaining.
        """
        for spec in fields(self):
            mine = getattr(self, spec.name)
            theirs = getattr(other, spec.name)
            if isinstance(mine, str):
                if not mine:
                    setattr(self, spec.name, theirs)
            elif isinstance(mine, dict):
                for key, value in theirs.items():
                    mine[key] = mine.get(key, 0) + value
            elif isinstance(mine, list):
                mine.extend(theirs)
            else:
                setattr(self, spec.name, mine + theirs)
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
        """JSON-ready representation, one key per field in declaration
        order (used by the sweep checkpoint journal)."""
        return asdict(self)

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
