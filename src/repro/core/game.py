"""Game-theoretic CA-SC solver — Algorithm 3 with the LUB and TSI
optimizations of Section V-D.

Each worker is a player whose strategies are their valid tasks plus
"idle"; the utility of playing task ``t_j`` is the worker's marginal
revenue contribution ``U_i = Q(W_j) - Q(W_j - {w_i})`` (Equation 5). The
global score ``Q(T)`` is an exact potential function for this game
(Theorem V.1): a unilateral strategy change moves the potential by exactly
the player's utility change, so best-response dynamics monotonically climb
the total score and terminate at a pure Nash equilibrium.

Crowd-out is modelled by letting tasks temporarily exceed capacity;
Equation 2 then only counts the best ``a_j``-subset, so joining a full
task is worthwhile exactly when the joiner displaces a worse-matched
member — the situation analysed by Theorems V.3 and V.4. The returned
assignment is clamped back to strict capacity feasibility.

Optimizations
-------------
* **TSI** (threshold stop of the iteration): stop as soon as a round's
  score improvement falls below ``epsilon * current_score``. ``epsilon=0``
  runs to exact convergence.
* **LUB** (lazy updating of best responses): cache each worker's
  best-response task and only rescan workers whose cached response may
  have changed, using the pruning rules of Theorems V.3/V.4 — a pure
  addition to a task cannot dislodge that task from the top of its own
  members-to-be; an exchange ``w_x`` in / ``w_y`` out only matters to a
  worker ``w_i`` with ``q_i(w_y) > q_i(w_x)`` (current best) or
  ``q_i(w_y) < q_i(w_x)`` (other tasks).
* **Bulk classification**: between two moves every worker sees the
  same state, so a round classifies all its rows at once: every
  candidate's utility in one vectorized pass over a flat CSR
  (:func:`~repro.core.kernels.score_candidates`), the current tasks'
  ``leave_deltas`` in one call, a first-occurrence segment argmax, the
  idle floor and the tolerance test. Every sum runs in Equation 2's
  one order, strictly left to right over the members
  (:func:`~repro.core.kernels.ordered_row_sums`), the order of the
  scalar oracles ``reference_join_gain``/``reference_leave_delta`` too,
  so at every group size each float, and hence the exact potential and
  the reached equilibrium, is that of the per-worker loop
  :func:`repro.audit.reference.reference_round`. A row
  whose candidates are unchanged since its last full scan would repeat
  that scan, which did not move, so it is not scored.
* **Batched overflow peels**: a join into a full task needs Equation
  2's best-subset peel. Each pass scores the stale overflow joins of
  all its rows in one ``join_gains`` call, which peels them in lockstep
  (:func:`~repro.core.kernels.counted_subset_batch`), and memoizes
  every deferred join gain per CSR slot under the task's membership
  version.
* **First mover, then the rows it staled**: the round jumps to the
  first mover in play order, applies that one move and marks the
  watchers of its two tasks stale. Reaching a stale row re-scores every
  stale row still ahead in one batched call; played rows wait for the
  next round. A round restricted to a player list (the sharded halo
  passes) scores the player rows only.

Every solve is instrumented: the returned :class:`GameResult` carries a
:class:`~repro.core.stats.SolverStats` with revenue-evaluation counters,
LUB cache hits/misses/invalidations, and per-round wall-clock timings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.assignment import UNASSIGNED, Assignment
from repro.core.kernels import CODE_CURRENT, CODE_SCALAR, score_candidates
from repro.core.model import Instance
from repro.core.quality_store import StoreReads, task_blocks
from repro.core.stats import RoundStats, SolverStats
from repro.core.tpg import _solve_tpg_full
from repro.core.validity import ValidPairs, compute_valid_pairs
from repro.utils.deadline import current_deadline
from repro.utils.rng import ensure_rng

__all__ = ["GameResult", "solve_game_theoretic"]

DEFAULT_TOLERANCE = 1e-9
DEFAULT_MAX_ROUNDS = 500

@dataclass
class GameResult:
    """Outcome of a best-response run.

    Attributes
    ----------
    assignment:
        The final, capacity-feasible assignment.
    rounds:
        Completed best-response rounds (Algorithm 3's WHILE iterations).
    moves:
        Total strategy changes across all rounds.
    converged:
        ``True`` when a round produced zero moves (pure Nash equilibrium
        up to the numeric tolerance); ``False`` when TSI or the round cap
        stopped the dynamics early.
    initial_score / final_score:
        Potential value before and after the dynamics (monotone
        non-decreasing by Theorem V.1). ``final_score`` is exactly
        ``score_history[-1]`` — both are read from the same incremental
        total, so they cannot drift apart.
    score_history:
        Total score after each round.
    seeded_tasks:
        ``N_init`` of the TPG initialization (0 for random init); feeds
        the Theorem V.2 price-of-anarchy bound.
    stats:
        :class:`~repro.core.stats.SolverStats` instrumentation of the
        run (evaluation counters, LUB cache behavior, per-round timings).
    """

    assignment: Assignment
    rounds: int
    moves: int
    converged: bool
    initial_score: float
    final_score: float
    score_history: list[float] = field(default_factory=list)
    seeded_tasks: int = 0
    equilibrium: Assignment | None = None
    """The raw best-response fixpoint *before* capacity clamping.

    Crowd-out is modelled by letting tasks overflow their capacity
    (Equation 2 then counts only the best ``a_j``-subset), so the Nash
    property holds for this profile. ``assignment`` is the same profile
    clamped to strict feasibility; it has the same total score, but a
    member's hypothetical-removal utility can differ once the crowded-out
    backfill worker is gone — verify equilibria against this field.
    """
    stats: SolverStats | None = None


def solve_game_theoretic(
    instance: Instance,
    valid_pairs: ValidPairs | None = None,
    init: str = "tpg",
    epsilon: float = 0.0,
    lazy_update: bool = False,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    tolerance: float = DEFAULT_TOLERANCE,
    player_order: str = "sequential",
    seed=None,
) -> GameResult:
    """Run best-response dynamics to a (near-)Nash assignment.

    Parameters
    ----------
    init:
        ``"tpg"`` (Algorithm 3 line 1) or ``"random"`` (each worker picks
        a uniformly random valid task; used by the ablation benchmarks).
    epsilon:
        TSI threshold; 0 disables early stopping.
    lazy_update:
        Enable LUB.
    max_rounds:
        Hard safety cap; the potential argument guarantees convergence,
        the cap only guards against pathological tolerance settings.
    tolerance:
        A move requires a utility improvement strictly above this
        non-negative value, which also bounds the numeric drift per
        accepted move.
    player_order:
        ``"sequential"`` plays workers in index order every round (the
        paper's Algorithm 3); ``"shuffled"`` reshuffles the order each
        round — an ablation knob, since potential games converge under
        any order but may reach different equilibria.
    seed:
        Used by ``init="random"`` and ``player_order="shuffled"``.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
    if player_order not in ("sequential", "shuffled"):
        raise ValueError(
            f"unknown player_order {player_order!r}; "
            "expected 'sequential' or 'shuffled'"
        )
    if valid_pairs is None:
        valid_pairs = compute_valid_pairs(instance)

    stats = SolverStats(solver="GT")
    deadline = current_deadline()
    solve_started = time.perf_counter()
    # TPG's initialisation, the rounds, the equilibrium copy and the
    # clamp all read one task-block reader, built for this solve.
    reads = task_blocks(instance.quality, valid_pairs)
    rng = ensure_rng(seed)
    init_started = time.perf_counter()
    assignment, seeded_tasks = _initial_assignment(
        instance, valid_pairs, init, rng, stats=stats, reads=reads
    )
    stats.phase_seconds["init"] = time.perf_counter() - init_started
    initial_score = assignment.total_score()

    dynamics = _BestResponseDynamics(
        instance, valid_pairs, assignment, tolerance, lazy_update, stats
    )
    if player_order == "shuffled":
        dynamics.order_rng = rng
    dynamics.deadline = deadline
    score_history: list[float] = []
    rounds = 0
    total_moves = 0
    converged = False

    while rounds < max_rounds:
        # A budgeted solve stops between rounds and between moves
        # (run_round); every state on the way is feasible once clamped.
        if deadline is not None and deadline.passed("GT", round=rounds, move=0):
            break
        round_started = time.perf_counter()
        evaluations_before = stats.gain_evaluations
        moves, round_gain = dynamics.run_round()
        round_seconds = time.perf_counter() - round_started
        rounds += 1
        total_moves += moves
        # One source of truth for the potential: the incrementally
        # maintained total. The TSI threshold, the history and the
        # reported final score all read this value, so they cannot
        # drift apart the way a separately accumulated gain counter
        # did.
        current_score = assignment.total_score()
        score_history.append(current_score)
        stats.rounds.append(
            RoundStats(
                index=rounds - 1,
                seconds=round_seconds,
                moves=moves,
                # builtin float, not np.float64: stats must round-trip
                # repr-exactly through the sweep checkpoint journal
                gain=float(round_gain),
                evaluations=stats.gain_evaluations - evaluations_before,
            )
        )
        if deadline is not None and deadline.stopped_at:
            break
        if moves == 0:
            converged = True
            break
        if epsilon > 0.0 and round_gain < epsilon * max(
            current_score, tolerance
        ):
            break

    equilibrium = assignment.copy()
    assignment.clamp_to_capacity()

    for solved in (assignment, equilibrium):
        solved.revenue_cache.use_reads(StoreReads(instance.quality))
    stats.add_cache_counters(assignment.revenue_cache)
    stats.add_block_counters(reads)
    stats.phase_seconds["rounds"] = sum(r.seconds for r in stats.rounds)
    stats.total_seconds = time.perf_counter() - solve_started

    return GameResult(
        assignment=assignment,
        rounds=rounds,
        moves=total_moves,
        converged=converged,
        initial_score=initial_score,
        final_score=score_history[-1] if score_history else initial_score,
        score_history=score_history,
        seeded_tasks=seeded_tasks,
        equilibrium=equilibrium,
        stats=stats,
    )


def _initial_assignment(
    instance: Instance,
    valid_pairs: ValidPairs,
    init: str,
    seed,
    stats: SolverStats | None = None,
    reads=None,
) -> tuple[Assignment, int]:
    """The starting profile, reading ``reads`` (the solve's task-block
    reader; the store when ``None``), as TPG's seeding does."""
    assignment = Assignment(instance, valid_pairs, allow_overflow=True)
    if reads is not None:
        assignment.revenue_cache.use_reads(reads)
    if init == "tpg":
        tpg = _solve_tpg_full(instance, valid_pairs, False, reads)
        if stats is not None and tpg.stats is not None:
            # Surface the seeding TPG's kernel dispatch count through the
            # GT run's stats (its other counters stay TPG-scoped).
            stats.kernel_fallback_calls += tpg.stats.kernel_fallback_calls
        assignment.assign_pairs(tpg.assignment.to_pairs())
        return assignment, tpg.seeded_tasks
    if init == "random":
        rng = ensure_rng(seed)
        starts, tasks = valid_pairs.worker_ptr.tolist(), valid_pairs.worker_tasks
        assignment.assign_pairs(
            (worker, tasks[start + int(rng.integers(end - start))])
            for worker, (start, end) in enumerate(zip(starts, starts[1:]))
            if end > start
        )
        return assignment, 0
    if init == "empty":
        return assignment, 0
    raise ValueError(f"unknown init {init!r}; expected 'tpg', 'random' or 'empty'")


class _BestResponseDynamics:
    """The best-response engine shared by all GT variants."""

    def __init__(
        self,
        instance: Instance,
        valid_pairs: ValidPairs,
        assignment: Assignment,
        tolerance: float,
        lazy_update: bool,
        stats: SolverStats | None = None,
    ) -> None:
        # A negative tolerance accepts moves that lower the potential,
        # and Theorem V.1's termination argument no longer holds.
        if tolerance < 0:
            raise ValueError(f"tolerance must be non-negative, got {tolerance}")
        self.instance = instance
        self.valid_pairs = valid_pairs
        self.assignment = assignment
        self.tolerance = tolerance
        self.lazy_update = lazy_update
        self.stats = stats if stats is not None else SolverStats(solver="GT")
        self.order_rng = None  # set for player_order="shuffled"
        self.deadline = None  # set for a budgeted solve
        self.cache = assignment.revenue_cache
        self._minimum = instance.min_group_size
        self._capacities = np.asarray(
            [task.capacity for task in instance.tasks], dtype=np.int64
        )
        count = instance.worker_count
        # LUB state: cached best alternative task per worker, and the
        # dirty flags of workers whose cache may be stale.
        self._cached_best = np.full(count, UNASSIGNED, dtype=int)
        self._dirty = np.ones(count, dtype=bool)
        self._counted: list[tuple[int, ...]] = [
            assignment.counted_members(task) for task in range(instance.task_count)
        ]
        # The validity relation's worker side (slot order == each
        # worker's candidate-list order).
        self._vp_indptr = valid_pairs.worker_ptr
        self._vp_tasks = valid_pairs.worker_tasks
        # Each slot's worker as a position of the cache's reader, once.
        self._slot_positions = self.cache.reads.locate(
            self._vp_tasks, valid_pairs.pair_workers()
        )
        # Per slot: the utility of its row's last scoring, and the memo
        # of deferred join gains — pure functions of the task's
        # membership, exact while the task's version is unchanged.
        self._values = np.zeros(self._vp_tasks.size)
        self._memo_versions = np.full(self._vp_tasks.size, -1, dtype=np.int64)
        self._memo_gains = np.zeros(self._vp_tasks.size)
        # Per worker, as of its row's last scoring: the sum of its
        # candidate tasks' membership versions (versions only grow, so
        # the stamp moves iff some candidate changed), the current
        # utility, the response it would play with that response's
        # utility, and whether playing it is a move. ``_scanned`` is the
        # stamp of the worker's last full scan.
        self._stamps = np.zeros(count, dtype=np.int64)
        self._scanned = np.full(count, -1, dtype=np.int64)
        self._utility = np.zeros(count)
        self._choice = np.full(count, UNASSIGNED, dtype=np.int64)
        self._choice_utility = np.zeros(count)
        self._mover = np.zeros(count, dtype=bool)

    # ------------------------------------------------------------------
    def _score_rows(self, rows: np.ndarray) -> int:
        """Classify the player rows ``rows`` (sorted worker ids) at the
        current state: stamps, utilities, responses and mover flags.

        A row whose stamp equals its last full scan's would repeat that
        scan exactly, and that scan did not move (a move changes the
        stamp), so the row is not scored; LUB-clean rows always are,
        since they play their cached task instead. The rest are scored
        by one :func:`~repro.core.kernels.score_candidates` call over a
        member CSR of only the tasks they reach (local ids, per-task
        state gathered by global id; members and slot workers as reader
        positions). Deferred joins come from the slot
        memo (:meth:`_deferred_gains`), current tasks from one batched
        ``leave_deltas``; each row's response is its first candidate of
        highest utility, ``np.argmax``'s tie-break. Returns the number
        of rows scored.
        """
        self._mover[rows] = False
        starts = self._vp_indptr[rows]
        counts = self._vp_indptr[rows + 1] - starts
        nonempty = counts > 0
        rows, starts, counts = rows[nonempty], starts[nonempty], counts[nonempty]
        if not rows.size:
            return 0
        cache = self.cache
        versions = np.asarray(cache.versions, dtype=np.int64)
        offsets = np.cumsum(counts) - counts
        positions = np.repeat(starts - offsets, counts) + np.arange(
            int(counts.sum()), dtype=np.int64
        )
        # Integer sums: reduceat's segment reordering is harmless.
        self._stamps[rows] = np.add.reduceat(
            versions[self._vp_tasks[positions]], offsets
        )
        scored = self._stamps[rows] != self._scanned[rows]
        if self.lazy_update:
            scored |= ~self._dirty[rows]
        positions = positions[np.repeat(scored, counts)]
        rows, counts = rows[scored], counts[scored]
        if not rows.size:
            return 0
        offsets = np.cumsum(counts) - counts
        sub_tasks = self._vp_tasks[positions]
        # Local ids of the scored tasks. The trailing slot stays -1, so
        # an idle worker's UNASSIGNED (-1) current task maps to no task.
        local = np.full(self.instance.task_count + 1, -1, dtype=np.int64)
        local[sub_tasks] = 0
        tasks = np.flatnonzero(local[:-1] == 0)
        local[tasks] = np.arange(tasks.size, dtype=np.int64)
        mem_indptr = np.zeros(tasks.size + 1, dtype=np.int64)
        np.cumsum(cache.counts[tasks], out=mem_indptr[1:])
        mem_flat = np.concatenate(
            [cache.member_positions(task) for task in tasks.tolist()]
        ).astype(np.int64, copy=False)
        current = self.assignment.tasks_of(rows)
        values, codes = score_candidates(
            cache.reads,
            np.append(offsets, positions.size),
            local[sub_tasks],
            mem_indptr,
            mem_flat,
            cache.pair_sums[tasks],
            cache.revenues[tasks],
            self._capacities[tasks],
            self._minimum,
            local[current],
            stats=self.stats,
            positions=self._slot_positions[positions],
        )
        deferred = codes == CODE_SCALAR
        if deferred.any():
            values[deferred] = self._deferred_gains(positions[deferred], versions)
        utility = np.zeros(rows.size)
        assigned = current != UNASSIGNED
        if assigned.any():
            utility[assigned] = cache.leave_deltas(rows[assigned], current[assigned])
        owner = np.repeat(np.arange(rows.size), counts)
        own = codes == CODE_CURRENT
        values[own] = utility[owner[own]]
        self._values[positions] = values
        top = np.maximum.reduceat(values, offsets)
        first = np.minimum.reduceat(
            np.where(values == top[owner], np.arange(values.size), values.size),
            offsets,
        )
        choice, choice_utility = sub_tasks[first], values[first]
        if self.lazy_update:
            # A clean row plays its cached task: that slot's utility (the
            # current utility for its own task), or idle at 0.0.
            clean = ~self._dirty[rows]
            cached = self._cached_best[rows]
            match = sub_tasks == cached[owner]
            cached_utility = np.zeros(rows.size)
            cached_utility[owner[match]] = values[match]
            choice = np.where(clean, cached, choice)
            choice_utility = np.where(clean, cached_utility, choice_utility)
        # The idle strategy has utility 0.
        response = np.where(choice_utility <= self.tolerance, 0.0, choice_utility)
        self._utility[rows] = utility
        self._choice[rows] = choice
        self._choice_utility[rows] = choice_utility
        self._mover[rows] = response > utility + self.tolerance
        return int(rows.size)

    def _deferred_gains(self, slots: np.ndarray, versions: np.ndarray) -> np.ndarray:
        """The join gains of deferred slots (joins that overflow their
        task), from the slot memo; the stale entries are computed by one
        ``join_gains`` call."""
        tasks = self._vp_tasks[slots]
        current = versions[tasks]
        stale = self._memo_versions[slots] != current
        if stale.any():
            stale_slots = slots[stale]
            workers = np.searchsorted(self._vp_indptr, stale_slots, side="right") - 1
            self._memo_gains[stale_slots] = self.cache.join_gains(workers, tasks[stale])
            self._memo_versions[stale_slots] = current[stale]
        return self._memo_gains[slots]

    # ------------------------------------------------------------------
    def run_round(self, players=None) -> tuple[int, float]:
        """One Algorithm 3 round: every worker plays its best response.

        ``players`` restricts the round to the given workers, in the
        given order (repeats allowed) — the sharded solver's
        halo-reconcile passes play border workers only. ``None`` (the
        default) plays everyone. Between two moves every worker sees the
        same state, so the round classifies all its rows at once
        (:meth:`_score_rows`), jumps to the first mover in play order,
        applies that one move, and re-scores the rows it staled — the
        watchers of its two tasks — once one of them still ahead is
        reached. Returns ``(moves, score_gain)``; the gain equals the
        potential increase of the round (Theorem V.1). With a
        ``deadline`` set, the round ends early at the first check past
        it, before a move or a re-score.
        """
        count = self.instance.worker_count
        if players is None:
            self._score_rows(np.arange(count))
            order = (
                np.arange(count)
                if self.order_rng is None
                else self.order_rng.permutation(count)
            )
        else:
            order = np.asarray([int(worker) for worker in players], dtype=np.int64)
            self._score_rows(np.unique(order))
        last = np.full(count, -1, dtype=np.int64)
        np.maximum.at(last, order, np.arange(order.size))
        repeats = np.count_nonzero(last >= 0) < order.size
        stale = np.zeros(count, dtype=bool)
        moves, gain, position = 0, 0.0, 0
        deadline = self.deadline
        while True:
            if deadline is not None and deadline.passed(
                "GT", round=len(self.stats.rounds), move=moves
            ):
                return moves, gain
            ahead = order[position:]
            flags = self._mover[ahead] | stale[ahead]
            stop = position + int(np.argmax(flags)) if flags.any() else order.size
            if stop < order.size and stale[order[stop]]:
                rows = np.flatnonzero(stale & (last >= stop))
                stale[rows] = False
                scored = self._score_rows(rows)
                if scored:
                    self.stats.rescan_batches += 1
                    self.stats.rescan_rows += scored
                continue
            if stop == order.size:
                self._account(order[position:], repeats)
                return moves, gain
            worker = int(order[stop])
            self._account(order[position : stop + 1], repeats)
            improvement = self._move(worker, stale)
            if improvement > 0.0:
                moves += 1
                gain += improvement
            position = stop + 1

    def _account(self, workers: np.ndarray, repeats: bool) -> None:
        """Count the plays of ``workers`` — a stretch of the order that
        only its last entry may move — as per-worker scans would: a
        LUB-clean play re-reads its cached task (a hit, one evaluation),
        a row whose stamp equals its last full scan's is a hit, any other
        nonempty row a miss that evaluates all its candidates and caches
        its response. Scanned rows come out clean, so a worker's later
        plays in the stretch are hits."""
        stats = self.stats
        if repeats:
            _, first = np.unique(workers, return_index=True)
            again = np.delete(workers, first)
            workers = workers[first]
            if self.lazy_update:
                stats.cache_hits += again.size
                stats.gain_evaluations += again.size
            else:
                indptr = self._vp_indptr
                stats.cache_hits += int(np.count_nonzero(indptr[again + 1] > indptr[again]))
        if self.lazy_update:
            clean = ~self._dirty[workers]
            hits = int(np.count_nonzero(clean))
            stats.cache_hits += hits
            stats.gain_evaluations += hits
            workers = workers[~clean]
        sizes = self._vp_indptr[workers + 1] - self._vp_indptr[workers]
        missed = (sizes > 0) & (self._stamps[workers] != self._scanned[workers])
        misses = int(np.count_nonzero(missed))
        stats.cache_misses += misses
        stats.cache_hits += int(np.count_nonzero(sizes)) - misses
        stats.gain_evaluations += int(sizes[missed].sum())
        self._dirty[workers] = False
        self._cached_best[workers[sizes == 0]] = UNASSIGNED
        workers = workers[missed]
        self._scanned[workers] = self._stamps[workers]
        self._cached_best[workers] = self._choice[workers]

    def _move(self, worker: int, stale: np.ndarray) -> float:
        """Move ``worker`` (a fresh mover row) to its response, mark the
        rows the move stales, and return the utility gain."""
        assignment = self.assignment
        current_task = assignment.task_of(worker)
        best_task = int(self._choice[worker])
        best_utility = float(self._choice_utility[worker])
        if best_utility <= self.tolerance:
            best_task, best_utility = UNASSIGNED, 0.0
        improvement = best_utility - float(self._utility[worker])
        if current_task != UNASSIGNED:
            assignment.unassign(worker)
            self._after_membership_change(current_task)
        if best_task != UNASSIGNED:
            assignment.assign(worker, best_task)
            self._after_membership_change(best_task)
        for task in (current_task, best_task):
            if task != UNASSIGNED:
                stale[self.valid_pairs.workers_of(task)] = True
        self._cached_best[worker] = best_task
        self._dirty[worker] = False
        return improvement

    def _after_membership_change(self, task: int) -> None:
        if self.lazy_update:
            self.stats.lub_invalidations += _lub_invalidate(
                self.assignment, self.valid_pairs, self._counted,
                self._cached_best, self._dirty, task,
            )


def _lub_invalidate(
    assignment: Assignment,
    valid_pairs: ValidPairs,
    counted: list,
    cached_best: np.ndarray,
    dirty: np.ndarray,
    task: int,
) -> int:
    """LUB's invalidation rules after ``task``'s membership changed:
    refresh ``counted[task]`` (its counted subset) and mark dirty each
    watcher whose cached best response may have moved. Returns how many
    watchers turned dirty.

    * Pure growth (no one crowded out): a watcher whose cached best is
      the task keeps it (Theorem V.3); every other watcher rescans.
    * Exchange ``x`` in / ``y`` out: the two movers rescan, and so do
      watchers with ``q(y) > q(x)`` whose cached best is the task
      (Theorem V.3) or ``q(y) < q(x)`` otherwise (Theorem V.4).
    * Any other change (a shrink, several members): everyone rescans.

    The qualities are read from the task's block, through the
    assignment's reader.
    """
    before = set(counted[task])
    counted[task] = assignment.counted_members(task)
    added, removed = set(counted[task]) - before, before - set(counted[task])
    watchers = valid_pairs.workers_of(task)
    on_task = cached_best[watchers] == task
    if not removed and len(added) <= 1:
        stale = ~on_task
    elif len(added) == 1 and len(removed) == 1:
        (entering,), (leaving,) = added, removed
        # q_other(leaving) and q_other(entering), over the watchers.
        reads = assignment.revenue_cache.reads
        toward = reads.block(
            reads.locate(task, watchers), reads.locate(task, [leaving, entering])
        )
        toward_leaving, toward_entering = toward[:, 0], toward[:, 1]
        stale = np.where(
            on_task, toward_leaving > toward_entering, toward_leaving < toward_entering
        )
        stale |= (watchers == entering) | (watchers == leaving)
    else:
        stale = np.ones(watchers.size, dtype=bool)
    marked = watchers[stale & ~dirty[watchers]]
    dirty[marked] = True
    return int(marked.size)

