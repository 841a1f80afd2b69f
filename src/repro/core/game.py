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
* **Batched scans**: at the start of each round the utilities of
  *every* worker's candidates are evaluated in one vectorized pass over
  flat CSR buffers (:func:`~repro.core.kernels.score_candidates`), and
  each worker's scan replays the precomputed row when its candidate
  tasks' membership versions are unchanged. The batch sums each gather
  strictly left to right, which is ``ndarray.sum()``'s own order for
  groups of fewer than :data:`_VECTOR_GROUP_LIMIT` members, so the
  floats equal the scalar ``join_gain`` of
  :func:`repro.audit.reference.reference_utilities`; at eight or more
  elements numpy's pairwise summation reorders, so those groups are
  scored by the scalar ``join_gain``. Bit-identity preserves the exact
  potential function and hence the reached equilibria.
* **Batched overflow peels**: a join into a full task needs Equation
  2's best-subset peel. Every kernel pass (prepass or dirty rescan)
  collects the stale overflow joins of all the rows it scored and
  peels them in lockstep, one
  :func:`~repro.core.kernels.counted_subset_batch` call per group
  shape, memoizing each exact gain under the task's membership version.
  The scans then read the memo; a peel runs ahead of its scan, never
  with different floats.
* **Mid-round dirty rescan**: an accepted move only stales the prepass
  rows of the moved tasks' watchers. Those workers are collected in a
  dirty set and, the next time a stale row is actually needed, *all* of
  them are re-scored in one batched ``score_candidates`` call that
  patches the prepass in place — so the scans that follow replay
  refreshed rows instead of each paying a per-worker call. Rounds
  restricted to a player list (the sharded solver's halo passes) run
  the same pass over the player rows only; non-player rows are never
  scored.

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
from repro.core.stats import RoundStats, SolverStats
from repro.core.tpg import solve_tpg_with_stats
from repro.core.validity import ValidPairs, compute_valid_pairs
from repro.utils.rng import ensure_rng

__all__ = ["GameResult", "solve_game_theoretic", "verify_nash_equilibrium"]

DEFAULT_TOLERANCE = 1e-9
DEFAULT_MAX_ROUNDS = 500

#: Candidate groups of fewer than this many members are scored by the
#: batched pass, whose strict left-to-right sums match the scalar
#: ``cross_sum``'s ``ndarray.sum()`` exactly below this size.
#: From eight summed elements on, ``ndarray.sum()`` switches to pairwise
#: (reordered) summation that the sequential batch reduction cannot
#: reproduce bit-for-bit, so those groups use the scalar ``join_gain``.
_VECTOR_GROUP_LIMIT = 8

#: Prepass stamp of a row the current round does not play. Real stamps
#: are sums of membership versions, hence non-negative, so an unplayed
#: row never replays.
_UNPLAYED = -1


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
        A move requires a utility improvement strictly above this value,
        which also bounds the numeric drift per accepted move.
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
    solve_started = time.perf_counter()

    rng = ensure_rng(seed)
    init_started = time.perf_counter()
    assignment, seeded_tasks = _initial_assignment(
        instance, valid_pairs, init, rng, stats=stats
    )
    stats.phase_seconds["init"] = time.perf_counter() - init_started
    initial_score = assignment.total_score()

    dynamics = _BestResponseDynamics(
        instance, valid_pairs, assignment, tolerance, lazy_update, stats
    )
    if player_order == "shuffled":
        dynamics.order_rng = rng
    score_history: list[float] = []
    rounds = 0
    total_moves = 0
    converged = False

    while rounds < max_rounds:
        round_started = time.perf_counter()
        evaluations_before = stats.gain_evaluations
        moves, round_gain = dynamics.run_round()
        round_seconds = time.perf_counter() - round_started
        rounds += 1
        total_moves += moves
        # One source of truth for the potential: the incrementally
        # maintained total. The TSI threshold, the history and the
        # reported final score all read this value, so they cannot drift
        # apart the way a separately accumulated gain counter did.
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
        if moves == 0:
            converged = True
            break
        if epsilon > 0.0 and round_gain < epsilon * max(current_score, tolerance):
            break

    equilibrium = assignment.copy()
    assignment.clamp_to_capacity()

    stats.add_cache_counters(assignment.revenue_cache)
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
) -> tuple[Assignment, int]:
    assignment = Assignment(instance, valid_pairs, allow_overflow=True)
    if init == "tpg":
        tpg = solve_tpg_with_stats(instance, valid_pairs)
        if stats is not None and tpg.stats is not None:
            # Surface the seeding TPG's kernel dispatch count through the
            # GT run's stats (its other counters stay TPG-scoped).
            stats.kernel_fallback_calls += tpg.stats.kernel_fallback_calls
        assignment.assign_pairs(tpg.assignment.to_pairs())
        return assignment, tpg.seeded_tasks
    if init == "random":
        rng = ensure_rng(seed)
        assignment.assign_pairs(
            (worker, tasks[int(rng.integers(len(tasks)))])
            for worker, tasks in enumerate(valid_pairs.tasks_for_worker)
            if tasks
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
        self.instance = instance
        self.valid_pairs = valid_pairs
        self.assignment = assignment
        self.tolerance = tolerance
        self.lazy_update = lazy_update
        self.quality = instance.quality
        self.stats = stats if stats is not None else SolverStats(solver="GT")
        self.order_rng = None  # set for player_order="shuffled"
        self.cache = assignment.revenue_cache
        # Candidate tasks per worker as plain lists (fast iteration).
        self._tasks_lists: list[list[int]] = [
            list(tasks) for tasks in valid_pairs.tasks_for_worker
        ]
        self._capacities: list[int] = [
            task.capacity for task in instance.tasks
        ]
        self._minimum = instance.min_group_size
        # Overflow join gains are pure functions of (worker, task
        # membership); the revenue cache's per-task version stamp makes
        # them memoizable. Kernel passes fill it ahead of the scans (see
        # _memoize_overflow_peels); once memberships stabilize, repeated
        # scans of full tasks return the exact cached float instead of
        # re-peeling.
        self._overflow_memo: dict[tuple[int, int], tuple[int, float]] = {}
        # Exact whole-scan memo: a worker's best alternative is a pure
        # function of its candidate tasks' memberships (stamped by the
        # sum of their versions — versions only grow, so the sum moves
        # iff some candidate changed), the current task and the current
        # utility. A hit replays the identical result, so later rounds —
        # where most workers' neighbourhoods are stable — skip the scan
        # entirely without changing a single float.
        self._scan_memo: dict[int, tuple[int, int, float, int, float]] = {}
        self._leave_memo: dict[int, tuple[int, int, float]] = {}
        # LUB state: cached best alternative task per worker, and the
        # dirty set of workers whose cache may be stale.
        self._cached_best = np.full(instance.worker_count, UNASSIGNED, dtype=int)
        self._dirty = np.ones(instance.worker_count, dtype=bool)
        self._counted: list[tuple[int, ...]] = [
            assignment.counted_members(task) for task in range(instance.task_count)
        ]
        # Batched-scan state: the validity relation as one flat CSR
        # (slot order == each worker's candidate-list order) and the
        # round's batched pass as
        # ``(stamps, values, codes)`` (see _run_prepass). ``_rescan_dirty``
        # holds the workers whose prepass rows an accepted move may have
        # staled; _refresh_prepass_rows re-scores them in one batch.
        self._rescan_dirty: set[int] = set()
        counts = np.fromiter(
            (len(tasks) for tasks in self._tasks_lists),
            dtype=np.int64,
            count=len(self._tasks_lists),
        )
        self._vp_indptr = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=self._vp_indptr[1:])
        self._vp_tasks = np.fromiter(
            (task for tasks in self._tasks_lists for task in tasks),
            dtype=np.int64,
            count=int(self._vp_indptr[-1]),
        )
        self._capacities_array = np.asarray(self._capacities, dtype=np.int64)
        # Until the first round every row is unplayed; a scan before it
        # scores its own row (see _refresh_prepass_rows).
        self._run_prepass(players=())

    # ------------------------------------------------------------------
    def _run_prepass(self, players=None) -> None:
        """Score the round's player rows in one batched pass.

        Runs at the start of every round: ``players=None`` scores every
        worker's row, a player list only those rows (the sharded
        solver's halo passes). Each scored row is stamped with the sum of
        its candidate tasks' membership versions — the same integer the
        stamp loop in :meth:`_best_alternative` computes — so a scan
        later in the round replays the precomputed row exactly when none
        of the worker's candidate memberships moved since the pass. Every
        other row gets the :data:`_UNPLAYED` stamp, which never replays.
        """
        slots = self._vp_tasks.size
        self._prepass = (
            np.full(self.instance.worker_count, _UNPLAYED, dtype=np.int64),
            np.zeros(slots, dtype=np.float64),
            np.zeros(slots, dtype=np.uint8),
        )
        self._rescan_dirty.clear()
        if players is None:
            rows = np.arange(self.instance.worker_count, dtype=np.int64)
        else:
            rows = np.unique(np.asarray(players, dtype=np.int64))
        self._score_rows(rows)

    def _refresh_prepass_rows(self, worker: int) -> None:
        """Re-score ``worker``'s stale row, together with every other
        stale player row, in one batched kernel call.

        An accepted move bumps the membership versions of (at most) two
        tasks, staling exactly the rows of those tasks' watchers — the
        workers accumulated in ``_rescan_dirty``. Only rows the round
        plays are re-scored (an :data:`_UNPLAYED` row never reaches the
        kernel), plus ``worker`` itself, so a scan outside any round —
        or after a membership change made behind the engine's back —
        scores its own row the same way. Rows whose stamp turns out
        unchanged are skipped: their precomputed values are still exact.
        """
        dirty = self._rescan_dirty
        dirty.add(worker)
        rows = np.fromiter(sorted(dirty), dtype=np.int64, count=len(dirty))
        dirty.clear()
        rows = rows[(self._prepass[0][rows] != _UNPLAYED) | (rows == worker)]
        scored = self._score_rows(rows, only_changed=True)
        if scored:
            self.stats.rescan_batches += 1
            self.stats.rescan_rows += scored

    def _score_rows(self, rows: np.ndarray, only_changed: bool = False) -> int:
        """Score the candidate rows of ``rows`` (sorted worker ids) in one
        :func:`~repro.core.kernels.score_candidates` call and patch the
        prepass in place: stamps, utilities and classification codes.

        The member CSR covers only the tasks these rows score, under
        local ids, with their per-task state gathered by global id.
        ``only_changed`` drops the rows whose stamp is unchanged. Stale
        overflow joins among the scored slots are peeled in lockstep
        (:meth:`_peel_deferred_slots`). Returns the number of rows scored.
        """
        stamps, values, codes = self._prepass
        starts = self._vp_indptr[rows]
        counts = self._vp_indptr[rows + 1] - starts
        nonempty = counts > 0
        rows, starts, counts = rows[nonempty], starts[nonempty], counts[nonempty]
        if not rows.size:
            return 0
        cache = self.cache
        versions = np.asarray(cache.versions, dtype=np.int64)
        sub_indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(counts, out=sub_indptr[1:])
        # Slot positions of each row's slice in the flat CSR: for row i,
        # starts[i] .. starts[i] + counts[i] - 1.
        positions = np.repeat(starts - sub_indptr[:-1], counts) + np.arange(
            int(sub_indptr[-1]), dtype=np.int64
        )
        sub_tasks = self._vp_tasks[positions]
        # Integer sums — reduceat's segment reordering is harmless, and
        # every segment is nonempty after the filter above.
        row_stamps = np.add.reduceat(versions[sub_tasks], sub_indptr[:-1])
        if only_changed:
            changed = row_stamps != stamps[rows]
            if not changed.any():
                return 0
            if not changed.all():
                slot_changed = np.repeat(changed, counts)
                rows, counts = rows[changed], counts[changed]
                row_stamps = row_stamps[changed]
                positions = positions[slot_changed]
                sub_tasks = sub_tasks[slot_changed]
                sub_indptr = np.zeros(rows.size + 1, dtype=np.int64)
                np.cumsum(counts, out=sub_indptr[1:])
        # Local ids of the scored tasks. The trailing slot stays -1, so
        # an idle worker's UNASSIGNED (-1) current task maps to no task.
        local = np.full(self.instance.task_count + 1, -1, dtype=np.int64)
        local[sub_tasks] = 0
        tasks = np.flatnonzero(local[:-1] == 0)
        local[tasks] = np.arange(tasks.size, dtype=np.int64)
        member_array = cache.member_array
        mem_indptr = np.zeros(tasks.size + 1, dtype=np.int64)
        np.cumsum(cache.counts[tasks], out=mem_indptr[1:])
        mem_flat = np.concatenate(
            [member_array(task) for task in tasks.tolist()]
        ).astype(np.int64, copy=False)
        task_of = self.assignment.task_of
        current_tasks = np.fromiter(
            (task_of(worker) for worker in rows.tolist()),
            dtype=np.int64,
            count=rows.size,
        )
        sub_values, sub_codes = score_candidates(
            self.quality,
            sub_indptr,
            local[sub_tasks],
            mem_indptr,
            mem_flat,
            cache.pair_sums[tasks],
            cache.revenues[tasks],
            self._capacities_array[tasks],
            self._minimum,
            _VECTOR_GROUP_LIMIT,
            local[current_tasks],
            stats=self.stats,
            worker_ids=rows,
        )
        values[positions] = sub_values
        codes[positions] = sub_codes
        stamps[rows] = row_stamps
        self._peel_deferred_slots(positions[sub_codes == CODE_SCALAR])
        return int(rows.size)

    def _peel_deferred_slots(self, slots: np.ndarray) -> None:
        """Memoize every stale overflow peel among deferred prepass slots.

        ``slots`` are positions in the flat validity CSR that a kernel
        pass classified :data:`~repro.core.kernels.CODE_SCALAR`; their
        owners come from one ``searchsorted`` over the row pointers.
        """
        owners = np.searchsorted(self._vp_indptr, slots, side="right") - 1
        self._memoize_overflow_peels(owners, self._vp_tasks[slots])

    def _memoize_overflow_peels(
        self, workers: np.ndarray, tasks: np.ndarray
    ) -> None:
        """Peel the stale overflow joins among ``(workers[i], tasks[i])``
        in lockstep and write their exact ``(version, gain)`` memo entries.

        Only joins that need Equation 2's peel are kept — the task is
        full, the joined group reaches ``B`` and the capacity is at least
        2 — and only those whose memo entry is not at the task's current
        version. Gains are pure functions of the task's membership, so a
        peel run ahead of the scan that reads it leaves every utility the
        scan sees unchanged; only the time of the evaluation moves.
        """
        cache = self.cache
        sizes = cache.counts[tasks] + 1
        capacities = self._capacities_array[tasks]
        peel = (
            (sizes > capacities) & (sizes >= self._minimum) & (capacities >= 2)
        )
        if not peel.any():
            return
        memo = self._overflow_memo
        versions = cache.versions
        stale_workers: list[int] = []
        stale_tasks: list[int] = []
        for worker, task in zip(workers[peel].tolist(), tasks[peel].tolist()):
            entry = memo.get((worker, task))
            if entry is None or entry[0] != versions[task]:
                stale_workers.append(worker)
                stale_tasks.append(task)
        if not stale_tasks:
            return
        gains = cache.overflow_join_gains(stale_workers, stale_tasks)
        for worker, task, gain in zip(stale_workers, stale_tasks, gains):
            memo[worker, task] = (versions[task], gain)

    def _fill_deferred_slots(
        self,
        worker: int,
        tasks: list[int],
        utilities: np.ndarray,
        codes: np.ndarray,
        current_utility: float,
    ) -> None:
        """Fill the slots a kernel pass deferred to the caller, in place:
        overflow/oversized joins from the join-gain memo and the worker's
        own task via the already-computed ``leave_delta``.

        The row replays a pass at the current memberships, and that pass
        memoized every overflow peel among its slots, so peels are read
        back. The other deferred joins — oversized within capacity, or
        below ``B`` — go through the scalar ``join_gain`` (memoized too).
        """
        cache = self.cache
        versions = cache.versions
        memo = self._overflow_memo
        for position in np.flatnonzero(codes == CODE_SCALAR).tolist():
            task = tasks[position]
            entry = memo.get((worker, task))
            if entry is None or entry[0] != versions[task]:
                entry = (versions[task], cache.join_gain(worker, task))
                memo[worker, task] = entry
            utilities[position] = entry[1]
        for position in np.flatnonzero(codes == CODE_CURRENT):
            utilities[int(position)] = current_utility

    # ------------------------------------------------------------------
    def run_round(self, players=None) -> tuple[int, float]:
        """One Algorithm 3 round: every worker plays its best response.

        ``players`` restricts the round to the given workers, in the
        given order — the sharded solver's halo-reconcile passes play
        border workers only. ``None`` (the default) plays everyone.
        Either way the round starts with one batched pass over exactly
        the rows it plays (:meth:`_run_prepass`); non-players are never
        scored. Returns ``(moves, score_gain)``; the gain equals the
        potential increase of the round (Theorem V.1).
        """
        if players is not None:
            players = [int(worker) for worker in players]
        self._run_prepass(players)
        moves = 0
        gain = 0.0
        if players is not None:
            order = players
        elif self.order_rng is None:
            order = range(self.instance.worker_count)
        else:
            order = self.order_rng.permutation(self.instance.worker_count)
        for worker in order:
            improvement = self._play_best_response(int(worker))
            if improvement > 0.0:
                moves += 1
                gain += improvement
        return moves, gain

    def _play_best_response(self, worker: int) -> float:
        """Move ``worker`` to its best response; returns the utility gain."""
        assignment = self.assignment
        current_task = assignment.task_of(worker)
        if current_task == UNASSIGNED:
            current_utility = 0.0
        else:
            # leave_delta is pure in the current task's membership.
            version = self.cache.versions[current_task]
            entry = self._leave_memo.get(worker)
            if (
                entry is not None
                and entry[0] == current_task
                and entry[1] == version
            ):
                current_utility = entry[2]
            else:
                current_utility = assignment.leave_delta(worker)
                self._leave_memo[worker] = (current_task, version, current_utility)

        best_task, best_utility = self._best_alternative(
            worker, current_task, current_utility
        )

        # The idle strategy has utility 0.
        if best_utility <= self.tolerance:
            best_task, best_utility = UNASSIGNED, 0.0

        if best_utility <= current_utility + self.tolerance:
            return 0.0

        if current_task != UNASSIGNED:
            assignment.unassign(worker)
            self._after_membership_change(current_task)
        if best_task != UNASSIGNED:
            assignment.assign(worker, best_task)
            self._after_membership_change(best_task)
        # The move bumped (at most) these two tasks' membership versions,
        # staling exactly their watchers' prepass rows.
        for task in (current_task, best_task):
            if task != UNASSIGNED:
                self._rescan_dirty.update(self.valid_pairs.workers_for_task[task])
        self._cached_best[worker] = best_task
        self._dirty[worker] = False
        return best_utility - current_utility

    def _best_alternative(
        self, worker: int, current_task: int, current_utility: float
    ) -> tuple[int, float]:
        """The worker's best task *other than* staying put.

        With LUB enabled and a clean cache, only the cached candidate is
        re-evaluated; otherwise all valid tasks are read from the
        round's batched pass, re-scored first if the row went stale
        (:meth:`_refresh_prepass_rows`). ``current_utility`` is the
        already-computed ``leave_delta`` of the worker's current task.
        """
        assignment = self.assignment
        stats = self.stats
        if self.lazy_update and not self._dirty[worker]:
            stats.cache_hits += 1
            stats.gain_evaluations += 1
            cached = int(self._cached_best[worker])
            if cached == UNASSIGNED:
                return UNASSIGNED, 0.0
            if cached == current_task:
                return cached, current_utility
            return cached, assignment.join_gain(worker, cached)

        tasks = self._tasks_lists[worker]
        if not tasks:
            self._cached_best[worker] = UNASSIGNED
            self._dirty[worker] = False
            return UNASSIGNED, 0.0

        cache = self.cache
        versions = cache.versions
        stamp = 0
        for task in tasks:
            stamp += versions[task]
        memo_entry = self._scan_memo.get(worker)
        if (
            memo_entry is not None
            and memo_entry[0] == stamp
            and memo_entry[1] == current_task
            and memo_entry[2] == current_utility
        ):
            stats.cache_hits += 1
            best_task, best_utility = memo_entry[3], memo_entry[4]
            self._cached_best[worker] = best_task
            self._dirty[worker] = False
            return best_task, best_utility

        stats.cache_misses += 1
        stats.gain_evaluations += len(tasks)

        stamps, values, codes = self._prepass
        if stamps[worker] != stamp:
            # The row is stale: refresh it together with every other
            # stale row in one batched call, so later stale workers in
            # the same round replay without further kernel work.
            self._refresh_prepass_rows(worker)
        # The stamp match proves none of the worker's candidate
        # memberships (its own task's included) moved since its row was
        # scored, so the batched utilities and classifications are exact.
        start = int(self._vp_indptr[worker])
        end = int(self._vp_indptr[worker + 1])
        utilities = values[start:end].copy()
        codes = codes[start:end]
        # Only the deferred slots remain: overflow/oversized joins via the
        # join-gain memo, the worker's own task via ``leave_delta``.
        self._fill_deferred_slots(worker, tasks, utilities, codes, current_utility)
        best_position = int(np.argmax(utilities))
        best_task = tasks[best_position]
        best_utility = float(utilities[best_position])
        self._scan_memo[worker] = (
            stamp, current_task, current_utility, best_task, best_utility
        )
        self._cached_best[worker] = best_task
        self._dirty[worker] = False
        return best_task, best_utility

    # ------------------------------------------------------------------
    # LUB invalidation (Theorems V.3 / V.4)
    # ------------------------------------------------------------------
    def _counted_subset(self, task: int) -> tuple[int, ...]:
        """The members Equation 2 currently counts for the task (the
        revenue cache's subset — no re-peel)."""
        return self.assignment.counted_members(task)

    def _mark_dirty(self, worker: int) -> None:
        if not self._dirty[worker]:
            self._dirty[worker] = True
            self.stats.lub_invalidations += 1

    def _after_membership_change(self, task: int) -> None:
        if not self.lazy_update:
            return
        before = set(self._counted[task])
        after_tuple = self.assignment.counted_members(task)
        self._counted[task] = after_tuple
        after = set(after_tuple)
        added = after - before
        removed = before - after
        watchers = self.valid_pairs.workers_for_task[task]

        if not removed and len(added) <= 1:
            # Pure growth: Theorem V.3's no-crowd-out case — a worker whose
            # best response already is this task keeps it; everyone else
            # must rescan because joining here just became different.
            for other in watchers:
                if self._cached_best[other] != task:
                    self._mark_dirty(other)
            return
        if len(added) == 1 and len(removed) == 1:
            # Exchange x in / y out: apply the quality comparisons of
            # Theorems V.3 (current best == task) and V.4 (other tasks).
            (entering,) = added
            (leaving,) = removed
            # q_other(leaving) and q_other(entering), over the watchers.
            _, (toward_leaving, toward_entering) = self.quality.cross_values(
                [[leaving], [entering]], watchers
            )
            for position, other in enumerate(watchers):
                if other in (entering, leaving):
                    self._mark_dirty(other)
                    continue
                if self._cached_best[other] == task:
                    if toward_leaving[position] > toward_entering[position]:
                        self._mark_dirty(other)
                else:
                    if toward_leaving[position] < toward_entering[position]:
                        self._mark_dirty(other)
            return
        # Shrink or multi-element change: no theorem applies — rescan all.
        for other in watchers:
            self._mark_dirty(other)


def verify_nash_equilibrium(
    assignment: Assignment,
    valid_pairs: ValidPairs,
    tolerance: float = 1e-6,
) -> list[tuple[int, int, float]]:
    """All profitable unilateral deviations, as ``(worker, task, gain)``.

    Empty iff the assignment is a pure Nash equilibrium (up to
    ``tolerance``). ``task = UNASSIGNED`` denotes the idle deviation.
    Used by the test suite to certify the solver's stability claim.
    """
    deviations: list[tuple[int, int, float]] = []
    probe = assignment.copy()
    probe.allow_overflow = True
    for worker in range(assignment.instance.worker_count):
        current_utility = probe.leave_delta(worker)
        if current_utility < -tolerance:
            deviations.append((worker, UNASSIGNED, -current_utility))
        current_task = probe.task_of(worker)
        for task in valid_pairs.tasks_for_worker[worker]:
            if task == current_task:
                continue
            gain = probe.join_gain(worker, task)
            if gain > current_utility + tolerance:
                deviations.append((worker, task, gain - current_utility))
    return deviations
