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
  elements numpy's pairwise summation reorders, so those groups (and
  overflow joins, which need the best-subset peel) are scored by the
  scalar ``join_gain``. Bit-identity preserves the exact potential
  function and hence the reached equilibria.
* **Mid-round dirty rescan**: an accepted move only stales the prepass
  rows of the moved tasks' watchers. Those workers are collected in a
  dirty set and, the next time a stale row is actually needed, *all* of
  them are re-scored in one batched ``score_candidates`` call that
  patches the prepass in place — so the scans that follow replay
  refreshed rows instead of each paying a per-worker call. Rounds
  restricted to a player list (the sharded solver's halo passes) skip
  the prepass and re-score one row at a time
  (:meth:`_BestResponseDynamics._kernel_rescan`).

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

    cache = assignment.revenue_cache
    stats.revenue_evaluations = cache.full_evaluations
    stats.incremental_updates = cache.incremental_updates
    stats.peel_kernel_calls = cache.peel_kernel_calls
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
        for worker, task in tpg.assignment.to_pairs():
            assignment.assign(worker, task)
        return assignment, tpg.seeded_tasks
    if init == "random":
        rng = ensure_rng(seed)
        for worker in range(instance.worker_count):
            tasks = valid_pairs.tasks_for_worker[worker]
            if tasks:
                assignment.assign(worker, tasks[int(rng.integers(len(tasks)))])
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
        # them memoizable. Once memberships stabilize, repeated scans of
        # full tasks return the exact cached float instead of re-peeling.
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
        # (slot order == each worker's candidate-list order), the quality
        # store's kernel buffers, and the latest round-start prepass as
        # ``(stamps, values, codes)`` (see _run_prepass). ``_rescan_dirty``
        # holds the workers whose prepass rows an accepted move may have
        # staled; _refresh_prepass_rows re-scores them in one batch.
        self._prepass: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
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
        self._kernel_buffers = self.quality.as_kernel_buffers()

    # ------------------------------------------------------------------
    def _run_prepass(self) -> None:
        """Score every (worker, candidate) slot in one batched pass.

        Runs at the start of each unrestricted round. The result is
        stamped per worker with the sum of its candidate tasks'
        membership versions — the same integer the stamp loop in
        :meth:`_best_alternative` computes — so a scan later in the round
        replays the precomputed row exactly when none of the worker's
        candidate memberships moved since the prepass.
        """
        cache = self.cache
        mem_indptr, mem_flat = cache.members_csr()
        versions = np.asarray(cache.versions, dtype=np.int64)
        slot_versions = versions[self._vp_tasks]
        stamps = np.zeros(self.instance.worker_count, dtype=np.int64)
        counts = np.diff(self._vp_indptr)
        nonempty = counts > 0
        if slot_versions.size:
            # reduceat over the *nonempty* segments only: dropping an
            # empty segment's start leaves the partition unchanged (its
            # start equals its successor's), while keeping it would hit
            # reduceat's hazardous empty-segment semantics. Integer
            # sums, so reduceat's reordering is harmless here.
            starts = self._vp_indptr[:-1][nonempty]
            stamps[nonempty] = np.add.reduceat(slot_versions, starts)
        current_tasks = np.fromiter(
            (
                self.assignment.task_of(worker)
                for worker in range(self.instance.worker_count)
            ),
            dtype=np.int64,
            count=self.instance.worker_count,
        )
        values, codes = score_candidates(
            self._kernel_buffers,
            self._vp_indptr,
            self._vp_tasks,
            mem_indptr,
            mem_flat,
            cache.pair_sums,
            cache.revenues,
            self._capacities_array,
            self._minimum,
            _VECTOR_GROUP_LIMIT,
            current_tasks,
            stats=self.stats,
        )
        self._prepass = (stamps, values, codes)
        self._rescan_dirty.clear()

    def _refresh_prepass_rows(self) -> None:
        """Re-score every stale prepass row in one batched kernel call.

        An accepted move bumps the membership versions of (at most) two
        tasks, staling exactly the prepass rows of those tasks' watchers
        — the workers accumulated in ``_rescan_dirty``. This builds a
        sub-CSR over those rows (global task ids, so the full cache
        arrays index directly, like the round-start prepass) and patches
        the prepass arrays in place: stamps, utilities and
        classification codes. Rows whose stamp turns out unchanged are
        skipped — their precomputed values are still exact.
        """
        dirty = self._rescan_dirty
        prepass = self._prepass
        if not dirty or prepass is None:
            return
        stamps, values, codes = prepass
        cache = self.cache
        versions = np.asarray(cache.versions, dtype=np.int64)
        workers = np.fromiter(sorted(dirty), dtype=np.int64, count=len(dirty))
        dirty.clear()
        starts = self._vp_indptr[workers]
        counts = self._vp_indptr[workers + 1] - starts
        nonempty = counts > 0
        workers = workers[nonempty]
        starts = starts[nonempty]
        counts = counts[nonempty]
        if not workers.size:
            return
        sub_indptr = np.zeros(workers.size + 1, dtype=np.int64)
        np.cumsum(counts, out=sub_indptr[1:])
        total = int(sub_indptr[-1])
        # Slot positions of each row's slice in the flat CSR: for row i,
        # starts[i] .. starts[i] + counts[i] - 1.
        positions = np.repeat(starts - sub_indptr[:-1], counts) + np.arange(
            total, dtype=np.int64
        )
        slot_versions = versions[self._vp_tasks[positions]]
        # Integer sums — reduceat's segment reordering is harmless, and
        # every segment is nonempty after the filter above.
        new_stamps = np.add.reduceat(slot_versions, sub_indptr[:-1])
        changed = new_stamps != stamps[workers]
        if not changed.any():
            return
        workers = workers[changed]
        starts = starts[changed]
        counts = counts[changed]
        new_stamps = new_stamps[changed]
        sub_indptr = np.zeros(workers.size + 1, dtype=np.int64)
        np.cumsum(counts, out=sub_indptr[1:])
        total = int(sub_indptr[-1])
        positions = np.repeat(starts - sub_indptr[:-1], counts) + np.arange(
            total, dtype=np.int64
        )
        sub_tasks = self._vp_tasks[positions]
        mem_indptr, mem_flat = cache.members_csr()
        current_tasks = np.fromiter(
            (self.assignment.task_of(int(worker)) for worker in workers),
            dtype=np.int64,
            count=workers.size,
        )
        sub_values, sub_codes = score_candidates(
            self._kernel_buffers,
            sub_indptr,
            sub_tasks,
            mem_indptr,
            mem_flat,
            cache.pair_sums,
            cache.revenues,
            self._capacities_array,
            self._minimum,
            _VECTOR_GROUP_LIMIT,
            current_tasks,
            stats=self.stats,
            worker_ids=workers,
        )
        values[positions] = sub_values
        codes[positions] = sub_codes
        stamps[workers] = new_stamps
        self.stats.rescan_batches += 1
        self.stats.rescan_rows += int(workers.size)

    def _kernel_rescan(
        self, worker: int, tasks: list[int], current_task: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Score one worker's candidate row through the batched kernel.

        Builds a single-row CSR over the worker's candidate tasks
        (member lists gathered in cache order, per-task state gathered by
        global task id) and dispatches the same
        :func:`~repro.core.kernels.score_candidates` the round-start
        prepass uses — ``worker_ids`` carries the real worker id for the
        quality lookups. Slot order equals ``tasks`` order, so the
        returned ``(values, codes)`` align with the scan positions.
        """
        cache = self.cache
        member_array = cache.member_array
        count = len(tasks)
        arrays = [member_array(task) for task in tasks]
        lengths = np.fromiter((a.size for a in arrays), dtype=np.int64, count=count)
        mem_indptr = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(lengths, out=mem_indptr[1:])
        mem_flat = np.concatenate(arrays).astype(np.int64, copy=False)
        task_index = np.asarray(tasks, dtype=np.intp)
        try:
            current_position = tasks.index(current_task)
        except ValueError:  # unassigned (or an invalid current task)
            current_position = -1
        return score_candidates(
            self._kernel_buffers,
            np.array([0, count], dtype=np.int64),
            np.arange(count, dtype=np.int64),
            mem_indptr,
            mem_flat,
            cache.pair_sums[task_index],
            cache.revenues[task_index],
            self._capacities_array[task_index],
            self._minimum,
            _VECTOR_GROUP_LIMIT,
            np.array([current_position], dtype=np.int64),
            stats=self.stats,
            worker_ids=np.array([worker], dtype=np.int64),
        )

    def _fill_deferred_slots(
        self,
        worker: int,
        tasks: list[int],
        utilities: np.ndarray,
        codes: np.ndarray,
        current_utility: float,
    ) -> None:
        """Fill the slots a kernel pass deferred to the caller, in place:
        overflow/oversized joins via the (memoized) scalar peel and the
        worker's own task via the already-computed ``leave_delta``."""
        cache = self.cache
        versions = cache.versions
        memo = self._overflow_memo
        for position in np.flatnonzero(codes == CODE_SCALAR):
            position = int(position)
            task = tasks[position]
            key = (worker, task)
            version = versions[task]
            entry = memo.get(key)
            if entry is not None and entry[0] == version:
                utilities[position] = entry[1]
            else:
                gain = cache.join_gain(worker, task)
                memo[key] = (version, gain)
                utilities[position] = gain
        for position in np.flatnonzero(codes == CODE_CURRENT):
            utilities[int(position)] = current_utility

    # ------------------------------------------------------------------
    def run_round(self, players=None) -> tuple[int, float]:
        """One Algorithm 3 round: every worker plays its best response.

        ``players`` restricts the round to the given workers, in the
        given order — the sharded solver's halo-reconcile passes play
        border workers only. ``None`` (the default) plays everyone.
        Returns ``(moves, score_gain)``; the gain equals the potential
        increase of the round (Theorem V.1).
        """
        if players is None:
            # Restricted rounds skip the all-workers prepass: with few
            # players the per-worker kernel rescan is cheaper than
            # scoring every worker's candidates up front.
            self._run_prepass()
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
        if self._prepass is not None:
            # The move bumped (at most) these two tasks' membership
            # versions, staling exactly their watchers' prepass rows.
            for task in (current_task, best_task):
                if task != UNASSIGNED:
                    self._rescan_dirty.update(
                        self.valid_pairs.workers_for_task[task]
                    )
        self._cached_best[worker] = best_task
        self._dirty[worker] = False
        return best_utility - current_utility

    def _best_alternative(
        self, worker: int, current_task: int, current_utility: float
    ) -> tuple[int, float]:
        """The worker's best task *other than* staying put.

        With LUB enabled and a clean cache, only the cached candidate is
        re-evaluated; otherwise all valid tasks are scored by the batched
        kernel (a prepass replay or a one-row rescan). ``current_utility``
        is the already-computed ``leave_delta`` of the worker's current
        task.
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

        prepass = self._prepass
        if (
            prepass is not None
            and self._rescan_dirty
            and prepass[0][worker] != stamp
        ):
            # The row is stale and moves have accumulated a dirty set:
            # refresh every stale row in one batched call, then replay
            # this worker's (now exact) row below. Later stale workers
            # in the same round replay without any further kernel work.
            self._refresh_prepass_rows()
        if prepass is not None and prepass[0][worker] == stamp:
            # Round-start prepass replay: the stamp match proves none of
            # the worker's candidate memberships (including its own
            # task's) moved since the batched pass, so the precomputed
            # utilities and classifications are still exact.
            start = int(self._vp_indptr[worker])
            end = int(self._vp_indptr[worker + 1])
            utilities = prepass[1][start:end].copy()
            codes = prepass[2][start:end]
        else:
            # Mid-round rescan: the worker's neighbourhood moved since
            # the round-start prepass (or no prepass ran — restricted
            # reconcile rounds). Re-score just this worker's row.
            utilities, codes = self._kernel_rescan(worker, tasks, current_task)
        # Only the deferred slots remain: overflow/oversized joins via the
        # memoized scalar peel, the worker's own task via ``leave_delta``.
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
            toward_leaving = self.quality.q_col(leaving)
            toward_entering = self.quality.q_col(entering)
            for other in watchers:
                if other in (entering, leaving):
                    self._mark_dirty(other)
                    continue
                if self._cached_best[other] == task:
                    if toward_leaving[other] > toward_entering[other]:
                        self._mark_dirty(other)
                else:
                    if toward_leaving[other] < toward_entering[other]:
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
