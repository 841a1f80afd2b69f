"""Task-Priority Greedy (TPG) — Algorithm 2 of the paper.

Two stages:

1. **Seeding.** Iteratively give each still-empty task its best
   ``B``-worker set (greedy build: best available pair, then argmax
   marginal additions), pick the task whose set scores highest overall,
   and commit it. Ties between tasks competing for the same set go to the
   task with the most remaining candidate workers, so the loser keeps a
   wider choice later (paper lines 6-9).
2. **Filling.** Repeatedly commit the single valid worker-task pair with
   the highest marginal revenue gain ``DeltaQ`` (Equation 4) until tasks
   are full or workers run out.

The implementation keeps the asymptotics of the paper's analysis
(``max(O(m n n_bar), O(m_bar n^2))``) and batches both stages:

* stage 1 (:func:`seed_groups`) evaluates each task's best set in one
  kernel call over the store's flat buffers
  (:func:`~repro.core.kernels.best_group`), caches it in a
  version-stamped max-heap and recomputes only the sets that lost a member
  to the last commit, found through an inverted index from each worker to
  the cached sets holding it — no per-commit rescan of the open tasks;
* stage 2 keeps a version-stamped heap of pair gains, so each commit
  re-scores only the pairs of the task whose membership changed, and
  scores all of that task's idle candidates in one block evaluation
  (:meth:`~repro.core.revenue.RevenueCache.join_gains`).

Every score, tie-break and counter is bit-identical to the scalar loops
these replace; the sharding pipeline's border seeding reuses
:func:`seed_groups` with its own floor and tie rule.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

import numpy as np

from repro.core.assignment import Assignment
from repro.core.kernels import best_group
from repro.core.model import Instance
from repro.core.stats import SolverStats
from repro.core.validity import ValidPairs, compute_valid_pairs

__all__ = ["solve_tpg", "greedy_best_group", "seed_groups", "TPGResult"]


@dataclass(frozen=True)
class TPGResult:
    """Outcome of a TPG run.

    ``seeded_tasks`` is the number of tasks that received a full
    ``B``-worker set in stage 1 (the paper's ``N_init``, used by the
    price-of-anarchy bound of Theorem V.2). ``stats`` carries the
    :class:`~repro.core.stats.SolverStats` instrumentation: stage-1/
    stage-2 wall-clock, marginal-gain evaluation counts and the revenue
    cache's incremental-vs-full evaluation split.
    """

    assignment: Assignment
    seeded_tasks: int
    stats: SolverStats | None = None


#: Memoized combination tables for :func:`exact_best_group`, keyed by
#: ``(candidate_count, size)``: the combination matrix plus one pair of
#: column index arrays per unordered position pair. Stage 1 calls the
#: exact seeder hundreds of times per batch with the same tiny shapes,
#: so the itertools enumeration is paid once per shape.
_COMBO_TABLES: dict[
    tuple[int, int], tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]
] = {}


def _combo_table(
    count: int, size: int
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    import itertools

    key = (count, size)
    table = _COMBO_TABLES.get(key)
    if table is None:
        combos = np.asarray(
            list(itertools.combinations(range(count), size)), dtype=np.intp
        )
        pair_columns = [
            (combos[:, i], combos[:, j])
            for i in range(size)
            for j in range(i + 1, size)
        ]
        table = (combos, pair_columns)
        _COMBO_TABLES[key] = table
    return table


def exact_best_group(
    quality, candidates: list[int], size: int, stats=None
) -> tuple[list[int], float]:
    """Exhaustive max-quality ``size``-group (tiny candidate sets only).

    Used by :func:`greedy_best_group` below a candidate-count threshold,
    and by tests as the oracle for the greedy's approximation quality.

    The enumeration is vectorized
    (:func:`~repro.core.kernels.exact_group_select`, run by
    :func:`~repro.core.kernels.best_group`): each combination's pair sum
    is the sequential left-to-right accumulation over its position pairs
    in lexicographic order — the same float additions, in the same
    order, as the scalar loop it replaced — and ``argmax`` keeps the
    first maximum exactly like a strict ``>`` scan. ``stats`` counts the
    kernel call.
    """
    count = len(candidates)
    if count < size or size < 2:
        return [], 0.0
    return best_group(
        quality.as_kernel_buffers(),
        sorted(candidates),
        size,
        table=_combo_table(count, size),
        stats=stats,
    )


#: Candidate-count threshold below which stage 1 solves the B-group
#: subproblem exactly instead of greedily. C(12, 3) = 220 evaluations —
#: cheaper than the vectorized greedy's setup at that size.
EXACT_SEED_THRESHOLD = 12


def greedy_best_group(
    quality, candidates: list[int], size: int, stats=None
) -> tuple[list[int], float]:
    """Greedy max-quality ``size``-group from ``candidates``.

    Seeds with the candidate pair maximizing ``q_i(w_k) + q_k(w_i)`` and
    grows by argmax cross-sum additions
    (:func:`~repro.core.kernels.greedy_group_select`), evaluated over the
    quality store's kernel buffers. Returns ``(group, Q)`` where
    ``Q`` is the Equation 2 revenue of the group (denominator
    ``size - 1``); returns ``([], 0.0)`` when there are not enough
    candidates. Falls back to the exact enumeration when the candidate
    set is tiny (:data:`EXACT_SEED_THRESHOLD`). ``stats`` counts the
    kernel calls.
    """
    count = len(candidates)
    if count < size or size < 2:
        return [], 0.0
    if count <= EXACT_SEED_THRESHOLD:
        return exact_best_group(quality, candidates, size, stats=stats)
    return best_group(quality.as_kernel_buffers(), candidates, size, stats=stats)


def solve_tpg(
    instance: Instance,
    valid_pairs: ValidPairs | None = None,
    allow_negative_gain: bool = False,
) -> Assignment:
    """Run TPG and return a feasible assignment.

    Parameters
    ----------
    instance:
        The batch to solve.
    valid_pairs:
        Precomputed Definition 3 structure; computed here when omitted.
    allow_negative_gain:
        Stage 2 normally stops committing a pair whose marginal gain is
        not positive (an extra worker can dilute a group's average).
        Enable to reproduce the paper's literal "assign every worker to
        his/her most suitable task" reading.
    """
    return _solve_tpg_full(instance, valid_pairs, allow_negative_gain).assignment


def solve_tpg_with_stats(
    instance: Instance,
    valid_pairs: ValidPairs | None = None,
    allow_negative_gain: bool = False,
) -> TPGResult:
    """Like :func:`solve_tpg` but also reports stage-1 statistics."""
    return _solve_tpg_full(instance, valid_pairs, allow_negative_gain)


def _solve_tpg_full(
    instance: Instance,
    valid_pairs: ValidPairs | None,
    allow_negative_gain: bool,
) -> TPGResult:
    if valid_pairs is None:
        valid_pairs = compute_valid_pairs(instance)
    assignment = Assignment(instance, valid_pairs)
    available = np.ones(instance.worker_count, dtype=bool)
    stats = SolverStats(solver="TPG")

    started = time.perf_counter()
    seeded = set(
        seed_groups(
            instance,
            valid_pairs,
            assignment,
            available,
            range(instance.task_count),
            stats=stats,
            prefer_wider=True,
            positive_only=False,
        )
    )
    stage_one_done = time.perf_counter()
    _stage_two(
        instance, valid_pairs, assignment, available, seeded,
        allow_negative_gain, stats,
    )
    finished = time.perf_counter()

    stats.add_cache_counters(assignment.revenue_cache)
    stats.phase_seconds["stage1"] = stage_one_done - started
    stats.phase_seconds["stage2"] = finished - stage_one_done
    stats.total_seconds = finished - started
    return TPGResult(assignment=assignment, seeded_tasks=len(seeded), stats=stats)


class _TaskWorkers:
    """Each task's valid workers as an index array, built on first use."""

    __slots__ = ("_lists", "_arrays")

    def __init__(self, valid_pairs: ValidPairs) -> None:
        self._lists = valid_pairs.workers_for_task
        self._arrays: dict[int, np.ndarray] = {}

    def idle(self, task: int, available: np.ndarray) -> np.ndarray:
        """The task's still-available workers, in validity order."""
        workers = self._arrays.get(task)
        if workers is None:
            workers = np.asarray(self._lists[task], dtype=np.intp)
            self._arrays[task] = workers
        return workers[available[workers]]


def seed_groups(
    instance: Instance,
    valid_pairs: ValidPairs,
    assignment: Assignment,
    available: np.ndarray,
    tasks,
    stats: SolverStats | None = None,
    *,
    prefer_wider: bool,
    positive_only: bool,
) -> list[int]:
    """Commit best ``B``-groups to ``tasks`` until none is left to commit.

    The stage-1 loop: every task caches its best group over the
    available workers (:func:`greedy_best_group`); the highest-scoring
    cached group commits (lowest task id among equal scores), its members
    leave the pool, and exactly the cached groups that held one of them
    are recomputed. Tasks left without a group drop out. Returns the
    committed tasks in commit order.

    A version-stamped max-heap over ``(-score, task)`` finds the commit
    without rescanning every open task, and an inverted index from each
    worker to the tasks whose cached group holds it finds the stale
    groups without sweeping the cache. ``prefer_wider`` replays the
    paper's tie rule (lines 6-9) over the tied top entries, in task
    order: a later task with the *same* group and strictly more available
    candidates takes the commit. ``positive_only`` commits only groups
    scoring above zero (the border seeding's monotone-score floor).
    """
    minimum = instance.min_group_size
    quality = instance.quality
    pool = _TaskWorkers(valid_pairs)
    groups: dict[int, list[int]] = {}  # cached best group of each live task
    holders: dict[int, set[int]] = {}  # worker -> tasks whose group holds it
    versions = [0] * instance.task_count
    heap: list[tuple[float, int, int]] = []  # (-score, task, version)

    def evaluate(task: int) -> None:
        versions[task] += 1
        candidates = pool.idle(task, available).tolist()
        group, score = greedy_best_group(
            quality, candidates, minimum, stats=stats
        )
        if not group:
            return  # no group left: the task drops out
        groups[task] = group
        for worker in group:
            holders.setdefault(worker, set()).add(task)
        heapq.heappush(heap, (-score, task, versions[task]))

    def pop_live() -> tuple[float, int, int] | None:
        while heap:
            entry = heapq.heappop(heap)
            if entry[2] == versions[entry[1]]:
                return entry
        return None

    def candidate_count(task: int) -> int:
        return int(pool.idle(task, available).size)

    for task in tasks:
        evaluate(task)

    committed: list[int] = []
    while True:
        top = pop_live()
        if top is None or (positive_only and not -top[0] > 0.0):
            break
        best_task = top[1]
        group = groups[best_task]
        if prefer_wider:
            tied = [top]
            while heap and heap[0][0] == top[0]:
                entry = heapq.heappop(heap)
                if entry[2] == versions[entry[1]]:
                    tied.append(entry)
            most = None
            for _, task, _ in tied[1:]:
                if groups[task] == group:
                    if most is None:
                        most = candidate_count(best_task)
                    count = candidate_count(task)
                    if count > most:
                        best_task, most = task, count
            for entry in tied:
                if entry[1] != best_task:
                    heapq.heappush(heap, entry)

        versions[best_task] += 1
        del groups[best_task]
        for worker in group:
            assignment.assign(worker, best_task)
            available[worker] = False
        committed.append(best_task)
        stale: set[int] = set()
        for worker in group:
            stale |= holders.pop(worker, set())
        stale.discard(best_task)
        for task in sorted(stale):
            for worker in groups.pop(task):
                tasks_held = holders.get(worker)
                if tasks_held is not None:
                    tasks_held.discard(task)
            evaluate(task)
    return committed


def _stage_two(
    instance: Instance,
    valid_pairs: ValidPairs,
    assignment: Assignment,
    available: np.ndarray,
    seeded: set[int],
    allow_negative_gain: bool,
    stats: SolverStats | None = None,
) -> None:
    """Fill seeded tasks up to capacity by max marginal gain."""
    open_tasks = {
        task
        for task in seeded
        if assignment.assigned_count(task) < instance.tasks[task].capacity
    }
    if not open_tasks or not available.any():
        return

    pool = _TaskWorkers(valid_pairs)
    cache = assignment.revenue_cache
    versions = [0] * instance.task_count
    heap: list[tuple[float, int, int, int]] = []  # (-gain, version, worker, task)

    def push_pairs_for_task(task: int) -> None:
        idle = pool.idle(task, available)
        if not idle.size:
            return
        # One batched evaluation scores every idle candidate of the task.
        gains = cache.join_gains(idle, task)
        version = versions[task]
        for worker, gain in zip(idle.tolist(), gains):
            heapq.heappush(heap, (-gain, version, worker, task))
        if stats is not None:
            stats.gain_evaluations += len(gains)

    for task in open_tasks:
        push_pairs_for_task(task)

    idle_workers = int(np.count_nonzero(available))
    while heap and open_tasks and idle_workers:
        negative_gain, version, worker, task = heapq.heappop(heap)
        if task not in open_tasks or not available[worker]:
            continue
        if version != versions[task]:
            continue  # stale entry; a fresh one was pushed on the update
        gain = -negative_gain
        if not allow_negative_gain and gain <= 0.0:
            break  # heap max is non-positive: no pair improves the score
        assignment.assign(worker, task)
        available[worker] = False
        idle_workers -= 1
        versions[task] += 1
        if assignment.assigned_count(task) >= instance.tasks[task].capacity:
            open_tasks.discard(task)
        else:
            push_pairs_for_task(task)
