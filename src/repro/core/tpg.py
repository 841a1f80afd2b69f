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

* stage 1 (:func:`seed_groups`) reads each task's candidates from its
  task-local block (:class:`_CandidateBlocks`), masking the workers
  that have left, caches each best set in a version-stamped max-heap and
  recomputes only the sets that lost a member to the last commit, found
  through an inverted index from each worker to the cached sets holding
  it — no per-commit rescan of the open tasks. All groups commit in one
  :meth:`~repro.core.assignment.Assignment.assign_pairs` call;
* stage 2 (:func:`_stage_two`) numbers every open task's idle watchers
  into flat slots and keeps each slot's row and column sum over its
  task's members, read for all slots at once and grown by one column
  read per commit, so a gain is ``(S + cross) / k - Q`` elementwise
  from sums it already holds. A max-heap holds one head per open task,
  its best live slot; a commit re-scores only its own task, and a head
  whose worker another task took is replaced from the task's stored
  gains. Stage 2 keeps its tasks' ``S``, ``k`` and ``Q`` itself, and
  all its commits reach the assignment in one
  :meth:`~repro.core.assignment.Assignment.assign_pairs` call.

Every score, tie-break and counter is bit-identical to the scalar loops
these replace (stage 1's from-scratch loop is
:func:`repro.audit.reference.reference_seed_groups`, stage 2's per-pair
heap loop :func:`repro.audit.reference.reference_stage_two`); the
sharding pipeline's border seeding reuses :func:`seed_groups` with its
own floor and tie rule.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass

import numpy as np

from repro.core.assignment import Assignment
from repro.core.kernels import (
    cross_values,
    exact_group_select,
    greedy_group_select,
    ordered_row_sums,
)
from repro.core.model import Instance
from repro.core.quality_store import StoreReads, task_blocks
from repro.core.stats import SolverStats
from repro.core.validity import ValidPairs, compute_valid_pairs

__all__ = ["solve_tpg", "seed_groups", "TPGResult"]


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


#: Memoized combination tables for stage 1's exact selection, keyed by
#: ``(candidate_count, size)``: the combination matrix plus each
#: combination's position pairs as flat offsets into the pair block
#: (:func:`~repro.core.kernels.exact_group_select`). Stage 1 calls the
#: exact seeder hundreds of times per batch with the same tiny shapes,
#: so the itertools enumeration is paid once per shape.
_COMBO_TABLES: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _combo_table(count: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    key = (count, size)
    table = _COMBO_TABLES.get(key)
    if table is None:
        combos = np.asarray(
            list(itertools.combinations(range(count), size)), dtype=np.intp
        )
        rows, cols = np.triu_indices(size, 1)
        offsets = (combos[:, rows] * count + combos[:, cols]).T
        table = (combos, np.ascontiguousarray(offsets))
        _COMBO_TABLES[key] = table
    return table


#: Candidate-count threshold below which stage 1 solves the B-group
#: subproblem exactly instead of greedily. C(12, 3) = 220 evaluations —
#: cheaper than the vectorized greedy's setup at that size.
EXACT_SEED_THRESHOLD = 12


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
    reads=None,
) -> TPGResult:
    """TPG over ``reads``, the task-block reader of the solve it is part
    of (GT's initialisation), or over one of its own when ``None``; only
    its own reader's builds are counted into its stats."""
    if valid_pairs is None:
        valid_pairs = compute_valid_pairs(instance)
    available = np.ones(instance.worker_count, dtype=bool)
    stats = SolverStats(solver="TPG")
    own_reads = reads is None
    if own_reads:
        reads = task_blocks(instance.quality, valid_pairs)

    assignment = Assignment(instance, valid_pairs)
    assignment.revenue_cache.use_reads(reads)
    started = time.perf_counter()
    seeded = {
        task
        for task, _, _ in _seed_groups(
            instance,
            valid_pairs,
            reads,
            assignment,
            available,
            range(instance.task_count),
            stats,
            prefer_wider=True,
            positive_only=False,
        )
    }
    stage_one_done = time.perf_counter()
    _stage_two(
        instance, valid_pairs, assignment, available, seeded,
        allow_negative_gain, stats,
    )
    assignment.revenue_cache.use_reads(StoreReads(instance.quality))
    finished = time.perf_counter()

    stats.add_cache_counters(assignment.revenue_cache)
    if own_reads:
        stats.add_block_counters(reads)
    stats.phase_seconds["stage1"] = stage_one_done - started
    stats.phase_seconds["stage2"] = finished - stage_one_done
    stats.total_seconds = finished - started
    return TPGResult(assignment=assignment, seeded_tasks=len(seeded), stats=stats)


class _CandidateBlocks:
    """Each task's stage-1 candidates, read from its task-local block.

    A task's valid workers are fixed within a batch; only their
    availability shrinks. Each evaluation reads the task's watchers as
    a slice of :class:`ValidPairs`' task side — ascending, so one order
    serves the greedy and the exact selection — cuts the live
    candidates' block out of the task's block in the solve's task-block
    reader ``reads`` (:func:`~repro.core.quality_store.task_blocks`) and
    adds its transpose. One path for every backend.
    """

    __slots__ = ("_reads", "_pairs", "_available")

    def __init__(self, reads, valid_pairs: ValidPairs, available: np.ndarray):
        self._reads = reads
        self._pairs = valid_pairs
        self._available = available

    def live_count(self, task: int) -> int:
        """How many of the task's candidates are still available."""
        return int(np.count_nonzero(self._available[self._pairs.workers_of(task)]))

    def best_group(
        self, task: int, size: int, stats: SolverStats | None
    ) -> tuple[list[int], float]:
        """The task's best ``size``-group over its available candidates.

        Returns ``(group, Q)`` with the group in selection order and
        ``Q`` its Equation 2 revenue, or ``([], 0.0)`` when no group is
        left. Exact enumeration up to :data:`EXACT_SEED_THRESHOLD` live
        candidates, greedy above it; ``stats`` counts one kernel call per
        selection run.
        """
        if size < 2:
            return [], 0.0
        ids = self._pairs.workers_of(task)
        live = self._available[ids].nonzero()[0]
        count = live.size
        if count < size:
            return [], 0.0
        symmetric = self._reads.pair_block(task, live)
        if stats is not None:
            stats.kernel_fallback_calls += 1
        if count <= EXACT_SEED_THRESHOLD:
            combos, offsets = _combo_table(count, size)
            best, pair_sum = exact_group_select(symmetric, offsets)
            chosen = combos[best]
        else:
            selection = greedy_group_select(symmetric, size)
            if selection is None:
                return [], 0.0
            chosen, pair_sum = selection
        return ids[live[chosen]].tolist(), pair_sum / (size - 1)


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
) -> list[tuple[int, list[int], float]]:
    """Commit best ``B``-groups to ``tasks`` until none is left to commit.

    The stage-1 loop: every task caches its best group over the
    available workers (:class:`_CandidateBlocks`); the highest-scoring
    cached group commits (lowest task id among equal scores), its members
    leave the pool, and exactly the cached groups that held one of them
    are recomputed. Tasks left without a group drop out. Returns the
    commits in order, as ``(task, group in selection order, Q)``.

    A version-stamped max-heap over ``(-score, task)`` finds the commit
    without rescanning every open task, and an inverted index from each
    worker to the tasks whose cached group holds it finds the stale
    groups without sweeping the cache. ``prefer_wider`` replays the
    paper's tie rule (lines 6-9) over the tied top entries, in task
    order: a later task with the *same* group and strictly more available
    candidates takes the commit. ``positive_only`` commits only groups
    scoring above zero (the border seeding's monotone-score floor).
    Selection never reads the revenue state, so every commit reaches
    ``assignment`` in one :meth:`~repro.core.assignment.Assignment.assign_pairs`
    call at the end — the state of one ``assign`` per member, bit for
    bit.

    Stage 1 reads a task-block reader of its own
    (:func:`~repro.core.quality_store.task_blocks`), whose builds are
    counted into ``stats``.
    """
    reads = task_blocks(instance.quality, valid_pairs)
    commits = _seed_groups(
        instance, valid_pairs, reads, assignment, available, tasks, stats,
        prefer_wider=prefer_wider, positive_only=positive_only,
    )
    if stats is not None:
        stats.add_block_counters(reads)
    return commits


def _seed_groups(
    instance: Instance,
    valid_pairs: ValidPairs,
    reads,
    assignment: Assignment,
    available: np.ndarray,
    tasks,
    stats: SolverStats | None,
    *,
    prefer_wider: bool,
    positive_only: bool,
) -> list[tuple[int, list[int], float]]:
    """:func:`seed_groups` over the task-block reader ``reads``."""
    minimum = instance.min_group_size
    blocks = _CandidateBlocks(reads, valid_pairs, available)
    groups: dict[int, list[int]] = {}  # cached best group of each live task
    holders: dict[int, set[int]] = {}  # worker -> tasks whose group holds it
    versions = [0] * instance.task_count
    heap: list[tuple[float, int, int]] = []  # (-score, task, version)

    def evaluate(task: int) -> None:
        versions[task] += 1
        group, score = blocks.best_group(task, minimum, stats)
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

    for task in tasks:
        evaluate(task)

    commits: list[tuple[int, list[int], float]] = []
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
                        most = blocks.live_count(best_task)
                    count = blocks.live_count(task)
                    if count > most:
                        best_task, most = task, count
            for entry in tied:
                if entry[1] != best_task:
                    heapq.heappush(heap, entry)

        versions[best_task] += 1
        del groups[best_task]
        available[group] = False
        commits.append((best_task, group, -top[0]))
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
    assignment.assign_pairs(
        (worker, task) for task, group, _ in commits for worker in group
    )
    return commits




def _slot_sums(
    reads, positions: np.ndarray, members: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each slot's row and column sums over its task's members: position
    ``positions[i]`` against the row ``members[i]``, each orientation
    summed left to right (:func:`~repro.core.kernels.ordered_row_sums`),
    as ``cross_sum`` sums them."""
    toward, back = cross_values(reads, positions[:, None], members)
    return ordered_row_sums(toward), ordered_row_sums(back)


def _stage_two(
    instance: Instance,
    valid_pairs: ValidPairs,
    assignment: Assignment,
    available: np.ndarray,
    seeded: set[int],
    allow_negative_gain: bool,
    stats: SolverStats | None = None,
) -> list[tuple[int, int, float]]:
    """Fill seeded tasks up to capacity by max marginal gain.

    Returns the commits in order as ``(worker, task, gain)``; they reach
    ``assignment`` in one
    :meth:`~repro.core.assignment.Assignment.assign_pairs` call at the
    end. The loop is :func:`repro.audit.reference.reference_stage_two`'s
    (one heap over ``(-gain, version, worker, task)``, a task's version
    bumped by each of its commits), with its gains, order and
    ``gain_evaluations`` bit for bit.

    Every open task's available watchers are numbered into flat slots,
    task by task, each task's ascending. A slot keeps its row sum and
    column sum over the task's members in member order, read once for
    all slots (members padded with the slot's own position, whose
    diagonal 0.0 adds nothing) and grown by one term per commit, so
    they stay ``cross_sum``'s two sums and the gains ``fit_join_gains``'
    floats. The heap holds one head per open task, its best live slot
    (first maximum in worker order): a task's gains change only with its
    own members, so a head whose worker another task took is replaced
    by the next best of the task's stored gains, and a commit re-scores
    only its own task, from one column read.
    """
    cache = assignment.revenue_cache
    reads = cache.reads
    tasks = np.asarray(sorted(seeded), dtype=np.int64)
    tasks = tasks[cache.counts[tasks] < cache.capacities[tasks]]
    counts = cache.counts[tasks]
    # Seeded tasks hold at least B members and have room, so every join
    # fits its task and reaches B: the case of ``fit_join_gains``.
    assert (counts >= max(cache.min_group_size, 1)).all()

    firsts = valid_pairs.task_ptr[tasks]
    sizes = valid_pairs.task_ptr[tasks + 1] - firsts
    owner = np.repeat(np.arange(tasks.size), sizes)
    watchers = valid_pairs.task_workers[
        np.arange(owner.size) + np.repeat(firsts - (np.cumsum(sizes) - sizes), sizes)
    ]
    idle = available[watchers]
    watchers, owner = watchers[idle], owner[idle]
    if not watchers.size:
        return []
    lengths = np.bincount(owner, minlength=tasks.size)
    starts = np.zeros(tasks.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=starts[1:])
    positions = reads.locate(tasks[owner], watchers)
    table = np.full((tasks.size, int(counts.max())), -1, dtype=np.int64)
    for row, task in enumerate(tasks.tolist()):
        table[row, : counts[row]] = cache.member_positions(task)
    members = table[owner]
    members = np.where(members < 0, positions[:, None], members)
    toward, back = _slot_sums(reads, positions, members)

    pair_sums = cache.pair_sums[tasks]
    revenues = cache.revenues[tasks]
    gains = (pair_sums[owner] + (toward + back)) / counts[owner] - revenues[owner]
    if stats is not None:
        stats.gain_evaluations += gains.size
    # Each task's head: the first maximum of its slots.
    filled = np.flatnonzero(lengths)
    best = np.maximum.reduceat(gains, starts[filled])
    hits = np.flatnonzero(gains == np.repeat(best, lengths[filled]))
    heads = hits[np.diff(owner[hits], prepend=-1) != 0]
    heap = list(
        zip(
            (-gains[heads]).tolist(),
            [0] * heads.size,
            watchers[heads].tolist(),
            tasks[owner[heads]].tolist(),
            heads.tolist(),
        )
    )  # (-gain, version, worker, task, slot)
    heapq.heapify(heap)

    pair_sums, revenues = pair_sums.tolist(), revenues.tolist()
    counts = counts.tolist()
    capacities = cache.capacities[tasks].tolist()
    versions = [0] * tasks.size
    starts = starts.tolist()
    owner = owner.tolist()

    def push_head(row: int, task: int, push) -> int:
        """Put the row's best live slot on the heap with ``push``;
        returns how many live slots the row has."""
        live = starts[row] + np.flatnonzero(
            available[watchers[starts[row] : starts[row + 1]]]
        )
        if live.size:
            slot = int(live[np.argmax(gains[live])])
            entry = (-float(gains[slot]), versions[row], int(watchers[slot]), task, slot)
            push(heap, entry)
        return live.size

    commits: list[tuple[int, int, float]] = []
    idle_workers = int(np.count_nonzero(available))
    while heap and idle_workers:
        negative_gain, _, worker, task, slot = heap[0]
        row = owner[slot]
        if not available[worker]:
            # Taken by another task: the next best of the stored gains.
            if not push_head(row, task, heapq.heapreplace):
                heapq.heappop(heap)
            continue
        gain = -negative_gain
        if not allow_negative_gain and gain <= 0.0:
            break  # heap max is non-positive: no pair improves the score
        heapq.heappop(heap)
        available[worker] = False
        idle_workers -= 1
        commits.append((worker, task, gain))
        pair_sums[row] += float(toward[slot] + back[slot])
        counts[row] += 1
        revenues[row] = pair_sums[row] / (counts[row] - 1)
        versions[row] += 1
        if counts[row] >= capacities[row]:
            continue
        column = slice(starts[row], starts[row + 1])
        near, far = cross_values(reads, positions[column], positions[slot])
        toward[column] += near
        back[column] += far
        cross = toward[column] + back[column]
        gains[column] = (pair_sums[row] + cross) / counts[row] - revenues[row]
        scored = push_head(row, task, heapq.heappush)
        if stats is not None:
            stats.gain_evaluations += scored
    assignment.assign_pairs((worker, task) for worker, task, _ in commits)
    return commits
