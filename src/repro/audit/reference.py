"""Bit-exact scalar references for the batched GT/TPG kernels.

The solvers evaluate Equation 5 and the Equation-2 best-``a_j``-subset
peel through the batched kernels of :mod:`repro.core.kernels`. The
functions here are the scalar evaluations those kernels replaced, kept
as oracles: unlike :mod:`repro.audit.invariants`, whose from-scratch
Equation 2 shares no code with the hot path and is compared within a
tolerance, these reproduce the hot path's summation order, so the tests
compare the kernels against them repr-exactly.

* :func:`reference_counted_subset` — the greedy peel, one
  ``cross_sum`` per member per peeled worker, sharing no code with the
  lockstep peel kernel;
* :func:`reference_join_gain` / :func:`reference_leave_delta` — one
  join gain or leave delta read through the store, the oracles of
  ``RevenueCache.join_gains`` / ``leave_deltas``;
* :func:`reference_utilities` / :func:`reference_best_alternative` — a
  worker's best-response scan as one scalar evaluation per candidate;
* :func:`reference_round` — a GT best-response round as a per-worker
  loop over that scan, the oracle of
  :meth:`repro.core.game._BestResponseDynamics.run_round`'s bulk
  classification: moves, gains, LUB invalidations and scan counters;
* :func:`verify_nash_equilibrium` — a profile's profitable deviations;
* :func:`reference_greedy_select` / :func:`reference_exact_select` —
  stage 1's two selection rules as plain Python loops (a strict ``>``
  pair scan then sequential argmax additions; ``itertools``
  combinations with left-to-right pair sums), sharing no code with
  :func:`~repro.core.kernels.greedy_group_select` and
  :func:`~repro.core.kernels.exact_group_select`;
* :func:`reference_best_group` / :func:`reference_seed_groups` — TPG
  stage 1 with every evaluation gathered from scratch through the
  store's own ``block``, selected by those loops, and every commit a
  sequential ``assign``, the
  oracle of :func:`repro.core.tpg.seed_groups`' cached candidate blocks
  and bulk commit; :func:`stage_one_trace` is the comparison key;
* :func:`reference_stage_two` — TPG stage 2 as a per-pair heap loop,
  every gain one :func:`reference_join_gain` and every commit an
  ``assign``, the oracle of :func:`repro.core.tpg._stage_two`'s
  per-task heads over running cross sums and bulk commit, from
  :func:`stage_two_start`; :func:`stage_two_trace` is the comparison
  key;
* :func:`reference_group_quality` — the Meetup Equation 1 through a
  dense incidence matmul, the oracle of
  :meth:`repro.core.quality.CooperationMatrix.from_group_memberships`'
  in-place build, which must match it bit for bit.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterable, Sequence

import numpy as np

from repro.core.assignment import UNASSIGNED, Assignment
from repro.core.game import _lub_invalidate
from repro.core.quality import DEFAULT_ALPHA, DEFAULT_BASE_QUALITY, CooperationMatrix
from repro.core.quality_store import task_blocks
from repro.core.revenue import RevenueCache
from repro.core.stats import SolverStats
from repro.core.tpg import EXACT_SEED_THRESHOLD, seed_groups

__all__ = [
    "reference_counted_subset",
    "reference_join_gain",
    "reference_leave_delta",
    "reference_utilities",
    "reference_best_alternative",
    "reference_round",
    "reference_greedy_select",
    "reference_exact_select",
    "reference_best_group",
    "reference_seed_groups",
    "stage_one_trace",
    "reference_stage_two",
    "stage_two_start",
    "stage_two_trace",
    "cache_state",
    "reference_group_quality",
    "verify_nash_equilibrium",
]

def reference_counted_subset(
    quality, members: Sequence[int], size: int
) -> list[int]:
    """The greedy counted-subset peel, evaluated through the store.

    Repeatedly removes the member with the smallest ordered-pair
    contribution to the rest (its ``cross_sum`` over the others),
    ties peeling the *highest* worker index — the contract of
    :func:`repro.core.revenue.best_counted_subset`, which must match
    this bit for bit. Returns the kept members sorted.
    """
    if size < 0:
        raise ValueError(f"size must be non-negative, got {size}")
    kept = sorted(members)
    if len(kept) != len(set(kept)):
        raise ValueError(f"duplicate members: {kept}")
    while len(kept) > size:
        scored = [
            (quality.cross_sum(worker, [k for k in kept if k != worker]), -worker)
            for worker in kept
        ]
        kept.pop(min(range(len(kept)), key=scored.__getitem__))
    return kept


def reference_join_gain(cache: RevenueCache, worker: int, task: int) -> float:
    """``DeltaQ`` of the idle ``worker`` joining ``task``, read through
    the cache's store: ``0 - Q`` below ``B``, for a singleton group or
    under a capacity of 2; within capacity the cached pair sum plus the
    store's ``cross_sum`` over the members; over capacity the reference
    peel's ``submatrix_sum``."""
    members = cache.member_list(task)
    if worker in members:
        raise ValueError(f"worker {worker} is already a member of task {task}")
    store, revenue = cache.quality, float(cache.revenues[task])
    size, capacity = len(members) + 1, int(cache.capacities[task])
    if size < cache.min_group_size or size < 2 or capacity < 2:
        return 0.0 - revenue
    if size <= capacity:
        cross = store.cross_sum(worker, members)
        return (float(cache.pair_sums[task]) + cross) / (size - 1) - revenue
    kept = reference_counted_subset(store, [*members, worker], capacity)
    return store.submatrix_sum(np.asarray(kept)) / (capacity - 1) - revenue


def reference_leave_delta(cache: RevenueCache, worker: int, task: int) -> float:
    """``Q(W_j) - Q(W_j - {w_i})`` of the member ``worker`` of ``task``,
    read through the cache's store: the whole revenue when the survivors
    fall below ``B`` or to one or the capacity is below 2; within
    capacity the cached pair sum less the store's ``cross_sum`` over the
    survivors; over capacity the survivors' ``submatrix_sum``, peeled
    first if they do not fit."""
    members = cache.member_list(task)
    if worker not in members:
        raise ValueError(f"worker {worker} is not a member of task {task}")
    store, current = cache.quality, float(cache.revenues[task])
    count, capacity = len(members), int(cache.capacities[task])
    if count - 1 < cache.min_group_size or count - 1 < 2 or capacity < 2:
        return current
    rest = [member for member in members if member != worker]
    if count <= capacity:
        cross = store.cross_sum(worker, rest)
        return current - (float(cache.pair_sums[task]) - cross) / (count - 2)
    if count - 1 <= capacity:
        return current - store.submatrix_sum(np.asarray(rest)) / (count - 2)
    kept = reference_counted_subset(store, rest, capacity)
    return current - store.submatrix_sum(np.asarray(kept)) / (capacity - 1)


def _current_utility(assignment: Assignment, worker: int) -> float:
    """The worker's Equation-5 utility at its task; 0.0 when idle."""
    task = assignment.task_of(worker)
    if task == UNASSIGNED:
        return 0.0
    return reference_leave_delta(assignment.revenue_cache, worker, task)


def reference_utilities(
    assignment: Assignment, worker: int, tasks: Sequence[int]
) -> list[float]:
    """Equation-5 utility of each of ``tasks`` for ``worker``: the
    scalar :func:`reference_leave_delta` for the worker's own task,
    :func:`reference_join_gain` for every other — the floats the batched
    scan (:func:`~repro.core.kernels.score_candidates` plus the revenue
    cache's fill of its other slots) must reproduce."""
    cache = assignment.revenue_cache
    current = assignment.task_of(worker)
    return [
        reference_leave_delta(cache, worker, task)
        if task == current
        else reference_join_gain(cache, worker, task)
        for task in tasks
    ]


def reference_best_alternative(
    assignment: Assignment, worker: int, tasks: Sequence[int]
) -> tuple[int, float]:
    """The first task of ``tasks`` with the highest utility, and that
    utility; ``(UNASSIGNED, 0.0)`` when ``tasks`` is empty."""
    best_task, best_utility = UNASSIGNED, -np.inf
    for task, utility in zip(tasks, reference_utilities(assignment, worker, tasks)):
        if utility > best_utility:
            best_task, best_utility = task, utility
    if best_task == UNASSIGNED:
        return UNASSIGNED, 0.0
    return best_task, float(best_utility)


def reference_round(
    assignment: Assignment,
    valid_pairs,
    order,
    tolerance: float,
    lazy_update: bool,
    state: dict | None = None,
    stats: SolverStats | None = None,
) -> tuple[int, float]:
    """One GT best-response round (Algorithm 3) as a per-worker loop.

    Each worker of ``order`` in turn: its current utility is
    :func:`reference_leave_delta`; with ``lazy_update`` and a clean cache it re-reads
    its cached task (LUB), otherwise it scans every candidate
    (:func:`reference_best_alternative`). A best utility at or below
    ``tolerance`` means idle; the worker moves when the best beats its
    current utility by more than ``tolerance``, and a LUB move marks
    watchers dirty (:func:`repro.core.game._lub_invalidate`). ``state``
    is a dict passed to every round of one run: LUB flags, cached
    responses, counted subsets, and each worker's stamp (its candidates'
    summed membership versions) at its last full scan. ``stats`` counts
    ``cache_hits`` (a LUB re-read, or a scan at an unchanged stamp),
    ``cache_misses``, ``gain_evaluations`` and ``lub_invalidations``.
    Returns ``(moves, gain)``, ``gain`` summed in play order.
    """
    state = {} if state is None else state
    count = assignment.instance.worker_count
    dirty = state.setdefault("dirty", np.ones(count, dtype=bool))
    cached_best = state.setdefault("cached_best", np.full(count, UNASSIGNED))
    tasks = range(assignment.instance.task_count)
    counted = state.setdefault(
        "counted", [assignment.counted_members(task) for task in tasks]
    )
    scanned = state.setdefault("scanned", {})
    stats = SolverStats() if stats is None else stats
    versions = assignment.revenue_cache.versions
    moves, gain = 0, 0.0
    for worker in (int(worker) for worker in order):
        tasks = valid_pairs.tasks_for_worker[worker]
        current_task = assignment.task_of(worker)
        current_utility = _current_utility(assignment, worker)
        if lazy_update and not dirty[worker]:
            stats.cache_hits += 1
            stats.gain_evaluations += 1
            best_task = int(cached_best[worker])
            if best_task == UNASSIGNED:
                best_utility = 0.0
            elif best_task == current_task:
                best_utility = current_utility
            else:
                best_utility = reference_join_gain(
                    assignment.revenue_cache, worker, best_task
                )
        else:
            if tasks:
                stamp = sum(versions[task] for task in tasks)
                if scanned.get(worker) == stamp:
                    stats.cache_hits += 1
                else:
                    stats.cache_misses += 1
                    stats.gain_evaluations += len(tasks)
                    scanned[worker] = stamp
            best_task, best_utility = reference_best_alternative(
                assignment, worker, tasks
            )
            cached_best[worker] = best_task
            dirty[worker] = False
        if best_utility <= tolerance:
            best_task, best_utility = UNASSIGNED, 0.0
        if best_utility <= current_utility + tolerance:
            continue
        for task in (current_task, best_task):
            if task == UNASSIGNED:
                continue
            if task == current_task:
                assignment.unassign(worker)
            else:
                assignment.assign(worker, task)
            if lazy_update:
                stats.lub_invalidations += _lub_invalidate(
                    assignment, valid_pairs, counted, cached_best, dirty, task
                )
        cached_best[worker] = best_task
        dirty[worker] = False
        improvement = best_utility - current_utility
        if improvement > 0.0:
            moves += 1
            gain += improvement
    return moves, gain


def reference_greedy_select(
    symmetric, size: int
) -> tuple[list[int], float] | None:
    """Stage 1's greedy selection as plain Python loops, the oracle of
    :func:`~repro.core.kernels.greedy_group_select`.

    Seeds with the first off-diagonal maximum of a strict-``>``
    row-major scan, then adds, one at a time, the first unchosen
    position of largest cross sum (its entries in the chosen rows,
    added in selection order). Returns ``(positions, pair_sum)`` in
    selection order, or ``None`` when fewer than ``size`` positions
    exist. Reads ``symmetric`` only.
    """
    values = np.asarray(symmetric, dtype=np.float64).tolist()
    count = len(values)
    if count < max(size, 2):
        return None
    first, second = 0, 1
    for row in range(count):
        for col in range(count):
            if row != col and values[row][col] > values[first][second]:
                first, second = row, col
    chosen = [first, second]
    pair_sum = values[first][second]
    cross = [values[first][col] + values[second][col] for col in range(count)]
    while len(chosen) < size:
        pick = None
        for col in range(count):
            if col not in chosen and (pick is None or cross[col] > cross[pick]):
                pick = col
        pair_sum += cross[pick]
        chosen.append(pick)
        for col in range(count):
            cross[col] += values[pick][col]
    return chosen, pair_sum


def reference_exact_select(symmetric, size: int) -> tuple[list[int], float]:
    """Stage 1's exhaustive selection as plain Python loops, the oracle
    of :func:`~repro.core.kernels.exact_group_select`.

    Scans :func:`itertools.combinations` of the positions, sums each
    one's pairs left to right in lexicographic order, and keeps the
    first maximum (strict ``>``). Returns ``(positions, pair_sum)``.
    """
    values = np.asarray(symmetric, dtype=np.float64).tolist()
    best, best_sum = None, 0.0
    for combo in itertools.combinations(range(len(values)), size):
        pairs = itertools.combinations(combo, 2)
        row, col = next(pairs)
        total = values[row][col]
        for row, col in pairs:
            total += values[row][col]
        if best is None or total > best_sum:
            best, best_sum = combo, total
    return list(best), best_sum


def reference_best_group(
    quality, candidates: Sequence[int], size: int, stats=None
) -> tuple[list[int], float]:
    """TPG stage 1's best ``size``-group among ``candidates``, from scratch.

    Gathers the candidates' block through ``quality.block`` and runs the
    scalar selection (:func:`reference_exact_select`,
    :func:`reference_greedy_select`) on ``sub + sub.T``: exhaustive over
    the sorted candidates up to
    :data:`~repro.core.tpg.EXACT_SEED_THRESHOLD` of them, greedy in the
    given order above. Returns ``(group, Q)`` with the group in
    selection order and ``Q`` its Equation 2 revenue, or ``([], 0.0)``
    without a group. ``stats`` counts one kernel call per selection run,
    as stage 1 does.
    """
    count = len(candidates)
    if count < size or size < 2:
        return [], 0.0
    exact = count <= EXACT_SEED_THRESHOLD
    index = np.asarray(sorted(candidates) if exact else candidates, dtype=np.intp)
    sub = quality.block(index, index)
    symmetric = sub + sub.T
    if stats is not None:
        stats.kernel_fallback_calls += 1
    if exact:
        selection = reference_exact_select(symmetric, size)
    else:
        selection = reference_greedy_select(symmetric, size)
        if selection is None:
            return [], 0.0
    chosen, pair_sum = selection
    return [int(index[local]) for local in chosen], pair_sum / (size - 1)


def reference_seed_groups(
    instance,
    valid_pairs,
    assignment: Assignment,
    available: np.ndarray,
    tasks,
    stats=None,
    *,
    prefer_wider: bool,
    positive_only: bool,
) -> list[tuple[int, list[int], float]]:
    """:func:`repro.core.tpg.seed_groups` as a plain loop.

    Every live task keeps its best group; each step commits the top
    score (lowest task id on ties; with ``prefer_wider`` a later tied
    task with the *same* group and strictly more available candidates
    takes it), assigns the members one ``assign`` at a time, and
    re-evaluates from scratch (:func:`reference_best_group`) exactly the
    tasks whose group lost a member. Returns the commits in order as
    ``(task, group, Q)``.
    """
    size = instance.min_group_size

    def candidates(task: int) -> list[int]:
        return [w for w in valid_pairs.workers_for_task[task] if available[w]]

    cached: dict[int, tuple[list[int], float]] = {}

    def evaluate(task: int) -> None:
        group, score = reference_best_group(
            instance.quality, candidates(task), size, stats=stats
        )
        if group:
            cached[task] = (group, score)

    for task in tasks:
        evaluate(task)
    commits: list[tuple[int, list[int], float]] = []
    while cached:
        best_task = min(cached, key=lambda task: (-cached[task][1], task))
        group, score = cached[best_task]
        if positive_only and not score > 0.0:
            break
        if prefer_wider:
            most = len(candidates(best_task))
            for task in sorted(cached):
                if task > best_task and cached[task] == (group, score):
                    count = len(candidates(task))
                    if count > most:
                        best_task, most = task, count
        del cached[best_task]
        for worker in group:
            assignment.assign(worker, best_task)
            available[worker] = False
        commits.append((best_task, group, score))
        for task in sorted(cached):
            if set(cached[task][0]) & set(group):
                del cached[task]
                evaluate(task)
    return commits


def stage_one_trace(
    seeder,
    instance,
    valid_pairs,
    available: np.ndarray,
    tasks,
    *,
    prefer_wider: bool,
    positive_only: bool,
) -> tuple:
    """What two stage-1 runs must share, repr-exactly.

    Runs ``seeder`` (:func:`~repro.core.tpg.seed_groups` or
    :func:`reference_seed_groups`) on a fresh assignment and a copy of
    ``available``, and returns the commits (task, group in selection
    order, ``repr`` of the score), the kernel call count, the final
    availability and the resulting revenue cache's pair sums, revenues,
    counts, versions, member lists and evaluation counters.
    """
    assignment = Assignment(instance, valid_pairs)
    available = available.copy()
    stats = SolverStats()
    commits = seeder(
        instance,
        valid_pairs,
        assignment,
        available,
        list(tasks),
        stats=stats,
        prefer_wider=prefer_wider,
        positive_only=positive_only,
    )
    cache = assignment.revenue_cache
    return (
        [(task, list(group), repr(score)) for task, group, score in commits],
        stats.kernel_fallback_calls,
        available.tolist(),
        repr(cache.pair_sums.tolist()),
        repr(cache.revenues.tolist()),
        cache.counts.tolist(),
        list(cache.versions),
        [cache.members(task) for task in range(instance.task_count)],
        (cache.full_evaluations, cache.incremental_updates, cache.peel_kernel_calls),
    )


def reference_stage_two(
    instance,
    valid_pairs,
    assignment: Assignment,
    available: np.ndarray,
    seeded,
    allow_negative_gain: bool,
    stats=None,
) -> list[tuple[int, int, float]]:
    """TPG stage 2 as a per-pair heap loop, the oracle of
    :func:`repro.core.tpg._stage_two`'s per-task heads and bulk commit.

    Every idle candidate of each seeded task with room is scored with
    :func:`reference_join_gain` and pushed as ``(-gain, version, worker,
    task)``; the first live entry (its task open, its worker idle, its
    version the task's) commits with ``assign``, unless its gain is not
    positive and ``allow_negative_gain`` is off, and its task's idle
    candidates are re-scored at the task's next version while it has
    room. ``stats`` counts every score in ``gain_evaluations``. Returns
    the commits in order as ``(worker, task, gain)``.
    """
    capacities = [task.capacity for task in instance.tasks]
    open_tasks = {
        task for task in seeded if assignment.assigned_count(task) < capacities[task]
    }
    commits: list[tuple[int, int, float]] = []
    if not open_tasks or not available.any():
        return commits
    cache = assignment.revenue_cache
    versions = [0] * instance.task_count
    heap: list[tuple[float, int, int, int]] = []

    def push(task: int) -> None:
        idle = [w for w in valid_pairs.workers_for_task[task] if available[w]]
        for worker in idle:
            gain = reference_join_gain(cache, worker, task)
            heapq.heappush(heap, (-gain, versions[task], worker, task))
        if stats is not None:
            stats.gain_evaluations += len(idle)

    for task in sorted(open_tasks):
        push(task)
    idle_workers = int(np.count_nonzero(available))
    while heap and open_tasks and idle_workers:
        negative_gain, version, worker, task = heapq.heappop(heap)
        if task not in open_tasks or not available[worker]:
            continue
        if version != versions[task]:
            continue
        gain = -negative_gain
        if not allow_negative_gain and gain <= 0.0:
            break
        assignment.assign(worker, task)
        available[worker] = False
        idle_workers -= 1
        versions[task] += 1
        commits.append((worker, task, gain))
        if assignment.assigned_count(task) >= capacities[task]:
            open_tasks.discard(task)
        else:
            push(task)
    return commits


def stage_two_start(
    instance, valid_pairs
) -> tuple[Assignment, np.ndarray, set[int]]:
    """A fresh stage-2 start: ``(assignment, available, seeded)`` after
    stage 1 (:func:`~repro.core.tpg.seed_groups`, TPG's flags) over
    every worker, the revenue cache reading a task-block reader as in a
    solve."""
    assignment = Assignment(instance, valid_pairs)
    assignment.revenue_cache.use_reads(task_blocks(instance.quality, valid_pairs))
    available = np.ones(instance.worker_count, dtype=bool)
    seeded = {
        task
        for task, _, _ in seed_groups(
            instance, valid_pairs, assignment, available,
            range(instance.task_count), prefer_wider=True, positive_only=False,
        )
    }
    return assignment, available, seeded


def stage_two_trace(
    stage_two, instance, valid_pairs, allow_negative_gain: bool
) -> tuple:
    """What two stage-2 runs must share, repr-exactly.

    Runs ``stage_two`` (:func:`repro.core.tpg._stage_two` or
    :func:`reference_stage_two`) from :func:`stage_two_start` and
    returns the commits (worker, task, ``repr`` of the gain),
    ``gain_evaluations`` and the revenue cache's state
    (:func:`cache_state`).
    """
    assignment, available, seeded = stage_two_start(instance, valid_pairs)
    stats = SolverStats()
    commits = stage_two(
        instance, valid_pairs, assignment, available, seeded,
        allow_negative_gain, stats,
    )
    return (
        [(worker, task, repr(gain)) for worker, task, gain in commits],
        stats.gain_evaluations,
        cache_state(assignment.revenue_cache),
    )


def cache_state(cache: RevenueCache) -> dict:
    """:meth:`RevenueCache.state_dict` with every value as nested lists
    of ``repr`` strings (arrays with their dtype), so ``==`` compares
    floats bit for bit."""

    def plain(value):
        if isinstance(value, np.ndarray):
            return value.dtype.str, plain(value.tolist())
        if isinstance(value, (list, tuple)):
            return [plain(item) for item in value]
        return repr(value)

    return {name: plain(value) for name, value in cache.state_dict().items()}


def reference_group_quality(
    memberships: Sequence[Iterable[int]],
    base_quality: float = DEFAULT_BASE_QUALITY,
    alpha: float = DEFAULT_ALPHA,
) -> CooperationMatrix:
    """The Meetup configuration of Equation 1 from a dense incidence
    matrix: ``|common|`` is one ``(m, groups)`` matmul and ``|union|`` is
    ``deg_i + deg_k - |common|``, each an ``(m, m)`` temporary."""
    group_sets = [frozenset(groups) for groups in memberships]
    count = len(group_sets)
    prior = alpha * base_quality
    if count == 0:
        return CooperationMatrix(np.zeros((0, 0)), copy=False)

    all_groups = sorted({g for groups in group_sets for g in groups})
    group_index = {group: index for index, group in enumerate(all_groups)}
    incidence = np.zeros((count, max(len(all_groups), 1)), dtype=np.float64)
    for worker, groups in enumerate(group_sets):
        for group in groups:
            incidence[worker, group_index[group]] = 1.0

    # |common| via one matmul; |union| = deg_i + deg_k - |common|.
    common = incidence @ incidence.T
    degrees = incidence.sum(axis=1)
    union = degrees[:, None] + degrees[None, :] - common
    with np.errstate(divide="ignore", invalid="ignore"):
        jaccard = np.where(union > 0, common / np.maximum(union, 1e-300), 0.0)
    q = prior + (1.0 - alpha) * jaccard
    return CooperationMatrix(q, copy=False)


def verify_nash_equilibrium(
    assignment: Assignment, valid_pairs, tolerance: float = 1e-6
) -> list[tuple[int, int, float]]:
    """All profitable unilateral deviations, as ``(worker, task, gain)``,
    each utility one scalar oracle evaluation.

    Empty iff the assignment is a pure Nash equilibrium (up to
    ``tolerance``). ``task = UNASSIGNED`` denotes the idle deviation.
    """
    deviations: list[tuple[int, int, float]] = []
    for worker in range(assignment.instance.worker_count):
        current_task = assignment.task_of(worker)
        current_utility = _current_utility(assignment, worker)
        if current_utility < -tolerance:
            deviations.append((worker, UNASSIGNED, -current_utility))
        tasks = [t for t in valid_pairs.tasks_for_worker[worker] if t != current_task]
        for task, gain in zip(tasks, reference_utilities(assignment, worker, tasks)):
            if gain > current_utility + tolerance:
                deviations.append((worker, task, gain - current_utility))
    return deviations
