"""Problem model: workers, tasks and CA-SC instances.

Mirrors Definitions 1-4 of the paper. Workers and tasks are immutable
records; an :class:`Instance` bundles one batch's workers, tasks,
cooperation matrix, the minimum group size ``B`` and the batch timestamp
``phi``, and validates the structural requirements once at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.core.quality_store import QualityStore
from repro.spatial.geometry import Point
from repro.utils.errors import InvalidInstanceError

__all__ = ["Worker", "Task", "Instance"]


def _finite_point(point: Point) -> bool:
    # Chained comparisons reject NaN and +-inf without a call per value.
    return -math.inf < point.x < math.inf and -math.inf < point.y < math.inf


def _validate_carved_copies(workers, originals_w, tasks, originals_t) -> None:
    """Reject carves whose records alias the parent's objects.

    A carved shard must own its ``Worker``/``Task`` records outright:
    although the dataclasses are frozen, downstream code holds them in
    mutable containers and compares them by identity in places, and a
    future field (or an ``object.__setattr__`` escape hatch) mutating a
    shared record would silently corrupt *sibling* shards. The check is
    O(m + n) identity comparisons plus field-equality spot checks on the
    solver-critical ``deadline``/``capacity`` fields.
    """
    for carved, original in zip(workers, originals_w):
        if carved is original or carved.location is original.location:
            raise InvalidInstanceError(
                f"carved worker {original.worker_id} aliases the parent "
                "instance's record; carve must copy"
            )
    for carved, original in zip(tasks, originals_t):
        if carved is original or carved.location is original.location:
            raise InvalidInstanceError(
                f"carved task {original.task_id} aliases the parent "
                "instance's record; carve must copy"
            )
        if carved.deadline != original.deadline or carved.capacity != original.capacity:
            raise InvalidInstanceError(
                f"carved task {original.task_id} drifted from the parent "
                f"(deadline {carved.deadline} vs {original.deadline}, "
                f"capacity {carved.capacity} vs {original.capacity})"
            )


@dataclass(frozen=True, slots=True)
class Worker:
    """A cooperation-aware moving worker (Definition 1).

    Attributes
    ----------
    worker_id:
        Stable external identifier (survives across batches; the batch
        framework re-indexes workers positionally inside each
        :class:`Instance`).
    location:
        Current position ``l_i``.
    speed:
        Moving speed ``v_i`` in space units per time unit.
    radius:
        Working-area radius ``r_i``; the worker only accepts tasks within
        this distance.
    arrival_time:
        Timestamp ``phi_i`` at which the worker joined the system.
    """

    worker_id: int
    location: Point
    speed: float
    radius: float
    arrival_time: float = 0.0

    def __post_init__(self) -> None:
        # One chained comparison rejects negative, NaN and infinite values.
        if not (0.0 <= self.speed < math.inf and 0.0 <= self.radius < math.inf):
            raise InvalidInstanceError(
                f"worker {self.worker_id}: speed {self.speed} and radius "
                f"{self.radius} must be finite and >= 0"
            )
        if not _finite_point(self.location):
            raise InvalidInstanceError(
                f"worker {self.worker_id}: non-finite location {self.location}"
            )

    def moved_to(self, location: Point) -> "Worker":
        """A copy of this worker relocated to ``location``."""
        return replace(self, location=location)


@dataclass(frozen=True, slots=True)
class Task:
    """A spatial task (Definition 2).

    Attributes
    ----------
    task_id:
        Stable external identifier.
    location:
        Required position ``l_j``.
    capacity:
        Maximum number of paid workers ``a_j``.
    deadline:
        Absolute deadline ``tau_j``; workers must arrive before it.
    created_time:
        Timestamp ``phi_j`` when the requester posted the task.
    """

    task_id: int
    location: Point
    capacity: int
    deadline: float
    created_time: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise InvalidInstanceError(
                f"task {self.task_id}: capacity must be >= 1, got {self.capacity}"
            )
        if not _finite_point(self.location):
            raise InvalidInstanceError(
                f"task {self.task_id}: non-finite location {self.location}"
            )
        # An infinite deadline is legal: the task never expires.
        if math.isnan(self.deadline):
            raise InvalidInstanceError(f"task {self.task_id}: NaN deadline")
        if self.deadline < self.created_time:
            raise InvalidInstanceError(
                f"task {self.task_id}: deadline {self.deadline} precedes "
                f"creation time {self.created_time}"
            )

    def remaining_time(self, now: float) -> float:
        """Time left until the deadline at timestamp ``now``."""
        return self.deadline - now


@dataclass(frozen=True)
class Instance:
    """One batch of the CA-SC problem (Definition 4).

    Workers and tasks are addressed *positionally* throughout the solver
    layer — worker ``i`` is ``instance.workers[i]`` and row ``i`` of the
    cooperation matrix. The stable ``worker_id``/``task_id`` fields exist
    for the multi-batch simulation, which reuses worker objects across
    batches.

    Attributes
    ----------
    workers, tasks:
        The batch's available workers ``W(phi)`` and tasks ``T(phi)``.
    quality:
        Pairwise cooperation quality, shape ``(m, m)``.
    min_group_size:
        ``B`` — tasks assigned fewer than ``B`` workers yield zero revenue.
    now:
        The batch timestamp ``phi`` used for deadline checks.
    """

    workers: tuple[Worker, ...]
    tasks: tuple[Task, ...]
    quality: QualityStore
    min_group_size: int = 3
    now: float = 0.0

    def __init__(
        self,
        workers,
        tasks,
        quality: QualityStore,
        min_group_size: int = 3,
        now: float = 0.0,
    ) -> None:
        object.__setattr__(self, "workers", tuple(workers))
        object.__setattr__(self, "tasks", tuple(tasks))
        object.__setattr__(self, "quality", quality)
        object.__setattr__(self, "min_group_size", min_group_size)
        object.__setattr__(self, "now", now)
        self._validate()

    def _validate(self) -> None:
        if self.min_group_size < 2:
            raise InvalidInstanceError(
                "min_group_size (B) must be >= 2 so Equation 2's denominator "
                f"min(|W_j|, a_j) - 1 stays positive; got {self.min_group_size}"
            )
        if self.quality.size != len(self.workers):
            raise InvalidInstanceError(
                f"cooperation matrix is {self.quality.size}x{self.quality.size} "
                f"but the instance has {len(self.workers)} workers"
            )
        for task in self.tasks:
            if task.capacity < self.min_group_size:
                raise InvalidInstanceError(
                    f"task {task.task_id}: capacity {task.capacity} below the "
                    f"minimum group size B={self.min_group_size}"
                )

    @property
    def worker_count(self) -> int:
        return len(self.workers)

    @property
    def task_count(self) -> int:
        return len(self.tasks)

    def worker_locations(self) -> np.ndarray:
        """Worker coordinates as an ``(m, 2)`` array."""
        return np.array([(w.location.x, w.location.y) for w in self.workers])

    def task_locations(self) -> np.ndarray:
        """Task coordinates as an ``(n, 2)`` array."""
        return np.array([(t.location.x, t.location.y) for t in self.tasks])

    def capacities(self) -> np.ndarray:
        return np.array([task.capacity for task in self.tasks], dtype=int)

    def carve(self, worker_indices, task_indices) -> "Instance":
        """A shard-local sub-instance over the given *global* indices.

        ``worker_indices``/``task_indices`` are positional indices into
        this instance, sorted ascending (order-preserving remaps keep
        argmax tie-breaks identical between the carved and the global
        solve). Every carved :class:`Worker`/:class:`Task` is a *fresh
        copy* — no carved object (or its location) aliases an original,
        so shard-local mutation of one sub-instance can never leak into
        a sibling shard or back into the parent. The quality store is
        carved through :meth:`QualityStore.restricted_to` (O(nnz) for
        the sparse backend).

        Capacities are *not* re-validated against ``min_group_size``
        beyond the parent's own invariant — they are copied verbatim, so
        the carved instance satisfies the same ``capacity >= B`` rule.
        """
        worker_index = np.asarray(worker_indices, dtype=np.intp)
        task_index = np.asarray(task_indices, dtype=np.intp)
        if worker_index.size and np.any(np.diff(worker_index) <= 0):
            raise InvalidInstanceError(
                "carve requires strictly ascending worker indices"
            )
        if task_index.size and np.any(np.diff(task_index) <= 0):
            raise InvalidInstanceError(
                "carve requires strictly ascending task indices"
            )
        originals_w = [self.workers[int(i)] for i in worker_index]
        originals_t = [self.tasks[int(i)] for i in task_index]
        workers = tuple(
            Worker(
                worker_id=w.worker_id,
                location=Point(float(w.location.x), float(w.location.y)),
                speed=float(w.speed),
                radius=float(w.radius),
                arrival_time=float(w.arrival_time),
            )
            for w in originals_w
        )
        tasks = tuple(
            Task(
                task_id=t.task_id,
                location=Point(float(t.location.x), float(t.location.y)),
                capacity=int(t.capacity),
                deadline=float(t.deadline),
                created_time=float(t.created_time),
            )
            for t in originals_t
        )
        _validate_carved_copies(workers, originals_w, tasks, originals_t)
        quality = self.quality.restricted_to(worker_index)
        return Instance(
            workers=workers,
            tasks=tasks,
            quality=quality,
            min_group_size=self.min_group_size,
            now=self.now,
        )

    def is_pair_valid(self, worker_index: int, task_index: int) -> bool:
        """Definition 3 check for a single worker-task pair.

        The pair is valid when the task lies inside the worker's working
        area and the worker can reach it before the deadline. (Condition 1
        of Definition 3 — worker arrived after the task was created — is
        enforced by the batch framework, which only places currently
        available workers and open tasks into an instance.)
        """
        worker = self.workers[worker_index]
        task = self.tasks[task_index]
        distance = worker.location.distance_to(task.location)
        if distance > worker.radius:
            return False
        remaining = task.remaining_time(self.now)
        if remaining < 0:
            return False
        if worker.speed <= 0:
            return distance == 0.0
        return distance / worker.speed <= remaining
