"""Seeded instance fuzzer with boundary-biased generation.

Random CA-SC batches deliberately concentrated on the edges where the
Equation-2/Definition-3 machinery has historically broken:

* ``B`` at the model's validated floor (``min_group_size = 2`` — the
  paper's ``B = 1`` case lives *below* the floor
  :class:`~repro.core.model.Instance` enforces, so the closest reachable
  boundary is 2) and task capacities exactly ``a_j = B``;
* zero-speed workers (only distance-0 tasks are reachable);
* expired and exactly-at-``now`` deadlines;
* duplicate locations — workers stacked on tasks and on each other, so
  distance-0 and equal-distance tie cases are common;
* qualities drawn from a dyadic grid (multiples of 1/8), which makes
  pair sums exact in binary floating point — reduction order cannot hide
  a real divergence, and equal contributions exercise the peel
  tie-break; half the regular instances draw the two triangles
  independently, so ``q_i(w_k) != q_k(w_i)``;
* kernel-boundary shapes (:data:`_KERNEL_SHAPES`) that pin the batched
  best-response kernel's edges: a group that fills its capacity of 8
  exactly (the last within-capacity join, then an overflow join), a
  single-worker batch (one-segment CSR prepass), a zero-valid-pairs
  batch (empty candidate arrays), and a wide group of up to 12 members
  whose within-capacity joins and leaves are batched;
* peel-boundary shapes that force overflow counted-subset peels across
  several kept sizes in one peel, single-step ``capacity == members -
  1`` peels, and all-tied contributions that hammer the highest-index
  tie-break;
* a hypot-band shape whose tasks sit exactly at a radius and at a
  deadline reach where ``np.hypot`` and the oracle's ``math.hypot``
  disagree by an ulp, so the grid's re-measure band is fuzzed.

Everything is driven by one :func:`numpy.random.default_rng` stream, so
a seed reproduces its instance exactly; the audit runner derives
per-instance seeds as ``(session_seed, index)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.model import Instance, Task, Worker
from repro.core.quality import CooperationMatrix
from repro.spatial.geometry import Point

__all__ = ["FuzzConfig", "fuzz_instance"]

#: Locations live on a coarse dyadic grid — duplicates are likely.
_LOCATION_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
#: Dyadic qualities: sums are exact, ties are frequent.
_QUALITY_GRID = (0.0, 0.125, 0.25, 0.5, 0.75, 1.0)
_SPEED_GRID = (0.125, 0.25, 0.5, 1.0)
#: Includes radius 0 (nothing reachable) and 2 (covers the whole square).
_RADIUS_GRID = (0.0, 0.25, 0.5, 1.0, 2.0)
#: The batch timestamp; deadlines below it are expired, equal to it are
#: the zero-remaining-time boundary.
_NOW = 1.0
_DEADLINE_GRID = (0.5, 1.0, 1.5, 3.0)
#: The kernel-boundary shapes ``fuzz_instance`` cycles through when the
#: boundary-bias roll fires (see the module docstring).
_KERNEL_SHAPES = (
    "group8",
    "solo",
    "nopairs",
    "peelcliff",
    "peelfit",
    "tiedpeel",
    "hypotband",
    "wide",
)


@dataclass(frozen=True)
class FuzzConfig:
    """Size bounds and boundary-bias rates of the generator."""

    min_workers: int = 2
    max_workers: int = 10
    min_tasks: int = 1
    max_tasks: int = 4
    #: Probability of the minimum group size staying at the floor B = 2.
    tight_group_rate: float = 0.75
    #: Probability a task's capacity is exactly ``B``.
    tight_capacity_rate: float = 0.5
    #: Probability a worker's speed is exactly 0.
    zero_speed_rate: float = 0.25
    #: Probability a task is placed exactly on some worker's location.
    colocate_rate: float = 0.4
    #: Probability the instance is forced into one of the
    #: :data:`_KERNEL_SHAPES` kernel-boundary layouts instead of the
    #: fully random recipe.
    kernel_boundary_rate: float = 0.2

    def __post_init__(self) -> None:
        if not 2 <= self.min_workers <= self.max_workers:
            raise ValueError(
                f"worker bounds must satisfy 2 <= min <= max, got "
                f"[{self.min_workers}, {self.max_workers}]"
            )
        if not 1 <= self.min_tasks <= self.max_tasks:
            raise ValueError(
                f"task bounds must satisfy 1 <= min <= max, got "
                f"[{self.min_tasks}, {self.max_tasks}]"
            )


def fuzz_instance(seed, config: FuzzConfig = FuzzConfig()) -> Instance:
    """One boundary-biased random instance, fully determined by ``seed``.

    ``seed`` is anything :func:`numpy.random.default_rng` accepts — the
    runner passes ``(session_seed, index)`` tuples.
    """
    rng = np.random.default_rng(seed)
    if rng.random() < config.kernel_boundary_rate:
        shape = _KERNEL_SHAPES[int(rng.integers(0, len(_KERNEL_SHAPES)))]
        return _kernel_boundary_instance(shape, rng)
    worker_count = int(
        rng.integers(config.min_workers, config.max_workers + 1)
    )
    task_count = int(rng.integers(config.min_tasks, config.max_tasks + 1))
    min_group_size = 2 if rng.random() < config.tight_group_rate else 3

    workers = []
    for index in range(worker_count):
        speed = (
            0.0
            if rng.random() < config.zero_speed_rate
            else float(rng.choice(_SPEED_GRID))
        )
        workers.append(
            Worker(
                worker_id=index,
                location=Point(
                    float(rng.choice(_LOCATION_GRID)),
                    float(rng.choice(_LOCATION_GRID)),
                ),
                speed=speed,
                radius=float(rng.choice(_RADIUS_GRID)),
            )
        )

    tasks = []
    for index in range(task_count):
        if rng.random() < config.colocate_rate:
            anchor = workers[int(rng.integers(0, worker_count))]
            location = anchor.location
        else:
            location = Point(
                float(rng.choice(_LOCATION_GRID)),
                float(rng.choice(_LOCATION_GRID)),
            )
        capacity = (
            min_group_size
            if rng.random() < config.tight_capacity_rate
            else min_group_size + int(rng.integers(1, 3))
        )
        tasks.append(
            Task(
                task_id=index,
                location=location,
                capacity=capacity,
                deadline=float(rng.choice(_DEADLINE_GRID)),
                created_time=0.0,
            )
        )

    quality = _dyadic_quality(rng, worker_count)
    if rng.random() < 0.5:
        # Half the instances draw the lower triangle independently, so
        # the backend axis compares the sparse store's column
        # orientation as well as its row orientation.
        lower = rng.choice(_QUALITY_GRID, size=(worker_count, worker_count))
        quality = CooperationMatrix(np.triu(quality.values) + np.tril(lower, k=-1))

    return Instance(
        workers=workers,
        tasks=tasks,
        quality=quality,
        min_group_size=min_group_size,
        now=_NOW,
    )


def _dyadic_quality(
    rng, worker_count: int, positive: bool = False
) -> CooperationMatrix:
    """Symmetric dyadic quality matrix with a zero diagonal.

    ``positive=True`` excludes 0 from the grid: joining a group then
    always adds revenue, so stacked-overflow shapes reliably saturate
    their task and force the peel instead of settling short of capacity.
    """
    grid = _QUALITY_GRID[1:] if positive else _QUALITY_GRID
    upper = rng.choice(grid, size=(worker_count, worker_count))
    q = np.triu(upper, k=1)
    q = q + q.T
    return CooperationMatrix(q)


def _uniform_quality(worker_count: int, value: float) -> CooperationMatrix:
    """Every off-diagonal entry equal: all peel contributions tie."""
    q = np.full((worker_count, worker_count), value, dtype=np.float64)
    np.fill_diagonal(q, 0.0)
    return CooperationMatrix(q)


def _stacked_overflow(worker_count: int, capacity: int):
    """``worker_count`` workers and one capacity-``capacity`` task, all
    colocated — every worker wants in, so join probes overflow and peel."""
    center = Point(0.5, 0.5)
    workers = [
        Worker(worker_id=i, location=center, speed=1.0, radius=2.0)
        for i in range(worker_count)
    ]
    tasks = [
        Task(
            task_id=0,
            location=center,
            capacity=capacity,
            deadline=3.0,
            created_time=0.0,
        )
    ]
    return workers, tasks


def _kernel_boundary_instance(shape: str, rng) -> Instance:
    """One of the :data:`_KERNEL_SHAPES` layouts, still rng-driven.

    * ``"group8"`` — nine workers stacked on one capacity-8 task: the
      group fills its capacity exactly, so the eighth join is the last
      within-capacity one and the ninth worker's join is an overflow
      peel (``CODE_SCALAR``).
    * ``"solo"`` — a single worker: the CSR prepass degenerates to one
      (possibly empty) segment and the round has no cross-worker moves.
    * ``"nopairs"`` — reachable distances all exceed every radius/reach
      bound: ``ValidPairs`` is empty and every candidate array in the
      kernel has length zero.
    * ``"peelcliff"`` — nine workers stacked on one capacity-6 task: an
      overflow join probe peels 9 -> 8 -> 7 -> 6 kept members, so one
      peel runs three steps in lockstep (the shape once straddled
      numpy's 8-element pairwise-summation cliff, hence its name).
    * ``"peelfit"`` — ``N`` workers on one capacity ``N - 1`` task with
      ``N`` drawn from {8, 10}: an overflow join peels one step,
      ``capacity == members - 1``, from 8 or 10 members.
    * ``"tiedpeel"`` — nine workers on a capacity-7 task with *uniform*
      quality: every contribution ties at every peel step, so the two
      peels (9 -> 8 -> 7) must both resolve through the highest-index
      tie-break.
    * ``"hypotband"`` — two colocated workers and two colocated tasks
      whose ``np.hypot`` distance lies an ulp off ``math.hypot``'s. The
      limit is the oracle's distance when ``np.hypot`` overshoots it
      (valid) and ``np.hypot``'s when it undershoots (invalid): worker
      0's radius, and task 1's remaining time at speed 1 for worker 1,
      whose radius covers the square.
    * ``"wide"`` — thirteen workers stacked on one capacity-12 task:
      within-capacity groups of 8 to 12 members take the batched scan,
      ``join_gains`` and ``leave_deltas``, and the 13 -> 12 overflow
      peel scores thirteen members per step.
    """
    if shape == "hypotband":
        while True:
            worker, task = rng.uniform(0.0, 1.0, size=(2, 2)).tolist()
            dx, dy = task[0] - worker[0], task[1] - worker[1]
            grid, oracle = float(np.hypot(dx, dy)), math.hypot(dx, dy)
            if grid != oracle:
                break
        limit = oracle if grid > oracle else grid
        workers = [
            Worker(worker_id=0, location=Point(*worker), speed=1.0, radius=limit),
            Worker(worker_id=1, location=Point(*worker), speed=1.0, radius=2.0),
        ]
        # now = 0, so a task's remaining time is exactly its deadline.
        tasks = [
            Task(task_id=index, location=Point(*task), capacity=2,
                 deadline=deadline, created_time=0.0)
            for index, deadline in enumerate((2.0, limit))
        ]
        return Instance(
            workers=workers,
            tasks=tasks,
            quality=_dyadic_quality(rng, 2),
            min_group_size=2,
            now=0.0,
        )
    if shape in ("peelcliff", "peelfit", "tiedpeel", "wide"):
        if shape == "peelcliff":
            worker_count, capacity = 9, 6
        elif shape == "wide":
            worker_count, capacity = 13, 12
        elif shape == "peelfit":
            worker_count = int(rng.choice((8, 10)))
            capacity = worker_count - 1
        else:
            worker_count, capacity = 9, 7
        workers, tasks = _stacked_overflow(worker_count, capacity)
        quality = (
            _uniform_quality(
                worker_count, float(rng.choice(_QUALITY_GRID[1:]))
            )
            if shape == "tiedpeel"
            else _dyadic_quality(rng, worker_count, positive=True)
        )
        return Instance(
            workers=workers,
            tasks=tasks,
            quality=quality,
            min_group_size=2,
            now=_NOW,
        )
    if shape == "group8":
        center = Point(0.5, 0.5)
        workers = [
            Worker(worker_id=i, location=center, speed=1.0, radius=2.0)
            for i in range(9)
        ]
        tasks = [
            Task(
                task_id=0,
                location=center,
                capacity=8,
                deadline=3.0,
                created_time=0.0,
            )
        ]
        min_group_size = 2
    elif shape == "solo":
        workers = [
            Worker(
                worker_id=0,
                location=Point(0.5, 0.5),
                speed=float(rng.choice(_SPEED_GRID)),
                radius=float(rng.choice(_RADIUS_GRID)),
            )
        ]
        tasks = [
            Task(
                task_id=index,
                location=Point(
                    float(rng.choice(_LOCATION_GRID)),
                    float(rng.choice(_LOCATION_GRID)),
                ),
                capacity=2,
                deadline=float(rng.choice(_DEADLINE_GRID)),
                created_time=0.0,
            )
            for index in range(int(rng.integers(1, 3)))
        ]
        min_group_size = 2
    elif shape == "nopairs":
        workers = [
            Worker(
                worker_id=index,
                location=Point(0.0, 0.0),
                speed=0.0,
                radius=0.0,
            )
            for index in range(int(rng.integers(2, 5)))
        ]
        tasks = [
            Task(
                task_id=index,
                location=Point(1.0, 1.0),
                capacity=2,
                deadline=float(rng.choice(_DEADLINE_GRID)),
                created_time=0.0,
            )
            for index in range(int(rng.integers(1, 3)))
        ]
        min_group_size = 2
    else:
        raise ValueError(
            f"unknown kernel shape {shape!r}; expected one of {_KERNEL_SHAPES}"
        )
    return Instance(
        workers=workers,
        tasks=tasks,
        quality=_dyadic_quality(rng, len(workers)),
        min_group_size=min_group_size,
        now=_NOW,
    )
