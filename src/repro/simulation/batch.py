"""The batch-based framework — Algorithm 1 of the paper.

Each round (batch) at timestamp ``phi``:

1. retrieve the available tasks ``T(phi)`` — tasks still open from the
   previous batch plus newly created ones — and the available workers
   ``W(phi)`` — idle population members plus workers who finished their
   previous assignment;
2. compute every worker's valid task set (Definition 3);
3. run the configured solver to obtain an assignment;
4. dispatch: groups that reached the minimum size ``B`` start working
   (their workers become busy for ``task_duration``), under-filled groups
   dissolve, unserved tasks carry over until their deadlines expire.

The simulator reports per-round and total cooperation scores plus solver
wall-clock time — the two measurements behind every figure in the paper.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from repro.core.assignment import Assignment
from repro.core.model import Instance, Task, Worker
from repro.core.validity import ValidPairs, compute_valid_pairs
from repro.datasets.synthetic import gaussian_in_range
from repro.simulation.faults import FaultEvent, FaultInjector, FaultModel
from repro.simulation.population import Population
from repro.spatial.geometry import Point
from repro.utils.rng import ensure_rng, spawn_rngs

__all__ = ["BatchConfig", "BatchSimulator", "RoundMetrics", "SimulationReport"]


class Solver(Protocol):
    """Anything that turns a batch instance into an assignment."""

    def __call__(
        self, instance: Instance, valid_pairs: ValidPairs
    ) -> Assignment: ...


@dataclass(frozen=True)
class BatchConfig:
    """Table II's experimental knobs.

    Defaults are the paper's bold defaults: ``a_j = 4``, speeds in
    ``[1%, 5%]`` of the space per time unit, radii in ``[5%, 10%]``,
    remaining time 3, ``m = 1000`` workers and ``n = 500`` tasks per
    round, ``R = 10`` rounds, ``B = 3``.
    """

    rounds: int = 10
    workers_per_round: int = 1000
    tasks_per_round: int = 500
    capacity: int = 4
    min_group_size: int = 3
    remaining_time: float = 3.0
    speed_range: tuple[float, float] = (0.01, 0.05)
    radius_range: tuple[float, float] = (0.05, 0.10)
    task_duration: float = 1.0
    batch_interval: float = 1.0
    carryover: bool = True
    task_arrivals: object | None = None
    """Optional arrival process (see :mod:`repro.simulation.arrivals`).

    ``None`` uses the paper's protocol: top the open pool up to
    ``tasks_per_round`` every batch.
    """
    worker_participation: float = 1.0
    """Probability that a sampled worker actually shows up this batch.

    Models churn: a platform invites ``workers_per_round`` idle members
    but only a fraction respond. 1.0 (default) reproduces the paper's
    deterministic supply.
    """
    faults: FaultModel | None = None
    """Optional in-dispatch fault injection (see
    :mod:`repro.simulation.faults`).

    Unlike ``worker_participation`` — which thins the invited pool
    *before* the solver runs — the fault model breaks assignments
    *after* they are made: dispatch no-shows, mid-task dropouts, task
    cancellations and location noise, plus the group-repair response.
    ``None`` (default) reproduces the paper's fault-free platform
    bit-identically.
    """

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.capacity < self.min_group_size:
            raise ValueError(
                f"capacity {self.capacity} below min_group_size {self.min_group_size}"
            )
        if self.remaining_time <= 0:
            raise ValueError("remaining_time must be positive")
        if self.task_duration <= 0:
            raise ValueError(
                f"task_duration must be positive, got {self.task_duration}"
            )
        if self.batch_interval <= 0:
            raise ValueError(
                f"batch_interval must be positive, got {self.batch_interval}"
            )
        for name in ("speed_range", "radius_range"):
            lo, hi = getattr(self, name)
            if lo <= 0 or hi <= 0:
                raise ValueError(
                    f"{name} bounds must be positive, got ({lo}, {hi})"
                )
            if lo > hi:
                raise ValueError(
                    f"{name} lower bound {lo} exceeds upper bound {hi}"
                )
        if not 0.0 < self.worker_participation <= 1.0:
            raise ValueError(
                f"worker_participation must be in (0, 1], got "
                f"{self.worker_participation}"
            )


@dataclass(frozen=True)
class RoundMetrics:
    """Measurements of one batch.

    The fault fields are all zero/empty on fault-free runs:
    ``fault_events`` records every injected fault (and the repair
    machinery's reactions) in occurrence order; the counters summarize
    the dispatch-repair pass.
    """

    round_index: int
    timestamp: float
    worker_count: int
    task_count: int
    valid_pair_count: int
    score: float
    assigned_workers: int
    completed_tasks: int
    solver_seconds: float
    fault_events: tuple[FaultEvent, ...] = ()
    repaired_groups: int = 0
    dissolved_groups: int = 0
    backfilled_workers: int = 0


@dataclass
class SimulationReport:
    """Aggregated outcome of a simulation run."""

    rounds: list[RoundMetrics] = field(default_factory=list)

    @property
    def total_score(self) -> float:
        """The figures' "Total Cooperation Score" over all rounds."""
        return sum(r.score for r in self.rounds)

    @property
    def total_completed_tasks(self) -> int:
        return sum(r.completed_tasks for r in self.rounds)

    @property
    def total_assigned_workers(self) -> int:
        return sum(r.assigned_workers for r in self.rounds)

    @property
    def mean_batch_seconds(self) -> float:
        """The figures' "Batch Running Time"."""
        if not self.rounds:
            return 0.0
        return sum(r.solver_seconds for r in self.rounds) / len(self.rounds)

    @property
    def fault_events(self) -> list[FaultEvent]:
        """Every fault event of the run, in occurrence order."""
        return [event for r in self.rounds for event in r.fault_events]

    @property
    def fault_counts(self) -> dict[str, int]:
        """Event counts by kind (only kinds that occurred appear)."""
        counts: dict[str, int] = {}
        for event in self.fault_events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    @property
    def total_repaired_groups(self) -> int:
        return sum(r.repaired_groups for r in self.rounds)

    @property
    def total_dissolved_groups(self) -> int:
        return sum(r.dissolved_groups for r in self.rounds)


@dataclass
class _OpenTask:
    """A task carried across batches until served or expired.

    ``fault_retries`` counts fault-caused group dissolutions the task
    has survived; past ``FaultModel.max_task_retries`` the platform
    abandons it instead of retrying forever.
    """

    task: Task
    fault_retries: int = 0


class BatchSimulator:
    """Runs Algorithm 1 over a population with a pluggable solver.

    Parameters
    ----------
    population:
        The worker/task pool (Meetup surrogate or synthetic).
    config:
        Experimental settings.
    solver:
        Callable ``(instance, valid_pairs) -> Assignment``; the
        experiment harness wraps each approach this way.
    seed:
        Drives all sampling; two simulators with the same seed present
        identical batches to their solvers, which is how the harness
        compares approaches fairly.
    instance_hook:
        Optional callable invoked with each round's instance and valid
        pairs (used by the harness to compute UPPER on the same batches).
    """

    def __init__(
        self,
        population: Population,
        config: BatchConfig,
        solver: Solver,
        seed=None,
        instance_hook: Callable[[Instance, ValidPairs], None] | None = None,
    ) -> None:
        self.population = population
        self.config = config
        self.solver = solver
        self.instance_hook = instance_hook
        # The fault streams are spawned from the same root *after* the
        # round streams, so enabling faults never perturbs the sampling
        # draws, and a disabled/absent fault model spawns nothing —
        # keeping fault-free runs bit-identical to the historical path.
        root = ensure_rng(seed)
        self._round_rngs = spawn_rngs(root, config.rounds)
        self._injector: FaultInjector | None = None
        if config.faults is not None and config.faults.enabled:
            self._injector = FaultInjector(
                config.faults, config.rounds, seed=root
            )

    def run(self) -> SimulationReport:
        """Execute all configured rounds and return the report."""
        config = self.config
        injector = self._injector
        report = SimulationReport()
        busy_until: dict[int, float] = {}
        open_tasks: list[_OpenTask] = []
        next_task_id = 0

        for round_index in range(config.rounds):
            now = round_index * config.batch_interval
            rng = self._round_rngs[round_index]
            events: list[FaultEvent] = []

            # Workers who finished their previous groups become available.
            busy_until = {
                worker: release
                for worker, release in busy_until.items()
                if release > now
            }
            worker_indices = self.population.sample_workers(
                config.workers_per_round, rng, exclude=set(busy_until)
            )
            if config.worker_participation < 1.0 and worker_indices.size:
                showed_up = (
                    rng.random(worker_indices.size) < config.worker_participation
                )
                worker_indices = worker_indices[showed_up]
            workers = self._materialize_workers(worker_indices, now, rng)
            if injector is not None:
                workers = self._apply_location_noise(
                    injector, round_index, workers, events
                )

            # Expired carryover tasks disappear; fresh tasks arrive.
            open_tasks = [
                entry for entry in open_tasks if entry.task.deadline >= now
            ]
            if config.task_arrivals is None:
                new_task_count = max(0, config.tasks_per_round - len(open_tasks))
            else:
                new_task_count = int(
                    config.task_arrivals.count(round_index, len(open_tasks), rng)
                )
            sites = self.population.sample_task_sites(new_task_count, rng)
            for site in sites:
                location = self.population.task_locations[int(site)]
                open_tasks.append(
                    _OpenTask(
                        Task(
                            task_id=next_task_id,
                            location=Point(float(location[0]), float(location[1])),
                            capacity=config.capacity,
                            deadline=now + config.remaining_time,
                            created_time=now,
                        )
                    )
                )
                next_task_id += 1
            if injector is not None and open_tasks:
                cancelled, cancel_events = injector.cancellations(
                    round_index, [entry.task.task_id for entry in open_tasks]
                )
                if cancelled:
                    open_tasks = [
                        entry
                        for entry in open_tasks
                        if entry.task.task_id not in cancelled
                    ]
                events.extend(cancel_events)

            instance = Instance(
                workers=workers,
                tasks=[entry.task for entry in open_tasks],
                # restricted_to is part of the QualityStore protocol, so a
                # sparse population restricts per batch in O(nnz of the
                # draw) without ever materializing its full dense matrix.
                quality=self.population.quality.restricted_to(worker_indices),
                min_group_size=config.min_group_size,
                now=now,
            )
            # The live pool only: the reach bound's max_remaining comes
            # from this round's tasks, so an expired task never widens a
            # worker's candidate radius.
            valid_pairs = compute_valid_pairs(instance)
            if self.instance_hook is not None:
                self.instance_hook(instance, valid_pairs)

            started = time.perf_counter()
            assignment = self.solver(instance, valid_pairs)
            solver_seconds = time.perf_counter() - started

            assignment.check_feasible()
            assignment.drop_incomplete_groups()

            repaired = dissolved = backfilled = 0
            abandoned: set[int] = set()
            if injector is not None:
                repaired, dissolved, backfilled = self._dispatch_faults(
                    injector,
                    round_index,
                    assignment,
                    instance,
                    valid_pairs,
                    worker_indices,
                    open_tasks,
                    abandoned,
                    events,
                )
            score = assignment.total_score()

            served_tasks: set[int] = set()
            for task_index in range(instance.task_count):
                if (
                    assignment.assigned_count(task_index)
                    >= config.min_group_size
                ):
                    served_tasks.add(task_index)
                    for worker in assignment.members(task_index):
                        population_index = int(worker_indices[worker])
                        busy_until[population_index] = now + config.task_duration
            if injector is not None and served_tasks:
                self._mid_task_dropouts(
                    injector,
                    round_index,
                    assignment,
                    instance,
                    worker_indices,
                    served_tasks,
                    busy_until,
                    now,
                    events,
                )

            report.rounds.append(
                RoundMetrics(
                    round_index=round_index,
                    timestamp=now,
                    worker_count=instance.worker_count,
                    task_count=instance.task_count,
                    valid_pair_count=valid_pairs.pair_count,
                    score=score,
                    assigned_workers=assignment.assigned_worker_count(),
                    completed_tasks=len(served_tasks),
                    solver_seconds=solver_seconds,
                    fault_events=tuple(events),
                    repaired_groups=repaired,
                    dissolved_groups=dissolved,
                    backfilled_workers=backfilled,
                )
            )

            if config.carryover:
                open_tasks = [
                    entry
                    for task_index, entry in enumerate(open_tasks)
                    if task_index not in served_tasks
                    and task_index not in abandoned
                ]
            else:
                open_tasks = []
        return report

    # ------------------------------------------------------------------
    # fault handling (only reached when a fault model is enabled)
    # ------------------------------------------------------------------
    def _apply_location_noise(
        self,
        injector: FaultInjector,
        round_index: int,
        workers: list[Worker],
        events: list[FaultEvent],
    ) -> list[Worker]:
        """Perturb reported worker positions (GPS error) before validity."""
        if not workers:
            return workers
        locations = np.array(
            [(w.location.x, w.location.y) for w in workers]
        )
        noisy, noise_events = injector.location_noise(round_index, locations)
        if not noise_events:
            return workers
        events.extend(noise_events)
        return [
            worker.moved_to(Point(float(noisy[i, 0]), float(noisy[i, 1])))
            for i, worker in enumerate(workers)
        ]

    def _dispatch_faults(
        self,
        injector: FaultInjector,
        round_index: int,
        assignment: Assignment,
        instance: Instance,
        valid_pairs: ValidPairs,
        worker_indices: np.ndarray,
        open_tasks: list[_OpenTask],
        abandoned: set[int],
        events: list[FaultEvent],
    ) -> tuple[int, int, int]:
        """No-shows at dispatch, then the group-repair pass.

        Every group is >= ``B`` strong when this runs (incomplete groups
        were already dropped). Workers who no-show are unassigned; each
        broken group is backfilled from idle valid workers when repair
        is on and enough candidates exist, otherwise dissolved. A task
        whose group dissolved increments its fault-retry counter and is
        abandoned (removed from the open pool) once the counter exceeds
        ``FaultModel.max_task_retries``.

        Returns ``(repaired_groups, dissolved_groups, backfilled_workers)``.
        """
        model = injector.model
        minimum = instance.min_group_size
        assigned = [
            worker
            for worker in range(instance.worker_count)
            if assignment.is_assigned(worker)
        ]
        mask = injector.no_shows(round_index, len(assigned))
        no_show_set: set[int] = set()
        broken: set[int] = set()
        for worker, missing in zip(assigned, mask):
            if not missing:
                continue
            task = assignment.unassign(worker)
            no_show_set.add(worker)
            broken.add(task)
            events.append(
                FaultEvent(
                    round_index=round_index,
                    kind="no_show",
                    worker_id=int(worker_indices[worker]),
                    task_id=instance.tasks[task].task_id,
                    detail="worker never arrived at dispatch",
                )
            )

        repaired = dissolved = backfilled = 0
        for task in sorted(broken):
            count = assignment.assigned_count(task)
            if count >= minimum:
                continue  # group absorbed the loss
            needed = minimum - count
            candidates: list[int] = []
            if model.repair:
                idle = [
                    worker
                    for worker in valid_pairs.workers_of(task).tolist()
                    if not assignment.is_assigned(worker)
                    and worker not in no_show_set
                ]
                gains = assignment.revenue_cache.join_gains(idle, task)
                candidates = [
                    worker for _, worker in sorted(zip((-g for g in gains), idle))
                ]
            if model.repair and len(candidates) >= needed and count > 0:
                for worker in candidates[:needed]:
                    assignment.assign(worker, task)
                    backfilled += 1
                    events.append(
                        FaultEvent(
                            round_index=round_index,
                            kind="backfill",
                            worker_id=int(worker_indices[worker]),
                            task_id=instance.tasks[task].task_id,
                            detail="idle valid worker backfilled a broken group",
                        )
                    )
                repaired += 1
                continue
            # Dissolve: idle the survivors, schedule a bounded retry.
            for worker in list(assignment.members(task)):
                assignment.unassign(worker)
            dissolved += 1
            events.append(
                FaultEvent(
                    round_index=round_index,
                    kind="dissolve",
                    task_id=instance.tasks[task].task_id,
                    detail=f"group fell below B={minimum} after no-shows",
                )
            )
            entry = open_tasks[task]
            entry.fault_retries += 1
            if entry.fault_retries > model.max_task_retries:
                abandoned.add(task)
                events.append(
                    FaultEvent(
                        round_index=round_index,
                        kind="abandon",
                        task_id=entry.task.task_id,
                        detail=(
                            f"abandoned after {entry.fault_retries} "
                            "fault-caused dissolutions"
                        ),
                    )
                )
        return repaired, dissolved, backfilled

    def _mid_task_dropouts(
        self,
        injector: FaultInjector,
        round_index: int,
        assignment: Assignment,
        instance: Instance,
        worker_indices: np.ndarray,
        served_tasks: set[int],
        busy_until: dict[int, float],
        now: float,
        events: list[FaultEvent],
    ) -> None:
        """Release mid-task quitters early.

        The task still completes (payment was committed at dispatch, and
        Equation 2's revenue was already booked), but the quitter rejoins
        the idle pool after ``dropout_release`` of the task duration —
        faults propagate into future rounds through worker supply.
        """
        started = [
            (task, worker)
            for task in sorted(served_tasks)
            for worker in assignment.members(task)
        ]
        mask = injector.dropouts(round_index, len(started))
        release = now + self.config.task_duration * injector.model.dropout_release
        for (task, worker), quit_early in zip(started, mask):
            if not quit_early:
                continue
            population_index = int(worker_indices[worker])
            busy_until[population_index] = release
            events.append(
                FaultEvent(
                    round_index=round_index,
                    kind="dropout",
                    worker_id=population_index,
                    task_id=instance.tasks[task].task_id,
                    detail=f"quit mid-task, released at t={release:g}",
                )
            )

    def _materialize_workers(
        self, worker_indices: np.ndarray, now: float, rng
    ) -> list[Worker]:
        """Turn population indices into per-batch Worker records.

        Speeds and radii are re-drawn each batch with the paper's
        truncated-Gaussian range mapping; locations come from the
        population.
        """
        config = self.config
        count = worker_indices.size
        speeds = gaussian_in_range(rng, count, *config.speed_range)
        radii = gaussian_in_range(rng, count, *config.radius_range)
        workers = []
        for position, population_index in enumerate(worker_indices):
            location = self.population.worker_locations[int(population_index)]
            workers.append(
                Worker(
                    worker_id=int(population_index),
                    location=Point(float(location[0]), float(location[1])),
                    speed=float(speeds[position]),
                    radius=float(radii[position]),
                    arrival_time=now,
                )
            )
        return workers
