"""Running approaches over identical batch streams.

For one parameter setting, every approach simulates the same ``R`` rounds
seeded identically (so each sees the same arrival stream; carryover then
diverges with each approach's own serving decisions, exactly as a live
platform would experience). The UPPER bound of Equation 9 is evaluated on
the GT run's batches via the simulator's instance hook.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.bounds import upper_bound
from repro.core.sharding.solver import SHARDABLE_APPROACHES
from repro.core.stats import SolverStats
from repro.experiments.config import (
    DEFAULT_APPROACH_ORDER,
    ExperimentSettings,
    make_solver,
)
from repro.simulation.batch import BatchSimulator, SimulationReport
from repro.simulation.population import Population

__all__ = [
    "ApproachOutcome",
    "SweepPoint",
    "run_approaches",
    "run_single_approach",
    "build_population",
    "synthetic_pool_sizes",
    "upper_reference",
]

_UPPER_REFERENCE_APPROACH = "GT"


def upper_reference(approaches: tuple[str, ...]) -> str:
    """The approach whose batches feed the UPPER bound: GT when present,
    otherwise the first approach of the lineup."""
    if _UPPER_REFERENCE_APPROACH in approaches:
        return _UPPER_REFERENCE_APPROACH
    return approaches[0]


@dataclass(frozen=True)
class ApproachOutcome:
    """One approach's aggregate result at one parameter setting.

    ``stats`` merges the per-batch :class:`~repro.core.stats.SolverStats`
    of instrumented approaches (TPG and the GT variants); ``None`` for
    the uninstrumented baselines.
    """

    name: str
    total_score: float
    mean_batch_seconds: float
    completed_tasks: int
    assigned_workers: int
    report: SimulationReport
    stats: SolverStats | None = None


@dataclass
class SweepPoint:
    """All approaches' outcomes at one parameter value."""

    parameter: str
    value: object
    outcomes: dict[str, ApproachOutcome] = field(default_factory=dict)
    upper: float = 0.0

    def score(self, approach: str) -> float:
        """Total score of ``approach`` (NaN when its cell failed)."""
        outcome = self.outcomes.get(approach)
        return outcome.total_score if outcome is not None else float("nan")

    def seconds(self, approach: str) -> float:
        """Mean batch time of ``approach`` (NaN when its cell failed)."""
        outcome = self.outcomes.get(approach)
        return (
            outcome.mean_batch_seconds if outcome is not None else float("nan")
        )


def synthetic_pool_sizes(settings: ExperimentSettings) -> tuple[int, int]:
    """Pool sizes for synthetic populations — the only settings fields
    (besides the dataset name) that affect what gets built, which is why
    the parallel executor's population cache keys on them."""
    worker_pool = max(int(settings.workers_per_round * 1.5), 200)
    task_pool = max(int(settings.tasks_per_round * 2), 100)
    return worker_pool, task_pool


def build_population(settings: ExperimentSettings, seed=None, quality=None) -> Population:
    """Materialize the dataset a settings object names.

    ``meetup`` builds the surrogate crawl; ``unif``/``skew`` build
    synthetic populations sized to comfortably cover the per-round draws.
    ``settings.quality_backend == "sparse"`` swaps the synthetic dense
    community matrix for an O(nnz) sparse store (the meetup surrogate
    derives its matrix from group memberships and stays dense).

    ``quality`` overrides the cooperation store entirely — sweep-pool
    workers pass an attached shared-memory store here. Synthetic datasets
    then skip quality generation (locations are drawn first from the
    same rng stream, so they match the creator's); the meetup surrogate
    still derives its matrix internally, so the override only avoids the
    per-process matrix copy, not the surrogate build.
    """
    if settings.dataset == "meetup":
        if settings.quality_backend == "sparse":
            raise ValueError(
                "quality_backend='sparse' supports the synthetic datasets "
                "('unif'/'skew') only; the meetup surrogate derives a dense "
                "Jaccard matrix from group memberships"
            )
        from repro.datasets.meetup import generate_meetup_dataset

        dataset = generate_meetup_dataset(seed=seed)
        if quality is not None:
            return Population(
                worker_locations=dataset.user_locations,
                task_locations=dataset.event_locations,
                quality=quality,
            )
        return Population.from_meetup(dataset)
    if settings.dataset in ("unif", "skew"):
        distribution = "uniform" if settings.dataset == "unif" else "skewed"
        worker_pool, task_pool = synthetic_pool_sizes(settings)
        return Population.synthetic(
            worker_pool,
            task_pool,
            distribution=distribution,
            seed=seed,
            quality_backend=settings.quality_backend,
            quality=quality,
        )
    raise ValueError(
        f"unknown dataset {settings.dataset!r}; expected 'meetup', 'unif' or 'skew'"
    )


def run_approaches(
    population: Population,
    settings: ExperimentSettings,
    approaches: tuple[str, ...] = DEFAULT_APPROACH_ORDER,
    parameter: str = "",
    value: object = None,
    seed: int = 0,
) -> SweepPoint:
    """Simulate every approach at one parameter setting.

    Returns a :class:`SweepPoint` with per-approach outcomes and the
    Equation 9 UPPER bound summed over the reference approach's batches.
    """
    point = SweepPoint(parameter=parameter, value=value)
    reference = upper_reference(approaches)
    for name in approaches:
        outcome, upper = run_single_approach(
            population,
            settings,
            name,
            seed=seed,
            compute_upper=name == reference,
        )
        point.outcomes[name] = outcome
        if upper is not None:
            point.upper = upper
    return point


def run_single_approach(
    population: Population,
    settings: ExperimentSettings,
    name: str,
    seed: int = 0,
    compute_upper: bool = False,
) -> tuple[ApproachOutcome, float | None]:
    """Simulate one approach at one parameter setting — the sweep cell.

    This is the unit of work the parallel executor fans out; the serial
    :func:`run_approaches` loop calls exactly the same code, which is
    what makes ``--jobs N`` results bit-identical to ``--jobs 1``.
    Returns the outcome plus the summed Equation 9 UPPER bound when
    ``compute_upper`` is set (``None`` otherwise).
    """
    config = settings.to_batch_config()
    # Baselines outside the GT/TPG family have no sharded form; a
    # sharded sweep runs them monolithically instead of failing.
    shards = settings.shards if name in SHARDABLE_APPROACHES else 1
    solver = make_solver(
        name,
        epsilon=settings.epsilon,
        seed=seed + 1,
        shards=shards,
        halo_rounds=settings.halo_rounds,
        shard_timeout=settings.shard_timeout,
    )
    upper_accumulator = [0.0]
    hook = None
    if compute_upper:

        def hook(instance, valid_pairs, _acc=upper_accumulator):
            _acc[0] += upper_bound(instance, valid_pairs).value

    simulator = BatchSimulator(
        population, config, solver, seed=seed, instance_hook=hook
    )
    report = simulator.run()
    stats_log = getattr(solver, "stats_log", None)
    outcome = ApproachOutcome(
        name=name,
        total_score=report.total_score,
        mean_batch_seconds=report.mean_batch_seconds,
        completed_tasks=report.total_completed_tasks,
        assigned_workers=report.total_assigned_workers,
        report=report,
        stats=SolverStats.merged(stats_log) if stats_log else None,
    )
    return outcome, (upper_accumulator[0] if compute_upper else None)
