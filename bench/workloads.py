"""The benchmark's workloads, and the spans it records around them.

The program is used as a library, through its public entry points only:
``generate_instance`` / ``build_population`` build the inputs,
``compute_valid_pairs`` and ``solve_game_theoretic`` / ``solve_sharded``
/ ``make_solver`` + ``BatchSimulator`` solve them, and the layer numbers
come from what those calls already return (``SolverStats``,
``ShardedSolveResult.shard_seconds``, ``RoundMetrics``,
``row_cache_info()``). Nothing inside the program is traced: spans are
opened around each public call, and ``SolverStats`` phase timings are
attached below them as child spans with their measured durations.

Each single-batch workload is a window of a reference population from
the repository's performance record: ``window`` is the share of the unit
square kept, so worker and task counts shrink by it and every length
(working radius, speed) stretches by ``1 / sqrt(window)``. Densities,
candidate counts per worker and contention stay those of the reference.
"""

from __future__ import annotations

import inspect
import math
import time
from dataclasses import dataclass, field, replace

from repro.core.game import solve_game_theoretic
from repro.core.sharding import solve_sharded
from repro.core.stats import SolverStats
from repro.core.tpg import solve_tpg_with_stats
from repro.core.validity import compute_valid_pairs
from repro.datasets import generate_instance
from repro.experiments.config import ExperimentSettings, make_solver
from repro.experiments.runner import build_population
from repro.simulation.batch import BatchSimulator
from repro.simulation.faults import FaultModel

#: The batched evaluation path (numpy fallback when numba is absent).
KERNEL = "native"

#: Share of the configured size the untimed warm-up batch runs at.
WARMUP_SCALE = 0.1

#: Worker speeds of every reference population (Table II default).
SPEED_RANGE = (0.01, 0.05)


def kernel_kwargs(entry_point) -> dict:
    """``kernel="native"`` while ``entry_point`` still takes the argument,
    so removing the flag from the program needs no benchmark edit."""
    if "kernel" in inspect.signature(entry_point).parameters:
        return {"kernel": KERNEL}
    return {}


class Tracer:
    """Spans kept in memory: name, start, end, parent id and run id."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []

    def add(self, name: str, start: float, end: float, parent: int | None = None) -> int:
        self.spans.append(
            {
                "id": len(self.spans),
                "parent": parent,
                "run": self.run_id,
                "name": name,
                "start": start,
                "end": end,
            }
        )
        return len(self.spans) - 1

    def add_phases(self, parent: int, phases: list[tuple[str, float]]) -> dict[str, int]:
        """Attach durations measured inside the program as consecutive
        children of ``parent``, starting at its start."""
        cursor = self.spans[parent]["start"]
        ids = {}
        for name, seconds in phases:
            ids[name] = self.add(name, cursor, cursor + seconds, parent)
            cursor += seconds
        return ids

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def tree(self) -> dict:
        """Wall of the root span against the sum of the leaf spans."""
        parents = {s["parent"] for s in self.spans}
        (root,) = [s for s in self.spans if s["parent"] is None]
        wall = root["end"] - root["start"]
        leaves = sum(
            s["end"] - s["start"] for s in self.spans if s["id"] not in parents
        )
        return {"wall_s": wall, "leaves_s": leaves, "residue_s": wall - leaves}

    def records(self) -> list[dict]:
        """Spans with durations and self time (duration minus children)."""
        children: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]] = children.get(s["parent"], 0.0) + s["end"] - s["start"]
        return [
            dict(s, seconds=s["end"] - s["start"],
                 self_s=s["end"] - s["start"] - children.get(s["id"], 0.0))
            for s in self.spans
        ]


@dataclass
class Outcome:
    """One solve of one input.

    ``wall`` is the timed section (validity + solve, or one whole
    ``BatchSimulator.run()``); ``batches`` its per-batch seconds (one
    entry, or the simulator's round cycles); ``assignments`` one per
    checked operation.
    """

    wall: float
    batches: list[float]
    score: float
    completed: int
    assignments: list
    layers: dict = field(default_factory=dict)
    kernel_path: str = ""


def _kernel_path(stats: SolverStats) -> str:
    if stats.kernel_compiled_calls:
        return "numba"
    return "numpy" if stats.kernel_fallback_calls else "none"


def _solver_layers(stats: SolverStats) -> dict:
    scans = stats.cache_hits + stats.cache_misses
    return {
        "game.init_s": stats.phase_seconds.get("init", 0.0),
        "game.rounds_s": stats.phase_seconds.get("rounds", 0.0),
        "game.rounds": len(stats.rounds),
        "game.moves": sum(r.moves for r in stats.rounds),
        "game.gain_evaluations": stats.gain_evaluations,
        "game.scan_hit_ratio": stats.cache_hits / scans if scans else 0.0,
        "game.lub_invalidations": stats.lub_invalidations,
        "revenue.full_evaluations": stats.revenue_evaluations,
        "revenue.incremental_updates": stats.incremental_updates,
        "kernels.calls": stats.kernel_compiled_calls + stats.kernel_fallback_calls,
        "kernels.rescan_rows": stats.rescan_rows,
        "kernels.peel_calls": stats.peel_kernel_calls,
    }


def _tpg_layers(instances) -> dict:
    """TPG stage split from separate ``solve_tpg_with_stats`` calls (GT's
    own TPG initialisation reports only its total)."""
    stage1 = stage2 = 0.0
    for instance, valid_pairs in instances:
        stats = solve_tpg_with_stats(
            instance, valid_pairs, **kernel_kwargs(solve_tpg_with_stats)
        ).stats
        stage1 += stats.phase_seconds["stage1"]
        stage2 += stats.phase_seconds["stage2"]
    return {"tpg.stage1_s": stage1, "tpg.stage2_s": stage2}


def _row_cache_hit_ratio(quality) -> float:
    if not hasattr(quality, "row_cache_info"):
        return 0.0  # dense stores have no row cache
    row, col = quality.row_cache_info(), quality.col_cache_info()
    lookups = row.hits + row.misses + col.hits + col.misses
    return (row.hits + col.hits) / lookups if lookups else 0.0


@dataclass(frozen=True)
class BatchWorkload:
    """One Algorithm-1 batch: validity, then GT (monolithic or sharded)."""

    name: str
    reference_workers: int
    reference_tasks: int
    window: float
    radius_range: tuple[float, float]
    capacity: int
    inputs: int
    sharded: bool = False

    def build(self, seed: int, index: int, scale: float = 1.0):
        window = self.window * scale
        stretch = 1.0 / math.sqrt(window)
        return generate_instance(
            max(10, round(self.reference_workers * window)),
            max(2, round(self.reference_tasks * window)),
            capacity=self.capacity,
            speed_range=tuple(v * stretch for v in SPEED_RANGE),
            radius_range=tuple(v * stretch for v in self.radius_range),
            seed=[seed, index],
            quality_backend="sparse",
        )

    def solve(self, instance, tracer: Tracer | None = None) -> Outcome:
        started = time.perf_counter()
        valid_pairs = compute_valid_pairs(instance, "grid")
        validated = time.perf_counter()
        if self.sharded:
            result = solve_sharded(
                instance,
                valid_pairs,
                approach="GT",
                # Explicit, so every scale shards ("auto" targets 2500
                # workers per shard and would pass small batches through).
                shards=4,
                halo_rounds=2,
                n_jobs=1,
                **kernel_kwargs(solve_sharded),
            )
        else:
            result = solve_game_theoretic(
                instance, valid_pairs, **kernel_kwargs(solve_game_theoretic)
            )
        finished = time.perf_counter()
        assignment = result.assignment
        outcome = Outcome(
            wall=finished - started,
            batches=[finished - started],
            score=assignment.total_score(),
            completed=assignment.completed_task_count(),
            assignments=[assignment],
            kernel_path=_kernel_path(result.stats),
        )
        if tracer is None:
            return outcome

        stats = result.stats
        phases = stats.phase_seconds
        batch = tracer.add("batch", started, finished)
        tracer.add("validity.compute", started, validated, batch)
        solve = tracer.add("solve", validated, finished, batch)
        game_phases = [("game.init", phases["init"]), ("game.rounds", phases["rounds"])]
        layers = {
            "quality_store.nbytes": instance.quality.nbytes,
            "validity.compute_s": validated - started,
            "validity.pairs": valid_pairs.pair_count,
            "validity.pairs_per_worker": valid_pairs.pair_count / instance.worker_count,
            "quality_store.row_cache_hit_ratio": _row_cache_hit_ratio(instance.quality),
            **_solver_layers(stats),
        }
        # In a sharded solve TPG runs inside each shard's GT, out of reach
        # from here, so the TPG stage split is measured on monolithic
        # batches only.
        if self.sharded:
            ids = tracer.add_phases(
                solve,
                [
                    ("sharding.partition", phases["partition"]),
                    ("sharding.carve", phases["carve"]),
                    ("sharding.shard_solve", phases["shard_solve"]),
                    ("sharding.reconcile", phases["reconcile"]),
                ],
            )
            tracer.add_phases(ids["sharding.shard_solve"], game_phases)
            layers.update(
                {
                    "sharding.partition_s": phases["partition"],
                    "sharding.carve_s": phases["carve"],
                    "sharding.shard_solve_s": phases["shard_solve"],
                    "sharding.shard_max_s": max(result.shard_seconds, default=0.0),
                    "sharding.reconcile_s": phases["reconcile"],
                    "sharding.shards": stats.shard_count,
                    "sharding.border_workers": stats.border_workers,
                    "sharding.halo_moves": stats.halo_moves,
                    "sharding.border_seeded": stats.border_seeded,
                }
            )
        else:
            tracer.add_phases(solve, game_phases)
            layers.update(_tpg_layers([(instance, valid_pairs)]))
        outcome.layers = layers
        return outcome


@dataclass(frozen=True)
class SimulateInput:
    population: object
    settings: ExperimentSettings
    seed: int


#: Fault injection of the ``simulate`` workload, so group repair runs.
FAULTS = FaultModel(no_show_rate=0.05, dropout_rate=0.05, cancellation_rate=0.02)


@dataclass(frozen=True)
class SimulateWorkload:
    """Algorithm 1 over R rounds on the Meetup surrogate, GT+ALL, faults on.

    The surrogate city is fixed (population seed 0), as the paper's crawl
    is one fixed dataset; ``--seed`` drives the round stream (worker and
    task draws, speeds, radii) and the fault draws.
    """

    name: str = "simulate"
    inputs: int = 1

    def build(self, seed: int, index: int, scale: float = 1.0) -> SimulateInput:
        settings = ExperimentSettings()
        if scale < 1.0:
            settings = settings.scaled(scale)
        return SimulateInput(build_population(settings, seed=0), settings, seed)

    def solve(self, given: SimulateInput, tracer: Tracer | None = None) -> Outcome:
        settings = given.settings
        solver = make_solver(
            "GT+ALL",
            epsilon=settings.epsilon,
            seed=given.seed + 1,
            **kernel_kwargs(make_solver),
        )
        calls: list[tuple[float, float, object]] = []
        hooks: list[float] = []
        kept: list[tuple] = []  # (instance, valid_pairs) for the TPG stage split

        def timed_solver(instance, valid_pairs):
            started = time.perf_counter()
            assignment = solver(instance, valid_pairs)
            calls.append((started, time.perf_counter(), assignment))
            return assignment

        def hook(instance, valid_pairs):
            hooks.append(time.perf_counter())
            if tracer is not None:
                kept.append((instance, valid_pairs))

        simulator = BatchSimulator(
            given.population,
            replace(settings.to_batch_config(), faults=FAULTS),
            timed_solver,
            seed=given.seed,
            instance_hook=hook,
        )
        started = time.perf_counter()
        report = simulator.run()
        finished = time.perf_counter()
        # A round cycle runs from one instance_hook call to the next: the
        # solve, dispatch/repair, then the next round's sampling + validity.
        ends = hooks[1:] + [finished]
        stats = SolverStats.merged(solver.stats_log)
        outcome = Outcome(
            wall=finished - started,
            batches=[end - start for start, end in zip(hooks, ends)],
            score=report.total_score,
            completed=report.total_completed_tasks,
            assignments=[assignment for _, _, assignment in calls],
            kernel_path=_kernel_path(stats),
        )
        if tracer is None:
            return outcome

        run = tracer.add("simulate.run", started, finished)
        tracer.add("simulate.outside_solver", started, hooks[0], run)
        for hooked, end, (solve_start, solve_end, _), round_stats in zip(
            hooks, ends, calls, solver.stats_log
        ):
            cycle = tracer.add("simulate.round", hooked, end, run)
            solve = tracer.add("simulate.solver", solve_start, solve_end, cycle)
            tracer.add_phases(
                solve,
                [
                    ("game.init", round_stats.phase_seconds["init"]),
                    ("game.rounds", round_stats.phase_seconds["rounds"]),
                ],
            )
            tracer.add("simulate.outside_solver", solve_end, end, cycle)
        pairs = sum(r.valid_pair_count for r in report.rounds)
        outcome.layers = {
            "quality_store.nbytes": given.population.quality.nbytes,
            "validity.pairs": pairs,
            "validity.pairs_per_worker": pairs / sum(r.worker_count for r in report.rounds),
            **_solver_layers(stats),
            **_tpg_layers(kept),
            "simulate.solver_s": tracer.total("simulate.solver"),
            "simulate.outside_solver_s": tracer.total("simulate.outside_solver"),
            "simulate.repaired_groups": report.total_repaired_groups,
            "simulate.dissolved_groups": report.total_dissolved_groups,
            "simulate.fault_events": len(report.fault_events),
        }
        return outcome


WORKLOADS = {
    workload.name: workload
    for workload in (
        SimulateWorkload(),
        BatchWorkload(
            "hotpath",
            reference_workers=8000,
            reference_tasks=4000,
            window=0.25,
            radius_range=(0.03, 0.06),
            capacity=8,
            inputs=4,
        ),
        BatchWorkload(
            "contended",
            reference_workers=12000,
            reference_tasks=750,
            window=1 / 3,
            radius_range=(0.03, 0.06),
            capacity=8,
            inputs=4,
        ),
        BatchWorkload(
            "sharded",
            reference_workers=25000,
            reference_tasks=6250,
            window=0.2,
            radius_range=(0.01, 0.02),
            capacity=4,
            inputs=3,
            sharded=True,
        ),
    )
}
