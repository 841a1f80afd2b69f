"""Experimental settings (Table II) and the approach registry.

The paper's defaults (bold in Table II): capacity ``a_j = 4``, speed
range ``[1, 5]%``, working-area range ``[5, 10]%``, remaining time
``tau_j = 3``, TSI threshold ``epsilon = 0.05``, ``m = 1000`` workers and
``n = 500`` tasks per round, ``R = 10`` rounds, minimum group size
``B = 3``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.core.assignment import Assignment
from repro.core.baselines.mflow import solve_mflow
from repro.core.baselines.pair_greedy import solve_pair_greedy
from repro.core.baselines.random_assign import solve_random
from repro.core.baselines.wflow import solve_wflow
from repro.core.online import solve_online_greedy
from repro.core.game import solve_game_theoretic
from repro.core.model import Instance
from repro.core.sharding.partition import resolve_shard_request
from repro.core.tpg import solve_tpg_with_stats
from repro.core.validity import ValidPairs
from repro.simulation.batch import BatchConfig
from repro.utils.rng import ensure_rng

__all__ = [
    "TABLE_II",
    "DEFAULT_EPSILON",
    "DEFAULT_APPROACH_ORDER",
    "DIFFERENTIAL_APPROACH_ORDER",
    "APPROACHES",
    "ExperimentSettings",
    "make_solver",
]

DEFAULT_EPSILON = 0.05

#: Table II — the values each experiment sweeps (defaults first marked
#: by :data:`ExperimentSettings`'s field defaults).
TABLE_II = {
    "capacity": (3, 4, 5, 6),
    "speed_range_percent": ((1, 3), (1, 5), (1, 8), (1, 10)),
    "radius_range_percent": ((1, 5), (5, 10), (10, 15), (15, 20)),
    "remaining_time": (1, 2, 3, 4, 5),
    "epsilon": (0.0, 0.01, 0.03, 0.05, 0.08),
    "workers_per_round": (500, 800, 1000, 2000, 5000),
    "tasks_per_round": (100, 300, 500, 800, 1000),
}

DEFAULT_APPROACH_ORDER = (
    "RAND",
    "MFLOW",
    "TPG",
    "GT",
    "GT+LUB",
    "GT+TSI",
    "GT+ALL",
)

#: The approaches the audit harness cross-checks by default
#: (``repro.audit.differential``). Every registered approach is
#: deterministic given its seed — the same (approach, backend)
#: combination must reproduce repr-identically — so any of them may be
#: passed to the differential runner; this default keeps one
#: representative per solver family to bound the cross-product's cost:
#: the full game dynamics (GT), its lazy+epsilon production variant
#: (GT+ALL), the two-stage greedy (TPG), the flow baseline (MFLOW), the
#: pair-greedy ablation (PGREEDY), and the seeded-random floor (RAND).
DIFFERENTIAL_APPROACH_ORDER = (
    "GT",
    "GT+ALL",
    "TPG",
    "MFLOW",
    "PGREEDY",
    "RAND",
)

#: Extension approaches beyond the paper's lineup (see DESIGN.md §2):
#: WFLOW (quality-proxy min-cost flow), PGREEDY (TPG stage-2-only
#: ablation), ONLINE (one-shot arrival-order commitment), LSEARCH
#: (GT polished with coalitional 2-swaps).
EXTENSION_APPROACHES = ("WFLOW", "PGREEDY", "ONLINE", "LSEARCH")


@dataclass(frozen=True)
class ExperimentSettings:
    """One experiment configuration (defaults = Table II bold values)."""

    rounds: int = 10
    workers_per_round: int = 1000
    tasks_per_round: int = 500
    capacity: int = 4
    min_group_size: int = 3
    remaining_time: float = 3.0
    speed_range: tuple[float, float] = (0.01, 0.05)
    radius_range: tuple[float, float] = (0.05, 0.10)
    epsilon: float = DEFAULT_EPSILON
    dataset: str = "meetup"
    #: Quality-store backend for the population matrix: ``"dense"`` (the
    #: historical default) or ``"sparse"`` (O(nnz)
    #: :class:`~repro.core.quality_store.SparseQualityStore`; synthetic
    #: community datasets only). The third CLI backend, ``"shared"``, is
    #: a *transport* concern — the population is dense and the
    #: :class:`~repro.experiments.parallel.SweepExecutor` moves it into
    #: shared memory — so it is configured on the executor, not here.
    quality_backend: str = "dense"
    #: Geo-sharded solving (GT/TPG family only): ``1`` keeps the
    #: monolithic solver, ``"auto"`` targets ~2500 workers per shard,
    #: an explicit count pins the shard total. Flows into the sweep
    #: journal key like every other field, so sharded and monolithic
    #: runs never collide in a checkpoint.
    shards: "int | str" = 1
    #: Bound on the boundary-reconcile best-response passes.
    halo_rounds: int = 2
    #: Wall-clock budget (seconds) for each shard solve on the pool
    #: path; a shard that exceeds it (or crashes) is re-solved inline
    #: under that budget instead of aborting the batch. ``None``
    #: (the default) keeps shard solves unbounded and bit-identical.
    shard_timeout: "float | None" = None

    def __post_init__(self) -> None:
        if self.quality_backend not in ("dense", "sparse"):
            raise ValueError(
                f"unknown quality_backend {self.quality_backend!r}; "
                "expected 'dense' or 'sparse'"
            )
        object.__setattr__(self, "shards", resolve_shard_request(self.shards))
        if self.halo_rounds < 0:
            raise ValueError(
                f"halo_rounds must be >= 0, got {self.halo_rounds}"
            )
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ValueError(
                f"shard_timeout must be positive, got {self.shard_timeout}"
            )

    def to_batch_config(self) -> BatchConfig:
        return BatchConfig(
            rounds=self.rounds,
            workers_per_round=self.workers_per_round,
            tasks_per_round=self.tasks_per_round,
            capacity=self.capacity,
            min_group_size=self.min_group_size,
            remaining_time=self.remaining_time,
            speed_range=self.speed_range,
            radius_range=self.radius_range,
        )

    def scaled(self, factor: float) -> "ExperimentSettings":
        """Shrink round counts and sizes for quick runs/benchmarks.

        Keeps the per-task worker density roughly constant so the
        qualitative comparison between approaches survives the shrink.
        """
        if factor <= 0 or factor > 1:
            raise ValueError(f"factor must be in (0, 1], got {factor}")
        return replace(
            self,
            rounds=max(2, round(self.rounds * factor)),
            workers_per_round=max(50, round(self.workers_per_round * factor)),
            tasks_per_round=max(10, round(self.tasks_per_round * factor)),
        )


SolverFn = Callable[[Instance, ValidPairs], Assignment]


def make_solver(
    name: str,
    epsilon: float = DEFAULT_EPSILON,
    seed=None,
    shards: "int | str" = 1,
    halo_rounds: int = 2,
    shard_timeout: "float | None" = None,
) -> SolverFn:
    """Instantiate an approach by its paper name.

    ``epsilon`` only affects the TSI variants; ``seed`` only affects
    RAND.

    ``shards`` other than ``1`` routes the GT/TPG family through the
    geo-sharded solver (:func:`repro.core.sharding.solve_sharded`):
    partition, per-shard solves, then ``halo_rounds`` boundary
    best-response passes. ``shards=1`` is the monolithic solver itself
    — not a one-shard wrapper — so results are repr-identical to
    historical runs. ``shard_timeout`` bounds each shard solve's
    wall-clock (crashed/hung shards are re-solved inline under that
    budget; see :func:`repro.core.sharding.solve_sharded`); ``None``
    keeps solves unbounded and bit-identical.

    Instrumented approaches (TPG and the GT variants) expose a
    ``stats_log`` attribute on the returned callable: one
    :class:`~repro.core.stats.SolverStats` per solve, appended in call
    order. The experiment runner and the CLI merge and report them.
    """
    if name not in APPROACHES:
        raise ValueError(f"unknown approach {name!r}; known: {sorted(APPROACHES)}")
    request = resolve_shard_request(shards)
    if request != 1:
        from repro.core.sharding.solver import (
            SHARDABLE_APPROACHES,
            solve_sharded,
        )

        if name not in SHARDABLE_APPROACHES:
            raise ValueError(
                f"approach {name!r} does not support sharded solving "
                f"(shards={request!r}); shardable: {SHARDABLE_APPROACHES}"
            )

        def solver(instance: Instance, valid_pairs: ValidPairs) -> Assignment:
            result = solve_sharded(
                instance,
                valid_pairs,
                approach=name,
                epsilon=epsilon,
                seed=seed,
                shards=request,
                halo_rounds=halo_rounds,
                shard_timeout=shard_timeout,
            )
            solver.stats_log.append(result.stats)
            return result.assignment

        solver.stats_log = []
        return solver
    return APPROACHES[name](epsilon, seed)


def _rand_factory(epsilon: float, seed) -> SolverFn:
    rng = ensure_rng(seed)

    def solver(instance: Instance, valid_pairs: ValidPairs) -> Assignment:
        return solve_random(instance, valid_pairs, seed=rng)

    return solver


def _mflow_factory(epsilon: float, seed) -> SolverFn:
    def solver(instance: Instance, valid_pairs: ValidPairs) -> Assignment:
        return solve_mflow(instance, valid_pairs)

    return solver


def _tpg_factory(epsilon: float, seed) -> SolverFn:
    def solver(instance: Instance, valid_pairs: ValidPairs) -> Assignment:
        result = solve_tpg_with_stats(instance, valid_pairs)
        if result.stats is not None:
            solver.stats_log.append(result.stats)
        return result.assignment

    solver.stats_log = []
    return solver


def _gt_factory(use_epsilon: bool, lazy_update: bool, label: str):
    def factory(epsilon: float, seed) -> SolverFn:
        effective_epsilon = epsilon if use_epsilon else 0.0

        def solver(instance: Instance, valid_pairs: ValidPairs) -> Assignment:
            result = solve_game_theoretic(
                instance,
                valid_pairs,
                epsilon=effective_epsilon,
                lazy_update=lazy_update,
            )
            if result.stats is not None:
                result.stats.solver = label
                solver.stats_log.append(result.stats)
            return result.assignment

        solver.stats_log = []
        return solver

    return factory


def _wflow_factory(epsilon: float, seed) -> SolverFn:
    def solver(instance: Instance, valid_pairs: ValidPairs) -> Assignment:
        return solve_wflow(instance, valid_pairs)

    return solver


def _pair_greedy_factory(epsilon: float, seed) -> SolverFn:
    def solver(instance: Instance, valid_pairs: ValidPairs) -> Assignment:
        return solve_pair_greedy(instance, valid_pairs)

    return solver


def _online_factory(epsilon: float, seed) -> SolverFn:
    def solver(instance: Instance, valid_pairs: ValidPairs) -> Assignment:
        return solve_online_greedy(instance, valid_pairs)

    return solver


def _local_search_factory(epsilon: float, seed) -> SolverFn:
    from repro.core.local_search import solve_local_search

    def solver(instance: Instance, valid_pairs: ValidPairs) -> Assignment:
        return solve_local_search(instance, valid_pairs).assignment

    return solver


APPROACHES: dict[str, Callable[[float, object], SolverFn]] = {
    "RAND": _rand_factory,
    "MFLOW": _mflow_factory,
    "TPG": _tpg_factory,
    "GT": _gt_factory(use_epsilon=False, lazy_update=False, label="GT"),
    "GT+LUB": _gt_factory(use_epsilon=False, lazy_update=True, label="GT+LUB"),
    "GT+TSI": _gt_factory(use_epsilon=True, lazy_update=False, label="GT+TSI"),
    "GT+ALL": _gt_factory(use_epsilon=True, lazy_update=True, label="GT+ALL"),
    "WFLOW": _wflow_factory,
    "PGREEDY": _pair_greedy_factory,
    "ONLINE": _online_factory,
    "LSEARCH": _local_search_factory,
}
