"""Golden solves: GT, GT+ALL and TPG outputs pinned repr-exactly.

``tests/data/golden_solves.json`` records, per solve, the assignment's
``to_pairs()``, ``repr(total_score())`` and the deterministic
``SolverStats`` counters the benchmark reads (``bench/workloads.py``):
evaluation counts, LUB cache behaviour, revenue evaluations, kernel
dispatches, rescanned rows, peel dispatches, per-round moves and gains,
and the sharding counters. The cases cover the seed-grid instances,
small contended batches that force mid-round moves and overflow peels,
the fuzzer's peel-boundary shapes and every audit-corpus entry — each
on the dense and the sparse quality store — plus sharded GT on the two
``shard_*`` corpus entries, scripted best-response rounds (full and
restricted player orders) and the border-group seeding of reconcile.

Regenerate (only when an output change is intended and explained)::

    PYTHONPATH=src python -m tests.test_golden --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.audit.corpus import iter_corpus
from repro.audit.differential import _with_backend
from repro.audit.fuzzer import _kernel_boundary_instance
from repro.core.assignment import Assignment
from repro.core.fallback import FallbackSolver
from repro.core.game import (
    DEFAULT_TOLERANCE,
    _BestResponseDynamics,
    solve_game_theoretic,
)
from repro.core.sharding import solve_sharded
from repro.core.sharding.reconcile import seed_border_groups
from repro.core.stats import SolverStats
from repro.core.tpg import solve_tpg, solve_tpg_with_stats
from repro.core.validity import compute_valid_pairs
from repro.datasets import generate_instance
from repro.experiments.config import make_solver
from tests.conftest import make_dense_instance

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_solves.json"
CORPUS_DIR = Path(__file__).parent / "data" / "audit_corpus"
BACKENDS = ("dense", "sparse")

#: SolverStats counters recorded per solve (all deterministic).
COUNTERS = (
    "gain_evaluations",
    "cache_hits",
    "cache_misses",
    "lub_invalidations",
    "revenue_evaluations",
    "incremental_updates",
    "kernel_fallback_calls",
    "kernel_compiled_calls",
    "rescan_batches",
    "rescan_rows",
    "peel_kernel_calls",
)
SHARD_COUNTERS = (
    "shard_count",
    "border_workers",
    "halo_rounds",
    "halo_moves",
    "border_seeded",
)


def _instances() -> dict:
    """Name -> instance, in a fixed order."""
    instances = {}
    for seed in (0, 1, 2):
        instances[f"seed_grid_{seed}"] = generate_instance(
            100, 25, seed=seed, quality_backend="sparse"
        )
    instances["contended_60x12"] = make_dense_instance(60, 12, seed=3)
    instances["dense_30x6"] = make_dense_instance(30, 6, seed=2)
    instances["dense_25x5"] = make_dense_instance(25, 5, seed=4)
    for shape in ("peelcliff", "peelfit", "tiedpeel"):
        for seed in range(3):
            instances[f"{shape}_{seed}"] = _kernel_boundary_instance(
                shape, np.random.default_rng(seed)
            )
    for path, instance, _ in iter_corpus(CORPUS_DIR):
        instances[f"corpus/{path.stem}"] = instance
    return instances


def _counters(stats: SolverStats) -> dict:
    record = {name: getattr(stats, name) for name in COUNTERS}
    record["rounds"] = [
        [r.moves, repr(r.gain), r.evaluations] for r in stats.rounds
    ]
    return record


def _outcome(assignment, stats: SolverStats | None, **extra) -> dict:
    record = {
        "pairs": [list(pair) for pair in assignment.to_pairs()],
        "score": repr(assignment.total_score()),
    }
    if stats is not None:
        record["stats"] = _counters(stats)
    record.update(extra)
    return record


def _solve_cases(instance) -> dict:
    valid_pairs = compute_valid_pairs(instance)
    gt = solve_game_theoretic(instance, valid_pairs)
    gt_all = solve_game_theoretic(
        instance, valid_pairs, epsilon=0.01, lazy_update=True
    )
    tpg = solve_tpg_with_stats(instance, valid_pairs)
    return {
        "GT": _outcome(
            gt.assignment, gt.stats,
            final_score=repr(gt.final_score), seeded_tasks=gt.seeded_tasks,
        ),
        "GT+ALL": _outcome(
            gt_all.assignment, gt_all.stats,
            final_score=repr(gt_all.final_score),
            seeded_tasks=gt_all.seeded_tasks,
        ),
        "TPG": _outcome(
            tpg.assignment, tpg.stats, seeded_tasks=tpg.seeded_tasks
        ),
    }


def _sharded_case(instance) -> dict:
    valid_pairs = compute_valid_pairs(instance)
    result = solve_sharded(
        instance, valid_pairs, approach="GT", shards=2, halo_rounds=2
    )
    record = _outcome(result.assignment, result.stats)
    record["stats"].update(
        {name: getattr(result.stats, name) for name in SHARD_COUNTERS}
    )
    return record


def _fallback_case(instance) -> dict:
    valid_pairs = compute_valid_pairs(instance)
    primary = make_solver("GT+ALL", epsilon=0.01, seed=5)
    wrapped = FallbackSolver(primary, budget=None, label="GT+ALL")
    assignment = wrapped(instance, valid_pairs)
    return _outcome(
        assignment, None, degraded=wrapped.degradation_log[-1].degraded
    )


def _scripted_case(instance, orders) -> dict:
    """Best-response rounds driven one ``run_round`` at a time from the
    TPG seed; ``None`` plays everyone, a list restricts the round."""
    valid_pairs = compute_valid_pairs(instance)
    assignment = Assignment(instance, valid_pairs, allow_overflow=True)
    for worker, task in solve_tpg(instance, valid_pairs).to_pairs():
        assignment.assign(worker, task)
    stats = SolverStats()
    dynamics = _BestResponseDynamics(
        instance, valid_pairs, assignment, DEFAULT_TOLERANCE,
        lazy_update=False, stats=stats,
    )
    trace = []
    for order in orders:
        moves, gain = dynamics.run_round(players=order)
        trace.append([moves, repr(gain), repr(assignment.total_score())])
    return _outcome(assignment, stats, trace=trace)


def _border_seed_case(instance) -> dict:
    valid_pairs = compute_valid_pairs(instance)
    assignment = Assignment(instance, valid_pairs, allow_overflow=True)
    stats = SolverStats()
    seeded = seed_border_groups(
        instance, valid_pairs, assignment,
        range(instance.worker_count), range(instance.task_count),
        stats=stats,
    )
    return _outcome(assignment, stats, seeded=seeded)


def _on_backend(instance, backend, build):
    variant, cleanup = _with_backend(instance, backend)
    try:
        return build(variant)
    finally:
        if cleanup is not None:
            cleanup()


def _scripted_orders(count: int) -> dict:
    permutation = np.random.default_rng(7).permutation(count).tolist()
    return {
        "full_rounds": [None] * 4,
        "restricted_rounds": [
            list(range(count)), list(reversed(range(count))), permutation,
        ],
    }


def compute_golden() -> dict:
    """Every golden case, recomputed by the current code."""
    golden: dict = {}
    instances = _instances()
    for name, instance in instances.items():
        for backend in BACKENDS:
            golden[f"solve/{name}/{backend}"] = _on_backend(
                instance, backend, _solve_cases
            )
    for name in ("corpus/shard_boundary_group", "corpus/shard_halo_two_moves"):
        for backend in BACKENDS:
            golden[f"sharded/{name}/{backend}"] = _on_backend(
                instances[name], backend, _sharded_case
            )
    contended = instances["contended_60x12"]
    for backend in BACKENDS:
        for label, orders in _scripted_orders(contended.worker_count).items():
            golden[f"scripted/{label}/{backend}"] = _on_backend(
                contended, backend,
                lambda variant, orders=orders: _scripted_case(variant, orders),
            )
        golden[f"border_seed/contended_60x12/{backend}"] = _on_backend(
            contended, backend, _border_seed_case
        )
        golden[f"fallback/dense_25x5/{backend}"] = _on_backend(
            instances["dense_25x5"], backend, _fallback_case
        )
    return golden


def _normalise(value):
    """JSON round-trip, so tuples and lists compare alike."""
    return json.loads(json.dumps(value))


@pytest.fixture(scope="module")
def recomputed() -> dict:
    return _normalise(compute_golden())


@pytest.fixture(scope="module")
def golden() -> dict:
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


def test_golden_covers_every_case(golden, recomputed):
    assert sorted(recomputed) == sorted(golden)


@pytest.mark.parametrize(
    "kind", ["solve", "sharded", "scripted", "border_seed", "fallback"]
)
def test_outputs_match_the_golden_record(golden, recomputed, kind):
    keys = [key for key in golden if key.split("/", 1)[0] == kind]
    assert keys
    mismatched = [key for key in keys if recomputed.get(key) != golden[key]]
    assert not mismatched, (
        f"{len(mismatched)} of {len(keys)} golden '{kind}' cases "
        f"changed, first: {mismatched[0]}"
    )


def test_golden_exercises_every_counted_path(golden):
    """The record is only a guard if it covers the paths it pins."""
    solves = [
        stats
        for key, cases in golden.items()
        if key.startswith("solve/")
        for stats in (case["stats"] for case in cases.values())
    ]
    assert any(stats["peel_kernel_calls"] for stats in solves)
    assert any(stats["rescan_rows"] for stats in solves)
    assert any(stats["kernel_fallback_calls"] for stats in solves)
    assert any(
        moves for stats in solves for moves, _, _ in stats["rounds"]
    )
    sharded = [golden[key]["stats"] for key in golden if key.startswith("sharded/")]
    assert any(stats["halo_moves"] for stats in sharded)
    assert any(golden[key]["seeded"] for key in golden if key.startswith("border_seed/"))


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print(__doc__)
        return 2
    GOLDEN_PATH.write_text(
        json.dumps(compute_golden(), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
