"""Geo-sharded solving: partition invariants, remaps, identity, stats."""

import numpy as np
import pytest

from repro.core.model import Instance, Task, Worker
from repro.core.model import _validate_carved_copies
from repro.core.quality_store import DenseQualityStore
from repro.core.sharding import (
    carve_shard,
    partition_instance,
    resolve_shard_request,
    solve_sharded,
)
from repro.core.validity import compute_valid_pairs
from repro.datasets.synthetic import generate_instance
from repro.experiments.config import ExperimentSettings, make_solver
from repro.spatial.geometry import Point
from repro.utils.errors import InvalidInstanceError


@pytest.fixture(scope="module")
def seed_grid():
    instance = generate_instance(150, 40, seed=5)
    return instance, compute_valid_pairs(instance)


@pytest.fixture(scope="module")
def boundary_instance():
    instance = generate_instance(
        120, 30, seed=3, radius_range=(0.04, 0.08)
    )
    return instance, compute_valid_pairs(instance)


def two_cluster_instance(separation=0.6, cluster_radius=0.02):
    """Two far-apart clusters — partitions with zero border workers."""
    rng = np.random.default_rng(11)
    workers = []
    tasks = []
    # base center chosen off any reach-grid cell corner so a tight
    # cluster really occupies a single cell
    centers = [(0.225, 0.225), (0.225 + separation, 0.225 + separation)]
    for cluster, (cx, cy) in enumerate(centers):
        for i in range(20):
            dx, dy = rng.uniform(-cluster_radius, cluster_radius, size=2)
            workers.append(
                Worker(
                    worker_id=cluster * 100 + i,
                    location=Point(cx + dx, cy + dy),
                    speed=0.03,
                    radius=0.05,
                )
            )
        for j in range(5):
            dx, dy = rng.uniform(-cluster_radius, cluster_radius, size=2)
            tasks.append(
                Task(
                    task_id=cluster * 100 + j,
                    location=Point(cx + dx, cy + dy),
                    capacity=4,
                    deadline=3.0,
                )
            )
    quality = rng.uniform(0.0, 1.0, size=(len(workers), len(workers)))
    quality = (quality + quality.T) / 2.0
    np.fill_diagonal(quality, 0.0)
    return Instance(
        workers=workers,
        tasks=tasks,
        quality=DenseQualityStore(quality),
        min_group_size=3,
    )


# ---------------------------------------------------------------------------
# resolve_shard_request
# ---------------------------------------------------------------------------
def test_resolve_shard_request_accepts_auto_and_ints():
    assert resolve_shard_request("auto") == "auto"
    assert resolve_shard_request(" AUTO ") == "auto"
    assert resolve_shard_request(4) == 4
    assert resolve_shard_request("4") == 4


@pytest.mark.parametrize("bad", [0, -1, "0", "many", 1.5, True])
def test_resolve_shard_request_rejects(bad):
    with pytest.raises(ValueError):
        resolve_shard_request(bad)


def test_experiment_settings_validate_shards():
    assert ExperimentSettings(shards="auto").shards == "auto"
    assert ExperimentSettings(shards="3").shards == 3
    with pytest.raises(ValueError):
        ExperimentSettings(shards=0)
    with pytest.raises(ValueError):
        ExperimentSettings(halo_rounds=-1)


def test_experiment_settings_validate_shard_timeout():
    assert ExperimentSettings(shard_timeout=None).shard_timeout is None
    assert ExperimentSettings(shard_timeout=5.0).shard_timeout == 5.0
    with pytest.raises(ValueError, match="shard_timeout"):
        ExperimentSettings(shard_timeout=-1.0)


def test_solve_sharded_rejects_bad_shard_timeout(seed_grid):
    instance, valid_pairs = seed_grid
    with pytest.raises(ValueError, match="shard_timeout"):
        solve_sharded(instance, valid_pairs, approach="GT", shard_timeout=0.0)


# ---------------------------------------------------------------------------
# partition invariants
# ---------------------------------------------------------------------------
def test_partition_covers_every_entity_exactly_once(seed_grid):
    instance, _ = seed_grid
    plan = partition_instance(instance, shards=4)
    assert plan.shard_count >= 2
    worker_cover = np.concatenate(
        [plan.workers_of(s) for s in range(plan.shard_count)]
    )
    task_cover = np.concatenate(
        [plan.tasks_of(s) for s in range(plan.shard_count)]
    )
    assert sorted(worker_cover.tolist()) == list(range(instance.worker_count))
    assert sorted(task_cover.tolist()) == list(range(instance.task_count))
    assert plan.worker_shard.min() >= 0
    assert plan.worker_shard.max() < plan.shard_count


def test_border_superset_of_cross_shard_valid_pairs(boundary_instance):
    instance, valid_pairs = boundary_instance
    plan = partition_instance(instance, shards=3)
    assert plan.shard_count >= 2
    cross_workers = {
        worker
        for worker, task in valid_pairs.iter_pairs()
        if plan.worker_shard[worker] != plan.task_shard[task]
    }
    border = set(plan.border_worker_indices().tolist())
    assert cross_workers <= border
    # strictness: the reach-bound classification is conservative, so on
    # a contiguous uniform instance it marks more than the actual
    # cross-shard pairs
    assert len(border) > len(cross_workers)


def test_partition_single_cell_collapses_to_one_shard():
    # everything within one reach-sized grid cell — no split possible
    instance = two_cluster_instance(separation=0.0, cluster_radius=0.001)
    plan = partition_instance(instance, shards=8)
    assert plan.shard_count == 1
    assert plan.border_worker_count == 0


def test_partition_is_deterministic(seed_grid):
    instance, _ = seed_grid
    a = partition_instance(instance, shards="auto")
    b = partition_instance(instance, shards="auto")
    assert a.shard_count == b.shard_count
    assert np.array_equal(a.worker_shard, b.worker_shard)
    assert np.array_equal(a.task_shard, b.task_shard)
    assert np.array_equal(a.worker_border, b.worker_border)


# ---------------------------------------------------------------------------
# carve + id remaps
# ---------------------------------------------------------------------------
def test_carve_shard_remap_round_trip(boundary_instance):
    instance, valid_pairs = boundary_instance
    plan = partition_instance(instance, shards=3)
    for shard in range(plan.shard_count):
        if plan.workers_of(shard).size == 0 or plan.tasks_of(shard).size == 0:
            continue
        piece = carve_shard(instance, valid_pairs, plan, shard)
        assert np.all(np.diff(piece.worker_ids) > 0)
        assert np.all(np.diff(piece.task_ids) > 0)
        # every local valid pair maps back to a global valid pair whose
        # endpoints both live in this shard
        for local_worker, local_task in piece.valid_pairs.iter_pairs():
            worker = int(piece.worker_ids[local_worker])
            task = int(piece.task_ids[local_task])
            assert valid_pairs.is_valid(worker, task)
            assert plan.worker_shard[worker] == shard
            assert plan.task_shard[task] == shard
        # and the restriction is lossless for in-shard pairs
        in_shard = sum(
            1
            for worker, task in valid_pairs.iter_pairs()
            if plan.worker_shard[worker] == shard
            and plan.task_shard[task] == shard
        )
        assert piece.valid_pairs.pair_count == in_shard
        # interior workers keep their whole valid set
        for local_worker, worker in enumerate(piece.worker_ids):
            if not plan.worker_border[worker]:
                assert len(
                    piece.valid_pairs.tasks_for_worker[local_worker]
                ) == len(valid_pairs.tasks_for_worker[int(worker)])
        # carved records are fresh copies, never aliases
        for local_worker, worker in enumerate(piece.worker_ids):
            original = instance.workers[int(worker)]
            carved = piece.instance.workers[local_worker]
            assert carved is not original
            assert carved.location is not original.location
            assert carved.worker_id == original.worker_id


def test_carve_rejects_unsorted_indices(seed_grid):
    instance, _ = seed_grid
    with pytest.raises(InvalidInstanceError):
        instance.carve([2, 1], [0])
    with pytest.raises(InvalidInstanceError):
        instance.carve([0, 0], [0])


def test_validate_carved_copies_rejects_aliases(seed_grid):
    instance, _ = seed_grid
    worker = instance.workers[0]
    task = instance.tasks[0]
    with pytest.raises(InvalidInstanceError, match="aliases"):
        _validate_carved_copies([worker], [worker], [], [])
    fresh_worker = Worker(
        worker_id=worker.worker_id,
        location=worker.location,  # aliased location
        speed=worker.speed,
        radius=worker.radius,
        arrival_time=worker.arrival_time,
    )
    with pytest.raises(InvalidInstanceError, match="aliases"):
        _validate_carved_copies([fresh_worker], [worker], [], [])
    drifted = Task(
        task_id=task.task_id,
        location=Point(float(task.location.x), float(task.location.y)),
        capacity=task.capacity + 1,
        deadline=task.deadline,
        created_time=task.created_time,
    )
    with pytest.raises(InvalidInstanceError, match="drifted"):
        _validate_carved_copies([], [], [drifted], [task])


# ---------------------------------------------------------------------------
# solve identity and reproducibility
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("approach", ["GT", "TPG"])
def test_shards_one_is_bit_identical_to_monolithic(seed_grid, approach):
    instance, valid_pairs = seed_grid
    mono = make_solver(approach, seed=9)(instance, valid_pairs)
    via_factory = make_solver(approach, seed=9, shards=1)(
        instance, valid_pairs
    )
    via_solver = solve_sharded(
        instance, valid_pairs, approach=approach, seed=9, shards=1
    ).assignment
    for candidate in (via_factory, via_solver):
        assert candidate.to_pairs() == mono.to_pairs()
        assert repr(candidate) == repr(mono)
        assert repr(candidate.total_score()) == repr(mono.total_score())


@pytest.mark.parametrize("approach", ["GT", "TPG"])
def test_zero_border_sharded_equals_monolithic(approach):
    instance = two_cluster_instance()
    valid_pairs = compute_valid_pairs(instance)
    plan = partition_instance(instance, shards=2)
    assert plan.shard_count == 2
    assert plan.border_worker_count == 0
    result = solve_sharded(
        instance, valid_pairs, approach=approach, shards=2
    )
    mono = make_solver(approach)(instance, valid_pairs)
    assert result.assignment.to_pairs() == mono.to_pairs()
    assert repr(result.assignment.recompute_total()) == repr(
        mono.recompute_total()
    )


def test_sharded_runs_are_bit_reproducible(boundary_instance):
    instance, valid_pairs = boundary_instance
    runs = [
        solve_sharded(
            instance,
            valid_pairs,
            approach="GT",
            seed=4,
            shards=3,
            halo_rounds=2,
        )
        for _ in range(2)
    ]
    assert runs[0].assignment.to_pairs() == runs[1].assignment.to_pairs()
    assert repr(runs[0].assignment) == repr(runs[1].assignment)
    assert runs[0].halo_moves == runs[1].halo_moves


def test_sharded_assignment_is_feasible_and_counted(boundary_instance):
    instance, valid_pairs = boundary_instance
    result = solve_sharded(
        instance, valid_pairs, approach="GT", shards=3, halo_rounds=2
    )
    result.assignment.check_feasible()
    stats = result.stats
    assert stats.shard_count == result.plan.shard_count
    assert stats.border_workers == result.plan.border_worker_count
    assert stats.halo_rounds == result.halo_rounds_run
    assert stats.halo_moves == result.halo_moves
    assert "shard_solve" in stats.phase_seconds
    payload = stats.to_dict()
    for key in ("shard_count", "border_workers", "halo_rounds", "halo_moves"):
        assert key in payload
    assert f"shards={stats.shard_count}" in stats.summary()


def test_shard_failover_recovers_from_killed_child(boundary_instance):
    """Chaos-driven failover: one shard child SIGKILLs itself on every
    attempt (including the solo retrial), so the shard is re-solved
    inline via the fallback ladder — counted, bit-identical, auditable.
    """
    from repro.chaos.policy import ChaosPolicy, activate

    instance, valid_pairs = boundary_instance
    kwargs = dict(approach="GT", seed=4, shards=3, halo_rounds=2)
    clean = solve_sharded(instance, valid_pairs, **kwargs)
    assert clean.stats.shard_failures == 0
    assert clean.stats.shard_failovers == 0

    # only_indices pins shard 0 as the sole victim; max_attempt=99 makes
    # it kill every pool it touches, forcing quarantine then failover.
    policy = ChaosPolicy(
        kill_rate=1.0, only_indices=(0,), max_attempt=99, seed=0
    )
    with activate(policy):
        chaotic = solve_sharded(
            instance, valid_pairs, n_jobs=2, **kwargs
        )
    stats = chaotic.stats
    assert stats.shard_failures == 1
    assert stats.shard_failovers == 1
    # The failover re-solve is the same deterministic primary (no
    # timeout budget -> bit-identical passthrough), so the merged
    # assignment matches the clean run exactly and audits clean.
    assert chaotic.assignment.audit() == []
    assert chaotic.assignment.to_pairs() == clean.assignment.to_pairs()
    assert repr(chaotic.assignment.total_score()) == repr(
        clean.assignment.total_score()
    )
    payload = stats.to_dict()
    assert payload["shard_failures"] == 1
    assert payload["shard_failovers"] == 1
    assert "shard_failures=1" in stats.summary()


def test_inline_shard_failover_recovers_from_a_raise(
    boundary_instance, monkeypatch
):
    """``n_jobs=1``: a shard solve that raises is failed over inline,
    counted, and the merged assignment matches a clean inline run."""
    from repro.core.sharding import solver as sharded_solver

    instance, valid_pairs = boundary_instance
    kwargs = dict(approach="GT", seed=4, shards=3, halo_rounds=2, n_jobs=1)
    clean = solve_sharded(instance, valid_pairs, **kwargs)
    real = sharded_solver._solve_shard_payload
    calls = []

    def raise_first(payload, submitted_at):
        calls.append(payload)
        if len(calls) == 1:
            raise RuntimeError("injected shard failure")
        return real(payload, submitted_at)

    monkeypatch.setattr(sharded_solver, "_solve_shard_payload", raise_first)
    failed_over = solve_sharded(instance, valid_pairs, **kwargs)
    assert failed_over.stats.shard_failures == 1
    assert failed_over.stats.shard_failovers == 1
    assert failed_over.assignment.to_pairs() == clean.assignment.to_pairs()


def test_make_solver_rejects_unshardable_approach():
    with pytest.raises(ValueError, match="sharded"):
        make_solver("RAND", shards=2)


def test_sharded_check_clean_on_boundary_instance(boundary_instance):
    from repro.audit.differential import run_sharded_check

    instance, _ = boundary_instance
    findings = run_sharded_check(
        instance, approaches=("GT",), shards=2, gap_tolerance=None
    )
    assert findings == []
