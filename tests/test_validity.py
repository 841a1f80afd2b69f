"""Tests for the Definition 3 valid-pair computation."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.differential import _with_backend
from repro.core import validity
from repro.core.sharding import solve_sharded
from repro.core.validity import (
    ValidPairs,
    compute_valid_pairs,
    compute_valid_pairs_reference,
)
from repro.datasets.synthetic import generate_instance
from repro.experiments.config import make_solver
from repro.simulation.batch import BatchConfig, BatchSimulator
from repro.simulation.faults import FaultModel
from repro.simulation.population import Population

from tests.conftest import make_dense_instance


def retiled_pairs(instance, cell_size=0.1):
    """The instance's pairs from the grid join at another cell size."""
    if not (instance.worker_count and instance.task_count):
        return compute_valid_pairs(instance)
    return validity._grid_join(
        instance, validity._max_remaining(instance), cell_size
    )


def assert_matches_reference(instance):
    """The grid, at its own and at another cell size, equals the
    brute-force oracle."""
    reference = compute_valid_pairs_reference(instance)
    assert compute_valid_pairs(instance) == reference
    assert retiled_pairs(instance) == reference


class TestValidPairsStructure:
    def test_from_worker_lists_transposes(self):
        pairs = ValidPairs.from_worker_lists([[0, 1], [1], []], task_count=2)
        assert pairs.tasks_for_worker == ((0, 1), (1,), ())
        assert pairs.workers_for_task == ((0,), (0, 1))
        assert pairs.pair_count == 3

    def test_duplicates_deduplicated(self):
        pairs = ValidPairs.from_worker_lists([[1, 1, 0]], task_count=2)
        assert pairs.tasks_for_worker == ((0, 1),)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ValidPairs.from_worker_lists([[5]], task_count=2)

    def test_from_pairs_matches_from_worker_lists(self):
        workers = np.array([2, 0, 2, 1, 0])
        tasks = np.array([0, 3, 1, 3, 0])
        pairs = ValidPairs.from_pairs(workers, tasks, worker_count=4, task_count=5)
        assert pairs == ValidPairs.from_worker_lists(
            [[0, 3], [3], [0, 1], []], task_count=5
        )
        empty = np.empty(0, dtype=np.int64)
        assert ValidPairs.from_pairs(empty, empty, 2, 1) == ValidPairs.from_worker_lists(
            [[], []], task_count=1
        )

    def test_is_valid_and_iter(self):
        pairs = ValidPairs.from_worker_lists([[0], [1]], task_count=2)
        assert pairs.is_valid(0, 0)
        assert not pairs.is_valid(0, 1)
        assert sorted(pairs.iter_pairs()) == [(0, 0), (1, 1)]


@st.composite
def relations(draw):
    """``(m, n, pairs)``: a duplicate-free pair set over ``m`` workers and
    ``n`` tasks (either may be 0 or 1, rows may be empty), shuffled."""
    worker_count = draw(st.integers(0, 6))
    task_count = draw(st.integers(0, 6))
    if not worker_count or not task_count:
        return worker_count, task_count, []
    pairs = draw(
        st.sets(
            st.tuples(
                st.integers(0, worker_count - 1), st.integers(0, task_count - 1)
            )
        )
    )
    return worker_count, task_count, draw(st.permutations(sorted(pairs)))


@settings(max_examples=200, deadline=None)
@given(relation=relations())
def test_property_csr_sides(relation):
    worker_count, task_count, pairs = relation
    built = ValidPairs.from_pairs(
        np.array([w for w, _ in pairs], dtype=np.int64),
        np.array([t for _, t in pairs], dtype=np.int64),
        worker_count,
        task_count,
    )
    # Per-worker lists in the shuffled input order.
    lists = [[] for _ in range(worker_count)]
    for worker, task in pairs:
        lists[worker].append(task)
    assert built == ValidPairs.from_worker_lists(lists, task_count)

    # Plain-loop rows and columns, both ascending.
    rows = [[] for _ in range(worker_count)]
    columns = [[] for _ in range(task_count)]
    for worker, task in sorted(pairs):
        rows[worker].append(task)
    for task, worker in sorted((t, w) for w, t in pairs):
        columns[task].append(worker)
    assert built.tasks_for_worker == tuple(map(tuple, rows))
    assert built.workers_for_task == tuple(map(tuple, columns))

    # The task side is exactly the worker side's transpose, every row
    # is ascending, and the arrays are read-only int64.
    sides = (
        (built.worker_ptr, built.worker_tasks, worker_count),
        (built.task_ptr, built.task_workers, task_count),
    )
    for ptr, items, majors in sides:
        assert ptr.size == majors + 1 and ptr[0] == 0 and ptr[-1] == len(pairs)
        for start, end in zip(ptr[:-1], ptr[1:]):
            assert (np.diff(items[start:end]) > 0).all()
    task_side = zip(
        np.repeat(np.arange(task_count), np.diff(built.task_ptr)).tolist(),
        built.task_workers.tolist(),
    )
    assert sorted((w, t) for t, w in task_side) == sorted(built.iter_pairs())
    assert sorted(built.iter_pairs()) == sorted(pairs)
    assert built.pair_count == len(pairs)
    for task in range(task_count):
        assert built.workers_of(task).tolist() == columns[task]
    for array in (built.worker_ptr, built.worker_tasks, built.task_ptr,
                  built.task_workers):
        assert array.dtype == np.int64 and not array.flags.writeable

    # Membership, probes outside [0, m) x [0, n) included.
    members = set(pairs)
    for worker in range(-2, worker_count + 2):
        for task in range(-2, task_count + 2):
            assert built.is_valid(worker, task) == ((worker, task) in members)

    # Shard and sweep children receive ValidPairs by pickle.
    copy = pickle.loads(pickle.dumps(built))
    assert copy == built
    assert not copy.task_workers.flags.writeable


class TestSolverPathsBuildNoTupleView:
    """The bench paths read :class:`ValidPairs`' arrays only: with the
    tuple-view builder made to raise, TPG and GT+ALL on every store, a
    sharded solve and a faulty simulation with group repair all run."""

    @pytest.fixture(autouse=True)
    def refuse_views(self, monkeypatch):
        def refuse(ptr, items):
            raise AssertionError("a solver path built a tuple view")

        monkeypatch.setattr(validity, "_rows", refuse)

    @pytest.mark.parametrize("backend", ["dense", "sparse", "shared"])
    @pytest.mark.parametrize("approach", ["TPG", "GT+ALL"])
    def test_solvers(self, approach, backend):
        base = generate_instance(120, 30, radius_range=(0.2, 0.4), seed=3)
        instance, cleanup = _with_backend(base, backend)
        try:
            pairs = compute_valid_pairs(instance)
            assert make_solver(approach, seed=0)(instance, pairs).to_pairs()
        finally:
            if cleanup is not None:
                cleanup()

    def test_sharded_solve(self):
        instance = generate_instance(400, 100, radius_range=(0.05, 0.1), seed=0)
        result = solve_sharded(
            instance, compute_valid_pairs(instance), approach="GT+ALL",
            shards=2, n_jobs=1,
        )
        assert result.plan.shard_count == 2
        assert result.assignment.to_pairs()

    def test_faulty_simulation(self):
        config = BatchConfig(
            rounds=2,
            workers_per_round=60,
            tasks_per_round=15,
            capacity=4,
            min_group_size=3,
            remaining_time=3.0,
            speed_range=(0.05, 0.2),
            radius_range=(0.2, 0.4),
            faults=FaultModel(
                no_show_rate=0.25,
                dropout_rate=0.15,
                cancellation_rate=0.1,
                location_noise_sigma=0.02,
            ),
        )
        report = BatchSimulator(
            Population.synthetic(150, 60, seed=5), config,
            make_solver("GT+ALL", seed=0), seed=9,
        ).run()
        assert len(report.rounds) == 2
        assert report.total_repaired_groups


class TestComputeValidPairs:
    def test_unknown_strategy(self):
        # "grid" is the only validity path; the retired names are errors.
        instance = make_dense_instance(10, 3)
        for strategy in ("quadtree", "rtree", "kdtree", "matrix"):
            with pytest.raises(ValueError):
                compute_valid_pairs(instance, strategy=strategy)

    def test_matches_definition(self):
        instance = make_dense_instance(25, 5, seed=3)
        pairs = compute_valid_pairs(instance)
        for worker in range(instance.worker_count):
            for task in range(instance.task_count):
                assert pairs.is_valid(worker, task) == instance.is_pair_valid(
                    worker, task
                )

    def test_grid_matches_reference(self):
        assert_matches_reference(generate_instance(60, 15, seed=5))

    def test_empty_instances(self):
        instance = make_dense_instance(4, 2)
        empty_workers = generate_instance(0, 3, seed=0)
        assert compute_valid_pairs(empty_workers).pair_count == 0
        empty_tasks = generate_instance(5, 0, seed=0)
        assert compute_valid_pairs(empty_tasks).pair_count == 0
        assert compute_valid_pairs(instance).pair_count >= 0

    def test_deadline_excludes_pairs(self):
        # Tiny remaining time: only on-the-spot workers qualify.
        tight = generate_instance(
            50, 10, remaining_time=1e-6, radius_range=(0.5, 0.9), seed=2
        )
        loose = generate_instance(
            50, 10, remaining_time=10.0, radius_range=(0.5, 0.9), seed=2
        )
        tight_pairs = compute_valid_pairs(tight).pair_count
        loose_pairs = compute_valid_pairs(loose).pair_count
        assert tight_pairs < loose_pairs

    def test_radius_monotone(self):
        small = generate_instance(50, 10, radius_range=(0.02, 0.05), seed=4)
        large = generate_instance(50, 10, radius_range=(0.4, 0.8), seed=4)
        assert (
            compute_valid_pairs(small).pair_count
            <= compute_valid_pairs(large).pair_count
        )


class TestGridJoin:
    """Membership does not depend on how the join slices the workers or
    on the cell size."""

    @staticmethod
    def _instance(seed: int):
        return generate_instance(
            60, 15, speed_range=(0.05, 0.4), radius_range=(0.05, 0.6), seed=seed
        )

    @pytest.mark.parametrize("budget", [1, 7, 100])
    def test_candidate_budget_does_not_change_pairs(self, monkeypatch, budget):
        # A budget of one candidate gives every worker a slice of its own
        # (and most of them more candidates than the budget).
        from repro.core import validity

        monkeypatch.setattr(validity, "_CANDIDATE_BUDGET", budget)
        for seed in range(3):
            assert_matches_reference(self._instance(seed))

    @pytest.mark.parametrize("cell_size", [0.005, 0.05, 0.3, 10.0])
    def test_cell_size_does_not_change_pairs(self, cell_size):
        for seed in range(3):
            instance = self._instance(seed)
            assert retiled_pairs(instance, cell_size) == (
                compute_valid_pairs_reference(instance)
            )


@settings(max_examples=20, deadline=None)
@given(
    st.integers(0, 40),
    st.integers(0, 10),
    st.integers(0, 10**6),
)
def test_property_grid_matches_reference(worker_count, task_count, seed):
    assert_matches_reference(
        generate_instance(
            worker_count,
            task_count,
            speed_range=(0.05, 0.4),
            radius_range=(0.05, 0.6),
            seed=seed,
        )
    )


class TestReachLimitRegression:
    def test_reach_limit_is_speed_bounded(self):
        # Regression: the reach limit returned ``r_i`` alone, ignoring
        # that a worker can never pass ``v_i * max_remaining`` before
        # every deadline expires. The fixed bound is
        # ``min(r_i, v_i * max_remaining)`` (plus float slack).
        import numpy as np

        from repro.core.validity import _max_remaining, _reach_limits

        instance = generate_instance(
            5, 3, speed_range=(0.01, 0.02), radius_range=(0.8, 0.9), seed=0
        )
        max_remaining = _max_remaining(instance)
        radii = np.array([worker.radius for worker in instance.workers])
        speeds = np.array([worker.speed for worker in instance.workers])
        limits = _reach_limits(radii, speeds, max_remaining)
        assert np.all(limits <= radii)
        assert np.all(limits <= speeds * max_remaining * (1.0 + 1e-9))

    def test_zero_speed_worker_reaches_only_distance_zero(self):
        from repro.core.validity import _max_remaining, _reach_limits
        from repro.core.model import Instance, Task, Worker
        from repro.core.quality import CooperationMatrix
        from repro.spatial.geometry import Point
        import numpy as np

        workers = [
            Worker(worker_id=0, location=Point(0.5, 0.5), speed=0.0, radius=1.0),
            Worker(worker_id=1, location=Point(0.0, 0.0), speed=1.0, radius=1.0),
        ]
        tasks = [
            Task(task_id=0, location=Point(0.5, 0.5), capacity=2, deadline=2.0,
                 created_time=0.0),
            Task(task_id=1, location=Point(0.6, 0.5), capacity=2, deadline=2.0,
                 created_time=0.0),
        ]
        quality = CooperationMatrix(np.array([[0.0, 0.5], [0.5, 0.0]]))
        instance = Instance(
            workers=workers, tasks=tasks, quality=quality,
            min_group_size=2, now=0.0,
        )
        limits = _reach_limits(
            np.array([1.0, 1.0]), np.array([0.0, 1.0]), _max_remaining(instance)
        )
        assert limits[0] == 0.0
        # The radius-0 range query still returns the co-located task:
        # <w0, t0> is valid (distance 0), <w0, t1> is not.
        for pairs in (compute_valid_pairs(instance), retiled_pairs(instance)):
            assert pairs.tasks_for_worker == ((0,), (0, 1))
        assert_matches_reference(instance)

    def test_zero_speed_worker_keeps_its_task_under_infinite_deadline(self):
        # Regression: with a task that never expires the reach limit
        # was ``0 * inf = NaN`` for a zero-speed worker, and the grid
        # dropped the task the worker stands on.
        from repro.core.model import Instance, Task, Worker
        from repro.core.quality import CooperationMatrix
        from repro.spatial.geometry import Point
        import numpy as np

        instance = Instance(
            workers=[
                Worker(worker_id=0, location=Point(0.5, 0.5), speed=0.0,
                       radius=0.3),
            ],
            tasks=[
                Task(task_id=0, location=Point(0.5, 0.5), capacity=2,
                     deadline=float("inf")),
            ],
            quality=CooperationMatrix(np.zeros((1, 1))),
            min_group_size=2,
            now=0.0,
        )
        assert compute_valid_pairs(instance).tasks_for_worker == ((0,),)
        assert retiled_pairs(instance).tasks_for_worker == ((0,),)
        assert compute_valid_pairs_reference(instance).tasks_for_worker == (
            (0,),
        )

    def test_expired_deadlines_and_empty_task_lists(self):
        from repro.core.validity import _max_remaining

        expired = generate_instance(8, 3, remaining_time=1.0, seed=5)
        expired = type(expired)(
            workers=expired.workers,
            tasks=expired.tasks,
            quality=expired.quality,
            min_group_size=expired.min_group_size,
            now=max(t.deadline for t in expired.tasks) + 1.0,
        )
        assert _max_remaining(expired) == 0.0
        assert compute_valid_pairs(expired).pair_count == 0
        assert_matches_reference(expired)

    def test_speed_bound_preserves_reference_parity(self):
        # Slow workers with big radii are exactly where the speed bound
        # prunes; the grid must keep matching brute force there.
        for seed in range(6):
            assert_matches_reference(
                generate_instance(
                    40, 8,
                    speed_range=(0.005, 0.05),
                    radius_range=(0.3, 0.9),
                    remaining_time=2.0,
                    seed=seed,
                )
            )


def _hypot_mismatch(seed: int, np_above: bool):
    """A seeded search for a worker/task point pair whose ``np.hypot``
    distance lies one ulp above (or below) ``math.hypot``'s."""
    import math

    import numpy as np

    rng = np.random.default_rng(seed)
    while True:
        worker, task = rng.uniform(0.0, 1.0, size=(2, 2))
        dx, dy = task - worker
        grid, oracle = float(np.hypot(dx, dy)), math.hypot(dx, dy)
        if (grid > oracle) if np_above else (grid < oracle):
            return worker.tolist(), task.tolist(), grid, oracle


class TestHypotBoundary:
    """The grid measures with ``np.hypot``, Definition 3's oracle
    (``Point.distance_to``) with ``math.hypot``; the two differ by an
    ulp on ~0.6% of coordinate pairs. A task exactly at a decision
    boundary must be decided the same way by both."""

    @staticmethod
    def _instance(worker, task, radius: float, remaining: float):
        import numpy as np

        from repro.core.model import Instance, Task, Worker
        from repro.core.quality import CooperationMatrix
        from repro.spatial.geometry import Point

        return Instance(
            workers=[
                Worker(worker_id=0, location=Point(*worker), speed=1.0,
                       radius=radius),
            ],
            tasks=[
                Task(task_id=0, location=Point(*task), capacity=2,
                     deadline=remaining, created_time=0.0),
            ],
            quality=CooperationMatrix(np.zeros((1, 1))),
            min_group_size=2,
            now=0.0,
        )

    @pytest.mark.parametrize("np_above", [True, False], ids=["np-above", "np-below"])
    @pytest.mark.parametrize("boundary", ["radius", "deadline"])
    def test_boundary_pair_matches_the_oracle(self, boundary, np_above):
        for seed in range(5):
            worker, task, grid, oracle = _hypot_mismatch(seed, np_above)
            # The boundary sits at the oracle's distance when np.hypot
            # overshoots it (oracle: valid) and at np.hypot's when it
            # undershoots (oracle: invalid).
            limit = oracle if np_above else grid
            radius, remaining = (limit, 2.0) if boundary == "radius" else (2.0, limit)
            instance = self._instance(worker, task, radius, remaining)
            reference = compute_valid_pairs_reference(instance)
            assert reference.tasks_for_worker == (((0,),) if np_above else ((),))
            assert_matches_reference(instance)


class TestEvolvingPool:
    """Across rounds of an evolving task pool, each round's pairs equal
    the oracle's, and the reach bound comes from the live tasks only."""

    @staticmethod
    def _instance(workers, tasks, now):
        from repro.core.model import Instance
        from repro.core.quality import CooperationMatrix

        count = len(workers)
        q = np.full((count, count), 0.5)
        return Instance(
            workers=workers,
            tasks=tasks,
            quality=CooperationMatrix(q),
            min_group_size=2,
            now=now,
        )

    def test_each_round_matches_reference(self):
        from repro.core.model import Task, Worker
        from repro.spatial.geometry import Point

        rng = np.random.default_rng(11)
        pool: list[Task] = []
        next_id = 0
        for round_index in range(6):
            now = float(round_index)
            # Expiries leave, a few arrivals join, one random departure
            # (a served task) leaves.
            pool = [task for task in pool if task.deadline >= now]
            if pool and round_index % 2:
                pool.pop(int(rng.integers(len(pool))))
            for _ in range(4):
                x, y = rng.random(2)
                pool.append(
                    Task(
                        task_id=next_id,
                        location=Point(float(x), float(y)),
                        capacity=3,
                        deadline=now + float(rng.uniform(0.5, 3.0)),
                        created_time=now,
                    )
                )
                next_id += 1
            workers = [
                Worker(
                    worker_id=i,
                    location=Point(float(rng.random()), float(rng.random())),
                    speed=float(rng.uniform(0.05, 0.3)),
                    radius=float(rng.uniform(0.1, 0.4)),
                )
                for i in range(12)
            ]
            instance = self._instance(workers, list(pool), now)
            pairs = compute_valid_pairs(instance)
            assert pairs == compute_valid_pairs_reference(instance), (
                f"round {round_index}"
            )
            assert retiled_pairs(instance, 0.2) == pairs, f"round {round_index}"

    def test_expired_candidate_tightens_reach_bound(self):
        from repro.core.model import Task, Worker
        from repro.core.validity import _max_remaining
        from repro.spatial.geometry import Point

        # Round 0: the worker's only candidate is a long-deadline task
        # 0.2 away. Round 1: it has expired; the surviving task's
        # deadline is much shorter. A bound carried over from round 0
        # would still cover distance speed * ~2.0 — wide enough to
        # (wrongly) keep scanning the far cell — so the pin is that the
        # bound comes from the live pool.
        worker = Worker(
            worker_id=0, location=Point(0.0, 0.0), speed=0.1, radius=1.0
        )
        only_candidate = Task(
            task_id=0, location=Point(0.2, 0.0), capacity=3, deadline=2.0
        )
        far_short = Task(
            task_id=1, location=Point(0.9, 0.0), capacity=3,
            deadline=2.5, created_time=0.0,
        )
        first = self._instance([worker], [only_candidate, far_short], now=0.0)
        assert _max_remaining(first) == 2.5
        assert compute_valid_pairs(first).tasks_for_worker[0] == (0,)

        # Between rounds both tasks' deadlines pass; a new nearby task
        # with a short fuse arrives.
        fresh = Task(
            task_id=2, location=Point(0.01, 0.0), capacity=3,
            deadline=3.2, created_time=3.0,
        )
        second = self._instance([worker], [fresh], now=3.0)
        # The bound tightened: 0.2 (remaining) not 2.0 (stale round-0).
        assert _max_remaining(second) == pytest.approx(0.2)
        pairs = compute_valid_pairs(second)
        assert pairs == compute_valid_pairs_reference(second)
        # Positional index 0 — the fresh task is reachable (0.1 travel).
        assert pairs.tasks_for_worker[0] == (0,)
