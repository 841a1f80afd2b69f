"""Micro-benchmarks for the substrates: the grid index, grid validity
against its brute-force reference, the valid-pair arrays against their
tuple rows, TPG stage 1 against its from-scratch
reference, stage 1's selection kernels against their plain loops, TPG
stage 2 against its per-pair reference, the lockstep overflow peel against its scalar reference,
task-local block reads against store reads, the Meetup cooperation
matrix against its incidence-matmul reference, max-flow, and the
incremental revenue engine."""

import math

import numpy as np
import pytest

from repro.audit.reference import (
    reference_counted_subset,
    reference_exact_select,
    reference_greedy_select,
    reference_group_quality,
    reference_seed_groups,
    reference_stage_two,
    stage_one_trace,
    stage_two_start,
    stage_two_trace,
)
from repro.core.assignment import Assignment
from repro.core.kernels import (
    counted_subset_batch,
    cross_values,
    exact_group_select,
    greedy_group_select,
)
from repro.core.quality import CooperationMatrix
from repro.core.quality_store import StoreReads, task_blocks
from repro.core.tpg import EXACT_SEED_THRESHOLD, _combo_table, _stage_two, seed_groups
from repro.core.validity import (
    ValidPairs,
    compute_valid_pairs,
    compute_valid_pairs_reference,
)
from repro.datasets.meetup import draw_meetup_population
from repro.datasets.synthetic import generate_instance
from repro.flow.bipartite import max_bipartite_assignment
from repro.spatial.geometry import Point
from repro.spatial.grid import GridIndex

from benchmarks.conftest import make_batch

POINT_COUNT = 2000
QUERY_COUNT = 200


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(0)
    xy = rng.uniform(0, 1, size=(POINT_COUNT, 2))
    return [(i, Point(float(x), float(y))) for i, (x, y) in enumerate(xy)]


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(1)
    centers = rng.uniform(0, 1, size=(QUERY_COUNT, 2))
    return [Point(float(x), float(y)) for x, y in centers]


def test_grid_circle_queries(benchmark, points, queries):
    grid = GridIndex.build(points, cell_size=0.08)

    def run():
        return sum(len(grid.query_circle(center, 0.08)) for center in queries)

    benchmark(run)


@pytest.mark.parametrize(
    "compute", [compute_valid_pairs, compute_valid_pairs_reference],
    ids=["grid", "reference"],
)
def test_validity(benchmark, compute):
    instance, _ = make_batch(dataset="unif")
    benchmark(compute, instance)


@pytest.fixture(scope="module")
def hotpath_batch():
    """An eighth of the hot-path population (8 000 workers, 4 000 tasks,
    reach stretched to keep ~24 candidates per worker) on the sparse
    store."""
    window = 0.125
    stretch = 1.0 / math.sqrt(window)
    instance = generate_instance(
        round(8000 * window),
        round(4000 * window),
        capacity=8,
        speed_range=(0.01 * stretch, 0.05 * stretch),
        radius_range=(0.03 * stretch, 0.06 * stretch),
        seed=[1, 0],
        quality_backend="sparse",
    )
    return instance, compute_valid_pairs(instance)


def _build_valid_pairs(workers, tasks, worker_count, task_count, views):
    """The CSR arrays of ``from_pairs``, plus both tuple rows if ``views``."""
    pairs = ValidPairs.from_pairs(workers, tasks, worker_count, task_count)
    if views:
        return pairs, pairs.tasks_for_worker, pairs.workers_for_task
    return pairs, None, None


@pytest.mark.parametrize("views", [False, True], ids=["csr", "tuples"])
def test_valid_pairs_build(benchmark, hotpath_batch, views):
    instance, valid_pairs = hotpath_batch
    # The join emits its pairs unsorted; a fixed shuffle stands in.
    order = np.random.default_rng(0).permutation(valid_pairs.pair_count)
    workers = valid_pairs.pair_workers()[order]
    tasks = valid_pairs.worker_tasks[order]
    pairs, by_worker, by_task = benchmark(
        _build_valid_pairs,
        workers, tasks, instance.worker_count, instance.task_count, views,
    )
    assert pairs == valid_pairs
    rows = [[] for _ in range(instance.worker_count)]
    columns = [[] for _ in range(instance.task_count)]
    for worker, task in sorted(zip(workers.tolist(), tasks.tolist())):
        rows[worker].append(task)
        columns[task].append(worker)
    if views:
        assert by_worker == tuple(map(tuple, rows))
        assert by_task == tuple(map(tuple, columns))
    for worker, row in enumerate(rows):
        start, end = pairs.worker_ptr[worker], pairs.worker_ptr[worker + 1]
        assert pairs.worker_tasks[start:end].tolist() == row
    for task, column in enumerate(columns):
        assert pairs.workers_of(task).tolist() == column


@pytest.mark.parametrize(
    "seeder, oracle",
    [(seed_groups, reference_seed_groups), (reference_seed_groups, seed_groups)],
    ids=["cached", "reference"],
)
def test_stage_one(benchmark, hotpath_batch, seeder, oracle):
    instance, valid_pairs = hotpath_batch
    available = np.ones(instance.worker_count, dtype=bool)
    tasks = range(instance.task_count)
    flags = dict(prefer_wider=True, positive_only=False)
    trace = benchmark(
        stage_one_trace, seeder, instance, valid_pairs, available, tasks, **flags
    )
    assert trace == stage_one_trace(
        oracle, instance, valid_pairs, available, tasks, **flags
    )


@pytest.fixture(scope="module")
def selection_blocks(hotpath_batch):
    """Every hot-path task's stage-1 pair block over all its watchers
    (each task's first evaluation in stage 1) and the group size."""
    instance, valid_pairs = hotpath_batch
    reads = task_blocks(instance.quality, valid_pairs)
    size = instance.min_group_size
    blocks = [
        reads.pair_block(task, np.arange(len(watchers)))
        for task, watchers in enumerate(valid_pairs.workers_for_task)
        if len(watchers) >= size
    ]
    return blocks, size


def _kernel_selections(blocks, size):
    # The greedy writes -inf on a block's diagonal, which neither side
    # reads, so the blocks are reused as they are.
    selections = []
    for block in blocks:
        count = block.shape[0]
        if count <= EXACT_SEED_THRESHOLD:
            combos, offsets = _combo_table(count, size)
            best, pair_sum = exact_group_select(block, offsets)
            chosen = combos[best].tolist()
        else:
            chosen, pair_sum = greedy_group_select(block, size)
        selections.append((chosen, repr(pair_sum)))
    return selections


def _oracle_selections(blocks, size):
    selections = []
    for block in blocks:
        if block.shape[0] <= EXACT_SEED_THRESHOLD:
            chosen, pair_sum = reference_exact_select(block, size)
        else:
            chosen, pair_sum = reference_greedy_select(block, size)
        selections.append((chosen, repr(pair_sum)))
    return selections


@pytest.mark.parametrize(
    "select, oracle",
    [
        (_kernel_selections, _oracle_selections),
        (_oracle_selections, _kernel_selections),
    ],
    ids=["kernel", "oracle"],
)
def test_stage_one_selection(benchmark, selection_blocks, select, oracle):
    blocks, size = selection_blocks
    assert benchmark(select, blocks, size) == oracle(blocks, size)


@pytest.fixture(scope="module")
def contended_batch():
    """A twelfth of the contended population (12 000 workers, 750 tasks
    at capacity 8, reach stretched to keep ~74 watchers per task) on the
    sparse store."""
    window = 1 / 12
    stretch = 1.0 / math.sqrt(window)
    instance = generate_instance(
        round(12000 * window),
        round(750 * window),
        capacity=8,
        speed_range=(0.01 * stretch, 0.05 * stretch),
        radius_range=(0.03 * stretch, 0.06 * stretch),
        seed=[1, 0],
        quality_backend="sparse",
    )
    return instance, compute_valid_pairs(instance)


@pytest.mark.parametrize(
    "stage_two, oracle",
    [(_stage_two, reference_stage_two), (reference_stage_two, _stage_two)],
    ids=["flat", "reference"],
)
def test_stage_two(benchmark, contended_batch, stage_two, oracle):
    """Stage 2 alone, from a fresh stage-1 seeding per round."""
    instance, valid_pairs = contended_batch

    def start():
        assignment, available, seeded = stage_two_start(instance, valid_pairs)
        return (instance, valid_pairs, assignment, available, seeded, False), {}

    benchmark.pedantic(stage_two, setup=start, rounds=3)
    trace = stage_two_trace(stage_two, instance, valid_pairs, False)
    assert trace[0], "stage 2 committed nothing"
    assert trace == stage_two_trace(oracle, instance, valid_pairs, False)


@pytest.fixture(scope="module")
def peel_stacks(hotpath_batch):
    """Overflow joins shaped like the contended workload's: 9 members
    peeled to capacity 8, and 13 to 12, each group drawn from one task's
    watchers (up to 256 groups per shape)."""
    instance, valid_pairs = hotpath_batch
    rng = np.random.default_rng(5)
    stacks = []
    for width, size in ((9, 8), (13, 12)):
        groups = [
            np.sort(rng.choice(watchers, size=width, replace=False))
            for watchers in valid_pairs.workers_for_task
            if len(watchers) >= width
        ]
        stacks.append((np.stack(groups[:256]), size))
    return instance.quality, stacks


def _batch_peels(quality, stacks):
    peels = []
    for groups, size in stacks:
        kept, pair_sums = counted_subset_batch(quality, groups, size)
        peels.extend(zip(kept.tolist(), map(repr, pair_sums.tolist())))
    return peels


def _reference_peels(quality, stacks):
    peels = []
    for groups, size in stacks:
        for members in groups.tolist():
            kept = reference_counted_subset(quality, members, size)
            peels.append((kept, repr(quality.submatrix_sum(np.asarray(kept)))))
    return peels


@pytest.mark.parametrize(
    "peel, oracle",
    [(_batch_peels, _reference_peels), (_reference_peels, _batch_peels)],
    ids=["batch", "reference"],
)
def test_overflow_peel(benchmark, peel_stacks, peel, oracle):
    quality, stacks = peel_stacks
    assert benchmark(peel, quality, stacks) == oracle(quality, stacks)


@pytest.fixture(scope="module")
def block_reads(hotpath_batch):
    """A contended-shaped peel cube (512 groups of 9 watchers, each one
    task's) and a slot scan (every validity slot's worker against up to
    8 other watchers of its task), as worker ids and as positions of a
    task-block reader whose blocks are all built: the read cost alone,
    the build being the solve's ``blocks`` phase."""
    instance, valid_pairs = hotpath_batch
    blocks = task_blocks(instance.quality, valid_pairs)
    rng = np.random.default_rng(7)
    wide = [t for t, w in enumerate(valid_pairs.workers_for_task) if len(w) >= 9]
    tasks = [wide[lane % len(wide)] for lane in range(512)]
    groups = np.stack(
        [np.sort(rng.choice(valid_pairs.workers_for_task[t], 9, replace=False)) for t in tasks]
    )
    slots = [
        (worker, task, [m for m in valid_pairs.workers_for_task[task] if m != worker][:8])
        for worker, task in valid_pairs.iter_pairs()
        if len(valid_pairs.workers_for_task[task]) >= 9
    ]
    workers = np.array([worker for worker, _, _ in slots])[:, None]
    members = np.array([others for _, _, others in slots])
    slot_tasks = np.array([task for _, task, _ in slots])[:, None]
    as_ids = (StoreReads(instance.quality), groups, workers, members)
    as_positions = (
        blocks,
        blocks.locate(np.array(tasks)[:, None], groups),
        blocks.locate(slot_tasks, workers),
        blocks.locate(slot_tasks, members),
    )
    blocks.block(as_positions[1], as_positions[1])  # build every block read
    blocks.block(as_positions[3], as_positions[3])
    return {"blocks": as_positions, "store": as_ids}


def _read_cube_and_scan(reads, groups, workers, members):
    cube = reads.block(groups, groups)
    toward, back = cross_values(reads, workers, members)
    return cube, toward, back


@pytest.mark.parametrize("reader", ["blocks", "store"])
def test_task_block_reads(benchmark, block_reads, reader):
    other = "store" if reader == "blocks" else "blocks"
    values = benchmark(_read_cube_and_scan, *block_reads[reader])
    for got, expected in zip(values, _read_cube_and_scan(*block_reads[other])):
        assert np.array_equal(got, expected)


@pytest.fixture(scope="module")
def meetup_memberships():
    """The default Meetup surrogate's group memberships (3 525 users)."""
    return draw_meetup_population(seed=0)[2]


@pytest.mark.parametrize(
    "build, oracle",
    [
        (CooperationMatrix.from_group_memberships, reference_group_quality),
        (reference_group_quality, CooperationMatrix.from_group_memberships),
    ],
    ids=["build", "reference"],
)
def test_meetup_quality(benchmark, meetup_memberships, build, oracle):
    assert benchmark(build, meetup_memberships) == oracle(meetup_memberships)


def test_dinic_bipartite(benchmark):
    rng = np.random.default_rng(2)
    workers, tasks = 1000, 200
    valid = [
        sorted(set(rng.integers(0, tasks, size=8).tolist())) for _ in range(workers)
    ]
    capacities = [4] * tasks
    benchmark(max_bipartite_assignment, workers, tasks, valid, capacities)


def test_incremental_assignment_ops(benchmark):
    instance, valid_pairs = make_batch(dataset="unif")
    rng = np.random.default_rng(3)
    moves = [
        (int(rng.integers(instance.worker_count)), int(rng.integers(instance.task_count)))
        for _ in range(2000)
    ]

    def churn():
        assignment = Assignment(instance, allow_overflow=True)
        for worker, task in moves:
            assignment.move(worker, task)
        return assignment.total_score()

    benchmark(churn)
