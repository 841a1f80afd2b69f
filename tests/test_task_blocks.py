"""Task-local quality blocks (``repro.core.quality_store.task_blocks``).

Every solve-time quality read goes through a reader of each task's
block over its watchers, by position. These tests hold the readers of
all three backends to the store they read: a hypothesis property over
random stores and validity relations (including an asymmetric sparse
store), the edge cases of the sparse block build (empty and
one-watcher tasks, more than 254 stored entries in one block), reads
with leading batch dimensions and reads spanning several tasks, the
build counters, a sparse GT solve building each task's block at most
once, and a fallback chain whose tiers each read a reader of their own.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fallback import FallbackSolver
from repro.core.game import solve_game_theoretic
from repro.core.kernels import cross_values
from repro.core.quality import CooperationMatrix
from repro.core.quality_store import (
    SharedDenseQualityStore,
    SparseQualityStore,
    SparseTaskBlocks,
    StoreReads,
    TaskBlocks,
    task_blocks,
)
from repro.core.stats import SolverStats
from repro.core.tpg import solve_tpg
from repro.core.validity import ValidPairs, compute_valid_pairs
from repro.datasets.synthetic import generate_instance


def _matrix(size: int, seed: int, symmetric: bool, prior: float) -> CooperationMatrix:
    """Qualities at one decimal, so many entries sit at ``prior``."""
    q = np.round(np.random.default_rng(seed).uniform(size=(size, size)), 1)
    if symmetric:
        q = np.triu(q, 1) + np.triu(q, 1).T
    q[np.random.default_rng(seed + 1).random((size, size)) < 0.4] = prior
    return CooperationMatrix(q)


def _validity(size: int, tasks: int, seed: int) -> ValidPairs:
    rng = np.random.default_rng(seed)
    return ValidPairs.from_worker_lists(
        [np.flatnonzero(rng.random(tasks) < 0.5).tolist() for _ in range(size)],
        tasks,
    )


def _store(backend: str, dense: CooperationMatrix, prior: float):
    """``(store, cleanup)`` of ``dense`` on ``backend``."""
    if backend == "sparse":
        return SparseQualityStore.from_dense(dense, prior=prior), None
    if backend == "shared":
        shared = SharedDenseQualityStore.create(dense)

        def cleanup():
            shared.close()
            shared.unlink()

        return shared, cleanup
    return dense, None


@settings(max_examples=40, deadline=None)
@given(
    backend=st.sampled_from(["dense", "shared", "sparse", "sparse-asymmetric"]),
    size=st.integers(1, 14),
    tasks=st.integers(1, 5),
    seed=st.integers(0, 10_000),
)
def test_reader_reads_equal_the_store_at_worker_ids(backend, size, tasks, seed):
    prior = 0.5
    dense = _matrix(size, seed, symmetric=backend != "sparse-asymmetric", prior=prior)
    store, cleanup = _store(backend.split("-")[0], dense, prior)
    try:
        pairs = _validity(size, tasks, seed)
        reads = task_blocks(store, pairs)
        assert isinstance(reads, SparseTaskBlocks) == (backend.startswith("sparse"))
        rng = np.random.default_rng(seed)
        for task, watchers in enumerate(pairs.workers_for_task):
            ids = np.asarray(watchers, dtype=np.int64)
            positions = reads.locate(task, ids)
            assert np.array_equal(reads.worker_ids(positions), ids)
            assert np.array_equal(reads.block(positions, positions), store.block(ids, ids))
            # A shuffled subset, rows and columns drawn apart.
            rows = rng.permutation(ids.size)[: rng.integers(0, ids.size + 1)]
            cols = rng.permutation(ids.size)[: rng.integers(0, ids.size + 1)]
            assert np.array_equal(
                reads.block(positions[rows], positions[cols]),
                store.block(ids[rows], ids[cols]),
            )
            sub = store.block(ids[rows], ids[rows])
            assert np.array_equal(reads.pair_block(task, rows), sub + sub.T)
            if ids.size:
                worker = rng.integers(ids.size)
                got = cross_values(reads, positions[worker], positions[cols])
                expected = cross_values(store, ids[worker], ids[cols])
                for left, right in zip(got, expected):
                    assert np.array_equal(left, right)
    finally:
        if cleanup is not None:
            cleanup()


@pytest.fixture
def sparse_pairs():
    """An asymmetric sparse store over 12 workers and validity with an
    empty task (1), a one-watcher task (2) and two wide ones."""
    dense = _matrix(12, 3, symmetric=False, prior=0.5)
    store = SparseQualityStore.from_dense(dense, prior=0.5)
    pairs = ValidPairs.from_worker_lists(
        [[0, 3] + ([2] if worker == 7 else []) for worker in range(12)], 4
    )
    return dense, store, pairs


class TestEdgeCases:
    def test_empty_task(self, sparse_pairs):
        _, store, pairs = sparse_pairs
        reads = task_blocks(store, pairs)
        assert reads.codes(1).shape == (0, 0)
        assert reads.locate(1, []).size == 0
        assert reads.pair_block(1, np.arange(0)).shape == (0, 0)
        assert reads.block([], []).shape == (0, 0)
        assert reads.built == 0

    def test_one_watcher_task(self, sparse_pairs):
        _, store, pairs = sparse_pairs
        reads = task_blocks(store, pairs)
        position = reads.locate(2, [7])
        assert reads.block(position, position).tolist() == [[0.0]]
        assert reads.codes(2).tolist() == [[1]]
        assert reads.built == 1

    def test_non_watcher_raises(self, sparse_pairs):
        _, store, pairs = sparse_pairs
        reads = task_blocks(store, pairs)
        for task, worker in ((2, 6), (1, 0), (0, -1), (0, 12)):
            with pytest.raises(ValueError, match="does not reach"):
                reads.locate(task, [worker])

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_more_than_254_entries_force_uint16_codes(self, backend):
        # 17 watchers hold 17 * 16 = 272 stored entries (no entry sits
        # at the prior 0.0); a small block built first must survive the
        # arena's widening.
        dense = CooperationMatrix(
            np.random.default_rng(5).uniform(0.1, 1.0, size=(20, 20))
        )
        store, _ = _store(backend, dense, 0.0)
        pairs = ValidPairs.from_worker_lists(
            [[0] if worker < 17 else [1] for worker in range(20)], 2
        )
        reads = task_blocks(store, pairs)
        small = reads.locate(1, [17, 18, 19])
        before = reads.block(small, small)
        wide = reads.locate(0, np.arange(17))
        assert np.array_equal(reads.block(wide, wide), store.block(np.arange(17), np.arange(17)))
        assert np.array_equal(reads.block(small, small), before)
        if backend == "sparse":
            assert reads.codes(0).dtype == np.uint16
            assert reads.codes(0).max() == 273
        else:
            assert not hasattr(reads, "codes")


class TestBatchedReads:
    @pytest.mark.parametrize("backend", ["dense", "sparse", "sparse-asymmetric"])
    def test_leading_dimensions_and_several_tasks(self, backend):
        dense = _matrix(30, 8, symmetric=backend != "sparse-asymmetric", prior=0.5)
        store, _ = _store(backend.split("-")[0], dense, 0.5)
        pairs = _validity(30, 6, 8)
        reads = task_blocks(store, pairs)
        rng = np.random.default_rng(1)
        # A peel cube: groups of 4 watchers, each group one task's, the
        # tasks mixed across the batch.
        tasks = [task for task, w in enumerate(pairs.workers_for_task) if len(w) >= 4]
        groups, ids = [], []
        for lane in range(12):
            task = tasks[lane % len(tasks)]
            members = np.sort(rng.choice(pairs.workers_for_task[task], 4, replace=False))
            groups.append(reads.locate(task, members))
            ids.append(members)
        groups, ids = np.stack(groups), np.stack(ids)
        cube = reads.block(groups, groups)
        assert cube.shape == (12, 4, 4)
        assert np.array_equal(cube, store.block(ids, ids))
        # A slot scan: one worker per row over its task's members, rows
        # of different tasks in one elementwise read.
        toward, back = cross_values(reads, groups[:, :1], groups[:, 1:])
        expected = cross_values(store, ids[:, :1], ids[:, 1:])
        assert np.array_equal(toward, expected[0])
        assert np.array_equal(back, expected[1])


class TestReaders:
    def test_each_call_builds_a_new_reader(self, sparse_pairs):
        dense, store, pairs = sparse_pairs
        reads = task_blocks(store, pairs)
        assert task_blocks(store, pairs) is not reads
        assert type(task_blocks(dense, pairs)) is TaskBlocks

    def test_block_counters(self, sparse_pairs):
        _, store, pairs = sparse_pairs
        reads = task_blocks(store, pairs)
        stats = SolverStats()
        stats.add_block_counters(reads)
        assert stats.blocks_built == 0 and "blocks" not in stats.phase_seconds
        reads.codes(0)
        reads.codes(3)
        reads.codes(0)
        stats.add_block_counters(reads)
        assert stats.blocks_built == 2
        assert stats.phase_seconds["blocks"] > 0.0


def test_store_reads_use_worker_ids():
    store = SparseQualityStore.from_dense(_matrix(6, 2, False, 0.5), prior=0.5)
    reads = StoreReads(store)
    assert reads.locate(3, [4, 1]).tolist() == [4, 1]
    assert reads.block([1, 4], [4]).tolist() == store.block([1, 4], [4]).tolist()


def test_sparse_gt_solve_builds_each_block_at_most_once(monkeypatch):
    built: list[int] = []
    original = SparseTaskBlocks._build_task

    def recording(self, task):
        built.append(task)
        original(self, task)

    monkeypatch.setattr(SparseTaskBlocks, "_build_task", recording)
    instance = generate_instance(
        120, 20, capacity=4, remaining_time=5.0, speed_range=(0.1, 0.2),
        radius_range=(0.3, 0.5), seed=11, quality_backend="sparse",
    )
    pairs = compute_valid_pairs(instance)
    result = solve_game_theoretic(instance, pairs, init="tpg")
    assert built and len(built) == len(set(built))
    assert result.stats.blocks_built == len(built)
    assert result.stats.phase_seconds["blocks"] > 0.0
    # The reader lived for the solve only: the results read the store.
    for solved in (result.assignment, result.equilibrium):
        assert isinstance(solved.revenue_cache.reads, StoreReads)
        assert solved.audit() == []


def test_fallback_tiers_never_share_a_reader(monkeypatch):
    """A primary abandoned at the budget keeps solving in its thread
    while the next tier solves the same ``ValidPairs``: every reader is
    read by one thread, and the tier's answer is the unwrapped one."""
    readers: dict[int, set[int]] = {}
    alive = []  # so no reader's id is reused by a later one

    def recorded(read):
        def recording(self, *args):
            if id(self) not in readers:
                alive.append(self)
            readers.setdefault(id(self), set()).add(threading.get_ident())
            return read(self, *args)

        return recording

    for name in ("block", "pair_block"):
        monkeypatch.setattr(
            SparseTaskBlocks, name, recorded(getattr(SparseTaskBlocks, name))
        )
    instance = generate_instance(
        150, 30, capacity=4, remaining_time=5.0, speed_range=(0.1, 0.2),
        radius_range=(0.3, 0.5), seed=4, quality_backend="sparse",
    )
    pairs = compute_valid_pairs(instance)
    expected = solve_tpg(instance, pairs)
    stop, started = threading.Event(), threading.Event()

    def endless_gt(inst, valid_pairs):
        while not stop.is_set():
            solve_game_theoretic(inst, valid_pairs)
            started.set()
        raise AssertionError("abandoned")

    chain = FallbackSolver(
        endless_gt, budget=1.0, label="GT", tiers=(("TPG", solve_tpg),)
    )
    try:
        answer = chain(instance, pairs)
        assert started.is_set()
    finally:
        stop.set()
    assert chain.degradation_log[-1].answered_by == "TPG"
    assert answer.to_pairs() == expected.to_pairs()
    assert repr(answer.total_score()) == repr(expected.total_score())
    assert repr(answer.revenue_cache.revenues.tolist()) == repr(
        expected.revenue_cache.revenues.tolist()
    )
    assert answer.audit() == []
    assert len(readers) > 2
    assert all(len(threads) == 1 for threads in readers.values())
