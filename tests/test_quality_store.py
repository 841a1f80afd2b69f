"""Backend parity and lifecycle tests for ``repro.core.quality_store``.

The contract under test: the dense, sparse and shared-memory quality
backends hold the same floats and feed them through the same numpy
reductions, so every consumer — revenue, GT, TPG, the fallback chain,
the sweep executor — produces **repr-identical** results regardless of
backend, on symmetric and asymmetric matrices alike. Plus the shared
segment's create/attach/unlink lifecycle (nothing may leak, even on
Ctrl-C).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fallback import FallbackSolver
from repro.core.game import solve_game_theoretic
from repro.core.kernels import cross_values
from repro.core.model import Instance
from repro.core.quality import CooperationMatrix
from repro.core.quality_store import (
    QUALITY_BACKENDS,
    DenseQualityStore,
    QualityStore,
    SharedDenseQualityStore,
    SparseQualityStore,
)
from repro.core.tpg import solve_tpg_with_stats
from repro.core.validity import compute_valid_pairs
from repro.datasets.synthetic import generate_instance, sparse_community_quality
from repro.simulation.population import Population
from repro.utils.errors import InvalidInstanceError

SEED_GRID = (0, 1, 2)


def _with_quality(instance: Instance, quality) -> Instance:
    return Instance(
        workers=instance.workers,
        tasks=instance.tasks,
        quality=quality,
        min_group_size=instance.min_group_size,
        now=instance.now,
    )


def _reference_matrix(size: int = 60, seed: int = 7) -> CooperationMatrix:
    """A dense community matrix with plenty of prior-valued entries."""
    return sparse_community_quality(size, community_size=12, seed=seed).to_dense()


def _asymmetric(matrix: CooperationMatrix, prior: float, seed: int = 11):
    """``matrix`` with its upper triangle perturbed only: every stored
    entry above the diagonal scaled, and a few prior-valued pairs there
    stored one way round."""
    q = matrix.values.copy()
    upper = np.triu(np.ones(q.shape, dtype=bool), k=1)
    q[upper & (q != prior)] *= 0.75
    q[upper & (np.random.default_rng(seed).random(q.shape) < 0.05)] = 0.9
    return CooperationMatrix(q)


class TestProtocol:
    def test_all_backends_satisfy_the_protocol(self):
        dense = _reference_matrix(20)
        sparse = SparseQualityStore.from_dense(dense, prior=0.3)
        shared = SharedDenseQualityStore.create(dense)
        try:
            for store in (dense, sparse, shared):
                assert isinstance(store, QualityStore)
        finally:
            shared.close()
            shared.unlink()

    def test_dense_backend_is_the_cooperation_matrix(self):
        assert DenseQualityStore is CooperationMatrix

    def test_backend_names(self):
        assert QUALITY_BACKENDS == ("dense", "sparse", "shared")


class TestSparseStoreParity:
    """Every read of the sparse store must equal the dense oracle."""

    @staticmethod
    def matrix() -> CooperationMatrix:
        return _reference_matrix()

    @pytest.fixture()
    def pair(self):
        dense = self.matrix()
        sparse = SparseQualityStore.from_dense(dense, prior=0.3)
        return dense, sparse

    def test_round_trip_is_exact(self, pair):
        dense, sparse = pair
        assert np.array_equal(sparse.to_dense().values, dense.values)
        assert sparse.size == dense.size
        assert sparse.nbytes < dense.nbytes

    def test_rows_cols_and_pairs(self, pair):
        dense, sparse = pair
        everyone = np.arange(dense.size)
        for worker in (0, 13, 59):
            assert np.array_equal(sparse.q_row(worker), dense.q_row(worker))
            toward, back = cross_values(sparse, worker, everyone)
            assert np.array_equal(toward, dense.values[worker])
            assert np.array_equal(back, dense.values[:, worker])
        # Broadcast: one row of members per worker.
        workers = np.array([[4], [13], [40]])
        members = np.array([[4, 9, 13], [40, 2, 13], [7, 40, 59]])
        for got, expected in zip(
            cross_values(sparse, workers, members),
            cross_values(dense, workers, members),
        ):
            assert got.shape == (3, 3)
            assert np.array_equal(got, expected)
        # The elementwise block both orientations come from.
        assert np.array_equal(
            sparse.block(workers[..., None], members[..., None])[..., 0, 0],
            dense.values[workers, members],
        )
        assert repr(sparse.pair(3, 44)) == repr(dense.pair(3, 44))
        assert repr(sparse.pair(44, 3)) == repr(dense.pair(44, 3))
        with pytest.raises(ValueError, match="self-pair"):
            sparse.pair(5, 5)

    def test_gather_and_sums_are_repr_identical(self, pair):
        dense, sparse = pair
        rng = np.random.default_rng(0)
        for _ in range(25):
            index = np.sort(rng.choice(dense.size, size=6, replace=False))
            assert np.array_equal(
                sparse.block(index, index), dense.block(index, index)
            )
            assert repr(sparse.ordered_pair_sum(index)) == repr(
                dense.ordered_pair_sum(index)
            )
            assert repr(sparse.submatrix_sum(index)) == repr(
                dense.submatrix_sum(index)
            )
            worker = int(rng.integers(dense.size))
            members = index[index != worker]
            assert repr(sparse.cross_sum(worker, members)) == repr(
                dense.cross_sum(worker, members)
            )
        # A batch dimension, with ids repeated across rows and columns so
        # the zero diagonal shows up off the block's own diagonal.
        rows = rng.integers(dense.size, size=(4, 5))
        cols = np.concatenate([rows[:, :2], rng.integers(dense.size, size=(4, 3))], 1)
        block = sparse.block(rows, cols)
        assert block.shape == (4, 5, 5) and block.flags["C_CONTIGUOUS"]
        assert np.array_equal(block, dense.block(rows, cols))
        assert (block[:, [0, 1], [0, 1]] == 0.0).all()

    def test_top_and_bottom_qualities(self, pair):
        dense, sparse = pair
        for worker in (0, 31):
            for count in (1, 4, 10):
                assert np.array_equal(
                    sparse.top_qualities(worker, count),
                    dense.top_qualities(worker, count),
                )
                assert np.array_equal(
                    sparse.bottom_qualities(worker, count),
                    dense.bottom_qualities(worker, count),
                )

    def test_restricted_to_matches_dense(self, pair):
        dense, sparse = pair
        workers = [3, 8, 21, 40, 55]
        assert np.array_equal(
            sparse.restricted_to(workers).to_dense().values,
            dense.restricted_to(workers).values,
        )

    def test_symmetry_detection(self, pair):
        dense, sparse = pair
        assert sparse.is_symmetric() == dense.is_symmetric()

    def test_from_history_matches_dense_from_history(self):
        history = {
            (0, 1): [0.9, 0.8],
            (1, 0): [0.4],  # later orientation wins, as in the dense path
            (2, 3): [0.6, 0.7, 0.65],
            (4, 5): [],
        }
        dense = CooperationMatrix.from_history(8, history)
        sparse = SparseQualityStore.from_history(8, history)
        assert np.array_equal(sparse.to_dense().values, dense.values)


class TestAsymmetricStoreParity(TestSparseStoreParity):
    """The same reads on an asymmetric store, whose two orientations of a
    pair are different stored entries."""

    @staticmethod
    def matrix() -> CooperationMatrix:
        return _asymmetric(_reference_matrix(), prior=0.3)

    def test_symmetry_detection(self, pair):
        dense, sparse = pair
        assert sparse.is_symmetric() is False
        assert dense.is_symmetric() is False
        assert sparse.restricted_to(range(60)).is_symmetric() is False


class TestOutOfRangeIds:
    """An id equal to the store's size is an error on every backend (the
    sparse store used to alias it onto the next row's keys)."""

    @pytest.fixture(params=QUALITY_BACKENDS)
    def store(self, request):
        dense = CooperationMatrix(np.random.default_rng(0).uniform(size=(5, 5)))
        if request.param == "dense":
            yield dense
        elif request.param == "sparse":
            yield SparseQualityStore.from_dense(dense, prior=0.5)
        else:
            shared = SharedDenseQualityStore.create(dense)
            yield shared
            shared.close()
            shared.unlink()

    @pytest.mark.parametrize(
        "read",
        [
            lambda q: q.block([0], [5]),
            lambda q: q.block([5], [0]),
            lambda q: q.cross_sum(0, [5]),
            lambda q: q.cross_sum(5, [0]),
            lambda q: q.q_row(5),
            lambda q: q.pair(0, 5),
            lambda q: q.pair(5, 0),
        ],
        ids=["block-col", "block-row", "cross-member", "cross-worker", "q_row",
             "pair-col", "pair-row"],
    )
    def test_id_equal_to_size_raises(self, store, read):
        with pytest.raises(IndexError):
            read(store)


class TestSparseValidation:
    def test_duplicate_entries_rejected(self):
        with pytest.raises(InvalidInstanceError, match="duplicate"):
            SparseQualityStore(4, 0.3, [0, 0], [1, 1], [0.5, 0.6])

    def test_shuffled_duplicate_entries_rejected(self):
        # (2, 0) is given twice, apart and in shuffled order; (0, 2) is
        # its transpose, not a duplicate.
        with pytest.raises(InvalidInstanceError, match="duplicate"):
            SparseQualityStore(
                4, 0.3, [2, 1, 0, 3, 2], [0, 3, 2, 1, 0], [0.5, 0.6, 0.7, 0.8, 0.9]
            )

    def test_diagonal_entries_rejected(self):
        with pytest.raises(InvalidInstanceError, match="diagonal"):
            SparseQualityStore(4, 0.3, [2], [2], [0.5])

    def test_out_of_range_indices_rejected(self):
        with pytest.raises(InvalidInstanceError, match="out of range"):
            SparseQualityStore(4, 0.3, [0], [4], [0.5])

    def test_out_of_range_values_rejected(self):
        with pytest.raises(InvalidInstanceError, match=r"\[0, 1\]"):
            SparseQualityStore(4, 0.3, [0], [1], [1.5])

    def test_prior_must_be_a_probability(self):
        with pytest.raises(InvalidInstanceError, match="prior"):
            SparseQualityStore(4, 1.5, [], [], [])


class TestSolverParity:
    """The tentpole contract: repr-identical solver results per backend."""

    @pytest.mark.parametrize("seed", SEED_GRID)
    def test_gt_tpg_and_fallback_identical_across_backends(self, seed):
        sparse_instance = generate_instance(
            100, 25, seed=seed, quality_backend="sparse"
        )
        dense = sparse_instance.quality.to_dense()
        shared = SharedDenseQualityStore.create(dense)
        try:
            fingerprints = []
            for quality in (dense, sparse_instance.quality, shared):
                instance = _with_quality(sparse_instance, quality)
                valid_pairs = compute_valid_pairs(instance)
                gt = solve_game_theoretic(instance, valid_pairs)
                tpg = solve_tpg_with_stats(instance, valid_pairs)
                gtall = solve_game_theoretic(
                    instance, valid_pairs, epsilon=0.05, lazy_update=True
                )
                fallback = FallbackSolver(
                    lambda inst, pairs: solve_game_theoretic(inst, pairs).assignment,
                    budget=None,
                    label="GT",
                    seed=seed,
                )(instance, valid_pairs)
                fingerprints.append(
                    {
                        "gt": (repr(gt.assignment.to_pairs()), repr(gt.final_score)),
                        "tpg": (
                            repr(tpg.assignment.to_pairs()),
                            repr(tpg.assignment.total_score()),
                        ),
                        "gtall": (
                            repr(gtall.assignment.to_pairs()),
                            repr(gtall.final_score),
                        ),
                        "fallback": (
                            repr(fallback.to_pairs()),
                            repr(fallback.total_score()),
                        ),
                    }
                )
        finally:
            shared.close()
            shared.unlink()
        assert fingerprints[0] == fingerprints[1] == fingerprints[2]

    def test_asymmetric_gt_and_tpg_identical_on_dense_and_sparse(self):
        base = generate_instance(100, 25, seed=0, quality_backend="sparse")
        prior = base.quality.prior
        dense = _asymmetric(base.quality.to_dense(), prior)
        sparse = SparseQualityStore.from_dense(dense, prior)
        assert not sparse.is_symmetric()
        fingerprints = []
        for quality in (dense, sparse):
            instance = _with_quality(base, quality)
            valid_pairs = compute_valid_pairs(instance)
            gt = solve_game_theoretic(instance, valid_pairs)
            tpg = solve_tpg_with_stats(instance, valid_pairs).assignment
            assert gt.assignment.to_pairs() and tpg.to_pairs()
            fingerprints.append(
                (
                    repr(gt.assignment.to_pairs()),
                    repr(gt.final_score),
                    repr(tpg.to_pairs()),
                    repr(tpg.total_score()),
                )
            )
        assert fingerprints[0] == fingerprints[1]

    def test_population_locations_identical_across_backends(self):
        dense_pop = Population.synthetic(120, 40, seed=5)
        sparse_pop = Population.synthetic(
            120, 40, seed=5, quality_backend="sparse"
        )
        assert np.array_equal(
            dense_pop.worker_locations, sparse_pop.worker_locations
        )
        assert np.array_equal(
            dense_pop.task_locations, sparse_pop.task_locations
        )
        assert isinstance(sparse_pop.quality, SparseQualityStore)

    def test_settings_reject_unknown_backends(self):
        from repro.experiments.config import ExperimentSettings

        with pytest.raises(ValueError, match="quality_backend"):
            ExperimentSettings(quality_backend="bogus")
        # "shared" is an executor transport, not a population setting.
        with pytest.raises(ValueError, match="quality_backend"):
            ExperimentSettings(quality_backend="shared")

    def test_meetup_rejects_the_sparse_backend(self):
        from repro.experiments.config import ExperimentSettings
        from repro.experiments.runner import build_population

        settings = ExperimentSettings(dataset="meetup", quality_backend="sparse")
        with pytest.raises(ValueError, match="meetup"):
            build_population(settings, seed=0)


class TestSharedMemoryLifecycle:
    def test_attach_sees_the_creators_floats(self):
        dense = _reference_matrix(25)
        shared = SharedDenseQualityStore.create(dense)
        try:
            attached = SharedDenseQualityStore.attach(shared.name, dense.size)
            assert np.array_equal(attached.values, dense.values)
            assert not attached.owner
            attached.close()
            attached.close()  # idempotent
        finally:
            shared.close()
            shared.unlink()

    def test_unlink_destroys_the_segment(self):
        shared = SharedDenseQualityStore.create(_reference_matrix(10))
        name = shared.name
        shared.close()
        shared.unlink()
        with pytest.raises(FileNotFoundError):
            SharedDenseQualityStore.attach(name, 10)

    def test_same_process_attach_does_not_break_creator_cleanup(self):
        # Attaching inside the creating process must leave the creator's
        # resource-tracker registration alone, or unlink() would race the
        # tracker at interpreter exit.
        shared = SharedDenseQualityStore.create(_reference_matrix(10))
        attached = SharedDenseQualityStore.attach(shared.name, 10)
        attached.close()
        shared.close()
        shared.unlink()  # must not raise

    def test_attacher_never_unlinks(self):
        dense = _reference_matrix(10)
        shared = SharedDenseQualityStore.create(dense)
        try:
            attached = SharedDenseQualityStore.attach(shared.name, 10)
            attached.close()
            attached.unlink()  # no-op for non-owners
            again = SharedDenseQualityStore.attach(shared.name, 10)
            assert np.array_equal(again.values, dense.values)
            again.close()
        finally:
            shared.close()
            shared.unlink()


class TestSegmentRegistry:
    """The on-disk name registry every create()/unlink() maintains."""

    @pytest.fixture(autouse=True)
    def _isolated_registry(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SHM_REGISTRY", str(tmp_path))

    def test_create_registers_and_unlink_unregisters(self):
        import os

        from repro.core.quality_store import registered_segments

        assert registered_segments() == []
        shared = SharedDenseQualityStore.create(_reference_matrix(10))
        try:
            entries = registered_segments()
            assert [entry["name"] for entry in entries] == [shared.name]
            assert entries[0]["pid"] == os.getpid()
            assert entries[0]["size"] == 10
        finally:
            shared.close()
            shared.unlink()
        assert registered_segments() == []

    def test_reap_leaves_live_owners_alone(self):
        from repro.core.quality_store import reap_orphans

        shared = SharedDenseQualityStore.create(_reference_matrix(10))
        try:
            report = reap_orphans()
            assert report.live == [shared.name]
            assert report.reaped == [] and report.stale == []
            # The segment is untouched.
            attached = SharedDenseQualityStore.attach(shared.name, 10)
            attached.close()
        finally:
            shared.close()
            shared.unlink()

    def test_force_reaps_even_live_owners(self):
        from multiprocessing import resource_tracker, shared_memory

        from repro.core.quality_store import reap_orphans, register_segment

        shm = shared_memory.SharedMemory(create=True, size=64)
        # Forget the segment locally so the reaper — not this process's
        # resource tracker — is the only thing that can clean it up.
        resource_tracker.unregister(shm._name, "shared_memory")
        register_segment(shm.name, 64)
        shm.close()
        report = reap_orphans(force=True)
        assert report.reaped == [shm.name]
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=shm.name)

    def test_stale_sidecars_are_swept(self, tmp_path):
        import json

        from repro.core.quality_store import reap_orphans, registered_segments

        (tmp_path / "repro-gone.json").write_text(
            json.dumps({"name": "repro-gone", "pid": 1, "size": 8}),
            encoding="utf-8",
        )
        report = reap_orphans(force=True)  # force skips the pid-1 check
        assert report.stale == ["repro-gone"]
        assert report.reaped == []
        assert registered_segments() == []
        assert "scanned 1 registered segment(s)" in report.summary()
        assert "stale 1" in report.summary()


class TestOrphanReaping:
    """A SIGKILLed creator's segment must be reapable afterwards."""

    def test_killed_creator_segment_is_reaped(self, monkeypatch, tmp_path):
        import os
        import subprocess
        import sys
        from multiprocessing import shared_memory

        from repro.core.quality_store import (
            reap_orphans,
            registered_segments,
        )

        # The child creates a registered segment, detaches it from its
        # own resource tracker (a SIGKILL that also takes the tracker
        # down — or lands before the tracker registered the name — is
        # exactly the leak the registry exists for), then kills itself.
        script = (
            "import os, signal\n"
            "import numpy as np\n"
            "from repro.core.quality import CooperationMatrix\n"
            "from repro.core.quality_store import SharedDenseQualityStore\n"
            "from multiprocessing import resource_tracker\n"
            "matrix = CooperationMatrix(np.zeros((6, 6)))\n"
            "shared = SharedDenseQualityStore.create(matrix)\n"
            "resource_tracker.unregister(shared._shm._name, 'shared_memory')\n"
            "print(shared.name, flush=True)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        env = dict(os.environ)
        env["REPRO_SHM_REGISTRY"] = str(tmp_path)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == -9, proc.stderr
        name = proc.stdout.strip()
        assert name

        # The segment outlived its creator...
        leaked = shared_memory.SharedMemory(name=name)
        leaked.close()
        # ...and the registry knows, under a now-dead pid.
        monkeypatch.setenv("REPRO_SHM_REGISTRY", str(tmp_path))
        entries = registered_segments()
        assert [entry["name"] for entry in entries] == [name]
        assert entries[0]["pid"] != os.getpid()
        report = reap_orphans()
        assert report.reaped == [name]
        assert registered_segments() == []
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


#: Two ways a segment used to be unregistered from the resource tracker
#: twice, each a ``KeyError`` traceback on the tracker's stderr.
_TRACKER_PROBES = """
import multiprocessing
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.core.quality import CooperationMatrix
from repro.core.quality_store import (
    SharedDenseQualityStore,
    reap_orphans,
    register_segment,
)


def attach_and_close(name, size):
    SharedDenseQualityStore.attach(name, size).close()


if __name__ == "__main__":
    # A spawn child (sharing the creator's tracker) attaches and closes,
    # then the creator unlinks.
    shared = SharedDenseQualityStore.create(CooperationMatrix(np.zeros((4, 4))))
    child = multiprocessing.get_context("spawn").Process(
        target=attach_and_close, args=(shared.name, shared.size)
    )
    child.start()
    child.join()
    assert child.exitcode == 0
    shared.close()
    shared.unlink()
    # The reaper attaches and unlinks a segment its tracker never saw.
    shm = shared_memory.SharedMemory(create=True, size=64)
    resource_tracker.unregister(shm._name, "shared_memory")
    register_segment(shm.name, 64)
    shm.close()
    assert reap_orphans(force=True).reaped == [shm.name]
"""


def test_attach_and_reap_leave_the_resource_tracker_balanced(tmp_path):
    import os
    import subprocess
    import sys

    script = tmp_path / "probes.py"
    script.write_text(_TRACKER_PROBES, encoding="utf-8")
    env = dict(os.environ)
    env["REPRO_SHM_REGISTRY"] = str(tmp_path / "registry")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


class TestExecutorSharedBackend:
    """SweepExecutor with ``quality_backend='shared'``: parity + cleanup."""

    def _specs(self, seed: int = 0):
        from dataclasses import replace

        from repro.experiments.config import ExperimentSettings
        from repro.experiments.parallel import build_cell_specs

        quick = ExperimentSettings(
            rounds=2,
            workers_per_round=40,
            tasks_per_round=10,
            speed_range=(0.05, 0.2),
            radius_range=(0.2, 0.4),
            dataset="unif",
        )
        return build_cell_specs(
            "shared-test",
            "workers_per_round",
            [30, 40],
            lambda settings, value: replace(settings, workers_per_round=int(value)),
            quick,
            ("RAND", "GT"),
            seed,
        )

    def _fingerprint(self, results):
        return [
            (
                result.spec.approach,
                result.spec.value,
                repr(result.outcome.total_score) if result.outcome else None,
            )
            for result in results
        ]

    def test_shared_pool_matches_serial_and_unlinks(self):
        from repro.experiments.parallel import SweepExecutor

        serial_results, _ = SweepExecutor(n_jobs=1).run(self._specs())
        executor = SweepExecutor(n_jobs=2, quality_backend="shared")
        shared_results, _ = executor.run(self._specs())
        assert self._fingerprint(shared_results) == self._fingerprint(
            serial_results
        )
        assert executor.last_shared_segments, "pool path should create segments"
        for name in executor.last_shared_segments:
            with pytest.raises(FileNotFoundError):
                SharedDenseQualityStore.attach(name, 1)

    def test_interrupt_still_unlinks_segments(self, monkeypatch):
        from repro.experiments.parallel import SweepExecutor
        from repro.utils.procpool import FanoutPool

        executor = SweepExecutor(n_jobs=2, quality_backend="shared")

        def interrupted(pool, fn, items, on_result=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(FanoutPool, "run", interrupted)
        with pytest.raises(KeyboardInterrupt):
            executor.run(self._specs())
        assert executor.last_shared_segments, "segments were created pre-pool"
        for name in executor.last_shared_segments:
            with pytest.raises(FileNotFoundError):
                SharedDenseQualityStore.attach(name, 1)

    def test_executor_rejects_unknown_backend(self):
        from repro.experiments.parallel import SweepExecutor

        with pytest.raises(ValueError, match="quality_backend"):
            SweepExecutor(quality_backend="bogus")

    def test_sparse_settings_sweep_parallel_parity(self):
        from repro.experiments.config import ExperimentSettings
        from repro.experiments.figures import fig7_workers
        from repro.experiments.parallel import SweepExecutor

        quick = ExperimentSettings(
            rounds=2,
            workers_per_round=40,
            tasks_per_round=10,
            speed_range=(0.05, 0.2),
            radius_range=(0.2, 0.4),
            dataset="unif",
            quality_backend="sparse",
        )
        kwargs = dict(
            base=quick,
            values=(30, 40),
            approaches=("RAND", "GT"),
            seed=1,
        )
        serial = fig7_workers(**kwargs)
        parallel = fig7_workers(**kwargs, executor=SweepExecutor(n_jobs=2))
        serial_scores = [
            {name: repr(out.total_score) for name, out in point.outcomes.items()}
            for point in serial.points
        ]
        parallel_scores = [
            {name: repr(out.total_score) for name, out in point.outcomes.items()}
            for point in parallel.points
        ]
        assert serial_scores == parallel_scores
