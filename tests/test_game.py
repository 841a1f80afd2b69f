"""Tests for the game-theoretic solver: stability (Nash), the exact
potential property (Theorem V.1), monotone convergence, and the LUB/TSI
optimizations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.reference import reference_join_gain, verify_nash_equilibrium
from repro.core.assignment import UNASSIGNED, Assignment
from repro.core.bounds import upper_bound
from repro.core.game import solve_game_theoretic
from repro.core.tpg import solve_tpg
from repro.core.validity import compute_valid_pairs
from repro.datasets.synthetic import generate_instance

from tests.conftest import make_dense_instance, make_example1_instance


class TestConvergenceAndStability:
    def test_converges_on_dense_instance(self):
        instance = make_dense_instance(30, 6, seed=1)
        pairs = compute_valid_pairs(instance)
        result = solve_game_theoretic(instance, pairs)
        assert result.converged
        assert result.rounds >= 1

    def test_result_is_nash_equilibrium(self):
        instance = make_dense_instance(36, 6, seed=2)
        pairs = compute_valid_pairs(instance)
        result = solve_game_theoretic(instance, pairs)
        deviations = verify_nash_equilibrium(result.equilibrium, pairs)
        assert deviations == []
        # The clamped deliverable keeps the equilibrium's total score.
        assert result.assignment.total_score() == pytest.approx(
            result.equilibrium.total_score()
        )

    def test_nash_from_random_init(self):
        instance = make_dense_instance(30, 5, seed=3)
        pairs = compute_valid_pairs(instance)
        result = solve_game_theoretic(instance, pairs, init="random", seed=0)
        assert result.converged
        assert verify_nash_equilibrium(result.equilibrium, pairs) == []

    def test_score_monotone_over_rounds(self):
        instance = make_dense_instance(40, 8, seed=4)
        result = solve_game_theoretic(instance, init="random", seed=1)
        history = [result.initial_score, *result.score_history]
        for before, after in zip(history, history[1:]):
            assert after >= before - 1e-9

    def test_gt_at_least_tpg(self):
        """Best-response from the TPG start can only climb the potential."""
        for seed in range(5):
            instance = make_dense_instance(30, 6, seed=seed)
            pairs = compute_valid_pairs(instance)
            tpg_score = solve_tpg(instance, pairs).total_score()
            gt_score = solve_game_theoretic(instance, pairs).final_score
            assert gt_score >= tpg_score - 1e-9

    def test_final_assignment_feasible(self):
        instance = generate_instance(60, 12, seed=5)
        pairs = compute_valid_pairs(instance)
        result = solve_game_theoretic(instance, pairs)
        result.assignment.check_feasible()

    def test_solves_example1_optimally(self):
        instance, w, t = make_example1_instance()
        pairs = compute_valid_pairs(instance)
        result = solve_game_theoretic(instance, pairs)
        assert result.final_score == pytest.approx(1.8)
        assert sorted(result.assignment.members(t["t1"])) == [w["w1"], w["w4"]]

    def test_empty_instance(self):
        instance = generate_instance(0, 0, seed=0)
        result = solve_game_theoretic(instance)
        assert result.final_score == 0.0
        assert result.converged

    def test_parameter_validation(self):
        instance = make_dense_instance(10, 2)
        with pytest.raises(ValueError):
            solve_game_theoretic(instance, epsilon=-0.1)
        with pytest.raises(ValueError):
            solve_game_theoretic(instance, max_rounds=0)
        with pytest.raises(ValueError):
            solve_game_theoretic(instance, init="warmstart")

    def test_negative_tolerance_is_rejected(self):
        # A negative tolerance accepts moves that lower the potential,
        # so the dynamics need not terminate (Theorem V.1).
        from repro.core.sharding.reconcile import reconcile_borders

        instance = make_dense_instance(30, 6, seed=2)
        with pytest.raises(ValueError, match="tolerance must be non-negative"):
            solve_game_theoretic(instance, tolerance=-1e-3)
        pairs = compute_valid_pairs(instance)
        assignment = Assignment(instance, pairs, allow_overflow=True)
        with pytest.raises(ValueError, match="tolerance must be non-negative"):
            reconcile_borders(
                instance, pairs, assignment, range(instance.worker_count),
                tolerance=-1e-3,
            )

    def test_zero_tolerance_still_converges(self):
        instance = make_dense_instance(30, 6, seed=2)
        result = solve_game_theoretic(instance, tolerance=0.0)
        assert result.converged
        assert verify_nash_equilibrium(
            result.equilibrium, compute_valid_pairs(instance), tolerance=0.0
        ) == []


class TestPotentialProperty:
    """Theorem V.1: a unilateral move changes the total score by exactly
    the mover's utility change."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_exact_potential_identity(self, seed):
        instance = make_dense_instance(15, 4, seed=seed)
        rng = np.random.default_rng(seed)
        assignment = Assignment(instance, allow_overflow=True)
        # Random starting profile.
        for worker in range(instance.worker_count):
            if rng.random() < 0.7:
                assignment.assign(worker, int(rng.integers(instance.task_count)))
        for _ in range(10):
            worker = int(rng.integers(instance.worker_count))
            target = int(rng.integers(instance.task_count))
            if assignment.task_of(worker) == target:
                continue
            old_utility = assignment.leave_delta(worker)
            new_utility = assignment.join_gain(worker, target)
            before = assignment.total_score()
            assignment.move(worker, target)
            after = assignment.total_score()
            assert after - before == pytest.approx(
                new_utility - old_utility, abs=1e-8
            )


class TestOptimizations:
    def test_lub_matches_plain_gt_closely(self):
        for seed in range(4):
            instance = make_dense_instance(40, 8, seed=seed)
            pairs = compute_valid_pairs(instance)
            plain = solve_game_theoretic(instance, pairs)
            lazy = solve_game_theoretic(instance, pairs, lazy_update=True)
            assert lazy.final_score >= 0.97 * plain.final_score

    def test_lub_converges(self):
        instance = make_dense_instance(40, 8, seed=9)
        result = solve_game_theoretic(instance, lazy_update=True)
        assert result.converged

    def test_tsi_stops_earlier_and_scores_close(self):
        instance = make_dense_instance(60, 10, seed=10)
        pairs = compute_valid_pairs(instance)
        plain = solve_game_theoretic(instance, pairs, init="random", seed=3)
        stopped = solve_game_theoretic(
            instance, pairs, init="random", seed=3, epsilon=0.05
        )
        assert stopped.rounds <= plain.rounds
        assert stopped.final_score <= plain.final_score + 1e-9
        assert stopped.final_score >= 0.8 * plain.final_score

    def test_epsilon_zero_equals_plain(self):
        instance = make_dense_instance(30, 6, seed=11)
        pairs = compute_valid_pairs(instance)
        plain = solve_game_theoretic(instance, pairs)
        zero = solve_game_theoretic(instance, pairs, epsilon=0.0)
        assert plain.final_score == pytest.approx(zero.final_score)

    def test_all_optimizations_together(self):
        instance = make_dense_instance(50, 8, seed=12)
        pairs = compute_valid_pairs(instance)
        plain = solve_game_theoretic(instance, pairs)
        both = solve_game_theoretic(
            instance, pairs, epsilon=0.05, lazy_update=True
        )
        both.assignment.check_feasible()
        assert both.final_score >= 0.9 * plain.final_score

    def test_max_rounds_cap(self):
        instance = make_dense_instance(40, 8, seed=13)
        result = solve_game_theoretic(instance, init="random", seed=0, max_rounds=1)
        assert result.rounds == 1


class TestCrowdOut:
    def test_joining_full_task_can_displace_weak_member(self):
        """A strong newcomer joins a full task; the weak member is crowded
        out of the counted subset and eventually idled by the clamp."""
        from repro.core.model import Instance, Task, Worker
        from repro.core.quality import CooperationMatrix
        from repro.spatial.geometry import Point

        # Workers 0-2 mutually great; worker 3 poor with everyone.
        q = np.full((4, 4), 0.9)
        q[3, :] = q[:, 3] = 0.05
        origin = Point(0.5, 0.5)
        workers = [
            Worker(worker_id=i, location=origin, speed=1.0, radius=1.0)
            for i in range(4)
        ]
        tasks = [Task(task_id=0, location=origin, capacity=3, deadline=5.0)]
        instance = Instance(
            workers=workers,
            tasks=tasks,
            quality=CooperationMatrix(q),
            min_group_size=3,
        )
        pairs = compute_valid_pairs(instance)
        result = solve_game_theoretic(instance, pairs)
        members = sorted(result.assignment.members(0))
        assert members == [0, 1, 2]
        assert result.assignment.task_of(3) == UNASSIGNED


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_property_gt_always_nash_and_feasible(seed):
    instance = generate_instance(
        30,
        6,
        speed_range=(0.1, 0.4),
        radius_range=(0.2, 0.6),
        seed=seed,
    )
    pairs = compute_valid_pairs(instance)
    result = solve_game_theoretic(instance, pairs)
    result.assignment.check_feasible()
    assert result.converged
    assert verify_nash_equilibrium(result.equilibrium, pairs) == []


class TestPlayerOrder:
    def test_shuffled_order_converges_to_nash(self):
        instance = make_dense_instance(30, 6, seed=21)
        pairs = compute_valid_pairs(instance)
        result = solve_game_theoretic(
            instance, pairs, player_order="shuffled", seed=5
        )
        assert result.converged
        assert verify_nash_equilibrium(result.equilibrium, pairs) == []

    def test_shuffled_reproducible_with_seed(self):
        instance = make_dense_instance(30, 6, seed=22)
        pairs = compute_valid_pairs(instance)
        first = solve_game_theoretic(
            instance, pairs, init="random", player_order="shuffled", seed=9
        )
        second = solve_game_theoretic(
            instance, pairs, init="random", player_order="shuffled", seed=9
        )
        assert first.final_score == pytest.approx(second.final_score)
        assert first.assignment.to_pairs() == second.assignment.to_pairs()

    def test_unknown_order_rejected(self):
        instance = make_dense_instance(10, 2, seed=23)
        with pytest.raises(ValueError):
            solve_game_theoretic(instance, player_order="roundrobin")


class TestScoreAccounting:
    def test_final_score_is_exactly_last_history_entry(self):
        # Regression: an accumulated gain counter used to drift from the
        # per-round history by float rounding; both now read the same
        # incrementally maintained total, so equality is exact.
        for seed in (3, 11, 29):
            instance = make_dense_instance(40, 8, seed=seed)
            pairs = compute_valid_pairs(instance)
            result = solve_game_theoretic(instance, pairs)
            assert result.score_history
            assert result.final_score == result.score_history[-1]

    def test_final_score_matches_assignment_total(self):
        instance = make_dense_instance(35, 7, seed=4)
        pairs = compute_valid_pairs(instance)
        result = solve_game_theoretic(instance, pairs)
        # The clamp drops only uncounted members, preserving the score.
        assert result.assignment.total_score() == pytest.approx(
            result.final_score
        )

    def test_history_exact_under_tsi_and_lub(self):
        instance = make_dense_instance(40, 8, seed=13)
        pairs = compute_valid_pairs(instance)
        result = solve_game_theoretic(
            instance, pairs, epsilon=0.05, lazy_update=True
        )
        assert result.final_score == result.score_history[-1]


def _round_gains(result) -> list[float]:
    """Per-round potential increase, from the initial score on."""
    history = [result.initial_score, *result.score_history]
    return [after - before for before, after in zip(history, history[1:])]


class TestLemmaV1Convergence:
    """Lemma V.1 instantiated: rounds raise the potential monotonically
    up to the Equation 9 cap, and the gains motivate TSI."""

    def test_gain_accounting(self):
        instance = make_dense_instance(40, 8, seed=1)
        pairs = compute_valid_pairs(instance)
        result = solve_game_theoretic(instance, pairs, init="random", seed=0)
        gains = _round_gains(result)
        assert result.converged
        assert sum(gains) == pytest.approx(result.final_score - result.initial_score)
        # Every non-final round has a strictly positive potential gain.
        assert all(gain >= -1e-9 for gain in gains)

    def test_final_round_gains_nothing(self):
        instance = make_dense_instance(30, 6, seed=2)
        result = solve_game_theoretic(instance, compute_valid_pairs(instance))
        assert _round_gains(result)[-1] == pytest.approx(0.0, abs=1e-9)

    def test_final_score_below_upper_bound(self):
        for seed in range(3):
            instance = make_dense_instance(30, 6, seed=seed)
            pairs = compute_valid_pairs(instance)
            result = solve_game_theoretic(instance, pairs)
            assert result.final_score <= upper_bound(instance, pairs).value + 1e-9

    def test_tpg_init_converges_in_fewer_rounds_than_random(self):
        """The Algorithm 3 line-1 rationale: a good initial profile
        shortens the dynamics (holds on the large majority of seeds)."""
        faster = 0
        for seed in range(5):
            instance = make_dense_instance(40, 8, seed=seed)
            pairs = compute_valid_pairs(instance)
            tpg_start = solve_game_theoretic(instance, pairs, init="tpg")
            random_start = solve_game_theoretic(
                instance, pairs, init="random", seed=seed
            )
            if tpg_start.rounds <= random_start.rounds:
                faster += 1
        assert faster >= 4

    def test_diminishing_gains_common(self):
        """The TSI motivation: per-round gains typically shrink."""
        diminishing = 0
        for seed in range(5):
            instance = make_dense_instance(40, 8, seed=10 + seed)
            pairs = compute_valid_pairs(instance)
            result = solve_game_theoretic(instance, pairs, init="random", seed=seed)
            gains = [gain for gain in _round_gains(result) if gain > 0]
            if all(b <= a + 1e-9 for a, b in zip(gains, gains[1:])):
                diminishing += 1
        assert diminishing >= 3


def _classifier(instance, pairs, assignment):
    """A best-response engine over ``assignment``, every row classified."""
    from repro.core.game import DEFAULT_TOLERANCE, _BestResponseDynamics

    dynamics = _BestResponseDynamics(
        instance, pairs, assignment, DEFAULT_TOLERANCE, lazy_update=False
    )
    dynamics._score_rows(np.arange(instance.worker_count))
    return dynamics


def _response(dynamics, worker):
    return int(dynamics._choice[worker]), float(dynamics._choice_utility[worker])


class TestVectorizedScan:
    def test_vectorized_best_alternative_matches_reference(self):
        # The bulk classifier must agree with the scalar reference loop
        # bit-for-bit: same best task, same utility float, and the
        # current utility of leave_delta.
        from repro.audit.reference import reference_best_alternative

        instance = make_dense_instance(40, 8, capacity=4, seed=31)
        pairs = compute_valid_pairs(instance)
        assignment = Assignment(instance, pairs, allow_overflow=True)
        for worker, task in solve_tpg(instance, pairs).to_pairs():
            assignment.assign(worker, task)
        dynamics = _classifier(instance, pairs, assignment)
        for worker in range(instance.worker_count):
            vector = _response(dynamics, worker)
            reference = reference_best_alternative(
                assignment, worker, pairs.tasks_for_worker[worker]
            )
            assert vector == reference
            assert repr(float(dynamics._utility[worker])) == repr(
                float(assignment.leave_delta(worker))
            )

    def test_scan_memo_replays_identical_results(self):
        instance = make_dense_instance(30, 6, capacity=4, seed=37)
        pairs = compute_valid_pairs(instance)
        assignment = Assignment(instance, pairs, allow_overflow=True)
        dynamics = _classifier(instance, pairs, assignment)
        worker = np.array([0])
        dynamics._account(worker, False)  # the first play scans
        first = _response(dynamics, 0)
        hits_before = dynamics.stats.cache_hits
        # Unchanged candidates: the row is not re-scored, and its play
        # replays the scan as a hit.
        assert dynamics._score_rows(worker) == 0
        dynamics._account(worker, False)
        assert _response(dynamics, 0) == first
        assert dynamics.stats.cache_hits == hits_before + 1
        # A membership change in a candidate task must invalidate the memo.
        task = pairs.tasks_for_worker[0][0]
        joiner = next(
            w
            for w in pairs.workers_for_task[task]
            if w != 0 and assignment.task_of(w) == UNASSIGNED
        )
        assignment.assign(joiner, task)
        misses_before = dynamics.stats.cache_misses
        assert dynamics._score_rows(worker) == 1
        dynamics._account(worker, False)
        assert dynamics.stats.cache_misses == misses_before + 1


class TestVectorGroupBoundary:
    """Regression pins for the batched scan at group sizes 7, 8, 9.

    The size-7 row qualities are adversarial: ``np.add.reduceat`` — which
    the batch path historically used for its segment sums — reorders
    their sum on current numpy (3.8759979999999996 instead of the
    sequential 3.875998), so the size-7 case fails on any revision whose
    batch reduction is not order-exact with the scalar
    ``reference_join_gain`` oracle. Sizes 8 and 9 are where
    ``ndarray.sum()`` itself reorders; groups that size are scored by the
    batched scan too, and both paths must still sum left to right.
    """

    _ADVERSARIAL = [
        0.706547, 0.539262, 0.891565, 0.784268, 0.052465, 0.821664,
        0.080227, 0.613511, 0.442957,
    ]

    def _scan_instance(self, size):
        from repro.core.model import Instance, Task, Worker
        from repro.core.quality import CooperationMatrix
        from repro.spatial.geometry import Point

        count = size + 1
        # Only worker 0's row toward the members is non-zero: the
        # members' mutual qualities (hence pair_sums and the revenue) are
        # 0, so the scanned utility is exactly cross / size and a last-bit
        # error in the cross sum cannot be masked downstream.
        q = np.zeros((count, count))
        q[0, 1:] = self._ADVERSARIAL[:size]
        quality = CooperationMatrix(q)
        origin = Point(0.0, 0.0)
        workers = [
            Worker(worker_id=i, location=origin, speed=1.0, radius=10.0)
            for i in range(count)
        ]
        tasks = [
            Task(task_id=0, location=origin, capacity=count, deadline=100.0)
        ]
        return Instance(
            workers=workers, tasks=tasks, quality=quality, min_group_size=3
        )

    @pytest.mark.parametrize("size", [7, 8, 9])
    def test_boundary_sizes_bit_identical(self, size):
        from repro.audit.reference import reference_best_alternative

        instance = self._scan_instance(size)
        pairs = compute_valid_pairs(instance)
        assignment = Assignment(instance, pairs, allow_overflow=True)
        for member in range(1, size + 1):
            assignment.assign(member, 0)
        dynamics = _classifier(instance, pairs, assignment)
        vector_task, vector_utility = _response(dynamics, 0)
        ref_task, ref_utility = reference_best_alternative(
            assignment, 0, pairs.tasks_for_worker[0]
        )
        assert vector_task == ref_task == 0
        assert repr(float(vector_utility)) == repr(float(ref_utility))


class TestOverflowMemoSoundness:
    """Kernel passes peel stale overflow joins in lockstep and memoize
    every deferred join per slot. Every memo entry still at its task's
    current version must be exactly the gain the scalar oracle
    ``reference_join_gain`` computes now, and the solve must still reach
    a Nash equilibrium."""

    @staticmethod
    def _instances():
        from repro.audit.fuzzer import _kernel_boundary_instance

        yield "contended_60x12", make_dense_instance(60, 12, seed=3)
        for shape in ("peelcliff", "tiedpeel"):
            for seed in range(3):
                yield f"{shape}_{seed}", _kernel_boundary_instance(
                    shape, np.random.default_rng(seed)
                )

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize(
        "options", [{}, {"epsilon": 0.01, "lazy_update": True}], ids=["GT", "GT+ALL"]
    )
    def test_current_memo_entries_equal_fresh_join_gains(
        self, monkeypatch, backend, options
    ):
        from repro.audit.differential import _with_backend
        from repro.core import game

        engines = []

        class Recording(game._BestResponseDynamics):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                engines.append(self)

        monkeypatch.setattr(game, "_BestResponseDynamics", Recording)
        checked = 0
        for name, base in self._instances():
            instance, cleanup = _with_backend(base, backend)
            try:
                pairs = compute_valid_pairs(instance)
                result = solve_game_theoretic(instance, pairs, **options)
                engine = engines[-1]
                cache = engine.cache
                owners = np.repeat(
                    np.arange(instance.worker_count), np.diff(engine._vp_indptr)
                )
                versions = np.asarray(cache.versions)[engine._vp_tasks]
                for slot in np.flatnonzero(engine._memo_versions == versions):
                    worker, task = int(owners[slot]), int(engine._vp_tasks[slot])
                    gain = float(engine._memo_gains[slot])
                    fresh = reference_join_gain(cache, worker, task)
                    assert repr(gain) == repr(fresh), (name, worker, task)
                    checked += 1
                assert verify_nash_equilibrium(result.equilibrium, pairs) == [], name
            finally:
                if cleanup is not None:
                    cleanup()
        assert checked


class TestRestrictedPrepass:
    """Rounds restricted to a player list (the sharded halo passes)
    classify the player rows in one batched pass and re-score only stale
    player rows still ahead; non-players never reach the kernel."""

    @staticmethod
    def _dynamics(instance):
        from repro.core.game import DEFAULT_TOLERANCE, _BestResponseDynamics

        pairs = compute_valid_pairs(instance)
        assignment = Assignment(instance, pairs, allow_overflow=True)
        assignment.assign_pairs(solve_tpg(instance, pairs).to_pairs())
        return _BestResponseDynamics(
            instance, pairs, assignment, DEFAULT_TOLERANCE, lazy_update=False
        )

    @staticmethod
    def _players(count):
        # Half the workers, in a seeded permuted order (one that moves).
        return np.random.default_rng(6).permutation(count)[: count // 2].tolist()

    def test_only_player_rows_reach_the_kernel(self, monkeypatch):
        from repro.core import game

        scored: list[int] = []
        kernel = game.score_candidates

        def recording(reads, vp_indptr, *args, positions=None, **kwargs):
            # Each scored slot's worker, from its position in its task.
            scored.extend(reads.worker_ids(positions).tolist())
            return kernel(reads, vp_indptr, *args, positions=positions, **kwargs)

        monkeypatch.setattr(game, "score_candidates", recording)
        instance = make_dense_instance(60, 12, seed=3)
        dynamics = self._dynamics(instance)
        players = self._players(instance.worker_count)
        moves = sum(dynamics.run_round(players=players)[0] for _ in range(3))
        assert moves > 0
        assert dynamics.stats.rescan_batches > 0  # mid-round refreshes ran
        assert scored and set(scored) <= set(players)

    @staticmethod
    def _thin_instance():
        # ~4 candidates per worker: refreshes score a few of 60 tasks.
        return generate_instance(
            200, 60, capacity=4, speed_range=(0.2, 0.5),
            radius_range=(0.1, 0.2), remaining_time=3.0, seed=4,
        )

    @pytest.mark.parametrize("backend", ["dense", "sparse", "shared"])
    @pytest.mark.parametrize("shape", ["contended", "thin"])
    def test_played_rows_equal_the_reference_scan(self, backend, shape):
        from repro.audit.differential import _with_backend
        from repro.audit.reference import reference_utilities

        if shape == "thin":
            base = self._thin_instance()
        else:
            base = make_dense_instance(60, 12, seed=3)
        instance, cleanup = _with_backend(base, backend)
        try:
            dynamics = self._dynamics(instance)
            assignment = dynamics.assignment
            pairs = dynamics.valid_pairs
            indptr = dynamics._vp_indptr
            checked = []
            account = dynamics._account

            def checking(workers, repeats):
                # Every play reads its row as classified: each slot's
                # utility must be the scalar scan's at the time of play.
                for worker in workers.tolist():
                    utilities = dynamics._values[indptr[worker] : indptr[worker + 1]]
                    tasks = pairs.tasks_for_worker[worker]
                    expected = reference_utilities(assignment, worker, tasks)
                    assert [repr(float(u)) for u in utilities] == [
                        repr(float(e)) for e in expected
                    ], (backend, worker)
                    checked.append(worker)
                account(workers, repeats)

            dynamics._account = checking
            players = self._players(instance.worker_count)
            moves = sum(dynamics.run_round(players=players)[0] for _ in range(3))
            assert moves > 0 and dynamics.stats.rescan_rows > 0
            assert set(checked) <= set(players) and len(checked) >= len(players)
        finally:
            if cleanup is not None:
                cleanup()

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_scripted_restricted_orders_keep_the_golden_moves(self, backend):
        # Counters may move with the batched pass; moves, gains, scores
        # and the final assignment may not.
        import json

        from tests.test_golden import (
            GOLDEN_PATH, _on_backend, _scripted_case, _scripted_orders,
        )

        instance = make_dense_instance(60, 12, seed=3)
        orders = _scripted_orders(instance.worker_count)["restricted_rounds"]
        record = json.loads(GOLDEN_PATH.read_text())[
            f"scripted/restricted_rounds/{backend}"
        ]
        case = _on_backend(
            instance, backend, lambda variant: _scripted_case(variant, orders)
        )
        assert [list(pair) for pair in case["pairs"]] == record["pairs"]
        assert case["score"] == record["score"]
        assert [list(step) for step in case["trace"]] == record["trace"]
        assert any(moves for moves, _, _ in record["trace"])


class TestRoundParity:
    """Bulk ``run_round`` against the per-worker oracle
    (:func:`repro.audit.reference.reference_round`), repr-exactly: each
    round's moves and gain, the final pairs and score, and the scan
    counters the oracle derives play by play."""

    @staticmethod
    def _instance(name):
        from repro.audit.fuzzer import _kernel_boundary_instance, _uniform_quality
        from repro.core.model import Instance, Task, Worker
        from repro.spatial.geometry import Point

        if name == "contended":
            return make_dense_instance(60, 12, seed=3)
        if name == "ties":
            # Uniform quality on colocated tasks: equally full tasks tie
            # exactly, so the first-best tie-break decides every move.
            origin = Point(0.5, 0.5)
            return Instance(
                workers=[
                    Worker(worker_id=i, location=origin, speed=1.0, radius=1.0)
                    for i in range(12)
                ],
                tasks=[
                    Task(task_id=j, location=origin, capacity=3, deadline=5.0)
                    for j in range(4)
                ],
                quality=_uniform_quality(12, 0.5),
                min_group_size=2,
            )
        return _kernel_boundary_instance(name, np.random.default_rng(1))

    @staticmethod
    def _start(name, instance, pairs):
        """The TPG seed, or for ``ties`` a seeded random profile."""
        assignment = Assignment(instance, pairs, allow_overflow=True)
        if name == "ties":
            rng = np.random.default_rng(2)
            assignment.assign_pairs(
                (worker, int(rng.integers(4))) for worker in range(12)
            )
        else:
            assignment.assign_pairs(solve_tpg(instance, pairs).to_pairs())
        return assignment

    @staticmethod
    def _orders(kind, count, rounds):
        """Per round: the player list (``None`` plays everyone) and the
        order the oracle plays."""
        if kind == "sequential":
            return [(None, list(range(count)))] * rounds
        if kind == "shuffled":
            rng = np.random.default_rng(11)
            return [(None, rng.permutation(count).tolist()) for _ in range(rounds)]
        orders = []
        for round_index in range(rounds):
            players = np.random.default_rng(round_index).permutation(count)
            players = players[: max(count * 2 // 3, 1)].tolist()
            players.insert(len(players) // 2, players[0])  # one repeated id
            orders.append((players, players))
        return orders

    @pytest.mark.parametrize("backend", ["dense", "sparse", "shared"])
    @pytest.mark.parametrize("kind", ["sequential", "shuffled", "restricted"])
    @pytest.mark.parametrize("lazy_update", [False, True], ids=["GT", "GT+ALL"])
    @pytest.mark.parametrize(
        "name", ["contended", "peelcliff", "tiedpeel", "group8", "ties"]
    )
    def test_rounds_match_the_reference_loop(self, backend, kind, lazy_update, name):
        from repro.audit.differential import _with_backend
        from repro.audit.reference import reference_round
        from repro.core.game import DEFAULT_TOLERANCE, _BestResponseDynamics
        from repro.core.stats import SolverStats

        instance, cleanup = _with_backend(self._instance(name), backend)
        try:
            pairs = compute_valid_pairs(instance)
            bulk = self._start(name, instance, pairs)
            scalar = bulk.copy()
            dynamics = _BestResponseDynamics(
                instance, pairs, bulk, DEFAULT_TOLERANCE, lazy_update
            )
            orders = self._orders(kind, instance.worker_count, rounds=4)
            if kind == "shuffled":
                dynamics.order_rng = np.random.default_rng(11)
            state, stats = {}, SolverStats()
            for players, order in orders:
                moves, gain = dynamics.run_round(players)
                expected = reference_round(
                    scalar, pairs, order, DEFAULT_TOLERANCE, lazy_update,
                    state=state, stats=stats,
                )
                assert (moves, repr(gain)) == (expected[0], repr(expected[1]))
            assert bulk.to_pairs() == scalar.to_pairs()
            assert repr(bulk.total_score()) == repr(scalar.total_score())
            counters = (
                "cache_hits", "cache_misses", "gain_evaluations", "lub_invalidations"
            )
            assert [getattr(dynamics.stats, c) for c in counters] == [
                getattr(stats, c) for c in counters
            ]
            assert dynamics._dirty.tolist() == state["dirty"].tolist()
        finally:
            if cleanup is not None:
                cleanup()

    def test_contended_rounds_move(self):
        # The parity above is only a guard if the bulk loop meets movers
        # mid-round and re-scores rows they staled.
        from repro.core.game import DEFAULT_TOLERANCE, _BestResponseDynamics

        instance = self._instance("contended")
        pairs = compute_valid_pairs(instance)
        assignment = Assignment(instance, pairs, allow_overflow=True)
        assignment.assign_pairs(solve_tpg(instance, pairs).to_pairs())
        dynamics = _BestResponseDynamics(
            instance, pairs, assignment, DEFAULT_TOLERANCE, lazy_update=False
        )
        assert dynamics.run_round()[0] > 1
        assert dynamics.stats.rescan_rows > 0
