"""Tests for the game-theoretic solver: stability (Nash), the exact
potential property (Theorem V.1), monotone convergence, and the LUB/TSI
optimizations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import UNASSIGNED, Assignment
from repro.core.game import solve_game_theoretic, verify_nash_equilibrium
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


class TestVectorizedScan:
    def test_vectorized_best_alternative_matches_reference(self):
        # The batched numpy scan must agree with the scalar reference
        # loop bit-for-bit: same best task, same utility float.
        from repro.audit.reference import reference_best_alternative
        from repro.core.game import _BestResponseDynamics
        from repro.core.tpg import solve_tpg

        instance = make_dense_instance(40, 8, capacity=4, seed=31)
        pairs = compute_valid_pairs(instance)
        assignment = Assignment(instance, pairs, allow_overflow=True)
        for worker, task in solve_tpg(instance, pairs).to_pairs():
            assignment.assign(worker, task)
        dynamics = _BestResponseDynamics(
            instance, pairs, assignment, tolerance=1e-9, lazy_update=False
        )
        for worker in range(instance.worker_count):
            current_task = assignment.task_of(worker)
            current_utility = assignment.leave_delta(worker)
            vector = dynamics._best_alternative(
                worker, current_task, current_utility
            )
            reference = reference_best_alternative(
                assignment, worker, pairs.tasks_for_worker[worker]
            )
            assert vector == reference

    def test_scan_memo_replays_identical_results(self):
        from repro.core.game import _BestResponseDynamics

        instance = make_dense_instance(30, 6, capacity=4, seed=37)
        pairs = compute_valid_pairs(instance)
        assignment = Assignment(instance, pairs, allow_overflow=True)
        dynamics = _BestResponseDynamics(
            instance, pairs, assignment, tolerance=1e-9, lazy_update=False
        )
        worker = 0
        first = dynamics._best_alternative(worker, UNASSIGNED, 0.0)
        hits_before = dynamics.stats.cache_hits
        second = dynamics._best_alternative(worker, UNASSIGNED, 0.0)
        assert second == first
        assert dynamics.stats.cache_hits == hits_before + 1
        # A membership change in a candidate task must invalidate the memo.
        task = pairs.tasks_for_worker[worker][0]
        joiner = next(
            w
            for w in pairs.workers_for_task[task]
            if w != worker and assignment.task_of(w) == UNASSIGNED
        )
        assignment.assign(joiner, task)
        misses_before = dynamics.stats.cache_misses
        dynamics._best_alternative(worker, UNASSIGNED, 0.0)
        assert dynamics.stats.cache_misses == misses_before + 1


class TestVectorGroupBoundary:
    """Regression pins for the batch/scalar boundary at sizes 7, 8, 9.

    The size-7 row qualities are adversarial: ``np.add.reduceat`` — which
    the batch path historically used for its segment sums — reorders
    their sum on current numpy (3.8759979999999996 instead of the
    sequential 3.875998), so the size-7 case fails on any revision whose
    batch reduction is not order-exact with the scalar ``join_gain``
    oracle. Sizes 8 and 9 pin the ``_VECTOR_GROUP_LIMIT`` guard: from
    eight members on, ``ndarray.sum()`` itself reorders, so those groups
    must keep going through the scalar path.
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
        from repro.core.game import _BestResponseDynamics

        instance = self._scan_instance(size)
        pairs = compute_valid_pairs(instance)
        assignment = Assignment(instance, pairs, allow_overflow=True)
        for member in range(1, size + 1):
            assignment.assign(member, 0)
        dynamics = _BestResponseDynamics(
            instance, pairs, assignment, tolerance=1e-9, lazy_update=False
        )
        vector_task, vector_utility = dynamics._best_alternative(
            0, UNASSIGNED, 0.0
        )
        ref_task, ref_utility = reference_best_alternative(
            assignment, 0, pairs.tasks_for_worker[0]
        )
        assert vector_task == ref_task == 0
        assert repr(float(vector_utility)) == repr(float(ref_utility))
