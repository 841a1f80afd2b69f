"""Cross-cutting invariants over random instances.

These tie the whole pipeline together: every solver's output obeys the
analytic bounds, the solver hierarchy holds, and structural monotonicity
properties of the bound and validity layers are preserved.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import upper_bound
from repro.core.game import solve_game_theoretic
from repro.core.model import Instance
from repro.core.tpg import solve_tpg
from repro.core.validity import compute_valid_pairs
from repro.datasets.synthetic import generate_instance
from repro.experiments.config import DEFAULT_APPROACH_ORDER, make_solver


def sparse_instance(seed):
    return generate_instance(
        60,
        12,
        speed_range=(0.02, 0.1),
        radius_range=(0.1, 0.3),
        seed=seed,
    )


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_every_approach_below_upper_bound(seed):
    instance = sparse_instance(seed)
    pairs = compute_valid_pairs(instance)
    bound = upper_bound(instance, pairs).value
    for name in DEFAULT_APPROACH_ORDER:
        assignment = make_solver(name, seed=seed)(instance, pairs)
        assignment.check_feasible()
        assert assignment.total_score() <= bound + 1e-9


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_gt_dominates_tpg_on_sparse_instances(seed):
    instance = sparse_instance(seed)
    pairs = compute_valid_pairs(instance)
    tpg = solve_tpg(instance, pairs).total_score()
    gt = solve_game_theoretic(instance, pairs).final_score
    assert gt >= tpg - 1e-9


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_upper_bound_monotone_in_workers(seed):
    """Adding workers to an instance can only raise UPPER: both sides of
    Equation 9 are monotone in the worker pool."""
    full = generate_instance(
        30, 6, speed_range=(0.1, 0.4), radius_range=(0.2, 0.5), seed=seed
    )
    keep = list(range(20))
    reduced = Instance(
        workers=[full.workers[i] for i in keep],
        tasks=full.tasks,
        quality=full.quality.restricted_to(keep),
        min_group_size=full.min_group_size,
        now=full.now,
    )
    # The reduced instance's q_hat values can only be <= the full ones
    # (fewer partners to pick the top B-1 from), and each task sees a
    # subset of candidates.
    assert (
        upper_bound(reduced).value <= upper_bound(full).value + 1e-9
    )


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_valid_pairs_monotone_in_deadline(seed):
    """Extending every deadline can only add valid pairs."""
    tight = generate_instance(40, 8, remaining_time=1.0, seed=seed)
    loose = Instance(
        workers=tight.workers,
        tasks=[
            type(task)(
                task_id=task.task_id,
                location=task.location,
                capacity=task.capacity,
                deadline=task.deadline + 5.0,
                created_time=task.created_time,
            )
            for task in tight.tasks
        ],
        quality=tight.quality,
        min_group_size=tight.min_group_size,
        now=tight.now,
    )
    tight_pairs = compute_valid_pairs(tight)
    loose_pairs = compute_valid_pairs(loose)
    for worker in range(tight.worker_count):
        assert set(tight_pairs.tasks_for_worker[worker]) <= set(
            loose_pairs.tasks_for_worker[worker]
        )


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10**6))
def test_score_invariant_under_worker_relabeling(seed):
    """Permuting worker identities permutes the assignment but not the
    achievable score (TPG is deterministic given the index order, so we
    compare against the score of the permuted-back assignment)."""
    instance = generate_instance(
        25, 5, speed_range=(0.1, 0.4), radius_range=(0.3, 0.6), seed=seed
    )
    rng = np.random.default_rng(seed)
    permutation = rng.permutation(instance.worker_count)
    permuted = Instance(
        workers=[instance.workers[i] for i in permutation],
        tasks=instance.tasks,
        quality=instance.quality.restricted_to(permutation),
        min_group_size=instance.min_group_size,
        now=instance.now,
    )
    original_pairs = compute_valid_pairs(instance)
    permuted_pairs = compute_valid_pairs(permuted)
    # Validity structure must be the permutation image of the original.
    for new_index, old_index in enumerate(permutation):
        assert permuted_pairs.tasks_for_worker[new_index] == (
            original_pairs.tasks_for_worker[old_index]
        )
    # Relabeling changes the best-response visit order, which can settle
    # in a *different* Nash equilibrium of the potential game, so the
    # two scores need not be close (observed gaps at this tiny scale
    # reach ~27%). A score tolerance wide enough to cover equilibrium
    # spread asserts nothing, so instead verify each side against the
    # oracles directly: both solves reach a genuine pure Nash
    # equilibrium, both scores survive a from-scratch recompute, and the
    # permuted equilibrium pulled back through the permutation is a
    # feasible equilibrium of the *original* game with the same score.
    from repro.core.assignment import Assignment
    from repro.audit.reference import verify_nash_equilibrium

    original = solve_game_theoretic(instance, original_pairs)
    permuted_result = solve_game_theoretic(permuted, permuted_pairs)
    for result, pairs in (
        (original, original_pairs),
        (permuted_result, permuted_pairs),
    ):
        assert result.converged
        assert result.assignment.recompute_total() == pytest.approx(
            result.final_score, abs=1e-9
        )
        assert verify_nash_equilibrium(result.equilibrium, pairs) == []

    pullback = Assignment(instance, original_pairs)
    pullback.allow_overflow = True
    for new_index, task in permuted_result.equilibrium.to_pairs():
        pullback.assign(int(permutation[new_index]), task)
    # Pair sums are permutation-invariant up to summation order.
    assert pullback.recompute_total() == pytest.approx(
        permuted_result.equilibrium.recompute_total(), abs=1e-9
    )
    # The pulled-back profile is an equilibrium of the original game:
    # the permuted score is genuinely *reachable* there, which is the
    # invariant the old rel=0.35 score comparison tried to approximate
    # (and could only assert up to an arbitrary spread guess).
    assert verify_nash_equilibrium(pullback, original_pairs) == []
