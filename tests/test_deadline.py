"""Budgets as deadlines the solvers check (``repro.utils.deadline``).

The deadline is patched to expire after ``k`` checks
(:func:`tests.conftest.patch_expiry`), so every stop point is
deterministic. Over a range of ``k`` and both store kinds, each
budgeted GT, GT+ALL, TPG, LSEARCH and PGREEDY answer is feasible and
audits clean, no thread is started, a GT stopped in its rounds scores
at least its TPG start, and the random floor answers whenever the
primary stopped before its first commit.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.fallback import FallbackSolver
from repro.core.game import solve_game_theoretic
from repro.core.sharding.solver import solve_sharded
from repro.core.tpg import solve_tpg
from repro.core.validity import compute_valid_pairs
from repro.datasets.synthetic import generate_instance
from repro.experiments.config import make_solver
from repro.utils.deadline import Deadline, current_deadline, deadline
from tests.conftest import count_checks, patch_expiry

APPROACHES = ("GT", "GT+ALL", "TPG", "LSEARCH", "PGREEDY")


@pytest.fixture(scope="module", params=("dense", "sparse"))
def batch(request):
    instance = generate_instance(
        70, 14, capacity=4, remaining_time=5.0, speed_range=(0.1, 0.2),
        radius_range=(0.3, 0.5), seed=8, quality_backend=request.param,
    )
    return instance, compute_valid_pairs(instance)


@pytest.mark.parametrize("approach", APPROACHES)
def test_stopped_solves_are_feasible_and_threadless(batch, approach):
    instance, pairs = batch
    total = count_checks(make_solver(approach, seed=0), instance, pairs)
    assert total > instance.task_count
    tpg_score = solve_tpg(instance, pairs).total_score()
    full = make_solver(approach, seed=0)(instance, pairs).total_score()
    stops = np.linspace(0, total, 14).astype(int).tolist()
    stops += [instance.task_count - 1, instance.task_count, instance.task_count + 1]
    rounds_scores = []
    for after in sorted(set(stops)):
        chain = FallbackSolver(
            make_solver(approach, seed=0), budget=60.0, label=approach, seed=0
        )
        threads = threading.active_count()
        with patch_expiry(after=after):
            answer = chain(instance, pairs)
        assert threading.active_count() == threads
        answer.check_feasible()
        assert answer.audit() == []
        record = chain.degradation_log[-1]
        assert bool(record.stopped_at) == (after < total), (after, total)
        if not record.stopped_at:
            assert answer.total_score() == full
            continue
        if record.stopped_at.endswith(" commit=0"):
            assert record.answered_by == "RAND"
        if record.stopped_at.startswith("GT "):
            # Theorem V.1: the moves before the stop only raised the
            # potential above the completed TPG start.
            assert record.answered_by == approach
            assert answer.total_score() >= tpg_score - 1e-9
            rounds_scores.append(answer.total_score())
    # Later stops keep more moves, and each move raises the score.
    assert all(b >= a - 1e-9 for a, b in zip(rounds_scores, rounds_scores[1:]))


def test_stopped_gt_scores_at_least_its_start(batch):
    """Also when TPG was stopped too: the start is then TPG's partial
    state, and the moves after it only raise the score."""
    instance, pairs = batch

    def gt(inst, valid_pairs):
        return solve_game_theoretic(inst, valid_pairs, lazy_update=True).assignment

    for after in range(0, count_checks(gt, instance, pairs), 4):
        with deadline(60.0), patch_expiry(after=after):
            result = solve_game_theoretic(instance, pairs, lazy_update=True)
        assert not result.converged
        assert result.assignment.total_score() >= result.initial_score - 1e-9
        result.assignment.check_feasible()


def test_no_deadline_outside_a_budget():
    assert current_deadline() is None
    with deadline(5.0) as outer:
        assert current_deadline() is outer
        with deadline(1.0) as inner:
            assert current_deadline() is inner
        assert current_deadline() is outer
    assert current_deadline() is None


def test_first_stop_point_wins():
    clock = Deadline(-1.0)
    assert clock.passed("TPG:stage1", commit=3)
    assert clock.passed("GT", round=0, move=0)
    assert clock.stopped_at == "TPG:stage1 commit=3"
    assert not Deadline(60.0).passed("GT", round=0, move=0)


def test_shard_failover_goes_through_the_deadline(monkeypatch):
    """A failed shard is re-solved inline under ``shard_timeout``; a
    deadline that passes mid-failover still leaves a feasible merge."""
    from repro.core.sharding import solver as sharded_solver

    instance = generate_instance(
        160, 32, capacity=4, remaining_time=5.0, speed_range=(0.1, 0.2),
        radius_range=(0.3, 0.5), seed=2,
    )
    pairs = compute_valid_pairs(instance)
    real = sharded_solver._solve_shard_payload
    seen = []

    def raise_first(payload, submitted_at):
        seen.append(current_deadline())
        if len(seen) == 1:
            raise RuntimeError("injected shard failure")
        return real(payload, submitted_at)

    monkeypatch.setattr(sharded_solver, "_solve_shard_payload", raise_first)
    threads = threading.active_count()
    with patch_expiry(after=instance.task_count // 4):
        result = solve_sharded(
            instance, pairs, approach="GT", shards=4, n_jobs=1,
            shard_timeout=30.0,
        )
    assert threading.active_count() == threads
    assert seen and all(clock is None for clock in seen)
    assert result.stats.shard_failovers == 1
    result.assignment.check_feasible()
    assert result.assignment.audit() == []
