"""Tests for the robustness layer: fault injection, group repair, and
the anytime solver fallback chain.

The contracts under test:

* fault injection is a pure function of the seed — same seed, same
  :class:`~repro.simulation.faults.FaultEvent` stream;
* a disabled fault model leaves every per-round score bit-identical to
  the historical fault-free path;
* group repair only produces Definition-3-valid, capacity-respecting
  assignments, and the retry-then-abandon policy is bounded;
* a budgeted solve stops at its deadline with a feasible answer — the
  primary's state so far, or the random floor when it raised or had
  assigned nothing — starts no thread, and with no budget it is
  bit-identical to the unwrapped solver.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.fallback import DegradationRecord, FallbackSolver
from repro.core.game import solve_game_theoretic
from repro.core.tpg import solve_tpg
from repro.core.validity import compute_valid_pairs
from repro.datasets.synthetic import generate_instance
from repro.simulation.batch import BatchConfig, BatchSimulator
from repro.simulation.faults import FaultInjector, FaultModel
from repro.simulation.population import Population
from repro.utils.errors import DegradedResultError, ReproError
from tests.conftest import count_checks, patch_expiry


def tpg_solver(instance, valid_pairs):
    return solve_tpg(instance, valid_pairs)


@pytest.fixture(scope="module")
def population() -> Population:
    return Population.synthetic(150, 60, seed=5)


def quick_config(**overrides) -> BatchConfig:
    defaults = dict(
        rounds=4,
        workers_per_round=60,
        tasks_per_round=15,
        capacity=4,
        min_group_size=3,
        remaining_time=3.0,
        speed_range=(0.05, 0.2),
        radius_range=(0.2, 0.4),
    )
    defaults.update(overrides)
    return BatchConfig(**defaults)


FAULTY = FaultModel(
    no_show_rate=0.25,
    dropout_rate=0.15,
    cancellation_rate=0.1,
    location_noise_sigma=0.02,
)


class TestFaultModel:
    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            FaultModel(no_show_rate=1.5)
        with pytest.raises(ValueError):
            FaultModel(dropout_rate=-0.1)
        with pytest.raises(ValueError):
            FaultModel(cancellation_rate=2.0)
        with pytest.raises(ValueError):
            FaultModel(location_noise_sigma=-0.01)
        with pytest.raises(ValueError):
            FaultModel(dropout_release=0.0)
        with pytest.raises(ValueError):
            FaultModel(max_task_retries=-1)

    def test_enabled_property(self):
        assert not FaultModel().enabled
        assert not FaultModel(repair=False, max_task_retries=0).enabled
        assert FaultModel(no_show_rate=0.1).enabled
        assert FaultModel(location_noise_sigma=0.01).enabled


class TestBatchConfigValidation:
    def test_rejects_nonpositive_durations(self):
        with pytest.raises(ValueError):
            quick_config(task_duration=0.0)
        with pytest.raises(ValueError):
            quick_config(task_duration=-1.0)
        with pytest.raises(ValueError):
            quick_config(batch_interval=0.0)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            quick_config(speed_range=(0.0, 0.1))
        with pytest.raises(ValueError):
            quick_config(speed_range=(0.2, 0.1))
        with pytest.raises(ValueError):
            quick_config(radius_range=(-0.1, 0.2))
        with pytest.raises(ValueError):
            quick_config(radius_range=(0.4, 0.2))


class TestFaultDeterminism:
    def test_same_seed_same_event_stream(self, population):
        config = quick_config(faults=FAULTY)
        reports = [
            BatchSimulator(population, config, tpg_solver, seed=9).run()
            for _ in range(2)
        ]
        assert reports[0].fault_events == reports[1].fault_events
        assert reports[0].fault_events  # the rates above actually fire
        assert [r.score for r in reports[0].rounds] == [
            r.score for r in reports[1].rounds
        ]

    def test_different_seed_different_stream(self, population):
        config = quick_config(faults=FAULTY)
        a = BatchSimulator(population, config, tpg_solver, seed=9).run()
        b = BatchSimulator(population, config, tpg_solver, seed=10).run()
        assert a.fault_events != b.fault_events

    def test_disabled_model_is_bit_identical_to_no_model(self, population):
        baseline = BatchSimulator(
            population, quick_config(), tpg_solver, seed=9
        ).run()
        disabled = BatchSimulator(
            population, quick_config(faults=FaultModel()), tpg_solver, seed=9
        ).run()
        assert [repr(r.score) for r in disabled.rounds] == [
            repr(r.score) for r in baseline.rounds
        ]
        assert not disabled.fault_events

    def test_injector_draws_nothing_for_zero_rates(self):
        injector = FaultInjector(FaultModel(), rounds=3, seed=0)
        assert not injector.no_shows(0, 10).any()
        assert not injector.dropouts(0, 10).any()
        cancelled, events = injector.cancellations(0, [1, 2, 3])
        assert not cancelled and not events


class TestFaultEffects:
    def test_faulty_run_scores_at_most_clean_run(self, population):
        """No-shows and dissolutions can only remove committed revenue."""
        clean = BatchSimulator(
            population, quick_config(), tpg_solver, seed=9
        ).run()
        faulty = BatchSimulator(
            population,
            quick_config(faults=FaultModel(no_show_rate=0.5, repair=False)),
            tpg_solver,
            seed=9,
        ).run()
        assert faulty.total_score <= clean.total_score
        assert faulty.total_dissolved_groups > 0

    def test_repair_backfill_keeps_assignment_feasible(self, population):
        """Backfill goes through Assignment.assign, which enforces
        Definition 3 validity and capacity — here we pin that the repair
        pass actually exercises it without tripping feasibility."""
        model = FaultModel(no_show_rate=0.35, repair=True)
        config = quick_config(faults=model, workers_per_round=80)

        checked = []
        original = tpg_solver

        def checking_solver(instance, valid_pairs):
            assignment = original(instance, valid_pairs)
            checked.append(assignment)
            return assignment

        report = BatchSimulator(
            population, config, checking_solver, seed=3
        ).run()
        # Post-dispatch assignments (after no-shows + repair) stay feasible:
        # the simulator's own check_feasible ran, and each surviving group
        # reported in completed_tasks met the minimum size.
        for assignment in checked:
            assignment.check_feasible()
        kinds = report.fault_counts
        assert kinds.get("no_show", 0) > 0
        assert (
            report.total_repaired_groups + report.total_dissolved_groups > 0
        )
        if report.total_repaired_groups:
            assert kinds.get("backfill", 0) > 0

    def test_retry_is_bounded_by_max_task_retries(self, population):
        """With repair off and certain no-shows, every group dissolves and
        every task is abandoned after its bounded retries."""
        model = FaultModel(no_show_rate=1.0, repair=False, max_task_retries=0)
        config = quick_config(faults=model)
        report = BatchSimulator(population, config, tpg_solver, seed=3).run()
        kinds = report.fault_counts
        assert kinds.get("dissolve", 0) > 0
        # retries exhausted immediately -> every dissolve abandons its task
        assert kinds.get("abandon", 0) == kinds.get("dissolve", 0)
        assert report.total_completed_tasks == 0

    def test_round_trip_through_jsonl(self, population, tmp_path):
        from repro.simulation.metrics import read_jsonl, write_jsonl

        config = quick_config(faults=FAULTY)
        report = BatchSimulator(population, config, tpg_solver, seed=9).run()
        path = tmp_path / "rounds.jsonl"
        write_jsonl(report, path)
        restored = read_jsonl(path)
        assert repr(restored.rounds) == repr(report.rounds)


def small_instance(seed=0):
    instance = generate_instance(
        worker_count=60,
        task_count=12,
        speed_range=(0.05, 0.2),
        radius_range=(0.2, 0.4),
        seed=seed,
    )
    return instance, compute_valid_pairs(instance)


def gt_solver(instance, valid_pairs):
    return solve_game_theoretic(instance, valid_pairs).assignment


#: A budget every solver's first deadline check finds passed.
TINY_BUDGET = 1e-9


class TestFallbackChain:
    def test_no_budget_is_bit_identical_to_unwrapped(self):
        instance, pairs = small_instance()
        direct = solve_game_theoretic(instance, pairs, seed=1).assignment
        wrapped = FallbackSolver(
            lambda i, p: solve_game_theoretic(i, p, seed=1).assignment,
            label="GT",
        )
        via_chain = wrapped(instance, pairs)
        assert repr(sorted(via_chain.to_pairs())) == repr(
            sorted(direct.to_pairs())
        )
        record = wrapped.degradation_log[0]
        assert not record.degraded
        assert record.answered_by == "GT"

    def test_tiny_budget_degrades_to_floor_and_stays_feasible(self):
        """A real GT under a budget its first check finds passed stops
        before TPG's first commit, so the random floor answers, inline."""
        instance, pairs = small_instance()
        threads = threading.active_count()
        chain = FallbackSolver(gt_solver, budget=TINY_BUDGET, label="GT", seed=0)
        assignment = chain(instance, pairs)
        assert threading.active_count() == threads
        assignment.check_feasible()
        assert assignment.audit() == []
        assert assignment.assigned_worker_count() > 0
        record = chain.degradation_log[0]
        assert record.degraded
        assert record.answered_by == "RAND"
        assert record.stopped_at == "TPG:stage1 commit=0"
        assert record.summary().startswith("DEGRADED to RAND: GT stopped at")

    def test_generous_budget_answers_with_primary(self):
        instance, pairs = small_instance()
        chain = FallbackSolver(
            lambda i, p: solve_tpg(i, p), budget=60.0, label="TPG"
        )
        assignment = chain(instance, pairs)
        assignment.check_feasible()
        record = chain.degradation_log[0]
        assert not record.degraded
        assert record.answered_by == "TPG"
        assert repr(assignment.to_pairs()) == repr(
            solve_tpg(instance, pairs).to_pairs()
        )

    def test_erroring_primary_falls_to_random_floor(self):
        instance, pairs = small_instance()

        def broken(i, p):
            raise ReproError("solver exploded")

        chain = FallbackSolver(broken, budget=60.0, label="BROKEN", seed=0)
        assignment = chain(instance, pairs)
        assignment.check_feasible()
        record = chain.degradation_log[0]
        assert record.degraded
        assert record.answered_by == "RAND"
        assert record.stopped_at == ""
        assert "solver exploded" in record.reason

    def test_stopped_primary_answers_with_its_state(self):
        """A deadline passed in GT's rounds keeps GT's feasible state,
        and the record says where it stopped."""
        instance, pairs = small_instance()
        full = gt_solver(instance, pairs).total_score()
        chain = FallbackSolver(gt_solver, budget=60.0, label="GT", seed=0)
        # The last check precedes the round that finds no move.
        with patch_expiry(after=count_checks(gt_solver, instance, pairs) - 1):
            assignment = chain(instance, pairs)
        assignment.check_feasible()
        record = chain.degradation_log[0]
        assert record.degraded
        assert record.answered_by == "GT"
        assert record.stopped_at.startswith("GT round=")
        assert assignment.total_score() == pytest.approx(full)
        assert chain.stats_log[0].fallback_answers == {"GT": 1}

    def test_floor_answers_when_it_beats_a_stopped_primary(self):
        """One stage-1 group scores below RAND: RAND answers, and the
        record still says where the primary stopped."""
        instance, pairs = small_instance()
        chain = FallbackSolver(gt_solver, budget=60.0, label="GT", seed=0)
        # One check per task in stage 1's first pass, then one per commit.
        with patch_expiry(after=instance.task_count + 1):
            assignment = chain(instance, pairs)
        assignment.check_feasible()
        record = chain.degradation_log[0]
        assert record.answered_by == "RAND"
        assert record.stopped_at == "TPG:stage1 commit=1"
        assert record.summary().startswith(
            "DEGRADED to RAND: GT stopped at TPG:stage1 commit=1"
        )

    def test_on_degrade_raise(self):
        instance, pairs = small_instance()

        def broken(i, p):
            raise ReproError("nope")

        chain = FallbackSolver(
            broken, budget=60.0, label="BROKEN", on_degrade="raise"
        )
        with pytest.raises(DegradedResultError):
            chain(instance, pairs)
        # The degradation was still recorded before raising.
        assert chain.degradation_log[0].degraded

    def test_stats_log_surfaces_degradations(self):
        instance, pairs = small_instance()

        def broken(i, p):
            raise ReproError("nope")

        chain = FallbackSolver(broken, budget=60.0, label="BROKEN")
        chain(instance, pairs)
        stats = chain.stats_log[0]
        assert stats.solver == "BROKEN~anytime"
        assert stats.degraded_solves == 1
        assert stats.fallback_answers == {"RAND": 1}
        assert "degraded=1" in stats.summary()

    def test_error_taxonomy(self):
        assert issubclass(DegradedResultError, ReproError)
        with pytest.raises(ValueError):
            FallbackSolver(tpg_solver, budget=0.0)
        with pytest.raises(ValueError):
            FallbackSolver(tpg_solver, on_degrade="explode")

    def test_degradation_record_reason_empty_when_primary_answered(self):
        record = DegradationRecord(
            budget_seconds=1.0, primary="GT", answered_by="GT"
        )
        assert not record.degraded
        assert record.reason == ""
        assert "within budget" in record.summary()


class TestSimulatorWithFallback:
    def test_budgeted_simulation_always_completes(self, population):
        """Even an impossibly small per-batch budget yields a full,
        feasible simulation — the anytime guarantee end to end — and
        leaves no thread behind."""
        threads = threading.active_count()
        chain = FallbackSolver(gt_solver, budget=TINY_BUDGET, label="GT", seed=0)
        config = quick_config(rounds=2)
        report = BatchSimulator(population, config, chain, seed=3).run()
        assert threading.active_count() == threads
        assert len(report.rounds) == 2
        assert all(record.degraded for record in chain.degradation_log)
        assert all(
            record.answered_by == "RAND"
            for record in chain.degradation_log
        )
