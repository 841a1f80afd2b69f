"""Tests for the SolverStats observability layer.

Covers the dataclass mechanics (merge, ratios, serialization) and the
end-to-end wiring: the GT/TPG solvers attach populated stats to their
results, the approach factories accumulate a ``stats_log``, and the
experiment runner merges per-batch stats into the outcome.
"""

import pytest

from repro.core.game import solve_game_theoretic
from repro.core.stats import RoundStats, SolverStats
from repro.core.tpg import solve_tpg_with_stats
from repro.core.validity import compute_valid_pairs
from repro.experiments.config import make_solver

from tests.conftest import make_dense_instance


class TestSolverStatsDataclass:
    def test_merge_accumulates_counters(self):
        first = SolverStats(
            solver="GT",
            revenue_evaluations=3,
            gain_evaluations=10,
            cache_hits=2,
            cache_misses=8,
            total_seconds=0.5,
            phase_seconds={"init": 0.1},
            rounds=[RoundStats(index=0, seconds=0.2)],
        )
        second = SolverStats(
            solver="GT",
            revenue_evaluations=1,
            gain_evaluations=5,
            cache_hits=3,
            cache_misses=2,
            total_seconds=0.25,
            phase_seconds={"init": 0.05, "rounds": 0.2},
        )
        first.merge(second)
        assert first.revenue_evaluations == 4
        assert first.gain_evaluations == 15
        assert first.cache_hits == 5
        assert first.total_seconds == pytest.approx(0.75)
        assert first.phase_seconds["init"] == pytest.approx(0.15)
        assert first.phase_seconds["rounds"] == pytest.approx(0.2)
        assert len(first.rounds) == 1
        assert first.runs == 2

    def test_merged_classmethod(self):
        runs = [SolverStats(solver="TPG", gain_evaluations=i) for i in (1, 2, 3)]
        total = SolverStats.merged(runs)
        assert total is not None
        assert total.gain_evaluations == 6
        assert total.runs == 3
        assert SolverStats.merged([]) is None

    def test_cache_hit_ratio(self):
        stats = SolverStats(cache_hits=3, cache_misses=1)
        assert stats.cache_hit_ratio == pytest.approx(0.75)
        assert SolverStats().cache_hit_ratio == 0.0

    def test_to_dict_round_trips_fields(self):
        stats = SolverStats(
            solver="GT",
            gain_evaluations=7,
            rounds=[RoundStats(index=0, seconds=0.1, moves=2, gain=1.5)],
        )
        payload = stats.to_dict()
        assert payload["solver"] == "GT"
        assert payload["gain_evaluations"] == 7
        assert payload["rounds"][0]["moves"] == 2

    def test_from_dict_ignores_dropped_fields(self):
        # A record journaled before the compiled-kernel counters were
        # dropped still loads; the stale keys are ignored.
        payload = SolverStats(solver="GT", kernel_fallback_calls=4).to_dict()
        payload["kernel_compiled_calls"] = 2
        payload["kernel_compile_seconds"] = 0.25
        restored = SolverStats.from_dict(payload)
        assert restored.kernel_fallback_calls == 4
        assert restored.kernel_compiled_calls == 0
        assert restored.to_dict() == SolverStats.from_dict(
            restored.to_dict()
        ).to_dict()
        assert "kernel_compile_seconds" not in restored.to_dict()

    def test_summary_is_one_line(self):
        stats = SolverStats(solver="GT", gain_evaluations=12, total_seconds=0.1)
        line = stats.summary()
        assert "\n" not in line
        assert "evals=12" in line


class TestSolverInstrumentation:
    def test_gt_result_carries_populated_stats(self):
        instance = make_dense_instance(40, 8, seed=5)
        pairs = compute_valid_pairs(instance)
        result = solve_game_theoretic(instance, pairs)
        stats = result.stats
        assert stats is not None
        assert stats.solver == "GT"
        assert stats.gain_evaluations > 0
        assert stats.incremental_updates > 0
        assert len(stats.rounds) == result.rounds
        assert stats.total_seconds > 0.0
        assert "init" in stats.phase_seconds
        assert "rounds" in stats.phase_seconds
        # Round gains reconcile with the score history.
        total_gain = sum(r.gain for r in stats.rounds)
        assert total_gain == pytest.approx(
            result.final_score - result.initial_score, abs=1e-9
        )

    def test_lub_run_records_cache_hits(self):
        instance = make_dense_instance(40, 8, seed=6)
        pairs = compute_valid_pairs(instance)
        result = solve_game_theoretic(instance, pairs, lazy_update=True)
        stats = result.stats
        assert stats is not None
        assert stats.cache_hits > 0
        assert 0.0 < stats.cache_hit_ratio <= 1.0

    def test_tpg_stats_phases(self):
        instance = make_dense_instance(40, 8, seed=7)
        pairs = compute_valid_pairs(instance)
        result = solve_tpg_with_stats(instance, pairs)
        stats = result.stats
        assert stats is not None
        assert stats.solver == "TPG"
        assert "stage1" in stats.phase_seconds
        assert "stage2" in stats.phase_seconds
        assert stats.incremental_updates > 0

    def test_factory_solver_accumulates_stats_log(self):
        instance = make_dense_instance(30, 6, seed=8)
        pairs = compute_valid_pairs(instance)
        solver = make_solver("GT+ALL")
        solver(instance, pairs)
        solver(instance, pairs)
        log = solver.stats_log
        assert len(log) == 2
        assert all(entry.solver == "GT+ALL" for entry in log)
        merged = SolverStats.merged(log)
        assert merged.runs == 2
        assert merged.gain_evaluations == sum(e.gain_evaluations for e in log)

    def test_baseline_solvers_have_no_stats_log(self):
        solver = make_solver("RAND")
        assert not hasattr(solver, "stats_log")


class TestRunnerIntegration:
    def test_outcome_carries_merged_stats(self):
        from repro.experiments.config import ExperimentSettings
        from repro.experiments.runner import build_population, run_approaches

        settings = ExperimentSettings(
            rounds=2,
            workers_per_round=60,
            tasks_per_round=12,
            remaining_time=5.0,
            speed_range=(0.1, 0.2),
            radius_range=(0.3, 0.5),
            dataset="unif",
        )
        population = build_population(settings, seed=0)
        point = run_approaches(
            population, settings, approaches=("TPG", "GT+ALL"), seed=0
        )
        for name in ("TPG", "GT+ALL"):
            outcome = point.outcomes[name]
            assert outcome.stats is not None
            assert outcome.stats.solver == name
            assert outcome.stats.runs == settings.rounds
            assert outcome.stats.gain_evaluations > 0


class TestMergeRunsRegression:
    def test_merging_multi_run_aggregate_counts_all_runs(self):
        # Regression: ``merge`` used to add ``other.runs - 1``, so an
        # incoming aggregate of 3 runs contributed only 2 — merging
        # {runs: 3} into {runs: 1} yielded 3 instead of 4.
        target = SolverStats(solver="GT", runs=1)
        aggregate = SolverStats(solver="GT", runs=3)
        target.merge(aggregate)
        assert target.runs == 4

    def test_merged_of_aggregates_sums_runs(self):
        parts = [
            SolverStats(solver="TPG", runs=2, gain_evaluations=5),
            SolverStats(solver="TPG", runs=3, gain_evaluations=7),
        ]
        total = SolverStats.merged(parts)
        assert total.runs == 5
        assert total.gain_evaluations == 12

    def test_chained_merges_stay_consistent(self):
        # runs must behave like every other counter under re-merging:
        # merged(merged(a, b), c) == merged(a, b, c).
        a = SolverStats(solver="GT", runs=1)
        b = SolverStats(solver="GT", runs=1)
        c = SolverStats(solver="GT", runs=1)
        nested = SolverStats.merged([SolverStats.merged([a, b]), c])
        flat = SolverStats.merged([a, b, c])
        assert nested.runs == flat.runs == 3
