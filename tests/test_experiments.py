"""Tests for the experiment harness: approach registry, runner, figure
sweeps (scaled down) and reporting."""

import numpy as np
import pytest

from repro.experiments.config import (
    APPROACHES,
    DEFAULT_APPROACH_ORDER,
    TABLE_II,
    ExperimentSettings,
    make_solver,
)
from repro.experiments.figures import fig2_capacity, fig6_epsilon
from repro.experiments.reporting import (
    figure_to_markdown,
    format_figure,
    format_sweep_table,
)
from repro.experiments.runner import build_population, run_approaches

from tests.conftest import make_dense_instance


QUICK = ExperimentSettings(
    rounds=2,
    workers_per_round=60,
    tasks_per_round=12,
    speed_range=(0.05, 0.2),
    radius_range=(0.2, 0.4),
    dataset="unif",
)


class TestConfig:
    def test_registry_covers_paper_approaches(self):
        assert set(DEFAULT_APPROACH_ORDER) == {
            "RAND",
            "MFLOW",
            "TPG",
            "GT",
            "GT+LUB",
            "GT+TSI",
            "GT+ALL",
        }
        assert set(DEFAULT_APPROACH_ORDER) <= set(APPROACHES)

    def test_registry_covers_extension_approaches(self):
        from repro.experiments.config import EXTENSION_APPROACHES

        assert set(EXTENSION_APPROACHES) == {"WFLOW", "PGREEDY", "ONLINE", "LSEARCH"}
        assert set(EXTENSION_APPROACHES) <= set(APPROACHES)
        instance = make_dense_instance(20, 4, seed=1)
        from repro.core.validity import compute_valid_pairs

        pairs = compute_valid_pairs(instance)
        for name in EXTENSION_APPROACHES:
            make_solver(name, seed=0)(instance, pairs).check_feasible()

    def test_table_ii_values_match_paper(self):
        assert TABLE_II["capacity"] == (3, 4, 5, 6)
        assert TABLE_II["epsilon"] == (0.0, 0.01, 0.03, 0.05, 0.08)
        assert TABLE_II["workers_per_round"] == (500, 800, 1000, 2000, 5000)
        assert TABLE_II["tasks_per_round"] == (100, 300, 500, 800, 1000)

    def test_defaults_match_table_ii_bold(self):
        settings = ExperimentSettings()
        assert settings.capacity == 4
        assert settings.workers_per_round == 1000
        assert settings.tasks_per_round == 500
        assert settings.rounds == 10
        assert settings.min_group_size == 3
        assert settings.epsilon == 0.05

    def test_unknown_approach(self):
        with pytest.raises(ValueError):
            make_solver("ILP")

    def test_scaled(self):
        settings = ExperimentSettings().scaled(0.1)
        assert settings.workers_per_round == 100
        assert settings.tasks_per_round == 50
        assert settings.rounds == 2
        with pytest.raises(ValueError):
            ExperimentSettings().scaled(0.0)

    def test_every_solver_runs(self):
        instance = make_dense_instance(20, 4, seed=0)
        from repro.core.validity import compute_valid_pairs

        pairs = compute_valid_pairs(instance)
        for name in DEFAULT_APPROACH_ORDER:
            solver = make_solver(name, seed=0)
            assignment = solver(instance, pairs)
            assignment.check_feasible()


class TestRunner:
    def test_build_population_kinds(self):
        unif = build_population(QUICK, seed=0)
        assert unif.worker_pool_size >= QUICK.workers_per_round
        skew = build_population(
            ExperimentSettings(dataset="skew", workers_per_round=40, tasks_per_round=10),
            seed=0,
        )
        assert skew.worker_pool_size >= 40
        with pytest.raises(ValueError):
            build_population(ExperimentSettings(dataset="gowalla"), seed=0)

    def test_meetup_quality_override_skips_the_matrix_build(self, monkeypatch):
        # Sweep workers attach the creator's matrix; building their own
        # would only be thrown away. The locations must still match.
        from repro.core.quality import CooperationMatrix

        settings = ExperimentSettings(dataset="meetup")
        built = build_population(settings, seed=3)

        def refuse(*args, **kwargs):
            raise AssertionError("the override path built a Meetup matrix")

        monkeypatch.setattr(CooperationMatrix, "from_group_memberships", refuse)
        attached = build_population(settings, seed=3, quality=built.quality)
        assert attached.quality is built.quality
        assert np.array_equal(attached.worker_locations, built.worker_locations)
        assert np.array_equal(attached.task_locations, built.task_locations)

    def test_run_approaches_shapes(self):
        population = build_population(QUICK, seed=0)
        point = run_approaches(
            population,
            QUICK,
            approaches=("RAND", "TPG", "GT"),
            parameter="demo",
            value=1,
            seed=0,
        )
        assert set(point.outcomes) == {"RAND", "TPG", "GT"}
        assert point.upper > 0.0
        for outcome in point.outcomes.values():
            assert outcome.total_score >= 0.0
            assert outcome.mean_batch_seconds >= 0.0
            assert len(outcome.report.rounds) == QUICK.rounds

    def test_ordering_gt_tpg_rand(self):
        """The paper's qualitative result at small scale: GT >= TPG (both
        well above RAND), and every score below UPPER."""
        population = build_population(QUICK, seed=1)
        point = run_approaches(
            population, QUICK, approaches=("RAND", "TPG", "GT"), seed=1
        )
        assert point.score("GT") >= point.score("TPG") - 1e-6
        assert point.score("TPG") > point.score("RAND")
        assert point.score("GT") <= point.upper + 1e-6


class TestFigures:
    def test_fig2_scaled_down(self):
        result = fig2_capacity(
            base=QUICK.scaled(1.0),
            values=(3, 4),
            approaches=("TPG", "GT"),
            seed=0,
        )
        assert result.parameter == "capacity"
        assert result.values() == [3, 4]
        for point in result.points:
            assert set(point.outcomes) == {"TPG", "GT"}

    def test_fig6_epsilon_gt_tsi_only(self):
        result = fig6_epsilon(
            base=QUICK,
            values=(0.0, 0.08),
            seed=0,
        )
        assert result.approaches == ("GT+TSI",)
        scores = [point.score("GT+TSI") for point in result.points]
        # eps = 0 (exact convergence) scores at least as high as eps = 0.08.
        assert scores[0] >= scores[1] - 1e-6


class TestReporting:
    @pytest.fixture(scope="class")
    def small_result(self):
        return fig2_capacity(
            base=QUICK,
            values=(3, 4),
            approaches=("TPG", "GT"),
            seed=0,
        )

    def test_format_figure_contains_both_panels(self, small_result):
        text = format_figure(small_result)
        assert "(a) Total Cooperation Score" in text
        assert "(b) Batch Running Time" in text
        assert "UPPER" in text
        assert "TPG" in text and "GT" in text

    def test_markdown_table_syntax(self, small_result):
        text = figure_to_markdown(small_result)
        assert "| capacity |" in text or "| capacity " in text
        assert "|---" in text

    def test_sweep_table_rows(self, small_result):
        text = format_sweep_table(
            small_result, lambda p, a: p.score(a), "scores"
        )
        lines = text.splitlines()
        assert len(lines) == 2 + 1 + len(small_result.points)


class TestRunAllCLI:
    def test_cli_runs_one_figure(self, tmp_path, capsys):
        from repro.experiments.run_all import main

        out = tmp_path / "results.md"
        code = main(
            [
                "--figures",
                "fig6",
                "--scale",
                "0.05",
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "Figure 6" in printed
        assert out.exists()
        assert "Figure 6" in out.read_text()


class TestExtensionFigure:
    def test_fig9_ladder_ordering(self):
        """The extension ladder at small scale: batching beats online,
        pairwise-aware beats flow-based, local search >= GT."""
        from repro.experiments.figures import fig9_extensions

        result = fig9_extensions(
            base=QUICK,
            values=(60,),
            approaches=("ONLINE", "MFLOW", "TPG", "GT+ALL", "LSEARCH"),
            seed=2,
        )
        point = result.points[0]
        assert point.score("TPG") >= point.score("MFLOW") - 1e-6
        assert point.score("GT+ALL") >= point.score("ONLINE") - 1e-6
        assert point.score("LSEARCH") >= point.score("GT+ALL") - 1e-6


    def test_cli_charts_flag(self, capsys):
        from repro.experiments.run_all import main

        code = main(["--figures", "fig6", "--scale", "0.05", "--charts"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "shared scale" in printed  # sparkline header
