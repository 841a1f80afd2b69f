"""The figure table (``repro.experiments.figures.ALL_FIGURES``).

Each entry is pinned twice: its default grid (label, parameter, dataset,
values and approaches, read off the cells it expands to without running
any), and one tiny cell run for real, whose settings show what the
sweep value maps to.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.config import ExperimentSettings
from repro.experiments.figures import ALL_FIGURES, fig2_capacity, fig8_tasks
from repro.experiments.parallel import SweepExecutor

PAPER = ("RAND", "MFLOW", "TPG", "GT", "GT+LUB", "GT+TSI", "GT+ALL")
LADDER = ("ONLINE", "PGREEDY", "MFLOW", "WFLOW", "TPG", "GT+ALL", "LSEARCH")

#: name -> (label, parameter, dataset, default values, default
#: approaches, one value, the settings fields it sets).
PINNED = {
    "fig2": (
        "Figure 2", "capacity", "meetup", (3, 4, 5, 6), PAPER,
        5, {"capacity": 5},
    ),
    "fig3": (
        "Figure 3", "speed_range_percent", "meetup",
        ((1, 3), (1, 5), (1, 8), (1, 10)), PAPER,
        (1, 5), {"speed_range": (0.01, 0.05)},
    ),
    "fig4": (
        "Figure 4", "radius_range_percent", "meetup",
        ((1, 5), (5, 10), (10, 15), (15, 20)), PAPER,
        (10, 15), {"radius_range": (0.1, 0.15)},
    ),
    "fig5": (
        "Figure 5", "remaining_time", "meetup", (1, 2, 3, 4, 5), PAPER,
        4, {"remaining_time": 4.0},
    ),
    "fig6": (
        "Figure 6", "epsilon", "unif", (0.0, 0.01, 0.03, 0.05, 0.08),
        ("GT+TSI",), 0.03, {"epsilon": 0.03},
    ),
    "fig7": (
        "Figure 7", "workers_per_round", "unif",
        (500, 800, 1000, 2000, 5000), PAPER, 70, {"workers_per_round": 70},
    ),
    "fig8": (
        "Figure 8", "tasks_per_round", "unif",
        (100, 300, 500, 800, 1000), PAPER, 14, {"tasks_per_round": 14},
    ),
    "fig9": (
        "Figure 9 (extension)", "workers_per_round", "unif",
        (500, 1000, 2000), LADDER, 70, {"workers_per_round": 70},
    ),
}

TINY = ExperimentSettings(
    rounds=2,
    workers_per_round=60,
    tasks_per_round=12,
    speed_range=(0.05, 0.2),
    radius_range=(0.2, 0.4),
    dataset="unif",
)


class Recorder(SweepExecutor):
    """Keeps the cells a figure expands to; runs them only if asked."""

    def __init__(self, execute: bool) -> None:
        super().__init__()
        self.execute = execute
        self.specs = []

    def run(self, specs):
        self.specs = list(specs)
        if self.execute:
            return super().run(specs)
        return [], None


def test_table_names_every_figure():
    assert sorted(ALL_FIGURES) == sorted(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_default_grid(name):
    label, parameter, dataset, values, approaches, _, _ = PINNED[name]
    recorder = Recorder(execute=False)
    result = ALL_FIGURES[name](executor=recorder)
    assert (result.figure, result.parameter) == (label, parameter)
    assert result.approaches == approaches
    assert result.values() == list(values)
    assert [(s.value, s.approach) for s in recorder.specs] == [
        (value, approach) for value in values for approach in approaches
    ]
    assert {s.settings.dataset for s in recorder.specs} == {dataset}
    assert {s.figure for s in recorder.specs} == {label}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_one_cell_runs_and_sets_only_its_fields(name):
    label, parameter, _, _, _, value, fields = PINNED[name]
    recorder = Recorder(execute=True)
    result = ALL_FIGURES[name](
        base=TINY, values=(value,), approaches=("RAND",), executor=recorder
    )
    assert (result.figure, result.parameter) == (label, parameter)
    assert result.values() == [value]
    assert not result.failures
    assert set(result.points[0].outcomes) == {"RAND"}
    (spec,) = recorder.specs
    for field, expected in fields.items():
        assert getattr(spec.settings, field) == expected
    assert replace(spec.settings, **{f: getattr(TINY, f) for f in fields}) == TINY


class TestScaleOne:
    """``scale=1.0`` runs exactly the sizes the caller asked for."""

    def test_base_is_not_floored(self):
        base = ExperimentSettings(
            rounds=1, workers_per_round=40, tasks_per_round=8, dataset="meetup"
        )
        recorder = Recorder(execute=False)
        fig2_capacity(
            base=base, values=(3,), approaches=("RAND",), executor=recorder
        )
        (spec,) = recorder.specs
        assert spec.settings == replace(base, capacity=3)

    def test_values_are_not_floored(self):
        recorder = Recorder(execute=False)
        result = fig8_tasks(
            base=TINY, values=(3,), approaches=("RAND",), executor=recorder
        )
        assert result.values() == [3]
        assert recorder.specs[0].settings.tasks_per_round == 3

    def test_smaller_scale_still_shrinks_and_floors(self):
        recorder = Recorder(execute=False)
        result = fig8_tasks(
            base=TINY, values=(100,), approaches=("RAND",), scale=0.02,
            executor=recorder,
        )
        assert result.values() == [5]
        settings = recorder.specs[0].settings
        assert (settings.rounds, settings.workers_per_round) == (2, 50)

    def test_scale_outside_the_unit_interval_is_rejected(self):
        with pytest.raises(ValueError):
            fig8_tasks(base=TINY, values=(3,), scale=1.5)


def _panel_a(printed: str) -> str:
    return printed.split("\n\n")[0]


def test_both_shells_print_the_same_scores(capsys):
    from repro.cli import main as cli_main
    from repro.experiments.run_all import main as run_all_main

    assert run_all_main(["--figures", "fig6", "--scale", "0.05", "--seed", "1"]) == 0
    from_run_all = capsys.readouterr().out
    assert cli_main(
        ["sweep", "--figure", "fig6", "--scale", "0.05", "--seed", "1"]
    ) == 0
    from_cli = capsys.readouterr().out
    assert "Figure 6 — (a)" in _panel_a(from_run_all)
    assert _panel_a(from_cli) == _panel_a(from_run_all)
