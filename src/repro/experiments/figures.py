"""The paper's figure sweeps (Figures 2-8, plus one extension) as a table.

Each :class:`Figure` entry names one Section VI sweep: the Table II
parameter it varies, the dataset, the default values and approaches, and
the one-line setter that maps a value onto the settings. Calling an
entry returns a :class:`FigureResult` whose points hold, per parameter
value, the total cooperation score and mean batch time of each approach
plus the UPPER bound — the two panels (a) and (b) of each paper figure.

Settings-side options (the ``"sparse"`` quality store, geo-sharding)
travel on ``base``; pool-side ones (worker processes, the checkpoint
journal, the ``"shared"`` transport) on ``executor``. ``scale < 1``
shrinks the workload for quick runs; the full-size runs are invoked by
``python -m repro.experiments.run_all``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from repro.experiments.config import (
    DEFAULT_APPROACH_ORDER,
    TABLE_II,
    ExperimentSettings,
)
from repro.experiments.parallel import (
    CellFailure,
    ExecutorTelemetry,
    SweepExecutor,
    assemble_points,
    build_cell_specs,
)
from repro.experiments.runner import SweepPoint

__all__ = [
    "Figure",
    "FigureResult",
    "fig2_capacity",
    "fig3_speed",
    "fig4_radius",
    "fig5_deadline",
    "fig6_epsilon",
    "fig7_workers",
    "fig8_tasks",
    "fig9_extensions",
    "EXTENSION_LINEUP",
    "ALL_FIGURES",
]


@dataclass
class FigureResult:
    """A full sweep for one figure.

    ``telemetry`` and ``failures`` come from the
    :class:`~repro.experiments.parallel.SweepExecutor` that ran the
    sweep: executor wall/cell timings, and structured records of any
    cells that kept raising or timing out (their approach column renders
    as ``n/a``).
    """

    figure: str
    parameter: str
    approaches: tuple[str, ...]
    points: list[SweepPoint] = field(default_factory=list)
    telemetry: ExecutorTelemetry | None = None
    failures: list[CellFailure] = field(default_factory=list)

    def values(self) -> list[object]:
        return [point.value for point in self.points]


@dataclass(frozen=True)
class Figure:
    """One figure's sweep: ``parameter`` over ``values`` on ``dataset``.

    ``setter(settings, value)`` returns the settings of one value's
    cells. ``floor`` marks a size parameter: below ``scale=1`` its
    values shrink with the workload, but not under ``floor``.
    """

    label: str
    parameter: str
    dataset: str
    values: tuple
    setter: Callable[[ExperimentSettings, object], ExperimentSettings]
    approaches: tuple[str, ...] = DEFAULT_APPROACH_ORDER
    floor: int | None = None

    def __call__(
        self,
        base: ExperimentSettings | None = None,
        values=None,
        approaches: tuple[str, ...] | None = None,
        scale: float = 1.0,
        seed: int = 0,
        executor: SweepExecutor | None = None,
    ) -> FigureResult:
        """Expand the sweep into (value x approach) cells and execute them.

        ``executor`` defaults to an inline :class:`SweepExecutor`. At
        ``scale=1.0`` the cells run exactly ``base`` (default: Table
        II's on this figure's dataset) and ``values``; any other scale
        goes through :meth:`ExperimentSettings.scaled`, which rejects
        factors outside ``(0, 1]``.
        """
        base = base or ExperimentSettings(dataset=self.dataset)
        values = list(self.values if values is None else values)
        if scale != 1.0:
            base = base.scaled(scale)
            if self.floor is not None:
                values = [max(self.floor, round(v * scale)) for v in values]
        approaches = self.approaches if approaches is None else tuple(approaches)
        specs = build_cell_specs(
            self.label, self.parameter, values, self.setter, base, approaches, seed
        )
        results, telemetry = (executor or SweepExecutor()).run(specs)
        points, failures = assemble_points(results, self.parameter, values, approaches)
        return FigureResult(
            figure=self.label,
            parameter=self.parameter,
            approaches=approaches,
            points=points,
            telemetry=telemetry,
            failures=failures,
        )


def _percent_range(name: str):
    """Setter for a range given in percent of the unit space, e.g.
    ``(1, 5)`` -> ``(0.01, 0.05)``."""
    return lambda settings, value: replace(
        settings, **{name: (value[0] / 100.0, value[1] / 100.0)}
    )


fig2_capacity = Figure(
    "Figure 2", "capacity", "meetup", TABLE_II["capacity"],
    lambda settings, value: replace(settings, capacity=value),
)
fig3_speed = Figure(
    "Figure 3", "speed_range_percent", "meetup",
    TABLE_II["speed_range_percent"], _percent_range("speed_range"),
)
fig4_radius = Figure(
    "Figure 4", "radius_range_percent", "meetup",
    TABLE_II["radius_range_percent"], _percent_range("radius_range"),
)
fig5_deadline = Figure(
    "Figure 5", "remaining_time", "meetup", TABLE_II["remaining_time"],
    lambda settings, value: replace(settings, remaining_time=float(value)),
)
# The paper plots GT+TSI only; epsilon = 0 degenerates to plain GT.
fig6_epsilon = Figure(
    "Figure 6", "epsilon", "unif", TABLE_II["epsilon"],
    lambda settings, value: replace(settings, epsilon=float(value)),
    approaches=("GT+TSI",),
)
fig7_workers = Figure(
    "Figure 7", "workers_per_round", "unif", TABLE_II["workers_per_round"],
    lambda settings, value: replace(settings, workers_per_round=int(value)),
    floor=20,
)
fig8_tasks = Figure(
    "Figure 8", "tasks_per_round", "unif", TABLE_II["tasks_per_round"],
    lambda settings, value: replace(settings, tasks_per_round=int(value)),
    floor=5,
)

EXTENSION_LINEUP = ("ONLINE", "PGREEDY", "MFLOW", "WFLOW", "TPG", "GT+ALL", "LSEARCH")

# Not in the paper: the baseline ladder over the number of workers.
# ONLINE < PGREEDY/MFLOW < WFLOW < TPG < GT+ALL <= LSEARCH quantifies, in
# order, the value of batching, of task-priority seeding, of preferring
# good workers, of true pairwise reasoning, and of coalitional 2-swaps
# beyond the Nash equilibrium.
fig9_extensions = replace(
    fig7_workers,
    label="Figure 9 (extension)",
    values=(500, 1000, 2000),
    approaches=EXTENSION_LINEUP,
)

ALL_FIGURES = {
    "fig2": fig2_capacity,
    "fig3": fig3_speed,
    "fig4": fig4_radius,
    "fig5": fig5_deadline,
    "fig6": fig6_epsilon,
    "fig7": fig7_workers,
    "fig8": fig8_tasks,
    "fig9": fig9_extensions,
}
