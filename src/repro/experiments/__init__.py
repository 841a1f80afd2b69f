"""Experiment harness reproducing Section VI.

* :mod:`repro.experiments.config` — Table II settings and the approach
  registry (RAND, MFLOW, TPG, GT, GT+LUB, GT+TSI, GT+ALL).
* :mod:`repro.experiments.runner` — runs every approach over identical
  batch streams and collects scores, times and the UPPER bound.
* :mod:`repro.experiments.figures` — the figure table: one callable
  ``Figure`` entry per paper figure (Figures 2-8) plus the Figure 9
  extension.
* :mod:`repro.experiments.parallel` — deterministic process-pool
  fan-out of sweep cells (``SweepExecutor``; every figure takes one as
  ``executor=``, with its worker count, checkpoint journal and
  shared-memory transport).
* :mod:`repro.experiments.reporting` — plain-text / markdown tables.
* ``python -m repro.experiments.run_all`` — regenerate every experiment
  (``--jobs N`` parallelizes with bit-identical results).
"""

from repro.experiments.config import (
    APPROACHES,
    DEFAULT_APPROACH_ORDER,
    ExperimentSettings,
    make_solver,
)
from repro.experiments.runner import ApproachOutcome, SweepPoint, run_approaches
from repro.experiments.parallel import (
    CellFailure,
    CellSpec,
    ExecutorTelemetry,
    SweepExecutor,
)
from repro.experiments.reporting import format_figure, format_sweep_table
from repro.experiments.equilibria import EquilibriumStudy, study_equilibria
from repro.experiments.fairness import FairnessReport, fairness_report
from repro.experiments.plotting import render_curves, render_figure_charts, render_map
from repro.experiments import figures

__all__ = [
    "APPROACHES",
    "DEFAULT_APPROACH_ORDER",
    "ExperimentSettings",
    "make_solver",
    "ApproachOutcome",
    "SweepPoint",
    "run_approaches",
    "CellFailure",
    "CellSpec",
    "ExecutorTelemetry",
    "SweepExecutor",
    "format_figure",
    "format_sweep_table",
    "EquilibriumStudy",
    "study_equilibria",
    "FairnessReport",
    "fairness_report",
    "render_curves",
    "render_figure_charts",
    "render_map",
    "figures",
]
