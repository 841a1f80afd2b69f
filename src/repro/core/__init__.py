"""Core CA-SC machinery: problem model, quality revenue, and solvers.

Public surface (re-exported at package top level):

* :class:`~repro.core.model.Worker`, :class:`~repro.core.model.Task`,
  :class:`~repro.core.model.Instance` — the problem model (Definitions 1-4).
* :class:`~repro.core.quality.CooperationMatrix` — pairwise cooperation
  quality ``q_i(w_k)`` with the Equation-1 estimator.
* :mod:`~repro.core.quality_store` — the :class:`QualityStore` protocol
  with dense / sparse / shared-memory backends.
* :mod:`~repro.core.revenue` — cooperation quality revenue ``Q(W_j)``
  (Equation 2) and marginal gains (Equation 4).
* :class:`~repro.core.assignment.Assignment` — a feasible solution with
  incremental score maintenance.
* Solvers: :func:`~repro.core.tpg.solve_tpg`,
  :func:`~repro.core.game.solve_game_theoretic`,
  :func:`~repro.core.baselines.random_assign.solve_random`,
  :func:`~repro.core.baselines.mflow.solve_mflow`,
  :func:`~repro.core.exact.solve_exact`.
* :func:`~repro.core.bounds.upper_bound` — Equation 9's UPPER reference.
* :class:`~repro.core.fallback.FallbackSolver` — anytime wall-clock
  budget: a deadline the solver checks itself, with a random floor
  (see docs/ROBUSTNESS.md).
"""

from repro.core.assignment import Assignment
from repro.core.bounds import BoundReport, upper_bound
from repro.core.exact import solve_exact
from repro.core.fallback import DegradationRecord, FallbackSolver
from repro.core.game import GameResult, solve_game_theoretic
from repro.core.local_search import LocalSearchResult, solve_local_search
from repro.core.model import Instance, Task, Worker
from repro.core.online import solve_online_greedy
from repro.core.quality import CooperationMatrix
from repro.core.quality_store import (
    DenseQualityStore,
    QualityStore,
    SharedDenseQualityStore,
    SparseQualityStore,
)
from repro.core.tpg import solve_tpg
from repro.core.validity import ValidPairs, compute_valid_pairs
from repro.core.baselines.mflow import solve_mflow
from repro.core.baselines.random_assign import solve_random

__all__ = [
    "Assignment",
    "BoundReport",
    "upper_bound",
    "solve_exact",
    "DegradationRecord",
    "FallbackSolver",
    "GameResult",
    "solve_game_theoretic",
    "Instance",
    "Task",
    "Worker",
    "CooperationMatrix",
    "QualityStore",
    "DenseQualityStore",
    "SparseQualityStore",
    "SharedDenseQualityStore",
    "solve_tpg",
    "ValidPairs",
    "compute_valid_pairs",
    "solve_mflow",
    "solve_online_greedy",
    "solve_random",
    "LocalSearchResult",
    "solve_local_search",
]
