"""Quality bounds — Lemmas V.2/V.3, Equations 8-9, and Theorem V.2.

The paper cannot compute optima at real scale (CA-SC is NP-hard), so its
evaluation reports the analytic upper bound ``UPPER`` of Equation 9 and
its quality analysis bounds the price of anarchy by
``PoA >= N_init * B * q_check / UPPER``. This module computes all of
those quantities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.model import Instance
from repro.core.quality_store import QualityStore
from repro.core.validity import ValidPairs, compute_valid_pairs

__all__ = [
    "BoundReport",
    "highest_average_quality",
    "lowest_average_quality",
    "task_upper_bound",
    "upper_bound",
    "price_of_anarchy_lower_bound",
]


def highest_average_quality(
    quality: QualityStore, worker: int, min_group_size: int
) -> float:
    """``q_hat_{i,B}`` of Lemma V.2.

    The mean of the worker's ``B - 1`` highest cooperation qualities — an
    upper bound on the worker's average quality inside *any* group of at
    least ``B`` workers.
    """
    top = quality.top_qualities(worker, min_group_size - 1)
    if top.size == 0:
        return 0.0
    return float(top.sum() / (min_group_size - 1))


def lowest_average_quality(
    quality: QualityStore, worker: int, min_group_size: int
) -> float:
    """``q_check_{i,B}`` of Lemma V.3 — the matching lower bound."""
    bottom = quality.bottom_qualities(worker, min_group_size - 1)
    if bottom.size == 0:
        return 0.0
    return float(bottom.sum() / (min_group_size - 1))


def task_upper_bound(
    instance: Instance,
    task: int,
    valid_pairs: ValidPairs,
    q_hat: np.ndarray,
) -> float:
    """``Q_hat_{t_j}`` of Equation 8, restricted to the task's valid
    workers.

    Sum of the top-``a_j`` values of ``q_hat`` among workers that can
    actually serve the task; zero when fewer than ``B`` workers are valid
    (the task cannot be completed at all).
    """
    workers = valid_pairs.workers_of(task)
    if workers.size < instance.min_group_size:
        return 0.0
    capacity = instance.tasks[task].capacity
    values = q_hat[workers]
    if values.size > capacity:
        values = np.partition(values, values.size - capacity)[values.size - capacity :]
    return float(values.sum())


@dataclass(frozen=True)
class BoundReport:
    """The Equation 9 bound and its two ingredients.

    ``value = min(task_side, worker_side)``; the report keeps both sides
    so experiments can show which one binds.
    """

    value: float
    task_side: float
    worker_side: float
    q_hat: np.ndarray
    q_check: np.ndarray


def upper_bound(
    instance: Instance, valid_pairs: ValidPairs | None = None
) -> BoundReport:
    """``UPPER`` (Equation 9) for one batch.

    ``min`` of the summed per-task bounds (Equation 8) and the summed
    per-worker highest average qualities. Every feasible assignment's
    total score is below this value; the experiments report how close the
    solvers get (50-97% in the paper).
    """
    if valid_pairs is None:
        valid_pairs = compute_valid_pairs(instance)
    minimum = instance.min_group_size
    q_hat = np.array(
        [
            highest_average_quality(instance.quality, worker, minimum)
            for worker in range(instance.worker_count)
        ]
    )
    q_check = np.array(
        [
            lowest_average_quality(instance.quality, worker, minimum)
            for worker in range(instance.worker_count)
        ]
    )
    task_side = sum(
        task_upper_bound(instance, task, valid_pairs, q_hat)
        for task in range(instance.task_count)
    )
    # Workers with no valid task cannot contribute revenue at all.
    employable = np.diff(valid_pairs.worker_ptr) > 0
    worker_side = float(q_hat[employable].sum())
    return BoundReport(
        value=min(task_side, worker_side),
        task_side=task_side,
        worker_side=worker_side,
        q_hat=q_hat,
        q_check=q_check,
    )


def price_of_anarchy_lower_bound(
    instance: Instance,
    seeded_tasks: int,
    bound: BoundReport,
) -> float:
    """Theorem V.2's lower bound on the price of anarchy:
    ``N_init * B * q_check / UPPER``.

    ``seeded_tasks`` is ``N_init`` — the number of tasks the TPG
    initialization completed. Returns 0 when the upper bound is 0 (an
    empty batch has nothing to lose).
    """
    if bound.value <= 0.0:
        return 0.0
    q_check_min = float(bound.q_check.min()) if bound.q_check.size else 0.0
    return seeded_tasks * instance.min_group_size * q_check_min / bound.value
