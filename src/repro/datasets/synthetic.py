"""Synthetic data generation — Section VI-A of the paper.

Locations live in the unit square ``[0, 1]^2`` and follow either

* **UNIF** — uniform over the square, or
* **SKEW** — 80% in a Gaussian cluster centred at ``(0.5, 0.5)`` with
  standard deviation 0.2, the remaining 20% uniform.

Worker speeds and working radii are drawn from a Gaussian
``N(0, 0.2^2)`` truncated to ``[-1, 1]`` and linearly mapped onto the
target range ``[lo, hi]`` — the paper's exact recipe ("we linearly map
data samples within [-1, 1] of a Gaussian distribution N(0, 0.2^2) to a
target range").
"""

from __future__ import annotations

import numpy as np

from repro.core.model import Instance, Task, Worker
from repro.core.quality import CooperationMatrix
from repro.core.quality_store import SparseQualityStore
from repro.spatial.geometry import Point
from repro.utils.rng import ensure_rng

__all__ = [
    "gaussian_in_range",
    "generate_locations",
    "generate_workers",
    "generate_tasks",
    "generate_instance",
    "sparse_community_quality",
]

DISTRIBUTIONS = ("uniform", "skewed")
_TRUNCATION = 1.0
_GAUSSIAN_STD = 0.2
SKEW_CLUSTER_FRACTION = 0.8
SKEW_CLUSTER_CENTER = (0.5, 0.5)
SKEW_CLUSTER_STD = 0.2


def gaussian_in_range(rng, count: int, low: float, high: float) -> np.ndarray:
    """``count`` samples of the paper's truncated-Gaussian range mapping.

    Draw from ``N(0, 0.2^2)``, reject samples outside ``[-1, 1]`` (a
    5-sigma event — effectively never), then map ``[-1, 1]`` linearly to
    ``[low, high]``.
    """
    if low > high:
        raise ValueError(f"empty range [{low}, {high}]")
    samples = rng.normal(0.0, _GAUSSIAN_STD, size=count)
    outside = np.abs(samples) > _TRUNCATION
    while outside.any():
        samples[outside] = rng.normal(0.0, _GAUSSIAN_STD, size=int(outside.sum()))
        outside = np.abs(samples) > _TRUNCATION
    return low + (samples + _TRUNCATION) * (high - low) / (2.0 * _TRUNCATION)


def generate_locations(
    rng, count: int, distribution: str = "uniform"
) -> np.ndarray:
    """``(count, 2)`` locations in the unit square (UNIF or SKEW)."""
    if distribution not in DISTRIBUTIONS:
        raise ValueError(
            f"unknown distribution {distribution!r}; expected one of {DISTRIBUTIONS}"
        )
    if distribution == "uniform":
        return rng.uniform(0.0, 1.0, size=(count, 2))

    clustered = int(round(count * SKEW_CLUSTER_FRACTION))
    cluster = rng.normal(SKEW_CLUSTER_CENTER, SKEW_CLUSTER_STD, size=(clustered, 2))
    cluster = np.clip(cluster, 0.0, 1.0)
    uniform = rng.uniform(0.0, 1.0, size=(count - clustered, 2))
    locations = np.vstack([cluster, uniform])
    rng.shuffle(locations, axis=0)
    return locations


def generate_workers(
    count: int,
    speed_range: tuple[float, float] = (0.01, 0.05),
    radius_range: tuple[float, float] = (0.05, 0.10),
    distribution: str = "uniform",
    arrival_time: float = 0.0,
    seed=None,
    locations: np.ndarray | None = None,
    id_offset: int = 0,
) -> list[Worker]:
    """Generate ``count`` workers with Table II's default parameters.

    ``locations`` overrides the location sampling (used when sampling
    workers out of a fixed population).
    """
    rng = ensure_rng(seed)
    if locations is None:
        locations = generate_locations(rng, count, distribution)
    elif len(locations) != count:
        raise ValueError("locations length must equal count")
    speeds = gaussian_in_range(rng, count, *speed_range)
    radii = gaussian_in_range(rng, count, *radius_range)
    return [
        Worker(
            worker_id=id_offset + index,
            location=Point(float(xy[0]), float(xy[1])),
            speed=float(speeds[index]),
            radius=float(radii[index]),
            arrival_time=arrival_time,
        )
        for index, xy in enumerate(locations)
    ]


def generate_tasks(
    count: int,
    capacity: int = 4,
    remaining_time: float = 3.0,
    distribution: str = "uniform",
    created_time: float = 0.0,
    seed=None,
    locations: np.ndarray | None = None,
    id_offset: int = 0,
) -> list[Task]:
    """Generate ``count`` tasks with deadline ``created_time +
    remaining_time`` and uniform capacity ``a_j`` (the paper varies one
    global capacity per experiment)."""
    rng = ensure_rng(seed)
    if locations is None:
        locations = generate_locations(rng, count, distribution)
    elif len(locations) != count:
        raise ValueError("locations length must equal count")
    return [
        Task(
            task_id=id_offset + index,
            location=Point(float(xy[0]), float(xy[1])),
            capacity=capacity,
            deadline=created_time + remaining_time,
            created_time=created_time,
        )
        for index, xy in enumerate(locations)
    ]


def sparse_community_quality(
    worker_count: int,
    community_size: int = 64,
    within: float = 0.8,
    across: float = 0.3,
    noise: float = 0.1,
    seed=None,
) -> SparseQualityStore:
    """Community-structured quality without the dense ``(n, n)`` matrix.

    The O(n²) analogue is :meth:`CooperationMatrix.random_community`;
    here cross-community pairs sit *exactly* at the prior ``across`` (no
    noise — that is what makes them implicit), and only within-community
    pairs are stored explicitly: ``clip(within + symmetric noise, 0, 1)``.
    Communities have a *bounded* expected size (``community_size``)
    instead of a fixed count, so memory and density scale as
    O(n · community_size) and ``community_size / n`` — about 0.3% of the
    matrix at n = 20 000 with the default size.
    """
    if community_size < 1:
        raise ValueError(f"community_size must be >= 1, got {community_size}")
    rng = ensure_rng(seed)
    community_count = max(1, worker_count // community_size)
    labels = rng.integers(0, community_count, size=worker_count)
    rows_parts: list[np.ndarray] = []
    cols_parts: list[np.ndarray] = []
    vals_parts: list[np.ndarray] = []
    for community in range(community_count):
        members = np.flatnonzero(labels == community)
        count = members.size
        if count < 2:
            continue
        jitter = rng.normal(0.0, noise, size=(count, count))
        block = np.clip(within + (jitter + jitter.T) / 2.0, 0.0, 1.0)
        local_rows, local_cols = np.nonzero(~np.eye(count, dtype=bool))
        rows_parts.append(members[local_rows])
        cols_parts.append(members[local_cols])
        vals_parts.append(block[local_rows, local_cols])
    if rows_parts:
        rows = np.concatenate(rows_parts)
        cols = np.concatenate(cols_parts)
        vals = np.concatenate(vals_parts)
    else:
        rows = np.empty(0, dtype=np.intp)
        cols = np.empty(0, dtype=np.intp)
        vals = np.empty(0, dtype=float)
    return SparseQualityStore(worker_count, across, rows, cols, vals)


def generate_instance(
    worker_count: int,
    task_count: int,
    capacity: int = 4,
    remaining_time: float = 3.0,
    speed_range: tuple[float, float] = (0.01, 0.05),
    radius_range: tuple[float, float] = (0.05, 0.10),
    min_group_size: int = 3,
    distribution: str = "uniform",
    quality_kind: str = "community",
    seed=None,
    quality_backend: str = "dense",
) -> Instance:
    """One self-contained synthetic batch (the unit most tests use).

    ``quality_kind`` is ``"community"`` (block-structured, the realistic
    default) or ``"uniform"`` (i.i.d. scores).
    ``quality_backend="sparse"`` swaps the dense matrix for a
    :func:`sparse_community_quality` store (community kind only).
    """
    rng = ensure_rng(seed)
    workers = generate_workers(
        worker_count,
        speed_range=speed_range,
        radius_range=radius_range,
        distribution=distribution,
        seed=rng,
    )
    tasks = generate_tasks(
        task_count,
        capacity=capacity,
        remaining_time=remaining_time,
        distribution=distribution,
        seed=rng,
    )
    if quality_backend == "sparse":
        if quality_kind != "community":
            raise ValueError(
                "the sparse quality backend requires quality_kind='community', "
                f"got {quality_kind!r}"
            )
        quality = sparse_community_quality(worker_count, seed=rng)
    elif quality_backend != "dense":
        raise ValueError(
            f"unknown quality_backend {quality_backend!r}; expected 'dense' or 'sparse'"
        )
    elif quality_kind == "community":
        quality = CooperationMatrix.random_community(worker_count, seed=rng)
    elif quality_kind == "uniform":
        quality = CooperationMatrix.random_uniform(worker_count, seed=rng)
    else:
        raise ValueError(
            f"unknown quality_kind {quality_kind!r}; expected 'community' or 'uniform'"
        )
    return Instance(
        workers=workers,
        tasks=tasks,
        quality=quality,
        min_group_size=min_group_size,
        now=0.0,
    )
