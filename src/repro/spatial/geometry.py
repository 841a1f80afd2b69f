"""Planar geometry primitives used across the library.

The paper maps all locations (Meetup check-ins and synthetic data alike)
into the unit square ``[0, 1]^2`` and measures Euclidean distance, so a
light-weight 2-D point is all the geometry the system needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Point:
    """An immutable 2-D point.

    Frozen so points can serve as dictionary keys and be shared between
    workers/tasks without defensive copying.
    """

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)

    def translated(self, dx: float, dy: float) -> "Point":
        """A new point offset by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)


def euclidean(a: Point, b: Point) -> float:
    """Euclidean distance between two points (module-level convenience)."""
    return a.distance_to(b)


def travel_time(worker_location: Point, task_location: Point, speed: float) -> float:
    """Time for a worker moving at ``speed`` to reach ``task_location``.

    Definition 3 of the paper admits a worker-task pair only when
    ``d(l_i, l_j) / v_i <= tau_j - phi``; this helper computes the
    left-hand side. A non-positive speed means the worker cannot move, so
    the travel time is infinite unless the two points coincide.
    """
    distance = worker_location.distance_to(task_location)
    if speed <= 0.0:
        return 0.0 if distance == 0.0 else math.inf
    return distance / speed
