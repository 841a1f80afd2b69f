"""Shared utilities: seeded randomness, timing, and error types."""

from repro.utils.errors import (
    CapacityError,
    DegradedResultError,
    InvalidInstanceError,
    ReproError,
    ValidityError,
)
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.timer import Stopwatch

__all__ = [
    "CapacityError",
    "DegradedResultError",
    "InvalidInstanceError",
    "ReproError",
    "ValidityError",
    "ensure_rng",
    "spawn_rngs",
    "Stopwatch",
]
