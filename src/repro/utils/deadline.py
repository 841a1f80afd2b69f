"""Wall-clock deadlines that the solvers check themselves.

A budgeted solve (:class:`~repro.core.fallback.FallbackSolver`) runs
under :func:`deadline`, which puts a :class:`Deadline` in a context
variable. The iterative solvers read it once per solve with
:func:`current_deadline` and, where they already loop, stop at the
first check past it and return their feasible state so far: GT between
moves and rounds, TPG between stage-1 and stage-2 commits, local search
between relocations and swaps, pair-greedy between commits. Outside a
budgeted solve :func:`current_deadline` is ``None`` and a check costs
one ``None`` test.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

__all__ = ["Deadline", "current_deadline", "deadline"]


class Deadline:
    """A ``perf_counter`` instant, and where a solver stopped at it.

    ``stopped_at`` is empty until a solver's check finds the deadline
    passed; the first such check records its position there.
    """

    __slots__ = ("at", "stopped_at")

    def __init__(self, seconds: float) -> None:
        self.at = time.perf_counter() + seconds
        self.stopped_at = ""

    def expired(self) -> bool:
        return time.perf_counter() >= self.at

    def passed(self, where: str, **position: int) -> bool:
        """Whether the deadline has passed. The first check that finds
        it passed records ``where`` and ``position`` as the stop point,
        e.g. ``"GT round=2 move=17"``."""
        if not self.expired():
            return False
        if not self.stopped_at:
            self.stopped_at = " ".join(
                [where, *(f"{key}={value}" for key, value in position.items())]
            )
        return True


_CURRENT: ContextVar[Deadline | None] = ContextVar("repro_deadline", default=None)


def current_deadline() -> Deadline | None:
    """The deadline of the enclosing :func:`deadline` block, if any."""
    return _CURRENT.get()


@contextmanager
def deadline(seconds: float) -> Iterator[Deadline]:
    """Run the block under a deadline ``seconds`` from now."""
    clock = Deadline(seconds)
    token = _CURRENT.set(clock)
    try:
        yield clock
    finally:
        _CURRENT.reset(token)
