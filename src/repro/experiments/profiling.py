"""Hot-path profiling — phase x function hotspot reports.

ROADMAP's north star demands the hot paths be *measured*, not guessed:
every perf PR should name the interpreted loops it closes and prove the
replacement moved the profile. :func:`profile_solve` runs the two phases
a batch assignment pays for — validity construction and the solve — each
under :mod:`cProfile`, and merges the function-level hotspots with the
solver's own :class:`~repro.core.stats.SolverStats` ``phase_seconds``
into one JSON-ready report. The ``repro profile`` subcommand (see
:mod:`repro.cli`) prints the top functions per phase and can persist the
report.

Reading the report: ``phases[*].hotspots`` are sorted by ``tottime``
(self time — where the interpreter actually spends cycles); ``cumtime``
attributes callees, so a thin wrapper with huge ``cumtime`` and tiny
``tottime`` is not itself hot. ``phase_seconds`` is the solver's own
coarse timing (``init``/``rounds``, TPG ``stage1``/``stage2``), which
the cProfile numbers should roughly reconcile with — large gaps mean
the hot loop lives outside the instrumented phases.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import time
from dataclasses import dataclass, field

from repro.core.validity import compute_valid_pairs
from repro.experiments.config import DEFAULT_EPSILON, make_solver

__all__ = ["FunctionHotspot", "PhaseProfile", "ProfileReport", "profile_solve"]


@dataclass(frozen=True)
class FunctionHotspot:
    """One function's share of a profiled phase."""

    function: str
    location: str  #: ``file:line`` (or ``~`` builtins)
    calls: int
    tottime: float  #: self time — the sort key
    cumtime: float  #: inclusive of callees

    def to_dict(self) -> dict:
        return {
            "function": self.function,
            "location": self.location,
            "calls": self.calls,
            "tottime": self.tottime,
            "cumtime": self.cumtime,
        }


@dataclass(frozen=True)
class PhaseProfile:
    """One instrumented phase: wall-clock + its function hotspots."""

    phase: str
    seconds: float
    hotspots: tuple[FunctionHotspot, ...] = ()

    def to_dict(self) -> dict:
        return {
            "phase": self.phase,
            "seconds": self.seconds,
            "hotspots": [spot.to_dict() for spot in self.hotspots],
        }


@dataclass
class ProfileReport:
    """The full phase x function report of one profiled solve."""

    approach: str
    workers: int
    tasks: int
    score: float
    phases: list[PhaseProfile] = field(default_factory=list)
    #: The solver's own sub-phase timings (SolverStats.phase_seconds).
    solver_phase_seconds: dict[str, float] = field(default_factory=dict)
    solver_summary: str = ""

    def to_dict(self) -> dict:
        return {
            "approach": self.approach,
            "workers": self.workers,
            "tasks": self.tasks,
            "score": self.score,
            "phases": [phase.to_dict() for phase in self.phases],
            "solver_phase_seconds": dict(self.solver_phase_seconds),
            "solver_summary": self.solver_summary,
        }

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)

    def summary_lines(self, top: int = 5) -> list[str]:
        """Human-readable digest for CLI output."""
        lines = [
            f"profile[{self.approach}] "
            f"{self.workers}w/{self.tasks}t score={self.score:.4f}"
        ]
        for phase in self.phases:
            lines.append(f"  {phase.phase}: {phase.seconds * 1e3:.1f}ms")
            for spot in phase.hotspots[:top]:
                lines.append(
                    f"    {spot.tottime * 1e3:8.1f}ms self "
                    f"{spot.cumtime * 1e3:8.1f}ms cum  "
                    f"{spot.calls:>7}x  {spot.function}  ({spot.location})"
                )
        if self.solver_phase_seconds:
            inner = " ".join(
                f"{name}={seconds * 1e3:.1f}ms"
                for name, seconds in self.solver_phase_seconds.items()
            )
            lines.append(f"  solver phases: {inner}")
        if self.solver_summary:
            lines.append(f"  solver stats: {self.solver_summary}")
        return lines


def _collect_hotspots(profiler: cProfile.Profile, top: int) -> tuple:
    """The ``top`` functions of a finished profiler, by self time."""
    stats = pstats.Stats(profiler)
    entries = []
    for (filename, line, name), (
        _primitive,
        calls,
        tottime,
        cumtime,
        _callers,
    ) in stats.stats.items():  # type: ignore[attr-defined]
        location = f"{filename}:{line}" if line else filename
        entries.append(
            FunctionHotspot(
                function=name,
                location=location,
                calls=int(calls),
                tottime=float(tottime),
                cumtime=float(cumtime),
            )
        )
    entries.sort(key=lambda spot: spot.tottime, reverse=True)
    return tuple(entries[:top])


def profile_solve(
    instance,
    approach: str = "GT+ALL",
    epsilon: float = DEFAULT_EPSILON,
    seed=None,
    top: int = 15,
) -> ProfileReport:
    """Profile validity construction + one solve of ``instance``.

    Each phase runs under its own :class:`cProfile.Profile`, so the
    hotspot lists do not bleed into each other. The profiled solve *is*
    the report's solve — cProfile's overhead inflates the wall-clock
    (interpreted loops more than vectorized ones), so treat the numbers
    as a map of *where* time goes, and take unprofiled speedup ratios
    from ``bench/``.
    """
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    valid_pairs = compute_valid_pairs(instance)
    profiler.disable()
    validity_phase = PhaseProfile(
        phase="validity",
        seconds=time.perf_counter() - started,
        hotspots=_collect_hotspots(profiler, top),
    )

    solver = make_solver(approach, epsilon=epsilon, seed=seed)
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    assignment = solver(instance, valid_pairs)
    profiler.disable()
    solve_phase = PhaseProfile(
        phase="solve",
        seconds=time.perf_counter() - started,
        hotspots=_collect_hotspots(profiler, top),
    )

    report = ProfileReport(
        approach=approach,
        workers=instance.worker_count,
        tasks=instance.task_count,
        score=float(assignment.total_score()),
        phases=[validity_phase, solve_phase],
    )
    log = getattr(solver, "stats_log", None)
    if log:
        from repro.core.stats import SolverStats

        merged = SolverStats.merged(log)
        if merged is not None:
            report.solver_phase_seconds = dict(merged.phase_seconds)
            report.solver_summary = merged.summary()
    return report
