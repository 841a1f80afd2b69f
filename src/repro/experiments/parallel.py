"""Deterministic process-pool fan-out for experiment sweeps.

The paper's evaluation is a grid of independent cells — one simulation
per ``(figure, parameter value, approach, seed)`` — so a sweep
parallelizes embarrassingly. :class:`SweepExecutor` fans those cells out
over a :class:`concurrent.futures.ProcessPoolExecutor` while keeping the
results **bit-identical** to the serial path:

* Work travels as :class:`CellSpec` — settings + approach name + seed,
  all plain picklable values. Workers rebuild the
  :class:`~repro.simulation.population.Population` and solver locally;
  simulators and numpy generators are never pickled.
* Every cell derives its randomness exactly as the serial loop does
  (``BatchSimulator(seed=seed)`` / ``make_solver(seed=seed + 1)``), and
  populations are rebuilt from ``(settings, seed)`` alone, so scores,
  upper bounds and completed-task counts do not depend on worker count
  or completion order.
* A cell that raises (or exceeds ``timeout`` seconds of wall-clock) is
  retried once and then recorded as a :class:`CellFailure`; the rest of
  the sweep always completes.
* :class:`ExecutorTelemetry` captures per-cell wall time, queue latency,
  worker utilization and the speedup over the serial estimate; the
  reporting layer and ``run_all --jobs N`` surface it.
* With ``checkpoint=<path>`` every finished cell is journaled to a
  schema-versioned JSONL file (:class:`SweepJournal`; append + flush +
  fsync per record), and a re-run with the same checkpoint resumes by
  loading finished cells instead of re-executing them — the JSON float
  round-trip is exact, so resumed results are repr-identical to the
  journaled originals. A ``KeyboardInterrupt`` mid-sweep leaves the
  journal complete up to the last finished cell and re-raises after
  reporting partial telemetry, so an interrupted sweep is always
  resumable.

``n_jobs=1`` (the default everywhere) executes the same cells inline in
submission order — no subprocess, no pickling — preserving the
historical serial behavior.
"""

from __future__ import annotations

import json
import os
import sys
import time
import zlib
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from repro.core.quality import CooperationMatrix
from repro.core.quality_store import QUALITY_BACKENDS, SharedDenseQualityStore
from repro.core.stats import SolverStats
from repro.experiments.config import ExperimentSettings
from repro.experiments.runner import (
    ApproachOutcome,
    SweepPoint,
    build_population,
    run_single_approach,
    synthetic_pool_sizes,
    upper_reference,
)
from repro.simulation.batch import SimulationReport
from repro.simulation.metrics import round_from_dict, round_to_dict
from repro.simulation.population import Population
from repro.utils.procpool import FanoutPool, PoolOutcome, RetryPolicy

__all__ = [
    "CellSpec",
    "CellFailure",
    "CellResult",
    "ExecutorTelemetry",
    "SweepExecutor",
    "SweepJournal",
    "build_cell_specs",
    "assemble_points",
    "cached_population",
    "population_cache_key",
]

#: Bumped whenever the journal record layout changes; records with a
#: different version are ignored on resume (the cell simply re-runs).
#: v2: every line is ``{"crc": crc32(record_json), "record": {...}}`` —
#: a per-line integrity check that catches torn or bit-rotted lines
#: anywhere in the file, not just a truncated tail.
JOURNAL_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class CellSpec:
    """One spawn-safe unit of sweep work.

    Carries only picklable configuration — the worker process rebuilds
    the population and solver from it. ``compute_upper`` marks the one
    approach per value whose batches feed the Equation 9 UPPER bound
    (GT, or the first approach when GT is absent — the serial rule).
    """

    figure: str
    parameter: str
    value_index: int
    value: object
    settings: ExperimentSettings
    approach: str
    seed: int
    compute_upper: bool = False
    #: ``(segment_name, matrix_size)`` of a shared-memory cooperation
    #: matrix the worker should attach zero-copy instead of rebuilding
    #: the population's quality. Pure transport — excluded from the
    #: journal identity (:func:`_spec_key`) because segment names are
    #: random per run and never change what the cell computes.
    quality_shm: tuple[str, int] | None = None


@dataclass(frozen=True)
class CellFailure:
    """Structured record of a cell that kept failing after its retry.

    ``kind`` mirrors :attr:`~repro.utils.procpool.PoolOutcome.kind`:
    ``"error"`` (the cell raised), ``"timeout"``, ``"poison"`` (the cell
    repeatedly killed its worker pool and was quarantined so the rest of
    the sweep could finish) or ``"crash"`` (pool kept breaking for
    reasons the cell was never blamed for).
    """

    figure: str
    parameter: str
    value: object
    approach: str
    error: str
    attempts: int
    kind: str = "error"

    @property
    def timed_out(self) -> bool:
        return self.kind == "timeout"


@dataclass
class CellResult:
    """Outcome (or failure) of one executed cell, plus its timings.

    ``resumed`` marks a cell loaded from a checkpoint journal rather
    than executed this run; its timings are the original run's.
    """

    spec: CellSpec
    outcome: ApproachOutcome | None = None
    upper: float | None = None
    wall_seconds: float = 0.0
    queue_seconds: float = 0.0
    attempts: int = 1
    worker_pid: int = 0
    failure: CellFailure | None = None
    resumed: bool = False


@dataclass
class ExecutorTelemetry:
    """Aggregate instrumentation of one :meth:`SweepExecutor.run` call.

    ``cell_seconds`` sums every successful cell's in-worker wall time —
    the serial-execution estimate — so ``speedup_vs_serial_estimate =
    cell_seconds / wall_seconds`` and ``worker_utilization =
    cell_seconds / (wall_seconds * n_jobs)``.
    """

    n_jobs: int
    cells: int = 0
    failed_cells: int = 0
    retried_cells: int = 0
    resumed_cells: int = 0
    wall_seconds: float = 0.0
    cell_seconds: float = 0.0
    mean_queue_seconds: float = 0.0
    worker_utilization: float = 0.0
    speedup_vs_serial_estimate: float = 0.0
    distinct_workers: int = 0
    pool_rebuilds: int = 0
    quarantined_cells: int = 0
    journal_recovered_lines: int = 0

    def to_dict(self) -> dict:
        """JSON-ready representation, one key per field."""
        return asdict(self)

    def summary(self) -> str:
        """One human-readable line for CLI output."""
        parts = [
            f"{self.cells} cells over {self.n_jobs} worker(s) "
            f"in {self.wall_seconds:.1f}s",
            f"cell-time {self.cell_seconds:.1f}s",
            f"speedup {self.speedup_vs_serial_estimate:.2f}x",
            f"utilization {self.worker_utilization:.0%}",
        ]
        if self.n_jobs > 1:
            parts.append(f"queue {self.mean_queue_seconds * 1e3:.0f}ms")
        if self.resumed_cells:
            parts.append(f"resumed {self.resumed_cells}")
        if self.retried_cells:
            parts.append(f"retried {self.retried_cells}")
        if self.pool_rebuilds:
            parts.append(f"pool rebuilt {self.pool_rebuilds}x")
        if self.journal_recovered_lines:
            parts.append(f"journal recovered {self.journal_recovered_lines}")
        if self.quarantined_cells:
            parts.append(f"QUARANTINED {self.quarantined_cells}")
        if self.failed_cells:
            parts.append(f"FAILED {self.failed_cells}")
        return ", ".join(parts)


# --------------------------------------------------------------------------
# Population cache — satellite: build_population is deterministic given
# (settings, seed), so one sweep point's approaches (and one worker's
# successive cells) share a single dataset build instead of regenerating
# the Meetup surrogate crawl per cell.

_POPULATION_CACHE: dict[tuple, Population] = {}
_POPULATION_CACHE_LIMIT = 4


def population_cache_key(settings: ExperimentSettings, seed) -> tuple:
    """The inputs that actually determine a population's contents.

    Meetup ignores the settings entirely; synthetic pools depend only on
    the derived pool sizes and the distribution. Everything else
    (capacity, epsilon, speed/radius ranges, ...) is applied per batch,
    so sweeping it must NOT invalidate the cache.
    """
    if settings.dataset == "meetup":
        return ("meetup", seed)
    worker_pool, task_pool = synthetic_pool_sizes(settings)
    return (
        settings.dataset,
        worker_pool,
        task_pool,
        settings.quality_backend,
        seed,
    )


def cached_population(
    settings: ExperimentSettings,
    seed,
    quality_shm: tuple[str, int] | None = None,
) -> Population:
    """A process-local memoized :func:`build_population`.

    ``quality_shm`` attaches the population's cooperation matrix from an
    existing shared-memory segment instead of regenerating it — the
    zero-copy path of the ``shared`` quality backend. Locations are drawn
    before quality from the same rng stream, so the attached population
    is exactly the one the segment's creator built.
    """
    key = population_cache_key(settings, seed)
    if quality_shm is not None:
        key = key + ("shm", quality_shm[0])
    population = _POPULATION_CACHE.get(key)
    if population is None:
        quality = None
        if quality_shm is not None:
            name, size = quality_shm
            quality = SharedDenseQualityStore.attach(name, int(size))
        population = build_population(settings, seed=seed, quality=quality)
        while len(_POPULATION_CACHE) >= _POPULATION_CACHE_LIMIT:
            _POPULATION_CACHE.pop(next(iter(_POPULATION_CACHE)))
        _POPULATION_CACHE[key] = population
    return population


def _execute_cell(spec: CellSpec, submitted_at: float) -> dict:
    """Run one cell (in a pool worker or inline) and return a payload.

    Module-level so spawn-start pools can pickle it by reference.
    ``submitted_at``/``started_at`` use ``time.time`` — comparable across
    processes — to measure queue latency.
    """
    started_at = time.time()
    started = time.perf_counter()
    population = cached_population(
        spec.settings, spec.seed, quality_shm=spec.quality_shm
    )
    outcome, upper = run_single_approach(
        population,
        spec.settings,
        spec.approach,
        seed=spec.seed,
        compute_upper=spec.compute_upper,
    )
    return {
        "outcome": outcome,
        "upper": upper,
        "wall_seconds": time.perf_counter() - started,
        "queue_seconds": max(0.0, started_at - submitted_at),
        "worker_pid": os.getpid(),
    }


# --------------------------------------------------------------------------
# Checkpoint journal — tentpole: a killed or crashed sweep resumes by
# skipping cells already journaled, repr-identical to an uninterrupted run.


def _spec_key(spec: CellSpec) -> str:
    """Canonical identity of a cell — the journal's lookup key.

    Built from the spec's full JSON rendering (sorted keys), so a resumed
    sweep only reuses a record when *every* knob that determined the cell
    matches the current request; any settings change makes the cell
    re-run instead of silently serving stale results.

    ``quality_shm`` is deliberately excluded: shared-memory segment names
    are random per run and purely a transport detail, so a shared-backend
    sweep resumes from (and journals to) the same records as a dense one.
    Every settings field flows through ``asdict``, so a settings field
    added or removed changes every key: records journaled before the
    change stay readable but no longer match, and their cells re-run.
    """
    payload = asdict(spec)
    payload.pop("quality_shm", None)
    return json.dumps(payload, sort_keys=True, default=str)


def _result_to_payload(result: CellResult) -> dict:
    """JSON-ready journal record of one *successful* cell.

    Failures are deliberately not journaled: a failed cell should retry
    on resume, not be replayed.
    """
    payload = {
        "schema": JOURNAL_SCHEMA_VERSION,
        "key": _spec_key(result.spec),
        "upper": result.upper,
        "wall_seconds": result.wall_seconds,
        "queue_seconds": result.queue_seconds,
        "attempts": result.attempts,
        "worker_pid": result.worker_pid,
        "outcome": None,
    }
    outcome = result.outcome
    if outcome is not None:
        stats = outcome.stats
        payload["outcome"] = {
            "name": outcome.name,
            "total_score": outcome.total_score,
            "mean_batch_seconds": outcome.mean_batch_seconds,
            "completed_tasks": outcome.completed_tasks,
            "assigned_workers": outcome.assigned_workers,
            "rounds": [round_to_dict(r) for r in outcome.report.rounds],
            "stats": stats.to_dict() if stats is not None else None,
        }
    return payload


def _payload_to_result(payload: dict, spec: CellSpec) -> CellResult:
    """Rebuild a :class:`CellResult` from its journal record.

    Python's ``json`` emits shortest-repr floats, which round-trip
    losslessly, so the rebuilt outcome is repr-identical to the one
    journaled — the property the resume parity tests pin down.
    """
    outcome = None
    data = payload.get("outcome")
    if data is not None:
        stats_data = data.get("stats")
        outcome = ApproachOutcome(
            name=data["name"],
            total_score=data["total_score"],
            mean_batch_seconds=data["mean_batch_seconds"],
            completed_tasks=data["completed_tasks"],
            assigned_workers=data["assigned_workers"],
            report=SimulationReport(
                rounds=[round_from_dict(r) for r in data["rounds"]]
            ),
            stats=(
                SolverStats.from_dict(stats_data)
                if stats_data is not None
                else None
            ),
        )
    return CellResult(
        spec=spec,
        outcome=outcome,
        upper=payload.get("upper"),
        wall_seconds=payload.get("wall_seconds", 0.0),
        queue_seconds=payload.get("queue_seconds", 0.0),
        attempts=payload.get("attempts", 1),
        worker_pid=payload.get("worker_pid", 0),
        resumed=True,
    )


def _journal_line(payload: dict) -> str:
    """One journal line: the record JSON wrapped with its CRC32.

    The CRC is computed over the sorted-keys rendering of the record, so
    verification re-serializes the parsed record the same way — Python's
    shortest-repr floats round-trip exactly, making the check stable.
    """
    body = json.dumps(payload, sort_keys=True)
    return json.dumps(
        {"crc": zlib.crc32(body.encode("utf-8")), "record": payload},
        sort_keys=True,
    )


def _verify_line(wrapper: dict) -> dict | None:
    """CRC-check one parsed journal wrapper; the record or ``None``."""
    payload = wrapper.get("record")
    if not isinstance(payload, dict):
        return None
    body = json.dumps(payload, sort_keys=True)
    if zlib.crc32(body.encode("utf-8")) != wrapper["crc"]:
        return None
    return payload


class SweepJournal:
    """Append-only JSONL checkpoint of finished sweep cells.

    Each line wraps one schema-versioned record of a successful cell
    with its CRC32 (:func:`_journal_line`), written atomically from the
    appender's view: append + flush + ``os.fsync`` per record, so a kill
    between cells loses at most the cell in flight.

    A hard kill *mid-write* leaves a torn trailing line with no
    newline — and a later append would glue its record onto that
    fragment, silently losing both. :meth:`recover` therefore physically
    truncates the file back to its last complete line; both :meth:`load`
    and the first :meth:`append` run it, and every dropped line (torn
    tail, CRC mismatch, unparseable) is counted in
    :attr:`recovered_lines` so telemetry can surface the repair.
    Records from other schema versions are skipped silently — those
    cells simply re-run.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        #: Lines dropped (torn tail truncated, CRC-mismatch skipped)
        #: while loading/repairing this journal.
        self.recovered_lines = 0
        self._tail_checked = False

    def recover(self) -> int:
        """Truncate a torn trailing line in place; returns bytes cut.

        Idempotent and cheap (seeks from the end); a no-op on a missing,
        empty or newline-terminated file.
        """
        self._tail_checked = True
        if not self.path.exists():
            return 0
        with open(self.path, "rb+") as handle:
            handle.seek(0, os.SEEK_END)
            size = handle.tell()
            if size == 0:
                return 0
            handle.seek(size - 1)
            if handle.read(1) == b"\n":
                return 0
            # Walk back to the last newline (or file start) and cut.
            handle.seek(0)
            data = handle.read(size)
            keep = data.rfind(b"\n") + 1
            handle.truncate(keep)
            handle.flush()
            os.fsync(handle.fileno())
        self.recovered_lines += 1
        return size - keep

    def load(self) -> dict[str, dict]:
        """Finished-cell records keyed by :func:`_spec_key` string."""
        self.recover()
        records: dict[str, dict] = {}
        if not self.path.exists():
            return records
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    wrapper = json.loads(line)
                except ValueError:
                    # Torn or bit-rotted line — drop it; the cell re-runs.
                    self.recovered_lines += 1
                    continue
                if not isinstance(wrapper, dict):
                    self.recovered_lines += 1
                    continue
                if "crc" not in wrapper:
                    # Pre-CRC (v1) record: a version mismatch, not
                    # corruption — skip silently, the cell re-runs.
                    continue
                payload = _verify_line(wrapper)
                if payload is None:
                    self.recovered_lines += 1
                    continue
                if (
                    payload.get("schema") != JOURNAL_SCHEMA_VERSION
                    or "key" not in payload
                ):
                    continue  # other schema version: re-run, not corrupt
                records[payload["key"]] = payload
        return records

    def append(self, result: CellResult) -> None:
        """Durably journal one successful cell."""
        if not self._tail_checked:
            # First append of this run: make sure we never glue a record
            # onto a torn line a killed predecessor left behind.
            self.recover()
        line = _journal_line(_result_to_payload(result))
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())


class SweepExecutor:
    """Fans sweep cells out over a process pool, deterministically.

    Parameters
    ----------
    n_jobs:
        Worker processes. ``1`` (default) runs every cell inline —
        byte-for-byte the historical serial path.
    timeout:
        Per-cell wall-clock budget in seconds, measured from when the
        cell is observed running (so queue time never counts). ``None``
        disables it. Only enforced when ``n_jobs > 1``: a timed-out
        cell's future is abandoned (the OS process keeps the slot until
        its current cell ends — a truly non-terminating solver should be
        fixed, not timed out).
    retries:
        Extra attempts after a raise/timeout before a
        :class:`CellFailure` is recorded (default 1 → two attempts).
    mp_context:
        ``multiprocessing`` start method. ``"spawn"`` (default) is the
        portable, thread-safe choice and what determinism is tested
        under; ``"fork"`` is available for tests that must inherit
        monkeypatched registries.
    checkpoint:
        Path of a :class:`SweepJournal` JSONL file. Every finished cell
        is appended durably; a re-run with the same checkpoint skips
        cells already journaled (``CellResult.resumed=True``). ``None``
        (default) disables journaling entirely.
    quality_backend:
        ``"shared"`` places each distinct population's dense cooperation
        matrix in one :mod:`multiprocessing.shared_memory` segment that
        every pool worker attaches zero-copy, instead of rebuilding
        ``n^2`` floats per process. Results stay bit-identical — the
        segment holds exactly the floats the worker would have generated.
        Segments are created lazily when the pool path actually runs and
        are always unlinked in a ``finally`` (including on
        ``KeyboardInterrupt``); their names are exposed afterwards as
        ``last_shared_segments`` so tests can assert nothing leaked.
        ``"dense"`` (default) and ``"sparse"`` change nothing here —
        sparse is a *population* concern configured via
        ``ExperimentSettings.quality_backend``.

    After a ``KeyboardInterrupt`` mid-run the telemetry of the cells
    that did finish is available as ``partial_telemetry``.
    """

    def __init__(
        self,
        n_jobs: int = 1,
        timeout: float | None = None,
        retries: int = 1,
        mp_context: str = "spawn",
        checkpoint: str | Path | None = None,
        quality_backend: str = "dense",
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        #: The one pool every run fans out over; it validates and keeps
        #: ``n_jobs``, ``timeout``, ``retries``, ``mp_context`` and
        #: ``retry_policy`` (``None``: the :class:`RetryPolicy` defaults).
        self.pool = FanoutPool(
            n_jobs=n_jobs,
            timeout=timeout,
            retries=retries,
            mp_context=mp_context,
            retry_policy=retry_policy,
            chaos_scope="cell",
        )
        if quality_backend not in QUALITY_BACKENDS:
            raise ValueError(
                f"unknown quality_backend {quality_backend!r}; "
                f"expected one of {QUALITY_BACKENDS}"
            )
        self.checkpoint = checkpoint
        self.quality_backend = quality_backend
        self.partial_telemetry: ExecutorTelemetry | None = None
        self._journal_recovered = 0
        #: Names of the shared-memory segments the most recent
        #: :meth:`run` created (all unlinked by the time run returns).
        self.last_shared_segments: list[str] = []

    @property
    def n_jobs(self) -> int:
        return self.pool.n_jobs

    def run(
        self, specs: list[CellSpec]
    ) -> tuple[list[CellResult], ExecutorTelemetry]:
        """Execute every cell; returns per-cell results (in spec order)
        plus the run's :class:`ExecutorTelemetry`.

        With a ``checkpoint``, cells whose key is already journaled are
        loaded instead of executed, and every cell finished here is
        journaled before the next one starts. ``KeyboardInterrupt`` is
        re-raised after the journal is safe and ``partial_telemetry``
        reflects the finished cells — the sweep can be resumed verbatim.
        """
        started = time.perf_counter()
        journal = (
            SweepJournal(self.checkpoint)
            if self.checkpoint is not None
            else None
        )
        self._journal_recovered = 0
        results: dict[int, CellResult] = {}
        remaining: list[tuple[int, CellSpec]] = []
        if journal is not None:
            finished = journal.load()
            self._journal_recovered = journal.recovered_lines
            for index, spec in enumerate(specs):
                payload = finished.get(_spec_key(spec))
                if payload is not None:
                    results[index] = _payload_to_result(payload, spec)
                else:
                    remaining.append((index, spec))
        else:
            remaining = list(enumerate(specs))

        shared_stores: list[SharedDenseQualityStore] = []
        self.last_shared_segments = []
        try:
            # FanoutPool runs inline when n_jobs == 1 or at most one cell
            # is left; shared memory only pays off on the pool path.
            if (
                self.quality_backend == "shared"
                and self.n_jobs > 1
                and len(remaining) > 1
            ):
                remaining = self._annotate_shared(remaining, shared_stores)
            indices = [index for index, _ in remaining]
            cells = [spec for _, spec in remaining]

            def on_result(outcome: PoolOutcome) -> None:
                # Fires as cells finish (completion order), so each one
                # is durably journaled before the next completes.
                result = self._cell_result(cells[outcome.index], outcome)
                results[indices[outcome.index]] = result
                if journal is not None and result.failure is None:
                    journal.append(result)

            self.pool.run(_execute_cell, cells, on_result=on_result)
        except KeyboardInterrupt:
            # Satellite contract: the journal already holds every cell
            # that finished (each append flushed + fsynced), so surface
            # what completed and hand control back to the user.
            done = [results[index] for index in sorted(results)]
            self.partial_telemetry = self._telemetry(
                done, time.perf_counter() - started
            )
            where = f"; journal: {journal.path}" if journal is not None else ""
            print(
                f"[sweep] interrupted after {len(done)}/{len(specs)} "
                f"finished cells{where}",
                file=sys.stderr,
            )
            raise
        finally:
            # Shared-memory lifecycle: the creator (this process) always
            # unlinks, even on KeyboardInterrupt — attached workers keep
            # their mappings until they exit, but no named segment
            # outlives the sweep.
            for store in shared_stores:
                store.close()
                store.unlink()

        ordered = [results[index] for index in range(len(specs))]
        telemetry = self._telemetry(ordered, time.perf_counter() - started)
        return ordered, telemetry

    def _annotate_shared(
        self,
        remaining: list[tuple[int, CellSpec]],
        shared_stores: list[SharedDenseQualityStore],
    ) -> list[tuple[int, CellSpec]]:
        """Create one shared segment per distinct population and tag specs.

        Populations are built once in the parent (via the same
        :func:`cached_population` the serial path uses), their dense
        matrices copied into shared memory, and every cell spec of that
        population annotated with ``(segment_name, size)``. Populations
        whose quality is not a dense matrix (the sparse backend — already
        O(nnz) small) are left untouched.
        """
        segments: dict[tuple, tuple[str, int] | None] = {}
        annotated: list[tuple[int, CellSpec]] = []
        for index, spec in remaining:
            key = population_cache_key(spec.settings, spec.seed)
            if key not in segments:
                population = cached_population(spec.settings, spec.seed)
                if isinstance(population.quality, CooperationMatrix):
                    store = SharedDenseQualityStore.create(population.quality)
                    shared_stores.append(store)
                    self.last_shared_segments.append(store.name)
                    segments[key] = (store.name, store.size)
                else:
                    segments[key] = None
            entry = segments[key]
            if entry is not None:
                spec = replace(spec, quality_shm=entry)
            annotated.append((index, spec))
        return annotated

    @staticmethod
    def _cell_result(spec: CellSpec, outcome: PoolOutcome) -> CellResult:
        if outcome.succeeded:
            return CellResult(spec=spec, attempts=outcome.attempts, **outcome.payload)
        return CellResult(
            spec=spec,
            attempts=outcome.attempts,
            failure=CellFailure(
                figure=spec.figure,
                parameter=spec.parameter,
                value=spec.value,
                approach=spec.approach,
                error=outcome.error or "unknown error",
                attempts=outcome.attempts,
                kind=outcome.kind if outcome.kind != "ok" else "error",
            ),
        )

    def _telemetry(
        self, results: list[CellResult], wall_seconds: float
    ) -> ExecutorTelemetry:
        succeeded = [r for r in results if r.failure is None]
        # Resumed cells were executed (and timed) by an earlier run, so
        # they do not contribute to this run's timing aggregates.
        executed = [r for r in succeeded if not r.resumed]
        cell_seconds = sum(r.wall_seconds for r in executed)
        telemetry = ExecutorTelemetry(
            n_jobs=self.n_jobs,
            cells=len(results),
            failed_cells=len(results) - len(succeeded),
            retried_cells=sum(
                1 for r in results if r.attempts > 1 and not r.resumed
            ),
            resumed_cells=sum(1 for r in succeeded if r.resumed),
            wall_seconds=wall_seconds,
            cell_seconds=cell_seconds,
            distinct_workers=len({r.worker_pid for r in executed}),
            pool_rebuilds=self.pool.last_rebuilds,
            quarantined_cells=sum(
                1
                for r in results
                if r.failure is not None and r.failure.kind == "poison"
            ),
            journal_recovered_lines=self._journal_recovered,
        )
        if executed:
            telemetry.mean_queue_seconds = sum(
                r.queue_seconds for r in executed
            ) / len(executed)
        if wall_seconds > 0:
            telemetry.speedup_vs_serial_estimate = cell_seconds / wall_seconds
            telemetry.worker_utilization = cell_seconds / (
                wall_seconds * self.n_jobs
            )
        return telemetry


def build_cell_specs(
    figure: str,
    parameter: str,
    values,
    settings_for_value,
    base: ExperimentSettings,
    approaches: tuple[str, ...],
    seed: int,
) -> list[CellSpec]:
    """Expand one figure sweep into its (value x approach) cell grid."""
    upper_approach = upper_reference(approaches)
    specs: list[CellSpec] = []
    for value_index, value in enumerate(values):
        settings = settings_for_value(base, value)
        for approach in approaches:
            specs.append(
                CellSpec(
                    figure=figure,
                    parameter=parameter,
                    value_index=value_index,
                    value=value,
                    settings=settings,
                    approach=approach,
                    seed=seed,
                    compute_upper=approach == upper_approach,
                )
            )
    return specs


def assemble_points(
    results: list[CellResult],
    parameter: str,
    values,
    approaches: tuple[str, ...],
) -> tuple[list[SweepPoint], list[CellFailure]]:
    """Merge cell results back into per-value :class:`SweepPoint`\\ s.

    Outcomes are inserted in ``approaches`` order regardless of the
    order cells completed in, so the assembled points are identical to
    the serial loop's. Failed cells are skipped and their failures
    returned alongside.
    """
    by_key = {(r.spec.value_index, r.spec.approach): r for r in results}
    points: list[SweepPoint] = []
    failures: list[CellFailure] = []
    for value_index, value in enumerate(values):
        point = SweepPoint(parameter=parameter, value=value)
        for approach in approaches:
            result = by_key.get((value_index, approach))
            if result is None:
                continue
            if result.failure is not None:
                failures.append(result.failure)
                continue
            point.outcomes[approach] = result.outcome
            if result.spec.compute_upper and result.upper is not None:
                point.upper = result.upper
        points.append(point)
    return points, failures
