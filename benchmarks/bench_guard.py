"""Performance guard — the repo's perf-trajectory record.

Two sections, both written to ``BENCH_pr2.json`` next to the repo root:

* **solver_guard** — runs the instrumented solvers (TPG, GT, GT+ALL) on
  seeded Table II default-scale batches (m = 1000 workers, n = 500
  tasks), checks that every incremental score matches the from-scratch
  Equation 2/3 oracle bit-for-bit, and records per-seed solve times,
  scores, and the merged :class:`~repro.core.stats.SolverStats`.
* **parallel_sweep** — runs the Figure 7 worker sweep serially and with
  ``--jobs N`` through :class:`~repro.experiments.parallel.
  SweepExecutor`, records both wall-clocks plus the executor telemetry,
  and checks that every parallel score / upper bound / completed-task
  count is **bit-identical** to the serial run. The measured speedup is
  hardware-dependent (it needs free cores — ``cpu_count`` is recorded
  alongside so the number is interpretable); the telemetry's
  ``speedup_vs_serial_estimate`` additionally reports
  sum-of-cell-time / wall, the core-independent view.

A third group of sections — the quality-store scale record — is written
to ``BENCH_pr4.json``:

* **backend_parity** — builds the *same* community quality matrix as a
  :class:`~repro.core.quality_store.SparseQualityStore`, its dense
  ``to_dense()`` twin, and a shared-memory copy, then solves TPG, GT and
  GT+ALL on each over the seed grid and checks the assignments and
  scores are **repr-identical** across all three backends.
* **memory_scaling** — per worker count (default 2 000 / 8 000 /
  20 000), spawns one child process per backend that builds its
  production quality store plus a fixed read workload and reports
  ``ru_maxrss``; records peak RSS and wall for dense vs sparse. At
  n >= 20 000 the sparse backend must cut peak RSS by at least 5x or
  the guard fails.
* **shared_attach** — one-time shared-segment creation cost vs the
  per-worker zero-copy attach, against the per-process rebuild and
  memcpy costs it replaces.

A fourth section — the geo-sharded scale record — is written to
``BENCH_pr7.json``:

* **shard_scaling** — per worker count (default 20 000 / 100 000),
  spawns one child process per leg (monolithic GT, sharded GT twice)
  on a sparse-geometry synthetic population with the sparse quality
  backend, and records wall-clock, peak RSS, the revenue gap, the
  sharded pipeline's phase breakdown, and a *critical-path concurrency
  estimate* (what the sharded wall would be if the per-shard solves
  ran concurrently: partition + carve + slowest shard + reconcile).
  Gates: the two sharded runs must be **bit-identical** (same pairs,
  same repr'd score); at the largest size with a monolithic leg the
  revenue gap must stay <= 1% and the better of measured / estimated
  speedup must reach >= 3x (on a 1-core container the estimate is the
  honest number — recorded alongside ``cpu_count`` like the parallel
  sweep); the largest size runs sharded-only — the monolithic solve is
  not affordable there, completing it *is* the result.

A fifth section — the crash-recovery record — is written to
``BENCH_pr8.json``:

* **chaos_guard** — runs one small sweep three ways: serial (the
  oracle), over a spawn pool with the retry/backoff policy threaded but
  no chaos (must stay **repr-identical** to serial — the chaos-off
  parity gate), and over the same pool under an activated
  :class:`~repro.chaos.ChaosPolicy` SIGKILLing ~10% of first attempts
  (must also recover to repr-identical results with zero failed cells).
  Records cells/sec for the clean and chaotic legs plus the recovery
  overhead ratio — the price of supervision when children actually die.

Usage::

    PYTHONPATH=src python benchmarks/bench_guard.py              # everything
    PYTHONPATH=src python benchmarks/bench_guard.py --repeats 4
    PYTHONPATH=src python benchmarks/bench_guard.py --jobs 8 --sweep-scale 0.5
    PYTHONPATH=src python benchmarks/bench_guard.py --skip-sweep
    PYTHONPATH=src python benchmarks/bench_guard.py --only-scale \\
        --scale-sizes 2000 8000 20000
    PYTHONPATH=src python benchmarks/bench_guard.py --only-shards \\
        --shard-sizes 20000 100000

Exit status is non-zero when an incremental score deviates from the
oracle or a parallel sweep result deviates from serial — both are
correctness bugs, never tolerance issues, because both paths are
bit-identical by construction.

The ``baseline_reference`` block records the pre-incremental-engine
timings measured on the same machine when this guard was introduced, so
future sessions can read the speed trajectory without digging through
git history.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.game import solve_game_theoretic  # noqa: E402
from repro.core.model import Instance  # noqa: E402
from repro.core.tpg import solve_tpg_with_stats  # noqa: E402
from repro.core.validity import compute_valid_pairs  # noqa: E402
from repro.datasets.synthetic import generate_instance  # noqa: E402

#: Table II defaults (bold): m = 1000 workers, n = 500 tasks per batch.
DEFAULT_WORKERS = 1000
DEFAULT_TASKS = 500
DEFAULT_SEEDS = (0, 1, 2)
DEFAULT_SWEEP_SCALE = 0.3
DEFAULT_JOBS = 4
DEFAULT_SCALE_SIZES = (2000, 8000, 20000)
#: Acceptance bar: at n >= this, sparse must cut peak RSS >= 5x.
RSS_RATIO_FLOOR = 5.0
RSS_RATIO_SIZE = 20000
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_pr2.json"
SCALE_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_pr4.json"
SHARD_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_pr7.json"
CHAOS_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_pr8.json"

#: Chaos-guard kill probability per first attempt (see run_chaos_benchmark).
#: 0.2 is the smallest decade-ish rate whose seeded draws actually fire
#: on the 6-cell guard sweep (at 0.1 no cell draws a kill, so the
#: "chaotic" leg would measure nothing).
CHAOS_KILL_RATE = 0.2

#: Geo-sharded scale record: sizes, geometry and the acceptance bars.
#: The population is sparse-geometry (small working radii) with the
#: sparse quality backend — the regime sharding exists for; n tasks is
#: workers // 4. Monolithic legs only run up to SHARD_MONO_CAP (beyond
#: it the monolithic solve is the thing being avoided).
DEFAULT_SHARD_SIZES = (20000, 100000)
SHARD_MONO_CAP = 20000
SHARD_RADIUS_RANGE = (0.01, 0.02)
SHARD_SPEEDUP_FLOOR = 3.0
SHARD_GAP_CEILING = 0.01

#: Mean per-batch wall-clock of the pre-incremental-engine code at the
#: same scale and seeds, measured as min-of-4 repeats on the machine
#: that introduced this guard. The incremental engine's acceptance bar
#: was mean GT time improved >= 2x against these numbers.
BASELINE_REFERENCE = {
    "tpg_mean_seconds": 0.128,
    "gt_mean_seconds": 0.389,
    "gtall_mean_seconds": 0.204,
}


def _check_oracle(label: str, seed: int, assignment) -> list[str]:
    """Compare the incremental total against from-scratch Equation 3.

    The tolerance matches the stateful-test contract: the delta path
    accumulates pair sums one move at a time, so totals can differ from
    the single-pass from-scratch sum by float-accumulation noise (about
    one ulp per move); any cache bug shows up orders of magnitude above
    1e-9.
    """
    incremental = assignment.total_score()
    oracle = assignment.recompute_total()
    if not math.isclose(incremental, oracle, rel_tol=1e-9, abs_tol=1e-9):
        return [
            f"{label} seed={seed}: incremental score {incremental!r} "
            f"deviates from from-scratch oracle {oracle!r}"
        ]
    return []


def run_guard(
    seeds=DEFAULT_SEEDS,
    workers: int = DEFAULT_WORKERS,
    tasks: int = DEFAULT_TASKS,
    repeats: int = 3,
) -> tuple[dict, list[str]]:
    failures: list[str] = []
    record: dict = {
        "scale": {"workers": workers, "tasks": tasks, "seeds": list(seeds)},
        "repeats": repeats,
        "baseline_reference": dict(BASELINE_REFERENCE),
        "batches": {},
    }

    for seed in seeds:
        instance = generate_instance(workers, tasks, seed=seed)
        valid_pairs = compute_valid_pairs(instance)
        entry: dict = {}

        best_tpg = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            tpg = solve_tpg_with_stats(instance, valid_pairs)
            best_tpg = min(best_tpg, time.perf_counter() - started)
        failures += _check_oracle("TPG", seed, tpg.assignment)
        entry["tpg"] = {
            "seconds": best_tpg,
            "score": repr(tpg.assignment.total_score()),
            "seeded_tasks": tpg.seeded_tasks,
            "stats": tpg.stats.to_dict() if tpg.stats else None,
        }

        best_gt = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            gt = solve_game_theoretic(instance, valid_pairs)
            best_gt = min(best_gt, time.perf_counter() - started)
        failures += _check_oracle("GT", seed, gt.assignment)
        entry["gt"] = {
            "seconds": best_gt,
            "score": repr(gt.final_score),
            "rounds": gt.rounds,
            "moves": gt.moves,
            "converged": gt.converged,
            "stats": gt.stats.to_dict() if gt.stats else None,
        }

        best_gtall = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            gtall = solve_game_theoretic(
                instance, valid_pairs, epsilon=0.05, lazy_update=True
            )
            best_gtall = min(best_gtall, time.perf_counter() - started)
        failures += _check_oracle("GT+ALL", seed, gtall.assignment)
        entry["gtall"] = {
            "seconds": best_gtall,
            "score": repr(gtall.final_score),
            "rounds": gtall.rounds,
            "moves": gtall.moves,
            "stats": gtall.stats.to_dict() if gtall.stats else None,
        }

        record["batches"][str(seed)] = entry

    batches = record["batches"].values()
    record["summary"] = {
        solver: {
            "mean_seconds": sum(b[solver]["seconds"] for b in batches)
            / len(record["batches"]),
        }
        for solver in ("tpg", "gt", "gtall")
    }
    for solver in ("tpg", "gt", "gtall"):
        baseline = BASELINE_REFERENCE[f"{solver}_mean_seconds"]
        mean = record["summary"][solver]["mean_seconds"]
        record["summary"][solver]["speedup_vs_baseline"] = baseline / mean
    return record, failures


def _sweep_fingerprint(result) -> dict:
    """Everything a sweep computes that must be bit-identical across
    executors: scores, upper bounds and completed-task counts, keyed by
    parameter value and approach. Uses ``repr`` so comparison is exact
    down to the last float bit."""
    table: dict = {}
    for point in result.points:
        table[str(point.value)] = {
            "upper": repr(point.upper),
            "scores": {
                name: repr(outcome.total_score)
                for name, outcome in point.outcomes.items()
            },
            "completed": {
                name: outcome.completed_tasks
                for name, outcome in point.outcomes.items()
            },
        }
    return table


def run_sweep_benchmark(
    scale: float = DEFAULT_SWEEP_SCALE,
    jobs: int = DEFAULT_JOBS,
    seed: int = 0,
) -> tuple[dict, list[str]]:
    """Serial vs parallel Figure 7 sweep: wall-clocks + parity check."""
    from repro.experiments.figures import fig7_workers

    failures: list[str] = []

    started = time.perf_counter()
    serial = fig7_workers(scale=scale, seed=seed, n_jobs=1)
    serial_seconds = time.perf_counter() - started

    started = time.perf_counter()
    parallel = fig7_workers(scale=scale, seed=seed, n_jobs=jobs)
    parallel_seconds = time.perf_counter() - started

    serial_table = _sweep_fingerprint(serial)
    parallel_table = _sweep_fingerprint(parallel)
    if serial_table != parallel_table:
        failures.append(
            f"fig7 sweep at --jobs {jobs} is not bit-identical to serial"
        )
    for failure in parallel.failures:
        failures.append(
            f"fig7 parallel sweep cell failed: {failure.approach} at "
            f"{failure.parameter}={failure.value}: {failure.error}"
        )

    record = {
        "figure": "fig7_workers",
        "scale": scale,
        "seed": seed,
        "jobs": jobs,
        "cpu_count": os.cpu_count(),
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "measured_speedup": (
            serial_seconds / parallel_seconds if parallel_seconds else 0.0
        ),
        "bit_identical": serial_table == parallel_table,
        "serial_telemetry": serial.telemetry.to_dict(),
        "parallel_telemetry": parallel.telemetry.to_dict(),
        "scores": serial_table,
    }
    return record, failures


def _with_quality(instance: Instance, quality) -> Instance:
    """The same workers/tasks served by a different quality backend."""
    return Instance(
        workers=instance.workers,
        tasks=instance.tasks,
        quality=quality,
        min_group_size=instance.min_group_size,
        now=instance.now,
    )


def _solve_fingerprint(instance: Instance) -> dict:
    """Repr-exact record of what each solver decides on ``instance``.

    ``repr`` of the (worker, task) pair list plus the incremental total,
    so any backend-induced difference — even one float bit — shows up.
    """
    valid_pairs = compute_valid_pairs(instance)
    fingerprint: dict = {}
    tpg = solve_tpg_with_stats(instance, valid_pairs)
    fingerprint["tpg"] = {
        "pairs": repr(tpg.assignment.to_pairs()),
        "score": repr(tpg.assignment.total_score()),
    }
    gt = solve_game_theoretic(instance, valid_pairs)
    fingerprint["gt"] = {
        "pairs": repr(gt.assignment.to_pairs()),
        "score": repr(gt.final_score),
    }
    gtall = solve_game_theoretic(
        instance, valid_pairs, epsilon=0.05, lazy_update=True
    )
    fingerprint["gtall"] = {
        "pairs": repr(gtall.assignment.to_pairs()),
        "score": repr(gtall.final_score),
    }
    return fingerprint


def run_backend_parity(
    seeds=DEFAULT_SEEDS,
    workers: int = DEFAULT_WORKERS,
    tasks: int = DEFAULT_TASKS,
) -> tuple[dict, list[str]]:
    """Dense / sparse / shared backends must make identical decisions.

    All three stores hold the *same* matrix (the sparse community store,
    its dense materialization, and a shared-memory copy of that), so any
    divergence is a backend bug, never a tolerance issue.
    """
    from repro.core.quality_store import SharedDenseQualityStore

    failures: list[str] = []
    record: dict = {
        "scale": {"workers": workers, "tasks": tasks, "seeds": list(seeds)},
        "solvers": ["tpg", "gt", "gtall"],
        "seeds": {},
    }
    for seed in seeds:
        sparse_instance = generate_instance(
            workers, tasks, seed=seed, quality_backend="sparse"
        )
        dense = sparse_instance.quality.to_dense()
        shared = SharedDenseQualityStore.create(dense)
        try:
            fingerprints = {
                "dense": _solve_fingerprint(_with_quality(sparse_instance, dense)),
                "sparse": _solve_fingerprint(sparse_instance),
                "shared": _solve_fingerprint(_with_quality(sparse_instance, shared)),
            }
        finally:
            shared.close()
            shared.unlink()
        identical = (
            fingerprints["dense"] == fingerprints["sparse"] == fingerprints["shared"]
        )
        if not identical:
            for backend in ("sparse", "shared"):
                for solver, expected in fingerprints["dense"].items():
                    got = fingerprints[backend][solver]
                    if got != expected:
                        failures.append(
                            f"backend parity seed={seed}: {backend} {solver} "
                            f"diverges from dense (score {got['score']} vs "
                            f"{expected['score']})"
                        )
        record["seeds"][str(seed)] = {
            "identical": identical,
            "scores": {
                solver: fingerprints["dense"][solver]["score"]
                for solver in fingerprints["dense"]
            },
        }
    record["identical"] = all(
        entry["identical"] for entry in record["seeds"].values()
    )
    return record, failures


def _measure_rss_child(backend: str, worker_count: int) -> int:
    """Child-process mode: build one backend's store, run a fixed read
    workload, print a JSON line with peak RSS — spawned by
    :func:`run_scale_benchmark` so each measurement gets a fresh
    address space (``ru_maxrss`` is a high-water mark)."""
    import resource

    from repro.core.quality import CooperationMatrix
    from repro.datasets.synthetic import sparse_community_quality

    started = time.perf_counter()
    if backend == "dense":
        store = CooperationMatrix.random_community(worker_count, seed=0)
    elif backend == "sparse":
        store = sparse_community_quality(worker_count, seed=0)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    build_seconds = time.perf_counter() - started

    rng = np.random.default_rng(0)
    started = time.perf_counter()
    sink = 0.0
    for _ in range(200):
        group = np.sort(rng.choice(worker_count, size=6, replace=False))
        sink += store.ordered_pair_sum(group)
    for worker in rng.integers(0, worker_count, size=50):
        sink += float(store.q_row(int(worker)).sum())
    subset = np.sort(
        rng.choice(worker_count, size=min(200, worker_count), replace=False)
    )
    sink += float(store.gather(subset).sum())
    read_seconds = time.perf_counter() - started

    print(
        json.dumps(
            {
                "backend": backend,
                "workers": worker_count,
                "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "build_seconds": build_seconds,
                "read_seconds": read_seconds,
                "store_nbytes": store.nbytes,
                "checksum": sink,
            }
        )
    )
    return 0


def run_scale_benchmark(
    sizes=DEFAULT_SCALE_SIZES,
) -> tuple[dict, list[str]]:
    """Peak RSS + wall of dense vs sparse community stores per size.

    Each (backend, size) runs in its own child process so the RSS
    high-water mark reflects exactly one store build plus the shared
    read workload.
    """
    failures: list[str] = []
    record: dict = {"sizes": {}, "rss_kb_is_linux_kilobytes": True}
    for worker_count in sizes:
        entry: dict = {}
        for backend in ("dense", "sparse"):
            result = subprocess.run(
                [
                    sys.executable,
                    str(Path(__file__).resolve()),
                    "--measure-rss",
                    backend,
                    str(worker_count),
                ],
                capture_output=True,
                text=True,
            )
            if result.returncode != 0:
                failures.append(
                    f"RSS child {backend} n={worker_count} failed: "
                    f"{result.stderr.strip().splitlines()[-1:]}"
                )
                continue
            entry[backend] = json.loads(result.stdout.strip().splitlines()[-1])
        if "dense" in entry and "sparse" in entry:
            ratio = entry["dense"]["peak_rss_kb"] / entry["sparse"]["peak_rss_kb"]
            entry["rss_ratio_dense_over_sparse"] = ratio
            entry["nbytes_ratio"] = (
                entry["dense"]["store_nbytes"] / entry["sparse"]["store_nbytes"]
            )
            if worker_count >= RSS_RATIO_SIZE and ratio < RSS_RATIO_FLOOR:
                failures.append(
                    f"sparse backend cuts peak RSS only {ratio:.2f}x at "
                    f"n={worker_count}; the acceptance floor is "
                    f"{RSS_RATIO_FLOOR:g}x"
                )
        record["sizes"][str(worker_count)] = entry
    return record, failures


def run_attach_benchmark(
    worker_count: int = 4000, repeats: int = 5
) -> tuple[dict, list[str]]:
    """Shared-memory attach vs the per-process costs it replaces.

    A pool worker without the shared backend either rebuilds the
    population from its seed or receives a pickled copy (~one memcpy);
    with it, the worker attaches to the parent's segment zero-copy.
    """
    from repro.core.quality import CooperationMatrix
    from repro.core.quality_store import SharedDenseQualityStore

    failures: list[str] = []
    started = time.perf_counter()
    dense = CooperationMatrix.random_community(worker_count, seed=0)
    rebuild_seconds = time.perf_counter() - started

    started = time.perf_counter()
    copied = np.array(dense.values, copy=True)
    copy_seconds = time.perf_counter() - started
    del copied

    started = time.perf_counter()
    shared = SharedDenseQualityStore.create(dense)
    create_seconds = time.perf_counter() - started

    attach_seconds = float("inf")
    try:
        for _ in range(repeats):
            started = time.perf_counter()
            attached = SharedDenseQualityStore.attach(shared.name, worker_count)
            float(attached.q_row(0).sum())  # touch pages through the view
            attach_seconds = min(attach_seconds, time.perf_counter() - started)
            attached.close()
    finally:
        shared.close()
        shared.unlink()

    record = {
        "workers": worker_count,
        "matrix_nbytes": dense.nbytes,
        "rebuild_seconds": rebuild_seconds,
        "copy_seconds": copy_seconds,
        "create_seconds": create_seconds,
        "attach_seconds": attach_seconds,
        "attach_speedup_vs_rebuild": rebuild_seconds / attach_seconds,
        "attach_speedup_vs_copy": copy_seconds / attach_seconds,
        "repeats": repeats,
    }
    if attach_seconds >= rebuild_seconds:
        failures.append(
            f"shared-memory attach ({attach_seconds:.4f}s) is not cheaper "
            f"than a population rebuild ({rebuild_seconds:.4f}s) at "
            f"n={worker_count}"
        )
    return record, failures


def _shard_instance_pairs(worker_count: int):
    """The shard-benchmark population: sparse geometry, sparse store.

    Deterministic in ``worker_count`` alone so every child process of
    one benchmark run (and every future run) solves the same instance.
    Small working radii keep each worker's candidate set local — the
    regime the spatial partition exists for — and the grid validity
    strategy avoids the O(m x n) distance matrix at these sizes.
    """
    instance = generate_instance(
        worker_count,
        worker_count // 4,
        seed=0,
        radius_range=SHARD_RADIUS_RANGE,
        quality_backend="sparse",
    )
    return instance, compute_valid_pairs(instance, "grid")


def _measure_shard_child(leg: str, worker_count: int) -> int:
    """Child-process mode: run one shard-benchmark leg, print JSON.

    ``leg`` is ``mono`` (monolithic GT) or ``sharded`` (auto-sharded
    GT). A fresh process per leg keeps ``ru_maxrss`` honest and the
    monolithic leg's memory from flattering the sharded one.
    """
    import hashlib
    import resource

    from repro.core.sharding import solve_sharded
    from repro.experiments.config import make_solver

    instance, valid_pairs = _shard_instance_pairs(worker_count)

    started = time.perf_counter()
    if leg == "mono":
        assignment = make_solver("GT", seed=0)(instance, valid_pairs)
        extra: dict = {}
    elif leg == "sharded":
        result = solve_sharded(
            instance,
            valid_pairs,
            approach="GT",
            seed=0,
            shards="auto",
        )
        assignment = result.assignment
        extra = {
            # stats carry the counters on the passthrough path too,
            # where plan is None (auto collapsed to one shard)
            "shard_count": result.stats.shard_count,
            "border_workers": result.stats.border_workers,
            "shard_seconds": result.shard_seconds
            or [result.stats.total_seconds],
            "halo_rounds_run": result.halo_rounds_run,
            "halo_moves": result.halo_moves,
            "phase_seconds": dict(result.stats.phase_seconds),
        }
    else:
        raise ValueError(f"unknown leg {leg!r}")
    seconds = time.perf_counter() - started

    print(
        json.dumps(
            {
                "leg": leg,
                "workers": worker_count,
                "seconds": seconds,
                "score": repr(assignment.recompute_total()),
                "pairs_sha256": hashlib.sha256(
                    repr(sorted(assignment.to_pairs())).encode()
                ).hexdigest(),
                "assigned_workers": len(assignment.to_pairs()),
                "peak_rss_kb": resource.getrusage(
                    resource.RUSAGE_SELF
                ).ru_maxrss,
                **extra,
            }
        )
    )
    return 0


def _run_shard_leg(leg: str, worker_count: int) -> tuple[dict | None, str | None]:
    """Spawn one shard-benchmark leg; (payload, error) — one is None."""
    result = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--measure-shard",
            leg,
            str(worker_count),
        ],
        capture_output=True,
        text=True,
    )
    if result.returncode != 0:
        tail = result.stderr.strip().splitlines()[-1:]
        return None, f"shard leg {leg} n={worker_count} failed: {tail}"
    return json.loads(result.stdout.strip().splitlines()[-1]), None


def run_shard_benchmark(
    sizes=DEFAULT_SHARD_SIZES,
    mono_cap: int = SHARD_MONO_CAP,
) -> tuple[dict, list[str]]:
    """Monolithic vs geo-sharded GT at large m: walls, gap, parity.

    Per size: one monolithic leg (skipped above ``mono_cap`` — there
    the point is that the monolithic solve is not affordable, so the
    sharded leg completing *is* the result) and two sharded legs whose
    assignments must be bit-identical (the determinism contract).
    Alongside the measured 1-process wall-clock ratio, the record
    keeps a critical-path concurrency estimate — the sharded wall with
    the per-shard solves overlapped perfectly (partition + carve +
    slowest shard + reconcile) — which is the honest speedup figure on
    a core-starved container, same convention as ``parallel_sweep``.
    """
    failures: list[str] = []
    record: dict = {
        "geometry": {
            "radius_range": list(SHARD_RADIUS_RANGE),
            "tasks_per_worker": 0.25,
            "quality_backend": "sparse",
            "validity_strategy": "grid",
            "approach": "GT",
            "shards": "auto",
        },
        "cpu_count": os.cpu_count(),
        "mono_cap": mono_cap,
        "speedup_floor": SHARD_SPEEDUP_FLOOR,
        "gap_ceiling": SHARD_GAP_CEILING,
        "sizes": {},
    }
    for worker_count in sizes:
        entry: dict = {}
        sharded_runs = []
        for repeat in range(2):
            payload, error = _run_shard_leg("sharded", worker_count)
            if error:
                failures.append(error)
                break
            sharded_runs.append(payload)
        if len(sharded_runs) < 2:
            record["sizes"][str(worker_count)] = entry
            continue
        first, second = sharded_runs
        reproducible = (
            first["pairs_sha256"] == second["pairs_sha256"]
            and first["score"] == second["score"]
        )
        if not reproducible:
            failures.append(
                f"sharded GT n={worker_count} is not bit-reproducible: "
                f"{first['score']} vs {second['score']}"
            )
        entry["sharded"] = first
        entry["sharded_repeat_seconds"] = second["seconds"]
        entry["bit_reproducible"] = reproducible
        phases = first["phase_seconds"]
        critical_path = (
            phases.get("partition", 0.0)
            + phases.get("carve", 0.0)
            + max(first["shard_seconds"])
            + phases.get("reconcile", 0.0)
        )
        entry["critical_path_seconds"] = critical_path

        if worker_count <= mono_cap:
            payload, error = _run_shard_leg("mono", worker_count)
            if error:
                failures.append(error)
            else:
                entry["mono"] = payload
                mono_score = float(payload["score"])
                sharded_score = float(first["score"])
                gap = abs(mono_score - sharded_score) / max(
                    abs(mono_score), 1e-12
                )
                entry["revenue_gap"] = gap
                entry["measured_speedup"] = payload["seconds"] / first["seconds"]
                entry["concurrency_estimate"] = (
                    payload["seconds"] / critical_path
                )
                if gap > SHARD_GAP_CEILING:
                    failures.append(
                        f"sharded GT n={worker_count} revenue gap "
                        f"{gap:.4%} exceeds {SHARD_GAP_CEILING:.0%}"
                    )
                if (
                    max(
                        entry["measured_speedup"],
                        entry["concurrency_estimate"],
                    )
                    < SHARD_SPEEDUP_FLOOR
                ):
                    failures.append(
                        f"sharded GT n={worker_count}: neither measured "
                        f"({entry['measured_speedup']:.2f}x) nor "
                        f"critical-path "
                        f"({entry['concurrency_estimate']:.2f}x) speedup "
                        f"reaches {SHARD_SPEEDUP_FLOOR:g}x"
                    )
        record["sizes"][str(worker_count)] = entry
    return record, failures


def run_chaos_benchmark(
    seed: int = 0,
    jobs: int = 2,
    kill_rate: float = CHAOS_KILL_RATE,
) -> tuple[dict, list[str]]:
    """Chaos-off parity + the wall-clock price of crash recovery.

    Three legs over the same small sweep: a serial oracle, a clean
    spawn-pool run with the retry/backoff policy threaded (the chaos-off
    gate — supervision machinery must not change a single repr'd float),
    and a run under an activated kill-injecting :class:`ChaosPolicy`
    (children die on ~``kill_rate`` of first attempts; the supervisor
    must rebuild, retry and still match the oracle with zero failed
    cells). The recorded overhead ratio is chaotic wall / clean wall.
    """
    from dataclasses import replace

    from repro.chaos.campaign import _fingerprint
    from repro.chaos.policy import ChaosPolicy, activate
    from repro.experiments.config import ExperimentSettings
    from repro.experiments.parallel import SweepExecutor, build_cell_specs
    from repro.utils.procpool import RetryPolicy

    failures: list[str] = []
    base = ExperimentSettings(
        rounds=2,
        workers_per_round=40,
        tasks_per_round=10,
        speed_range=(0.05, 0.2),
        radius_range=(0.2, 0.4),
        dataset="unif",
    )
    values = [30, 40, 50]
    approaches = ("RAND", "GT")
    specs = build_cell_specs(
        figure="chaos-bench",
        parameter="workers_per_round",
        values=values,
        settings_for_value=lambda b, v: replace(b, workers_per_round=v),
        base=base,
        approaches=approaches,
        seed=seed,
    )

    serial_results, _ = SweepExecutor(n_jobs=1).run(specs)
    oracle = _fingerprint(serial_results)

    policy_kwargs = dict(
        n_jobs=jobs,
        timeout=60.0,
        retries=1,
        mp_context="spawn",
        retry_policy=RetryPolicy(seed=seed),
    )
    started = time.perf_counter()
    clean_results, clean_telemetry = SweepExecutor(**policy_kwargs).run(specs)
    clean_seconds = time.perf_counter() - started
    clean_identical = _fingerprint(clean_results) == oracle
    if not clean_identical:
        failures.append(
            "chaos-off pool sweep with the retry policy threaded is not "
            "repr-identical to serial"
        )

    policy = ChaosPolicy(kill_rate=kill_rate, max_attempt=1, seed=seed)
    started = time.perf_counter()
    with activate(policy):
        chaos_results, chaos_telemetry = SweepExecutor(**policy_kwargs).run(
            specs
        )
    chaos_seconds = time.perf_counter() - started
    chaos_identical = _fingerprint(chaos_results) == oracle
    if not chaos_identical:
        failures.append(
            f"sweep under kill_rate={kill_rate:g} chaos did not recover to "
            "repr-identical results"
        )
    if chaos_telemetry.failed_cells:
        failures.append(
            f"sweep under chaos lost {chaos_telemetry.failed_cells} cell(s)"
        )

    cells = len(specs)
    record = {
        "cells": cells,
        "jobs": jobs,
        "seed": seed,
        "kill_rate": kill_rate,
        "cpu_count": os.cpu_count(),
        "clean_seconds": clean_seconds,
        "chaos_seconds": chaos_seconds,
        "clean_cells_per_second": cells / clean_seconds,
        "chaos_cells_per_second": cells / chaos_seconds,
        "recovery_overhead_ratio": chaos_seconds / clean_seconds,
        "chaos_off_identical": clean_identical,
        "chaos_recovered_identical": chaos_identical,
        "clean_telemetry": clean_telemetry.to_dict(),
        "chaos_telemetry": chaos_telemetry.to_dict(),
    }
    return record, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=DEFAULT_WORKERS)
    parser.add_argument("--tasks", type=int, default=DEFAULT_TASKS)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--sweep-scale",
        type=float,
        default=DEFAULT_SWEEP_SCALE,
        help="workload scale of the serial-vs-parallel fig7 sweep",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=DEFAULT_JOBS,
        help="worker processes for the parallel sweep leg",
    )
    parser.add_argument(
        "--sweep-seed", type=int, default=0, help="seed of the fig7 sweep"
    )
    parser.add_argument(
        "--skip-sweep",
        action="store_true",
        help="only run the solver oracle guard",
    )
    parser.add_argument(
        "--skip-scale",
        action="store_true",
        help="skip the quality-store scale record (BENCH_pr4.json)",
    )
    parser.add_argument(
        "--only-scale",
        action="store_true",
        help="run only the quality-store scale record",
    )
    parser.add_argument(
        "--scale-sizes",
        type=int,
        nargs="+",
        default=list(DEFAULT_SCALE_SIZES),
        metavar="N",
        help="worker counts of the dense-vs-sparse RSS measurement "
        f"(the >= {RSS_RATIO_FLOOR:g}x floor applies at n >= {RSS_RATIO_SIZE})",
    )
    parser.add_argument(
        "--attach-workers",
        type=int,
        default=4000,
        help="matrix size of the shared-memory attach measurement",
    )
    parser.add_argument(
        "--skip-shards",
        action="store_true",
        help="skip the geo-sharded scale record (BENCH_pr7.json)",
    )
    parser.add_argument(
        "--only-shards",
        action="store_true",
        help="run only the geo-sharded scale record",
    )
    parser.add_argument(
        "--shard-sizes",
        type=int,
        nargs="+",
        default=list(DEFAULT_SHARD_SIZES),
        metavar="N",
        help="worker counts of the monolithic-vs-sharded GT measurement "
        f"(monolithic legs run up to n = {SHARD_MONO_CAP})",
    )
    parser.add_argument(
        "--shard-mono-cap",
        type=int,
        default=SHARD_MONO_CAP,
        help="largest worker count that still gets a monolithic GT leg",
    )
    parser.add_argument(
        "--skip-chaos",
        action="store_true",
        help="skip the crash-recovery record (BENCH_pr8.json)",
    )
    parser.add_argument(
        "--only-chaos",
        action="store_true",
        help="run only the crash-recovery record",
    )
    parser.add_argument(
        "--chaos-kill-rate",
        type=float,
        default=CHAOS_KILL_RATE,
        help="per-first-attempt SIGKILL probability of the chaotic leg",
    )
    parser.add_argument(
        "--measure-rss",
        nargs=2,
        metavar=("BACKEND", "N"),
        default=None,
        help=argparse.SUPPRESS,  # internal child-process mode
    )
    parser.add_argument(
        "--measure-shard",
        nargs=2,
        metavar=("LEG", "N"),
        default=None,
        help=argparse.SUPPRESS,  # internal child-process mode
    )
    parser.add_argument(
        "--out", type=Path, default=OUTPUT, help="output JSON path"
    )
    parser.add_argument(
        "--scale-out",
        type=Path,
        default=SCALE_OUTPUT,
        help="scale-record JSON path",
    )
    parser.add_argument(
        "--shard-out",
        type=Path,
        default=SHARD_OUTPUT,
        help="shard-record JSON path",
    )
    parser.add_argument(
        "--chaos-out",
        type=Path,
        default=CHAOS_OUTPUT,
        help="chaos-record JSON path",
    )
    args = parser.parse_args(argv)

    if args.measure_rss:
        backend, worker_count = args.measure_rss
        return _measure_rss_child(backend, int(worker_count))
    if args.measure_shard:
        leg, worker_count = args.measure_shard
        return _measure_shard_child(leg, int(worker_count))

    if args.only_shards:
        args.skip_scale = True
        args.skip_chaos = True
    if args.only_chaos:
        args.skip_scale = True
        args.skip_shards = True

    failures: list[str] = []
    guard_record = None
    shard_record = None
    chaos_record = None
    if args.only_scale:
        args.skip_shards = True
        args.skip_chaos = True
    if not (args.only_scale or args.only_shards or args.only_chaos):
        guard_record, failures = run_guard(
            workers=args.workers, tasks=args.tasks, repeats=args.repeats
        )
        record: dict = {"solver_guard": guard_record}
        if not args.skip_sweep:
            sweep_record, sweep_failures = run_sweep_benchmark(
                scale=args.sweep_scale, jobs=args.jobs, seed=args.sweep_seed
            )
            record["parallel_sweep"] = sweep_record
            failures += sweep_failures
        args.out.write_text(
            json.dumps(record, indent=1) + "\n", encoding="utf-8"
        )
        print(f"wrote {args.out}")

    if not args.skip_scale:
        parity_record, parity_failures = run_backend_parity(
            workers=args.workers, tasks=args.tasks
        )
        scale_record, scale_failures = run_scale_benchmark(
            sizes=args.scale_sizes
        )
        attach_record, attach_failures = run_attach_benchmark(
            worker_count=args.attach_workers
        )
        failures += parity_failures + scale_failures + attach_failures
        args.scale_out.write_text(
            json.dumps(
                {
                    "backend_parity": parity_record,
                    "memory_scaling": scale_record,
                    "shared_attach": attach_record,
                },
                indent=1,
            )
            + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.scale_out}")

    if not args.skip_shards:
        shard_record, shard_failures = run_shard_benchmark(
            sizes=args.shard_sizes, mono_cap=args.shard_mono_cap
        )
        failures += shard_failures
        args.shard_out.write_text(
            json.dumps({"shard_scaling": shard_record}, indent=1) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.shard_out}")

    if not args.skip_chaos:
        chaos_record, chaos_failures = run_chaos_benchmark(
            jobs=args.jobs, kill_rate=args.chaos_kill_rate
        )
        failures += chaos_failures
        args.chaos_out.write_text(
            json.dumps({"chaos_guard": chaos_record}, indent=1) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.chaos_out}")

    if guard_record is not None:
        for solver in ("tpg", "gt", "gtall"):
            summary = guard_record["summary"][solver]
            print(
                f"{solver}: mean {summary['mean_seconds'] * 1e3:.1f} ms/batch "
                f"({summary['speedup_vs_baseline']:.2f}x vs pre-incremental "
                "baseline)"
            )
        if not args.skip_sweep:
            sweep = record["parallel_sweep"]
            print(
                f"fig7 sweep (scale {sweep['scale']:g}, {sweep['cpu_count']} "
                f"core(s)): serial {sweep['serial_seconds']:.1f}s, "
                f"--jobs {sweep['jobs']} {sweep['parallel_seconds']:.1f}s "
                f"({sweep['measured_speedup']:.2f}x measured, "
                f"{sweep['parallel_telemetry']['speedup_vs_serial_estimate']:.2f}x "
                f"vs cell-time estimate), bit-identical: "
                f"{sweep['bit_identical']}"
            )
    if not args.skip_scale:
        print(
            "backend parity (dense/sparse/shared): "
            + ("identical" if parity_record["identical"] else "DIVERGED")
        )
        for size, entry in scale_record["sizes"].items():
            ratio = entry.get("rss_ratio_dense_over_sparse")
            if ratio is None:
                continue
            print(
                f"n={size}: dense {entry['dense']['peak_rss_kb'] / 1024:.0f} MB "
                f"peak RSS vs sparse {entry['sparse']['peak_rss_kb'] / 1024:.0f} "
                f"MB ({ratio:.1f}x), build "
                f"{entry['dense']['build_seconds']:.2f}s vs "
                f"{entry['sparse']['build_seconds']:.2f}s"
            )
        print(
            f"shared attach at n={attach_record['workers']}: "
            f"{attach_record['attach_seconds'] * 1e3:.2f} ms vs rebuild "
            f"{attach_record['rebuild_seconds'] * 1e3:.0f} ms "
            f"({attach_record['attach_speedup_vs_rebuild']:.0f}x)"
        )
    if shard_record is not None:
        for size, entry in shard_record["sizes"].items():
            sharded = entry.get("sharded")
            if sharded is None:
                continue
            line = (
                f"shards n={size}: sharded {sharded['seconds']:.1f}s "
                f"({sharded['shard_count']} shards, "
                f"{sharded['border_workers']} border, critical path "
                f"{entry['critical_path_seconds']:.1f}s), reproducible: "
                f"{entry['bit_reproducible']}"
            )
            if "mono" in entry:
                line += (
                    f"; mono {entry['mono']['seconds']:.1f}s -> "
                    f"{entry['measured_speedup']:.2f}x measured / "
                    f"{entry['concurrency_estimate']:.2f}x critical-path, "
                    f"gap {entry['revenue_gap']:.4%}"
                )
            else:
                line += "; monolithic leg skipped (above mono cap)"
            print(line)
    if chaos_record is not None:
        print(
            f"chaos guard ({chaos_record['cells']} cells, --jobs "
            f"{chaos_record['jobs']}, kill_rate "
            f"{chaos_record['kill_rate']:g}): clean "
            f"{chaos_record['clean_cells_per_second']:.2f} cells/s vs "
            f"chaotic {chaos_record['chaos_cells_per_second']:.2f} cells/s "
            f"({chaos_record['recovery_overhead_ratio']:.2f}x overhead), "
            f"chaos-off identical: {chaos_record['chaos_off_identical']}, "
            f"recovered identical: "
            f"{chaos_record['chaos_recovered_identical']}"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    checks = []
    if guard_record is not None:
        checks.append("incremental scores match the from-scratch oracle")
        if not args.skip_sweep:
            checks.append("parallel sweep bit-identical")
    if not args.skip_scale:
        checks.append("quality-store backends repr-identical")
    if shard_record is not None:
        checks.append(
            "sharded GT bit-reproducible, gap and speedup within bars"
        )
    if chaos_record is not None:
        checks.append(
            "chaos-off pool repr-identical; chaotic run recovered exactly"
        )
    print("all checks passed: " + "; ".join(checks))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
