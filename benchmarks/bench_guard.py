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

A third section — the best-response kernel record — is written to
``BENCH_pr6.json``:

* **kernel_guard** — solves GT and GT+ALL on the seed grid with
  ``kernel="python"`` and ``kernel="native"`` and checks the assignments
  and scores are **repr-identical** (the ``repro.core.kernels``
  contract), recording per-kernel wall-clocks, the measured speedup,
  whether numba was importable (without it ``native`` runs the numpy
  fallback, so the speedup documents the fallback's ceiling, not the
  compiled kernel's), and the kernel counters from
  :class:`~repro.core.stats.SolverStats`.

A fourth group of sections — the quality-store scale record — is written
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

A fifth section — the geo-sharded scale record — is written to
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

A sixth section — the crash-recovery record — is written to
``BENCH_pr8.json``:

* **chaos_guard** — runs one small sweep three ways: serial (the
  oracle), over a spawn pool with the retry/backoff policy threaded but
  no chaos (must stay **repr-identical** to serial — the chaos-off
  parity gate), and over the same pool under an activated
  :class:`~repro.chaos.ChaosPolicy` SIGKILLing ~10% of first attempts
  (must also recover to repr-identical results with zero failed cells).
  Records cells/sec for the clean and chaotic legs plus the recovery
  overhead ratio — the price of supervision when children actually die.

A seventh section — the interpreted-hot-path record — is written to
``BENCH_pr9.json``:

* **hotpath_guard** — the full-loop kernel-coverage record. Per size
  (default 2 000 / 20 000 workers on the sparse-geometry population):
  (a) *validity* — the vectorized grid construction vs the scalar
  ``query_circle`` + ``_deadline_ok`` oracle, timed both end-to-end and
  on the candidate-scan stage alone (the stage the vectorization
  replaced — the end-to-end ratio is Amdahl-limited by the shared
  ``ValidPairs`` tuple assembly both paths pay, see
  docs/PERFORMANCE.md), with structural membership parity checked; at
  n >= 20 000 the scan-stage speedup must reach >= 5x. (b) *GT
  end-to-end* — ``kernel="python"`` vs ``kernel="native"`` (round-start
  prepass + mid-round rescan + TPG stage-1 kernels together), repr
  parity on pairs and score, rescan/kernel counters recorded; at the
  gate size the native speedup must reach >= 1.5x even on the numpy
  fallback (the compiled numba figure comes from the CI hotpath job and
  is folded in as ``compiled_reference`` when ``BENCH_pr6.json`` was
  measured with numba importable). (c) one sharded 100k leg solved with
  ``kernel="native"`` — completing it is the result. (d) embedded
  ``repro profile`` hotspot reports (python vs native at the smallest
  size) so the record shows *which* interpreted loops the kernels
  displaced, not just the ratio.

An eighth section — the shared-scalar-walls record — is written to
``BENCH_pr10.json``:

* **peel_guard** — the overflow counted-subset peel and bulk-gather
  record. (a) *parity* — GT solved across {dense, sparse, shared} x
  {python, native} on a small contended instance must produce one
  repr-identical fingerprint; direct ``counted_subset_select`` calls at
  the kept sizes straddling numpy's pairwise-summation cliff (7/8/9 and
  beyond) must equal the scalar ``best_counted_subset`` oracle on every
  backend, and ``gather_rows`` must equal the dense lookup. (b) *GT
  end-to-end* — python vs native on the *contended* population
  (tasks = workers // 16, capacity 8, dense reach): every join probe
  against a full task overflows and peels 9 members, the regime PR 9
  documented as kernel-invariant ("the shared scalar walls"); at the
  gate size the native speedup must reach >= 1.5x even on the numpy
  fallback. Records per-kernel peel dispatch counters alongside.

Usage::

    PYTHONPATH=src python benchmarks/bench_guard.py              # everything
    PYTHONPATH=src python benchmarks/bench_guard.py --repeats 4
    PYTHONPATH=src python benchmarks/bench_guard.py --jobs 8 --sweep-scale 0.5
    PYTHONPATH=src python benchmarks/bench_guard.py --skip-sweep
    PYTHONPATH=src python benchmarks/bench_guard.py --only-scale \\
        --scale-sizes 2000 8000 20000
    PYTHONPATH=src python benchmarks/bench_guard.py --only-shards \\
        --shard-sizes 20000 100000
    PYTHONPATH=src python benchmarks/bench_guard.py --only-hotpath \\
        --hotpath-sizes 2000 20000 --hotpath-shard-size 100000
    PYTHONPATH=src python benchmarks/bench_guard.py --only-peel \\
        --peel-sizes 4000 20000

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
KERNEL_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_pr6.json"
SHARD_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_pr7.json"
CHAOS_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_pr8.json"
HOTPATH_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_pr9.json"

#: Interpreted-hot-path record: sizes and acceptance bars. Sizes use the
#: shard benchmark's sparse-geometry population (tasks = workers // 4,
#: sparse store, grid validity) so GT at 20k workers is affordable and
#: representative of the regime the kernels target. Gates apply at
#: HOTPATH_GATE_SIZE: the native GT end-to-end speedup must reach
#: >= 1.5x even on the numpy fallback, and the vectorized validity
#: candidate-scan stage must beat the scalar loop >= 5x (end-to-end
#: validity is recorded alongside but not gated — both paths share the
#: ValidPairs tuple assembly, an Amdahl floor the scan ratio excludes).
DEFAULT_HOTPATH_SIZES = (2000, 20000)
HOTPATH_GATE_SIZE = 20000
HOTPATH_GT_SPEEDUP_FLOOR = 1.5
VALIDITY_SCAN_SPEEDUP_FLOOR = 5.0
HOTPATH_SHARD_SIZE = 100000
HOTPATH_PROFILE_TOP = 10

#: Shared-scalar-walls record: sizes and acceptance bars. The peel
#: population keeps the hotpath family's dense reach but starves task
#: slots (tasks = workers // PEEL_TASK_DIVISOR, capacity
#: PEEL_CAPACITY): groups saturate at 8 members, so every further join
#: probe overflows and peels a 9-member group — one kept count past
#: numpy's pairwise cliff, the regime the PR 9 record documented as
#: bounded near 1x because both kernels ran the identical scalar peel.
#: The gate applies at PEEL_GATE_SIZE: native GT end-to-end must reach
#: >= PEEL_GT_SPEEDUP_FLOOR even on the numpy fallback.
PEEL_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_pr10.json"
DEFAULT_PEEL_SIZES = (4000, 20000)
PEEL_GATE_SIZE = 20000
PEEL_GT_SPEEDUP_FLOOR = 1.5
PEEL_TASK_DIVISOR = 16
PEEL_CAPACITY = 8
PEEL_PARITY_WORKERS = 1000
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


def run_kernel_benchmark(
    seeds=DEFAULT_SEEDS,
    workers: int = DEFAULT_WORKERS,
    tasks: int = DEFAULT_TASKS,
    repeats: int = 3,
) -> tuple[dict, list[str]]:
    """Python vs native kernel: repr parity + per-kernel wall-clocks.

    Both kernels must produce the same assignment down to the last
    float bit (divergence is a correctness bug in
    ``repro.core.kernels``, never a tolerance issue). The measured
    speedup is honest about the environment: when numba is not
    importable the ``native`` kernel runs its numpy fallback, so the
    recorded number is the fallback's ceiling — the compiled figure has
    to come from an environment with numba (the CI kernel job).
    """
    from repro.core.kernels import NUMBA_AVAILABLE

    failures: list[str] = []
    record: dict = {
        "scale": {"workers": workers, "tasks": tasks, "seeds": list(seeds)},
        "repeats": repeats,
        "numba_available": NUMBA_AVAILABLE,
        "solvers": ["gt", "gtall"],
        "note": (
            "native == numba-compiled batched prepass when numba is "
            "importable, numpy fallback otherwise; either way the "
            "assignment is repr-identical to kernel='python'"
        ),
        "boundary_bugfix_note": (
            "this PR also fixed the _VECTOR_GROUP_LIMIT boundary: the "
            "historical np.add.reduceat batch reduction reorders "
            "segments of >= 3 elements on current numpy, diverging "
            "bitwise from the scalar join_gain path. The order-exact "
            "replacement changes last-bit utilities where the old path "
            "was wrong; on the seed grid plain GT is repr-identical to "
            "the pre-PR solver, while GT+ALL at seed 0 converges to a "
            "different (higher-scoring) equilibrium: 673.9239461574595 "
            "-> 675.5963027046109."
        ),
        "seeds": {},
    }
    configs = {
        "gt": dict(epsilon=0.0, lazy_update=False),
        "gtall": dict(epsilon=0.05, lazy_update=True),
    }
    for seed in seeds:
        instance = generate_instance(workers, tasks, seed=seed)
        valid_pairs = compute_valid_pairs(instance)
        entry: dict = {}
        for solver, kwargs in configs.items():
            per_kernel: dict = {}
            for kernel in ("python", "native"):
                best = float("inf")
                result = None
                for _ in range(repeats):
                    started = time.perf_counter()
                    result = solve_game_theoretic(
                        instance, valid_pairs, kernel=kernel, **kwargs
                    )
                    best = min(best, time.perf_counter() - started)
                failures += _check_oracle(
                    f"{solver}[{kernel}]", seed, result.assignment
                )
                per_kernel[kernel] = {
                    "seconds": best,
                    "score": repr(result.final_score),
                    "pairs": repr(result.assignment.to_pairs()),
                    "rounds": result.rounds,
                    "moves": result.moves,
                    "stats": result.stats.to_dict() if result.stats else None,
                }
            identical = per_kernel["python"]["score"] == per_kernel["native"][
                "score"
            ] and per_kernel["python"]["pairs"] == per_kernel["native"]["pairs"]
            if not identical:
                failures.append(
                    f"kernel parity {solver} seed={seed}: native diverges "
                    f"from python ({per_kernel['native']['score']} vs "
                    f"{per_kernel['python']['score']})"
                )
            entry[solver] = {
                "identical": identical,
                "speedup_native_vs_python": (
                    per_kernel["python"]["seconds"]
                    / per_kernel["native"]["seconds"]
                ),
                **{
                    kernel: {
                        key: value
                        for key, value in per_kernel[kernel].items()
                        if key != "pairs"  # repr'd pair lists are huge
                    }
                    for kernel in per_kernel
                },
            }
        record["seeds"][str(seed)] = entry
    record["summary"] = {}
    for solver in configs:
        entries = [record["seeds"][str(s)][solver] for s in seeds]
        python_mean = sum(e["python"]["seconds"] for e in entries) / len(entries)
        native_mean = sum(e["native"]["seconds"] for e in entries) / len(entries)
        record["summary"][solver] = {
            "python_mean_seconds": python_mean,
            "native_mean_seconds": native_mean,
            "speedup": python_mean / native_mean,
            "identical": all(e["identical"] for e in entries),
        }
    record["parity"] = all(
        entry["identical"] for entry in record["summary"].values()
    )
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


#: Hot-path population reach — each worker sees a ~30-60 task candidate
#: set, the regime the batched kernels target. (At the shard family's
#: 0.01-0.02 radii a worker sees ~3 tasks; scalar scans win there and
#: the measurement says nothing about the batched paths.)
HOTPATH_RADIUS_RANGE = (0.03, 0.06)


def _hotpath_instance_pairs(worker_count: int):
    """The hot-path benchmark population: dense reach, capacity slack.

    Deliberately distinct from the shard family along two axes. Dense
    reach (see :data:`HOTPATH_RADIUS_RANGE`) gives the batched candidate
    scans real rows to batch. Capacity slack — task slots exceed the
    worker count — keeps best-response in *within-capacity* scoring,
    which is what the prepass/rescan kernels cover; on a contended
    population the overflow peels (``best_counted_subset``) dominate,
    run the identical scalar path under both kernels, and bound the
    measurable ratio near 1x regardless of kernel quality (the Amdahl
    companion to the validity scan-vs-assembly split;
    see docs/PERFORMANCE.md). The contended regime stays covered by the
    sharded-native leg, which runs on the shard family.
    """
    instance = generate_instance(
        worker_count,
        worker_count // 2,
        capacity=8,
        seed=0,
        radius_range=HOTPATH_RADIUS_RANGE,
        quality_backend="sparse",
    )
    return instance, compute_valid_pairs(instance, "grid")


def _measure_shard_child(leg: str, worker_count: int) -> int:
    """Child-process mode: run one shard-benchmark leg, print JSON.

    ``leg`` is ``mono`` (monolithic GT), ``sharded`` (auto-sharded GT)
    or ``sharded-native`` (the same sharded solve with the native
    evaluation kernels — the hotpath guard's 100k leg). A fresh process
    per leg keeps ``ru_maxrss`` honest and the monolithic leg's memory
    from flattering the sharded one.
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
    elif leg in ("sharded", "sharded-native"):
        result = solve_sharded(
            instance,
            valid_pairs,
            approach="GT",
            seed=0,
            shards="auto",
            kernel="native" if leg == "sharded-native" else "python",
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
        if leg == "sharded-native":
            # The hotpath guard wants the kernel dispatch/rescan
            # counters, not just the wall-clock.
            extra["stats"] = result.stats.to_dict()
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


def _validity_scan_seconds(
    instance: Instance, repeats: int
) -> tuple[float, float]:
    """Min-of-repeats wall of the candidate-scan stage, scalar vs
    vectorized, with each path's own grid pre-built outside the timer.

    This isolates exactly the loop the vectorization replaced: the
    per-worker ``query_circle`` + ``_deadline_ok`` scan vs one
    ``_grid_valid_lists`` call. The shared ``ValidPairs`` tuple assembly
    both end-to-end paths pay is deliberately excluded here (it is the
    Amdahl floor that caps the end-to-end ratio ~3x; see
    docs/PERFORMANCE.md).
    """
    from repro.core.validity import (
        _GRID_VECTOR_CELL_MULTIPLIER,
        _deadline_ok,
        _grid_valid_lists,
        _max_remaining,
        _reach_limit,
    )
    from repro.spatial.grid import GridIndex

    task_items = [
        (index, task.location) for index, task in enumerate(instance.tasks)
    ]
    mean_radius = float(
        np.mean([worker.radius for worker in instance.workers])
    )
    scalar_index = GridIndex.build(
        task_items, cell_size=max(mean_radius, 1e-6)
    )
    vector_index = GridIndex.build(
        task_items,
        cell_size=max(mean_radius * _GRID_VECTOR_CELL_MULTIPLIER, 1e-6),
    )
    max_remaining = _max_remaining(instance)

    scalar_best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for worker_index, worker in enumerate(instance.workers):
            candidates = scalar_index.query_circle(
                worker.location,
                _reach_limit(instance, worker_index, max_remaining),
            )
            [
                task_index
                for task_index in candidates
                if _deadline_ok(instance, worker_index, task_index)
            ]
        scalar_best = min(scalar_best, time.perf_counter() - started)

    vector_best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        _grid_valid_lists(instance, vector_index, max_remaining)
        vector_best = min(vector_best, time.perf_counter() - started)
    return scalar_best, vector_best


def run_hotpath_benchmark(
    sizes=DEFAULT_HOTPATH_SIZES,
    repeats: int = 2,
    shard_size: int = HOTPATH_SHARD_SIZE,
    gate_size: int = HOTPATH_GATE_SIZE,
) -> tuple[dict, list[str]]:
    """Full-loop kernel coverage: validity, GT end-to-end, sharded 100k.

    Per size on the hot-path population (dense reach, capacity slack —
    see :func:`_hotpath_instance_pairs`): vectorized-vs-scalar
    validity (membership parity + scan-stage and end-to-end walls), and
    the GT solve with ``kernel="python"`` vs ``kernel="native"`` (repr
    parity on pairs and score, per-kernel stats with the rescan and
    kernel dispatch counters). Gates at ``gate_size``: scan-stage
    speedup >= VALIDITY_SCAN_SPEEDUP_FLOOR, native GT end-to-end
    speedup >= HOTPATH_GT_SPEEDUP_FLOOR (on whatever the environment
    provides — the numpy fallback locally, compiled numba in the CI
    hotpath job). ``shard_size`` adds one ``kernel="native"`` sharded
    leg in a child process (0 skips it); hotspot profiles at the
    smallest size show *which* loops the kernels displaced.
    """
    from repro.core.kernels import NUMBA_AVAILABLE
    from repro.core.validity import compute_valid_pairs_reference
    from repro.experiments.profiling import profile_solve

    failures: list[str] = []
    record: dict = {
        "geometry": {
            "radius_range": list(HOTPATH_RADIUS_RANGE),
            "tasks_per_worker": 0.5,
            "capacity": 8,
            "quality_backend": "sparse",
            "validity_strategy": "grid",
        },
        "repeats": repeats,
        "numba_available": NUMBA_AVAILABLE,
        "gate_size": gate_size,
        "gt_speedup_floor": HOTPATH_GT_SPEEDUP_FLOOR,
        "validity_scan_floor": VALIDITY_SCAN_SPEEDUP_FLOOR,
        "note": (
            "native == numba-compiled kernels when importable, numpy "
            "fallback otherwise; the GT gate applies to whichever this "
            "environment provides. The validity gate applies to the "
            "candidate-scan stage the vectorization replaced; end-to-end "
            "validity is recorded but not gated (shared tuple-assembly "
            "Amdahl floor, see docs/PERFORMANCE.md)."
        ),
        "sizes": {},
    }

    for worker_count in sizes:
        instance, valid_pairs = _hotpath_instance_pairs(worker_count)
        entry: dict = {}

        # -- validity: membership parity + walls --------------------
        reference = compute_valid_pairs_reference(instance)
        if reference.tasks_for_worker != valid_pairs.tasks_for_worker:
            failures.append(
                f"validity parity n={worker_count}: vectorized grid "
                "membership diverges from the scalar reference"
            )
        end_to_end_scalar = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            compute_valid_pairs_reference(instance)
            end_to_end_scalar = min(
                end_to_end_scalar, time.perf_counter() - started
            )
        end_to_end_vector = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            compute_valid_pairs(instance, "grid")
            end_to_end_vector = min(
                end_to_end_vector, time.perf_counter() - started
            )
        scan_scalar, scan_vector = _validity_scan_seconds(instance, repeats)
        entry["validity"] = {
            "pair_count": valid_pairs.pair_count,
            "membership_identical": (
                reference.tasks_for_worker == valid_pairs.tasks_for_worker
            ),
            "scalar_seconds": end_to_end_scalar,
            "vectorized_seconds": end_to_end_vector,
            "end_to_end_speedup": end_to_end_scalar / end_to_end_vector,
            "scan_scalar_seconds": scan_scalar,
            "scan_vectorized_seconds": scan_vector,
            "scan_speedup": scan_scalar / scan_vector,
        }
        if (
            worker_count >= gate_size
            and entry["validity"]["scan_speedup"] < VALIDITY_SCAN_SPEEDUP_FLOOR
        ):
            failures.append(
                f"validity scan stage n={worker_count}: "
                f"{entry['validity']['scan_speedup']:.2f}x is below the "
                f"{VALIDITY_SCAN_SPEEDUP_FLOOR:g}x floor"
            )

        # -- GT end-to-end: python vs native ------------------------
        per_kernel: dict = {}
        for kernel in ("python", "native"):
            best = float("inf")
            result = None
            for _ in range(repeats):
                started = time.perf_counter()
                result = solve_game_theoretic(
                    instance, valid_pairs, kernel=kernel
                )
                best = min(best, time.perf_counter() - started)
            failures += _check_oracle(
                f"hotpath GT[{kernel}]", 0, result.assignment
            )
            per_kernel[kernel] = {
                "seconds": best,
                "score": repr(result.final_score),
                "pairs": repr(result.assignment.to_pairs()),
                "rounds": result.rounds,
                "moves": result.moves,
                "stats": result.stats.to_dict() if result.stats else None,
            }
        identical = (
            per_kernel["python"]["score"] == per_kernel["native"]["score"]
            and per_kernel["python"]["pairs"] == per_kernel["native"]["pairs"]
        )
        if not identical:
            failures.append(
                f"hotpath GT parity n={worker_count}: native diverges from "
                f"python ({per_kernel['native']['score']} vs "
                f"{per_kernel['python']['score']})"
            )
        speedup = (
            per_kernel["python"]["seconds"] / per_kernel["native"]["seconds"]
        )
        entry["gt"] = {
            "identical": identical,
            "speedup_native_vs_python": speedup,
            **{
                kernel: {
                    key: value
                    for key, value in per_kernel[kernel].items()
                    if key != "pairs"  # repr'd pair lists are huge
                }
                for kernel in per_kernel
            },
        }
        if worker_count >= gate_size and speedup < HOTPATH_GT_SPEEDUP_FLOOR:
            failures.append(
                f"hotpath GT n={worker_count}: native end-to-end speedup "
                f"{speedup:.2f}x is below the "
                f"{HOTPATH_GT_SPEEDUP_FLOOR:g}x floor"
            )
        record["sizes"][str(worker_count)] = entry

    # -- hotspot profiles at the smallest size ----------------------
    profile_size = min(sizes)
    profile_instance, _ = _hotpath_instance_pairs(profile_size)
    record["profiles"] = {
        kernel: profile_solve(
            profile_instance,
            approach="GT",
            kernel=kernel,
            seed=0,
            top=HOTPATH_PROFILE_TOP,
        ).to_dict()
        for kernel in ("python", "native")
    }

    # -- one sharded 100k leg with the native kernels ---------------
    if shard_size:
        payload, error = _run_shard_leg("sharded-native", shard_size)
        if error:
            failures.append(error)
        else:
            record["sharded_native"] = payload

    # -- compiled reference: fold BENCH_pr6 when measured with numba --
    if KERNEL_OUTPUT.exists():
        kernel_payload = json.loads(KERNEL_OUTPUT.read_text(encoding="utf-8"))
        guard = kernel_payload.get("kernel_guard", {})
        record["compiled_reference"] = {
            "numba_available": guard.get("numba_available"),
            "scale": guard.get("scale"),
            "summary": guard.get("summary"),
        }
    return record, failures


def _peel_instance_pairs(worker_count: int):
    """The shared-scalar-walls population: dense reach, starved slots.

    Same reach geometry as the hotpath family, but task slots cover only
    half the workers (tasks = n // 16 at capacity 8), so best-response
    spends its rounds probing *full* tasks — every such probe overflows
    and runs a 9-member counted-subset peel. This is the population the
    hotpath record's docstring explicitly excluded because the peel used
    to run the identical scalar path under both kernels.
    """
    instance = generate_instance(
        worker_count,
        worker_count // PEEL_TASK_DIVISOR,
        capacity=PEEL_CAPACITY,
        seed=0,
        radius_range=HOTPATH_RADIUS_RANGE,
        quality_backend="sparse",
    )
    return instance, compute_valid_pairs(instance, "grid")


def run_peel_benchmark(
    sizes=DEFAULT_PEEL_SIZES,
    repeats: int = 2,
    gate_size: int = PEEL_GATE_SIZE,
) -> tuple[dict, list[str]]:
    """Peel + bulk-gather record: backend/kernel parity, then the gate.

    Parity: (a) the peel kernel vs the scalar oracle on every quality
    backend at kept sizes straddling the pairwise cliff, (b)
    ``gather_rows`` vs the dense lookup, (c) GT fingerprints across
    {dense, sparse, shared} x {python, native} on a small contended
    instance. Performance: python vs native GT per size on the
    contended population, gated at ``gate_size`` (see
    :data:`PEEL_GT_SPEEDUP_FLOOR`).
    """
    from repro.core.kernels import (
        NUMBA_AVAILABLE,
        counted_subset_select,
        gather_block,
    )
    from repro.core.quality_store import SharedDenseQualityStore
    from repro.core.revenue import best_counted_subset

    failures: list[str] = []
    record: dict = {
        "geometry": {
            "radius_range": list(HOTPATH_RADIUS_RANGE),
            "tasks_per_worker": 1.0 / PEEL_TASK_DIVISOR,
            "capacity": PEEL_CAPACITY,
            "quality_backend": "sparse",
            "validity_strategy": "grid",
        },
        "repeats": repeats,
        "numba_available": NUMBA_AVAILABLE,
        "gate_size": gate_size,
        "gt_speedup_floor": PEEL_GT_SPEEDUP_FLOOR,
        "note": (
            "native == numba-compiled peel endgame when importable, "
            "numpy fallback otherwise; the GT gate applies to whichever "
            "this environment provides. The population is deliberately "
            "overflow-dominated — the regime BENCH_pr9 documented as "
            "bounded near 1x under the old shared scalar peel."
        ),
    }

    # -- parity: peel kernel vs scalar oracle on every backend --------
    parity_instance, parity_pairs = _peel_instance_pairs(
        PEEL_PARITY_WORKERS
    )
    dense = parity_instance.quality.to_dense()
    shared = SharedDenseQualityStore.create(dense)
    peel_checks = 0
    gather_checks = 0
    rng = np.random.default_rng(0)
    try:
        stores = {
            "dense": dense,
            "sparse": parity_instance.quality,
            "shared": shared,
        }
        for members_count in (7, 8, 9, 10, 16):
            members = sorted(
                int(worker)
                for worker in rng.choice(
                    PEEL_PARITY_WORKERS, size=members_count, replace=False
                )
            )
            for size in range(members_count + 1):
                oracle = best_counted_subset(dense, members, size)
                for backend, store in stores.items():
                    kept, _ = counted_subset_select(
                        store.as_kernel_buffers(), members, size
                    )
                    peel_checks += 1
                    if kept != oracle:
                        failures.append(
                            f"peel parity {backend} members="
                            f"{members_count} size={size}: kernel kept "
                            f"{kept} vs oracle {oracle}"
                        )
        for _ in range(20):
            rows = rng.integers(0, PEEL_PARITY_WORKERS, size=8)
            cols = rng.integers(0, PEEL_PARITY_WORKERS, size=12)
            expected = dense.values[rows[:, None], cols].copy()
            expected[rows[:, None] == cols[None, :]] = 0.0
            for backend, store in stores.items():
                gather_checks += 1
                block = store.gather_rows(rows, cols)
                if not np.array_equal(block, expected):
                    failures.append(
                        f"gather parity {backend}: gather_rows diverges "
                        "from the dense lookup"
                    )
                    break
                if not np.array_equal(
                    gather_block(store.as_kernel_buffers(), rows, cols),
                    expected,
                ):
                    failures.append(
                        f"gather parity {backend}: gather_block diverges "
                        "from the dense lookup"
                    )
                    break

        # -- parity: GT across backends x kernels ---------------------
        fingerprints: dict[str, dict[str, str]] = {}
        for backend, store in stores.items():
            instance = _with_quality(parity_instance, store)
            for kernel in ("python", "native"):
                result = solve_game_theoretic(
                    instance, parity_pairs, kernel=kernel
                )
                failures += _check_oracle(
                    f"peel parity GT[{backend}/{kernel}]",
                    0,
                    result.assignment,
                )
                fingerprints[f"{backend}/{kernel}"] = {
                    "score": repr(result.final_score),
                    "pairs": repr(result.assignment.to_pairs()),
                }
    finally:
        shared.close()
        shared.unlink()
    reference = fingerprints["dense/python"]
    for combo, fingerprint in fingerprints.items():
        if fingerprint != reference:
            failures.append(
                f"peel parity GT {combo}: diverges from dense/python "
                f"({fingerprint['score']} vs {reference['score']})"
            )
    record["parity"] = {
        "workers": PEEL_PARITY_WORKERS,
        "peel_checks": peel_checks,
        "gather_checks": gather_checks,
        "combos": sorted(fingerprints),
        "identical": all(
            fingerprint == reference
            for fingerprint in fingerprints.values()
        ),
        "score": reference["score"],
    }

    # -- GT end-to-end: python vs native per size ---------------------
    record["sizes"] = {}
    for worker_count in sizes:
        instance, valid_pairs = _peel_instance_pairs(worker_count)
        per_kernel: dict = {}
        for kernel in ("python", "native"):
            best = float("inf")
            result = None
            for _ in range(repeats):
                started = time.perf_counter()
                result = solve_game_theoretic(
                    instance, valid_pairs, kernel=kernel
                )
                best = min(best, time.perf_counter() - started)
            failures += _check_oracle(
                f"peel GT[{kernel}]", 0, result.assignment
            )
            per_kernel[kernel] = {
                "seconds": best,
                "score": repr(result.final_score),
                "pairs": repr(result.assignment.to_pairs()),
                "rounds": result.rounds,
                "moves": result.moves,
                "peel_kernel_calls": (
                    result.stats.peel_kernel_calls if result.stats else 0
                ),
                "stats": result.stats.to_dict() if result.stats else None,
            }
        identical = (
            per_kernel["python"]["score"] == per_kernel["native"]["score"]
            and per_kernel["python"]["pairs"] == per_kernel["native"]["pairs"]
        )
        if not identical:
            failures.append(
                f"peel GT parity n={worker_count}: native diverges from "
                f"python ({per_kernel['native']['score']} vs "
                f"{per_kernel['python']['score']})"
            )
        if per_kernel["native"]["peel_kernel_calls"] == 0:
            failures.append(
                f"peel GT n={worker_count}: native solve never "
                "dispatched the peel kernel — the population is not "
                "overflow-dominated"
            )
        speedup = (
            per_kernel["python"]["seconds"] / per_kernel["native"]["seconds"]
        )
        if worker_count >= gate_size and speedup < PEEL_GT_SPEEDUP_FLOOR:
            failures.append(
                f"peel GT n={worker_count}: native end-to-end speedup "
                f"{speedup:.2f}x is below the "
                f"{PEEL_GT_SPEEDUP_FLOOR:g}x floor"
            )
        record["sizes"][str(worker_count)] = {
            "identical": identical,
            "speedup_native_vs_python": speedup,
            **{
                kernel: {
                    key: value
                    for key, value in per_kernel[kernel].items()
                    if key != "pairs"  # repr'd pair lists are huge
                }
                for kernel in per_kernel
            },
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
        "--skip-kernel",
        action="store_true",
        help="skip the best-response kernel record (BENCH_pr6.json)",
    )
    parser.add_argument(
        "--only-kernel",
        action="store_true",
        help="run only the best-response kernel record",
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
        "--skip-hotpath",
        action="store_true",
        help="skip the interpreted-hot-path record (BENCH_pr9.json)",
    )
    parser.add_argument(
        "--only-hotpath",
        action="store_true",
        help="run only the interpreted-hot-path record",
    )
    parser.add_argument(
        "--hotpath-sizes",
        type=int,
        nargs="+",
        default=list(DEFAULT_HOTPATH_SIZES),
        metavar="N",
        help="worker counts of the validity + GT kernel measurement "
        f"(the gates apply at n >= {HOTPATH_GATE_SIZE})",
    )
    parser.add_argument(
        "--hotpath-repeats",
        type=int,
        default=2,
        help="min-of-N repeats of each hotpath timing leg (default 2)",
    )
    parser.add_argument(
        "--hotpath-shard-size",
        type=int,
        default=HOTPATH_SHARD_SIZE,
        help="worker count of the kernel-native sharded leg (0 skips it)",
    )
    parser.add_argument(
        "--skip-peel",
        action="store_true",
        help="skip the shared-scalar-walls record (BENCH_pr10.json)",
    )
    parser.add_argument(
        "--only-peel",
        action="store_true",
        help="run only the shared-scalar-walls record",
    )
    parser.add_argument(
        "--peel-sizes",
        type=int,
        nargs="+",
        default=list(DEFAULT_PEEL_SIZES),
        metavar="N",
        help="worker counts of the overflow-peel GT measurement "
        f"(the gate applies at n >= {PEEL_GATE_SIZE})",
    )
    parser.add_argument(
        "--peel-repeats",
        type=int,
        default=2,
        help="min-of-N repeats of each peel timing leg (default 2)",
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
        "--kernel-out",
        type=Path,
        default=KERNEL_OUTPUT,
        help="kernel-record JSON path",
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
    parser.add_argument(
        "--hotpath-out",
        type=Path,
        default=HOTPATH_OUTPUT,
        help="hotpath-record JSON path",
    )
    parser.add_argument(
        "--peel-out",
        type=Path,
        default=PEEL_OUTPUT,
        help="peel-record JSON path",
    )
    args = parser.parse_args(argv)

    if args.measure_rss:
        backend, worker_count = args.measure_rss
        return _measure_rss_child(backend, int(worker_count))
    if args.measure_shard:
        leg, worker_count = args.measure_shard
        return _measure_shard_child(leg, int(worker_count))

    if args.only_shards:
        args.skip_kernel = True
        args.skip_scale = True
        args.skip_chaos = True
        args.skip_hotpath = True
        args.skip_peel = True
    if args.only_chaos:
        args.skip_kernel = True
        args.skip_scale = True
        args.skip_shards = True
        args.skip_hotpath = True
        args.skip_peel = True
    if args.only_hotpath:
        args.skip_kernel = True
        args.skip_scale = True
        args.skip_shards = True
        args.skip_chaos = True
        args.skip_peel = True
    if args.only_peel:
        args.skip_kernel = True
        args.skip_scale = True
        args.skip_shards = True
        args.skip_chaos = True
        args.skip_hotpath = True

    failures: list[str] = []
    guard_record = None
    kernel_record = None
    shard_record = None
    chaos_record = None
    hotpath_record = None
    peel_record = None
    if not args.skip_kernel:
        kernel_record, kernel_failures = run_kernel_benchmark(
            workers=args.workers, tasks=args.tasks, repeats=args.repeats
        )
        failures += kernel_failures
        args.kernel_out.write_text(
            json.dumps({"kernel_guard": kernel_record}, indent=1) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.kernel_out}")
    if args.only_kernel:
        args.skip_scale = True
        args.skip_shards = True
        args.skip_chaos = True
        args.skip_hotpath = True
        args.skip_peel = True
    if args.only_scale:
        args.skip_shards = True
        args.skip_chaos = True
        args.skip_hotpath = True
        args.skip_peel = True
    if (
        not args.only_scale
        and not args.only_kernel
        and not args.only_shards
        and not args.only_chaos
        and not args.only_hotpath
        and not args.only_peel
    ):
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

    if not args.skip_hotpath:
        hotpath_record, hotpath_failures = run_hotpath_benchmark(
            sizes=args.hotpath_sizes,
            repeats=args.hotpath_repeats,
            shard_size=args.hotpath_shard_size,
        )
        failures += hotpath_failures
        args.hotpath_out.write_text(
            json.dumps({"hotpath_guard": hotpath_record}, indent=1) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.hotpath_out}")

    if not args.skip_peel:
        peel_record, peel_failures = run_peel_benchmark(
            sizes=args.peel_sizes, repeats=args.peel_repeats
        )
        failures += peel_failures
        args.peel_out.write_text(
            json.dumps({"peel_guard": peel_record}, indent=1) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.peel_out}")

    if kernel_record is not None:
        for solver, summary in kernel_record["summary"].items():
            print(
                f"kernel {solver}: python "
                f"{summary['python_mean_seconds'] * 1e3:.1f} ms vs native "
                f"{summary['native_mean_seconds'] * 1e3:.1f} ms "
                f"({summary['speedup']:.2f}x"
                + (
                    ", numpy fallback — numba absent"
                    if not kernel_record["numba_available"]
                    else ""
                )
                + f"), identical: {summary['identical']}"
            )
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
    if hotpath_record is not None:
        fallback_note = (
            "" if hotpath_record["numba_available"] else " [numpy fallback]"
        )
        for size, entry in hotpath_record["sizes"].items():
            validity = entry["validity"]
            gt = entry["gt"]
            print(
                f"hotpath n={size}: validity scan "
                f"{validity['scan_speedup']:.1f}x (end-to-end "
                f"{validity['end_to_end_speedup']:.1f}x, membership "
                f"identical: {validity['membership_identical']}); GT "
                f"python {gt['python']['seconds']:.2f}s vs native "
                f"{gt['native']['seconds']:.2f}s "
                f"({gt['speedup_native_vs_python']:.2f}x{fallback_note}), "
                f"identical: {gt['identical']}"
            )
        sharded = hotpath_record.get("sharded_native")
        if sharded is not None:
            print(
                f"hotpath sharded-native n={sharded['workers']}: "
                f"{sharded['seconds']:.1f}s over {sharded['shard_count']} "
                f"shards"
            )
    if peel_record is not None:
        fallback_note = (
            "" if peel_record["numba_available"] else " [numpy fallback]"
        )
        parity = peel_record["parity"]
        print(
            f"peel parity (backends x kernels, n={parity['workers']}): "
            + ("identical" if parity["identical"] else "DIVERGED")
            + f" over {parity['peel_checks']} peel and "
            f"{parity['gather_checks']} gather checks"
        )
        for size, entry in peel_record["sizes"].items():
            print(
                f"peel n={size}: GT python "
                f"{entry['python']['seconds']:.2f}s vs native "
                f"{entry['native']['seconds']:.2f}s "
                f"({entry['speedup_native_vs_python']:.2f}x"
                f"{fallback_note}), peel dispatches "
                f"{entry['native']['peel_kernel_calls']}, identical: "
                f"{entry['identical']}"
            )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    checks = []
    if kernel_record is not None:
        checks.append("kernel python/native repr-identical")
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
    if hotpath_record is not None:
        checks.append(
            "validity membership identical and scan-stage speedup within "
            "bars; GT kernels repr-identical with end-to-end speedup "
            "within bars"
        )
    if peel_record is not None:
        checks.append(
            "peel and gather repr-identical to the scalar oracle across "
            "backends x kernels; contended GT speedup within bars"
        )
    print("all checks passed: " + "; ".join(checks))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
