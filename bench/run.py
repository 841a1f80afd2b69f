"""Run the benchmark: one workload, or every workload in fresh processes.

    python3 bench/run.py --workload hotpath --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --seed 0 --runs 10 --out base.json

With ``--workload NAME`` the workload runs in this process: an untimed
warm-up batch at a tenth of the size, one traced solve of input 0, then
timed passes over the workload's inputs (tracing off) while the next
pass still fits in ``--seconds``. Every timed solve rebuilds its input
from the seed first; that build is one ``setup_s`` sample. The last line
of standard output is the result as JSON; with ``--trace 0`` its metrics
are the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the
per-layer ones.

Without ``--workload`` every workload runs ``--runs`` times (seeds
``seed``, ``seed + 1``, ...), each run in its own child process, one at a
time; ``--out`` collects the records for ``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORD_PREFIX = "record "
SCALES = {"full": 1.0, "tiny": 0.1}


def _require_program() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no program source under {ROOT / 'src'}")


def _import_program():
    """Import the program from this checkout's ``src/`` and nowhere else."""
    _require_program()
    # One thread per process: the machine may have few cores, and the benchmark
    # must be the only load it generates.
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    return workloads


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _environment(workloads) -> dict:
    import numpy
    from repro.core import kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "numba_available": bool(getattr(kernels, "NUMBA_AVAILABLE", False)),
        "kernel": workloads.KERNEL
        if workloads.kernel_kwargs(workloads.make_solver)
        else "default",
        "commit": _commit(),
    }


class Checker:
    """Counts checked operations and the ones that failed.

    An operation fails if it raised, if the invariant audit reports a
    finding on its first solve, or if a later solve of the same input
    gives a score that is not repr-identical or different pairs.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference: dict[tuple[int, int], tuple[str, str]] = {}

    def raised(self, exc: Exception) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(f"raised {exc!r}")

    def check(self, index: int, outcome) -> None:
        for op, assignment in enumerate(outcome.assignments):
            self.attempted += 1
            key = (index, op)
            pairs = hashlib.sha1(repr(assignment.to_pairs()).encode()).hexdigest()
            seen = (repr(assignment.total_score()), pairs)
            if key not in self.reference:
                self.reference[key] = seen
                findings = assignment.audit()
                if findings:
                    self.failed += 1
                    self.errors.append(f"input {index} op {op}: {findings[0]}")
            elif self.reference[key] != seen:
                self.failed += 1
                self.errors.append(
                    f"input {index} op {op}: {seen} differs from {self.reference[key]}"
                )


def _timed_build(workload, seed: int, index: int, scale: float):
    gc.collect()
    started = time.perf_counter()
    built = workload.build(seed, index, scale)
    return built, time.perf_counter() - started


def measure(workloads, name: str, seed: int, seconds: float, scale: float) -> dict:
    """One run of one workload; returns its record.

    Timings are best-of-passes: other tenants of a shared machine only ever
    add time, and a pass repeats exactly the same work, so the fastest
    pass of a batch is the estimate of the program's own cost.
    ``batch_s`` is the mean over the workload's batches of each batch's
    best time: the paper's Batch Running Time, which averages over
    batches.
    """
    workload = workloads.WORKLOADS[name]
    load_before = os.getloadavg()

    warm, _ = _timed_build(workload, seed, 0, scale * workloads.WARMUP_SCALE)
    warm_outcome = workload.solve(warm)
    for assignment in warm_outcome.assignments:
        assignment.audit()
    del warm, warm_outcome

    window_started = time.perf_counter()
    checker = Checker()
    tracer = workloads.Tracer(f"{name}-{seed}")
    built, setup_seconds = _timed_build(workload, seed, 0, scale)
    setup = [setup_seconds]
    traced = workload.solve(built, tracer)
    layers = dict(traced.layers, **{"datasets.generate_s": setup_seconds})
    checker.check(0, traced)
    score = {0: traced.score}
    completed = {0: traced.completed}
    del built

    batches: list[list[float]] = []  # per pass, every batch in order
    best: dict[tuple[int, int], float] = {}  # (input, batch) -> best seconds
    pass_walls: list[float] = []
    input0_walls: list[float] = []
    while True:
        pass_started = time.perf_counter()
        walls = []
        batches.append([])
        for index in range(workload.inputs):
            built, setup_seconds = _timed_build(workload, seed, index, scale)
            setup.append(setup_seconds)
            try:
                outcome = workload.solve(built)
            except Exception as exc:  # noqa: BLE001 — counted as a failed op
                checker.raised(exc)
                continue
            finally:
                del built
            walls.append(outcome.wall)
            batches[-1].extend(outcome.batches)
            for position, seconds_taken in enumerate(outcome.batches):
                key = (index, position)
                best[key] = min(best.get(key, seconds_taken), seconds_taken)
            if index == 0:
                input0_walls.append(outcome.wall)
            score.setdefault(index, outcome.score)
            completed.setdefault(index, outcome.completed)
            checker.check(index, outcome)
            del outcome
        pass_walls.append(sum(walls))
        elapsed = time.perf_counter() - window_started
        if elapsed + (time.perf_counter() - pass_started) > seconds:
            break

    tree = tracer.tree()
    layers.update(
        {
            "bench.residue_s": tree["residue_s"],
            "bench.tracing_overhead": traced.wall / min(input0_walls) - 1,
        }
    )
    end_to_end = {
        "setup_s": statistics.median(setup),
        "batch_s": statistics.mean(best.values()),
        "score": sum(score.values()),
        "completed_tasks": sum(completed.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    env = _environment(workloads)
    env.update(
        kernel_path=traced.kernel_path,
        loadavg_before=list(load_before),
        loadavg_after=list(os.getloadavg()),
    )
    return {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "end_to_end": _with_units(SPEC["end_to_end"], end_to_end),
        "per_layer": _with_units(SPEC["per_layer"], layers, default=0),
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failed_frac": checker.failed / checker.attempted,
        "errors": checker.errors[:20],
        "inputs": workload.inputs,
        "passes": len(pass_walls),
        "samples": {"setup_s": setup, "batch_s": batches, "pass_s": pass_walls},
        "batches": len(best),
        "tree": tree,
        "env": env,
        "spans": tracer.records(),
    }


def _with_units(declared: list[dict], values: dict, default=None) -> dict:
    metrics = {}
    for metric in declared:
        value = values.get(metric["name"], default)
        if value is None:
            raise KeyError(f"workload did not measure {metric['name']}")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return metrics


def result_line(records: list[dict], trace: int) -> dict:
    """The result line: one record's metrics, or every record's metrics
    prefixed with its workload and seed."""
    section = "per_layer" if trace else "end_to_end"
    if len(records) == 1:
        metrics = records[0][section]
    else:
        metrics = {
            f"{r['workload']}.{r['seed']}.{name}": value
            for r in records
            for name, value in r[section].items()
        }
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def summary(record: dict) -> str:
    lines = [
        f"{record['workload']} seed={record['seed']}: {record['batches']} batch(es) from "
        f"{record['inputs']} input(s) x {record['passes']} timed pass(es), "
        f"failed {record['failed']}/{record['attempted']} "
        f"(failed_frac {record['failed_frac']:g})"
    ]
    for name, metric in record["end_to_end"].items():
        lines.append(f"  {name:<16} {metric['value']:>14.6g} {metric['unit']}")
    tree = record["tree"]
    lines.append(
        f"  layer tree: wall {tree['wall_s']:.4f} s = leaves {tree['leaves_s']:.4f} s"
        f" + residue {tree['residue_s']:.4f} s"
        f" ({tree['residue_s'] / tree['wall_s']:+.1%})"
    )
    lines.extend(f"  error: {error}" for error in record["errors"])
    return "\n".join(lines)


def _write_spans(path: str, records: list[dict]) -> None:
    with open(path, "w") as handle:
        for record in records:
            for span in record["spans"]:
                handle.write(json.dumps(span) + "\n")


def _run_children(args) -> list[dict]:
    """Every workload, ``--runs`` times, each run in a fresh process."""
    records = []
    for offset in range(args.runs):
        for name in (w["name"] for w in SPEC["workloads"]):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed + offset),
                "--seconds", str(args.seconds),
                "--scale", args.scale,
            ]
            started = time.perf_counter()
            child = subprocess.run(
                command, capture_output=True, text=True, check=False, timeout=600
            )
            lines = child.stdout.splitlines()
            found = [line for line in lines if line.startswith(RECORD_PREFIX)]
            if not found:
                sys.stderr.write(child.stdout + child.stderr)
                sys.exit(f"bench: workload {name} exited {child.returncode} without a record")
            record = json.loads(found[-1][len(RECORD_PREFIX):])
            record["process_s"] = time.perf_counter() - started
            print(summary(record), flush=True)
            records.append(record)
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="last line carries the per-layer metrics (1) or the end-to-end ones (0)")
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, seeds seed..seed+runs-1 (all workloads only)")
    parser.add_argument("--out", help="write the full records as JSON")
    parser.add_argument("--trace-out", help="write the spans of the traced solves as JSONL")
    args = parser.parse_args(argv)

    if args.workload is None:
        _require_program()  # fail fast, before any child starts
        records = _run_children(args)
    else:
        workloads = _import_program()
        record = measure(workloads, args.workload, args.seed, args.seconds, SCALES[args.scale])
        print(summary(record))
        print(RECORD_PREFIX + json.dumps(record))
        records = [record]
    if args.out:
        Path(args.out).write_text(json.dumps({"records": records}, indent=1) + "\n")
    if args.trace_out:
        _write_spans(args.trace_out, records)
    result = result_line(records, args.trace)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
