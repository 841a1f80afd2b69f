"""Geo-sharded GT at scale: the gates the sharded pipeline must hold.

Too slow for tier-1 (about four minutes on two cores); the CI
``shard-scale`` job runs ``PYTHONPATH=src python -m pytest
benchmarks/test_scale_gates.py -q``. The instance is the regime sharding
exists for: thin reach (radii 0.01-0.02), n/4 tasks, seed 0, the sparse
quality store. Each leg runs in a fresh interpreter and reports its own
``VmHWM``. Gates:

* two sharded solves in two processes are bit-identical at 20 000 and
  100 000 workers (so the 100 000 leg must complete; no monolithic leg
  runs there, since avoiding that solve is the point);
* at 20 000, the sharded revenue is within 1% of monolithic GT, and the
  better of the measured and the critical-path speedup reaches 3x. The
  critical path (partition + carve + slowest shard + reconcile) is the
  sharded wall with the shard solves overlapped.
"""

from __future__ import annotations

import json
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


def run_leg(leg: str, worker_count: int) -> dict:
    """Solve the scale instance with ``"mono"`` or auto-sharded
    (``"sharded"``) GT. Runs in the child of :func:`_leg`."""
    import hashlib
    import time

    from repro.core.sharding import solve_sharded
    from repro.core.validity import compute_valid_pairs
    from repro.datasets.synthetic import generate_instance
    from repro.experiments.config import make_solver
    from tests.test_memory import status_kb

    instance = generate_instance(
        worker_count,
        worker_count // 4,
        seed=0,
        radius_range=(0.01, 0.02),
        quality_backend="sparse",
    )
    valid_pairs = compute_valid_pairs(instance)
    started = time.perf_counter()
    record: dict = {}
    if leg == "mono":
        assignment = make_solver("GT", seed=0)(instance, valid_pairs)
    else:
        result = solve_sharded(instance, valid_pairs, approach="GT", seed=0)
        assignment = result.assignment
        phases = result.stats.phase_seconds
        record["shards"] = result.stats.shard_count
        record["critical_path_seconds"] = (
            phases.get("partition", 0.0)
            + phases.get("carve", 0.0)
            + max(result.shard_seconds or [result.stats.total_seconds])
            + phases.get("reconcile", 0.0)
        )
    record["seconds"] = time.perf_counter() - started
    pairs = sorted(assignment.to_pairs())
    record["assigned_workers"] = len(pairs)
    record["pairs_sha256"] = hashlib.sha256(repr(pairs).encode()).hexdigest()
    record["score"] = repr(assignment.recompute_total())
    record["peak_rss_kb"] = status_kb()
    return record


@lru_cache(maxsize=None)
def _leg(leg: str, worker_count: int, run: int = 0) -> dict:
    """:func:`run_leg` in a fresh interpreter, once per ``run``."""
    paths = [str(HERE.parent / "src"), str(HERE.parent), str(HERE)]
    code = (
        "import json, sys\n"
        f"sys.path[:0] = {paths!r}\n"
        "from test_scale_gates import run_leg\n"
        f"print(json.dumps(run_leg({leg!r}, {worker_count})))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=1800
    )
    assert result.returncode == 0, result.stderr
    record = json.loads(result.stdout.splitlines()[-1])
    print(f"{leg} n={worker_count} run {run}: {record}")
    return record


@pytest.mark.parametrize("worker_count", (20_000, 100_000))
def test_sharded_gt_is_bit_reproducible_across_processes(worker_count):
    first = _leg("sharded", worker_count)
    second = _leg("sharded", worker_count, run=1)
    assert first["assigned_workers"] > 0
    assert first["pairs_sha256"] == second["pairs_sha256"]
    assert first["score"] == second["score"]


def test_sharded_revenue_within_one_percent_of_monolithic():
    mono = float(_leg("mono", 20_000)["score"])
    sharded = float(_leg("sharded", 20_000)["score"])
    gap = abs(mono - sharded) / max(abs(mono), 1e-12)
    assert gap <= 0.01, f"revenue gap {gap:.4%}"


def test_sharded_speedup_reaches_3x_measured_or_on_the_critical_path():
    mono = _leg("mono", 20_000)["seconds"]
    sharded = _leg("sharded", 20_000)
    measured = mono / sharded["seconds"]
    critical_path = mono / sharded["critical_path_seconds"]
    assert max(measured, critical_path) >= 3.0, (
        f"measured {measured:.2f}x, critical-path {critical_path:.2f}x"
    )
