"""Smoke test of the benchmark: every workload at ``--scale tiny``, twice.

Outside the tier-1 ``testpaths``; run it explicitly:

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402

#: Units of metrics that must repeat exactly for the same seed.
EXACT_UNITS = {"count", "bytes", "pairs/worker", "tasks", "Eq3-score"}


def _tiny_set(path: Path) -> tuple[list[dict], dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--scale", "tiny", "--seconds", "1",
         "--seed", "0", "--out", str(path)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(path.read_text())["records"], json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench")
    return _tiny_set(tmp / "first.json"), _tiny_set(tmp / "second.json")


def test_every_workload_emits_every_metric_with_its_unit(runs):
    records, result = runs[0]
    assert [r["workload"] for r in records] == [w["name"] for w in SPEC["workloads"]]
    for record in records:
        for section in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in SPEC[section]}
            assert {n: m["unit"] for n, m in record[section].items()} == declared
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= len(records)


def test_no_operation_fails(runs):
    for records, _ in runs:
        for record in records:
            assert record["failed_frac"] == 0, record["errors"]


def test_layer_tree_sums_to_the_traced_wall(runs):
    for record in runs[0][0]:
        tree = record["tree"]
        assert abs(tree["residue_s"]) <= 0.1 * tree["wall_s"], record["workload"]


def test_scores_and_counts_repeat_exactly(runs):
    for first, second in zip(runs[0][0], runs[1][0]):
        for section in ("end_to_end", "per_layer"):
            for name, metric in first[section].items():
                if metric["unit"] in EXACT_UNITS:
                    assert metric == second[section][name], (first["workload"], name)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hotpath", "--seed", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize(
    "change, expected",
    [(1.5, "regression"), (0.5, "gain"), (1.01, "same")],
)
def test_compare_verdicts(change, expected):
    metric = {"name": "batch_s", "better": "lower", "bound": 0.1}
    base = [1.0 + 0.001 * i for i in range(10)]
    changed = [v * change for v in base]
    wins = sum(c < b for b, c in zip(base, changed))
    assert compare.verdict(base, changed, wins, len(base), metric) == expected


def test_compare_calls_a_noisy_base_unresolved():
    metric = {"name": "batch_s", "better": "lower", "bound": 0.1}
    base = [1.0, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 0.7, 1.4, 1.0]
    assert compare.verdict(base, base, 0, len(base), metric) == "unresolved"
