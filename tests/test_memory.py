"""Peak memory of the sparse quality store, measured in a fresh interpreter.

At n = 20 000 the sparse community store, built and put through a fixed
read workload, must peak at a fifth of the dense n² · 8-byte matrix —
at least as strict as "sparse cuts peak RSS 5x against dense", since
any dense build holds that matrix. The child reads its own ``VmHWM``:
on Linux ``ru_maxrss`` survives fork and exec, so a child reports its
parent's high-water mark whenever the parent was larger.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent

FLOOR_WORKERS = 20_000
FLOOR_BYTES = FLOOR_WORKERS**2 * 8 / 5  # a fifth of the dense matrix


def status_kb(field: str = "VmHWM") -> int | None:
    """A kB figure of this process from ``/proc/self/status`` — by
    default its peak resident set — or ``None`` where it is not there."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


pytestmark = pytest.mark.skipif(
    status_kb() is None, reason="/proc/self/status reports no VmHWM"
)


def sparse_read_peak_kb(worker_count: int) -> int:
    """Build ``sparse_community_quality(worker_count, seed=0)``, run the
    fixed read workload (pair sums, rows, one gathered block) and return
    this process's ``VmHWM``. Runs in the child of :func:`_fresh_peak_kb`.
    """
    from repro.datasets.synthetic import sparse_community_quality

    store = sparse_community_quality(worker_count, seed=0)
    rng = np.random.default_rng(0)
    for _ in range(200):
        store.ordered_pair_sum(np.sort(rng.choice(worker_count, 6, replace=False)))
    for worker in rng.integers(0, worker_count, size=50):
        store.q_row(int(worker)).sum()
    index = np.sort(rng.choice(worker_count, 200, replace=False))
    store.block(index, index).sum()
    return status_kb()


def _fresh_peak_kb(worker_count: int) -> int:
    """:func:`sparse_read_peak_kb` in a new interpreter."""
    code = (
        "import json, sys\n"
        f"sys.path[:0] = {[str(ROOT / 'src'), str(ROOT)]!r}\n"
        "from tests.test_memory import sparse_read_peak_kb\n"
        f"print(json.dumps(sparse_read_peak_kb({worker_count})))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_sparse_peak_stays_under_a_fifth_of_the_dense_matrix():
    peak_kb = _fresh_peak_kb(FLOOR_WORKERS)
    assert peak_kb * 1024 <= FLOOR_BYTES, (
        f"sparse store peaked at {peak_kb} kB at n={FLOOR_WORKERS}; "
        f"the floor is {FLOOR_BYTES / 1024:.0f} kB"
    )


def test_child_reports_its_own_peak_not_the_parents():
    # Regression: the child used to read ru_maxrss, which inherits the
    # parent's high-water mark, so every measurement was floored at the
    # size of the process that spawned it. The ballast alone outweighs
    # the child's own peak at n = 2 000 (~60 MB).
    ballast = np.ones(150 * 2**20 // 8)
    ballast_kb = ballast.nbytes // 1024
    child_peak_kb = _fresh_peak_kb(2000)
    assert ballast_kb < status_kb("VmRSS")
    assert child_peak_kb < ballast_kb
