"""Peak memory of the quality stores, measured in a fresh interpreter.

At n = 20 000 the sparse community store, built and put through a fixed
read workload, must peak at a fifth of the dense n² · 8-byte matrix —
at least as strict as "sparse cuts peak RSS 5x against dense", since
any dense build holds that matrix. The Meetup surrogate's dense matrix
is built in place, so its build may raise the resident set by at most
1.5 times the matrix itself. The child reads its own ``VmHWM``: on
Linux ``ru_maxrss`` survives fork and exec, so a child reports its
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
MEETUP_RISE_FACTOR = 1.5  # the matrix plus half of it in temporaries


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


def meetup_build_rise() -> tuple[int, int]:
    """``(VmHWM - VmRSS after imports, matrix nbytes)`` of one default
    ``generate_meetup_dataset(seed=0)``, both in bytes. Runs in the child
    of :func:`_fresh_call`."""
    from repro.datasets.meetup import generate_meetup_dataset

    before_kb = status_kb("VmRSS")
    dataset = generate_meetup_dataset(seed=0)
    return (status_kb() - before_kb) * 1024, dataset.quality.nbytes


def _fresh_call(name: str, *args):
    """``name(*args)`` from this module, in a new interpreter."""
    code = (
        "import json, sys\n"
        f"sys.path[:0] = {[str(ROOT / 'src'), str(ROOT)]!r}\n"
        f"from tests.test_memory import {name}\n"
        f"print(json.dumps({name}(*{args!r})))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def _fresh_peak_kb(worker_count: int) -> int:
    """:func:`sparse_read_peak_kb` in a new interpreter."""
    return _fresh_call("sparse_read_peak_kb", worker_count)


def test_sparse_peak_stays_under_a_fifth_of_the_dense_matrix():
    peak_kb = _fresh_peak_kb(FLOOR_WORKERS)
    assert peak_kb * 1024 <= FLOOR_BYTES, (
        f"sparse store peaked at {peak_kb} kB at n={FLOOR_WORKERS}; "
        f"the floor is {FLOOR_BYTES / 1024:.0f} kB"
    )


def test_meetup_build_rises_at_most_one_and_a_half_matrices():
    rise, matrix_bytes = _fresh_call("meetup_build_rise")
    assert rise <= MEETUP_RISE_FACTOR * matrix_bytes, (
        f"the Meetup build raised VmHWM by {rise / 2**20:.0f} MiB over a "
        f"{matrix_bytes / 2**20:.0f} MiB matrix; the bound is "
        f"{MEETUP_RISE_FACTOR}x"
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
