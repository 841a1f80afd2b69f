"""Pluggable cooperation-quality backends (the ``QualityStore`` protocol).

Every consumer of pairwise qualities — Equation 2 revenue, the GT
best-response scan, TPG stage one, the batch framework — reads through a
small access protocol instead of touching a dense array directly. Each
backend implements one read primitive, ``block(rows, cols)``, plus an
uncached ``q_row``; every other read is written once on top of them
(:class:`~repro.core.quality.QualityReads`). Three interchangeable
backends implement it:

* :class:`DenseQualityStore` (an alias of
  :class:`~repro.core.quality.CooperationMatrix`) — the historical dense
  ``(n, n)`` float64 matrix. Default backend, unchanged semantics.
* :class:`SparseQualityStore` — Equation 1 makes the matrix "prior +
  sparse deviations" by construction: most worker pairs share no history
  and sit exactly at the prior. This backend stores only the deviating
  entries, as sorted ordered-pair keys (scipy is deliberately not a
  dependency), for O(nnz) memory, and answers every read with one
  ``np.searchsorted`` over them. This class is the one owner of that
  key layout.
* :class:`SharedDenseQualityStore` — the dense buffer placed in
  :mod:`multiprocessing.shared_memory` so sweep-pool workers attach
  zero-copy instead of rebuilding ``n^2`` floats per process. Lifecycle
  (create/close/unlink) is owned by whoever created the segment — the
  :class:`~repro.experiments.parallel.SweepExecutor` unlinks on shutdown
  and on KeyboardInterrupt.

Task-local blocks
-----------------
Every Equation-2/5 read a solver makes for task ``t_j`` touches only
pairs among ``t_j``'s watchers, the workers that can reach it
(Definition 3). :func:`task_blocks` builds a reader of those blocks
(:class:`TaskBlocks`); each solve builds its own and passes it down to
the parts of the solve that share it (GT's TPG initialisation, TPG's
stage 1), so no two solves reach one reader. It reads *positions*.
The dense backends copy nothing: their matrix reads any entry in O(1),
so a worker's position is its id. The sparse backend numbers each
task's watchers instead (one position per (task, watcher) pair of the
validity relation, in task-major order, so sorting a task's positions
sorts its workers) and builds each task's block once, on its first
read, as a small integer code array plus a value table
(:class:`SparseTaskBlocks`), so a read indexes two arrays instead of
searching the store's keys. The solvers read only through a reader;
the store itself stays the oracle (:class:`StoreReads` reads a store
with a worker's id as its position).

Bit-identity contract
---------------------
All three backends, and every reader over them, return
*value-identical* arrays from ``block`` / ``q_row``, and the derived
sums reduce them in Equation 2's one order, left to right over the
members and row-major over a block
(:func:`~repro.core.kernels.ordered_row_sums`) — so solvers produce
repr-identical assignments regardless of backend (enforced by
``tests/test_quality_store.py``, the golden fixture and the
differential audit's backend and block-parity axes). The closed form
``prior * |M| * (|M| - 1) + D[M, M].sum()`` is exact mathematics but a
*different float reduction order*, so no backend uses it.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path
from typing import Protocol, runtime_checkable

import numpy as np

from repro.core.quality import (
    DEFAULT_ALPHA,
    DEFAULT_BASE_QUALITY,
    CooperationMatrix,
    QualityReads,
    history_pair_values,
)
from repro.utils.errors import InvalidInstanceError

__all__ = [
    "QualityStore",
    "DenseQualityStore",
    "SparseQualityStore",
    "SharedDenseQualityStore",
    "StoreReads",
    "TaskBlocks",
    "SparseTaskBlocks",
    "task_blocks",
    "QUALITY_BACKENDS",
    "REGISTRY_ENV_VAR",
    "ReapReport",
    "reap_orphans",
    "registered_segments",
    "shm_registry_dir",
]

#: CLI / settings names of the available backends.
QUALITY_BACKENDS = ("dense", "sparse", "shared")


@runtime_checkable
class QualityStore(Protocol):
    """Access protocol shared by all quality backends.

    Mirrors the read API of :class:`~repro.core.quality.CooperationMatrix`
    (which satisfies it structurally); see that class and
    :class:`~repro.core.quality.QualityReads` for the semantics of each
    method.
    """

    @property
    def size(self) -> int: ...

    @property
    def values(self) -> np.ndarray: ...

    @property
    def nbytes(self) -> int: ...

    def block(self, rows, cols) -> np.ndarray: ...

    def q_row(self, worker: int) -> np.ndarray: ...

    def pair(self, i: int, k: int) -> float: ...

    def is_symmetric(self, tolerance: float = 1e-12) -> bool: ...

    def ordered_pair_sum(self, members: Sequence[int]) -> float: ...

    def submatrix_sum(self, index: np.ndarray) -> float: ...

    def cross_sum(self, worker: int, members: Sequence[int]) -> float: ...

    def top_qualities(self, worker: int, count: int) -> np.ndarray: ...

    def bottom_qualities(self, worker: int, count: int) -> np.ndarray: ...

    def restricted_to(self, workers: Sequence[int]) -> "QualityStore": ...

    def to_dense(self) -> CooperationMatrix: ...


#: The dense backend is the existing matrix, verbatim.
DenseQualityStore = CooperationMatrix


class SparseQualityStore(QualityReads):
    """``q[i, k] = prior`` except at explicitly stored deviating pairs.

    The store keeps the *absolute* quality value at each deviating entry
    (not the delta) under the sorted ordered-pair key ``i * size + k``,
    with the row pointer into it, so every read looks up exactly the
    floats the dense matrix holds — the key to backend bit-identity.
    Memory is 16 bytes per stored entry; whether the stored entries are
    exactly symmetric is decided once, at construction.

    Diagonal entries are implicitly zero, exactly like
    :class:`~repro.core.quality.CooperationMatrix`.
    """

    __slots__ = (
        "_size",
        "_prior",
        "_indptr",
        "_row_keys",
        "_row_values",
        "_symmetric",
    )

    def __init__(
        self,
        size: int,
        prior: float,
        rows: Sequence[int],
        cols: Sequence[int],
        values: Sequence[float],
    ) -> None:
        size = int(size)
        if size < 0:
            raise InvalidInstanceError(f"size must be >= 0, got {size}")
        prior = float(prior)
        if not 0.0 <= prior <= 1.0:
            raise InvalidInstanceError(f"prior must be in [0, 1], got {prior}")
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        cols = np.asarray(cols, dtype=np.int64).reshape(-1)
        data = np.asarray(values, dtype=float).reshape(-1)
        if not (rows.size == cols.size == data.size):
            raise InvalidInstanceError(
                "rows, cols and values must have equal length, got "
                f"{rows.size}/{cols.size}/{data.size}"
            )
        if rows.size:
            if rows.min() < 0 or rows.max() >= size:
                raise InvalidInstanceError("deviation row index out of range")
            if cols.min() < 0 or cols.max() >= size:
                raise InvalidInstanceError("deviation column index out of range")
            if (rows == cols).any():
                raise InvalidInstanceError(
                    "diagonal deviations are not allowed (self-quality is 0)"
                )
            if np.isnan(data).any():
                raise InvalidInstanceError("cooperation matrix contains NaN")
            if data.min() < 0.0 or data.max() > 1.0:
                raise InvalidInstanceError("cooperation scores must lie in [0, 1]")

        self._size = size
        self._prior = prior
        self._row_keys, self._row_values = _sorted_entries(rows * size + cols, data)
        if (self._row_keys[1:] == self._row_keys[:-1]).any():
            raise InvalidInstanceError("duplicate deviation entries")
        self._indptr = np.searchsorted(
            self._row_keys, np.arange(size + 1, dtype=np.int64) * size
        )
        col_keys, col_values = _sorted_entries(cols * size + rows, data)
        # Exact (not tolerance-based) symmetry: every block of the store
        # then equals its transpose, which the task-block readers use to
        # read one orientation for both.
        self._symmetric = bool(
            np.array_equal(col_keys, self._row_keys)
            and np.array_equal(col_values, self._row_values)
        )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(
        cls, matrix: "CooperationMatrix | np.ndarray", prior: float
    ) -> "SparseQualityStore":
        """Extract the deviations of a dense matrix around ``prior``.

        Round-trips exactly: ``store.to_dense() == matrix`` (off-diagonal
        entries equal to ``prior`` become implicit, all others explicit).
        """
        if isinstance(matrix, CooperationMatrix):
            q = matrix.values
        else:
            q = CooperationMatrix(matrix).values
        mask = q != prior
        np.fill_diagonal(mask, False)
        rows, cols = np.nonzero(mask)
        return cls(q.shape[0], prior, rows, cols, q[rows, cols])

    @classmethod
    def from_history(
        cls,
        worker_count: int,
        shared_task_ratings: dict[tuple[int, int], Sequence[float]],
        base_quality: float = DEFAULT_BASE_QUALITY,
        alpha: float = DEFAULT_ALPHA,
    ) -> "SparseQualityStore":
        """Equation 1 without ever allocating the dense matrix.

        Pairs with history become explicit entries; everyone else sits at
        the prior ``base_quality`` implicitly. Produces a store whose
        ``to_dense()`` equals
        :meth:`CooperationMatrix.from_history` bit-for-bit.
        """
        rows, cols, values = history_pair_values(
            worker_count, shared_task_ratings, base_quality, alpha
        )
        if rows.size:
            # Keep the last write per (row, col), matching dense fancy
            # assignment when a dict lists both (i, k) and (k, i).
            keys = rows * worker_count + cols
            _, first_in_reversed = np.unique(keys[::-1], return_index=True)
            keep = keys.size - 1 - first_in_reversed
            rows, cols, values = rows[keep], cols[keep], values[keep]
        return cls(worker_count, base_quality, rows, cols, values)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _ids(self, ids) -> np.ndarray:
        """``ids`` as int64, rejecting any outside ``[0, size)``."""
        ids = np.asarray(ids, dtype=np.int64)
        # Negative ids read as huge unsigned ones: one max checks both ends.
        if ids.size and ids.view(np.uint64).max() >= self._size:
            raise IndexError(f"worker id out of range for {self._size} workers")
        return ids

    def _lookup(
        self, keys: np.ndarray, values: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        """``values`` where ``targets`` appear in the sorted ``keys``, the
        prior elsewhere."""
        if keys.size == 0:
            return np.full(targets.shape, self._prior, dtype=np.float64)
        position = np.minimum(np.searchsorted(keys, targets), keys.size - 1)
        return np.where(keys[position] == targets, values[position], self._prior)

    # ------------------------------------------------------------------
    # QualityStore API
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return self._size

    @property
    def nnz(self) -> int:
        """Number of explicitly stored (deviating) entries."""
        return int(self._row_values.size)

    @property
    def prior(self) -> float:
        return self._prior

    @property
    def density(self) -> float:
        """Fraction of off-diagonal entries stored explicitly."""
        possible = self._size * (self._size - 1)
        return self.nnz / possible if possible else 0.0

    @property
    def nbytes(self) -> int:
        """Bytes held by the row pointer and the key/value arrays."""
        return int(
            self._indptr.nbytes + self._row_keys.nbytes + self._row_values.nbytes
        )

    @property
    def values(self) -> np.ndarray:
        """Materialized dense array — O(n²) escape hatch.

        Exists for dataset serialization (``datasets/io.py``) and tests;
        hot paths must use ``block`` instead.
        """
        return self.to_dense().values

    def to_dense(self) -> CooperationMatrix:
        """The equivalent dense matrix (the backend-parity bridge)."""
        q = np.full((self._size, self._size), self._prior, dtype=float)
        q.reshape(-1)[self._row_keys] = self._row_values
        return CooperationMatrix(q, copy=False)

    def block(self, rows, cols) -> np.ndarray:
        """``q[rows[..., :, None], cols[..., None, :]]`` as a fresh array.

        One batched ``searchsorted`` over the row keys answers every
        position: absent pairs default to the prior, positions where the
        row and column ids coincide are 0 — the dense matrix's floats.
        """
        rows = self._ids(rows)[..., :, None]
        cols = self._ids(cols)[..., None, :]
        out = self._lookup(self._row_keys, self._row_values, rows * self._size + cols)
        out[rows == cols] = 0.0
        return out

    def q_row(self, worker: int) -> np.ndarray:
        """Full row ``worker``, materialized from its stored entries."""
        worker = int(self._ids(worker))
        segment = slice(self._indptr[worker], self._indptr[worker + 1])
        row = np.full(self._size, self._prior, dtype=float)
        row[self._row_keys[segment] - worker * self._size] = self._row_values[segment]
        row[worker] = 0.0
        return row

    def is_symmetric(self, tolerance: float = 1e-12) -> bool:
        if self._symmetric:
            return True
        # Every pair with a stored orientation is a row entry one way or
        # the other; the rest sit at the prior both ways.
        rows, cols = np.divmod(self._row_keys, self._size)
        transposed = self._lookup(
            self._row_keys, self._row_values, cols * self._size + rows
        )
        return bool(
            np.allclose(self._row_values, transposed, atol=tolerance)
            and np.allclose(transposed, self._row_values, atol=tolerance)
        )

    def restricted_to(self, workers: Sequence[int]) -> "SparseQualityStore":
        """Positionally re-indexed sub-store (``workers`` must be unique)."""
        index = np.asarray(workers, dtype=np.intp)
        if np.unique(index).size != index.size:
            raise ValueError(f"duplicate workers: {sorted(workers)}")
        position = np.full(self._size, -1, dtype=np.intp)
        position[index] = np.arange(index.size, dtype=np.intp)
        rows, cols = np.divmod(self._row_keys, self._size)
        keep = (position[rows] >= 0) & (position[cols] >= 0)
        return SparseQualityStore(
            index.size,
            self._prior,
            position[rows[keep]],
            position[cols[keep]],
            self._row_values[keep],
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseQualityStore):
            return NotImplemented
        if self._size != other._size or self._prior != other._prior:
            return False
        return np.array_equal(self._row_keys, other._row_keys) and np.array_equal(
            self._row_values, other._row_values
        )

    def __repr__(self) -> str:
        return (
            f"SparseQualityStore(size={self._size}, nnz={self.nnz}, "
            f"prior={self._prior!r})"
        )


def _sorted_entries(
    keys: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``keys`` sorted ascending, with ``values`` in the same order."""
    order = np.argsort(keys)
    return keys[order], values[order]


class StoreReads:
    """A store read as a block reader, with a worker's id as its position.

    ``block`` is the store's own, ``locate`` returns the workers and
    ``worker_ids`` the positions. A
    :class:`~repro.core.revenue.RevenueCache` outside a solve reads its
    store so (tests, ``Assignment(instance)``, the oracles).
    """

    __slots__ = ("store", "symmetric")

    def __init__(self, store) -> None:
        self.store = store
        self.symmetric = isinstance(store, SparseQualityStore) and store._symmetric

    def block(self, rows, cols) -> np.ndarray:
        """The store's ``block`` at ``rows``/``cols``."""
        return self.store.block(rows, cols)

    def locate(self, tasks, workers) -> np.ndarray:
        """The workers themselves: a worker's id is its position."""
        return np.asarray(workers, dtype=np.int64)

    def worker_ids(self, positions) -> np.ndarray:
        return np.asarray(positions, dtype=np.int64)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.store!r})"


class TaskBlocks(StoreReads):
    """Each task's directed quality block ``q[ids, ids]`` over its
    watchers ``ids`` (ascending, as
    :meth:`ValidPairs.workers_of <repro.core.validity.ValidPairs.workers_of>`
    slices them), read by position: one solve's reader
    (:func:`task_blocks`).

    :meth:`block` keeps the store's contract with positions in place of
    ids (leading batch dimensions, 0 on the diagonal); the two positions
    of every entry it reads must belong to one task, and one call may
    read many tasks. :meth:`pair_block` is TPG stage 1's symmetric block
    of one task's live watchers. ``built`` and ``build_seconds`` count
    the blocks built so far and the time spent on them.

    This class serves the dense and shared stores, whose matrix already
    reads any entry in O(1): it copies nothing, and a worker's position
    is its id, as in :class:`StoreReads`. :class:`SparseTaskBlocks`
    numbers positions per task.
    """

    __slots__ = ("built", "build_seconds", "_pairs")

    def __init__(self, store, valid_pairs) -> None:
        super().__init__(store)
        self._pairs = valid_pairs
        self.built = 0
        self.build_seconds = 0.0

    def pair_block(self, task: int, local: np.ndarray) -> np.ndarray:
        """``sub + sub.T`` over ``sub``, the square block of task
        ``task``'s watchers at the local indices ``local`` (indices into
        the ascending watcher list)."""
        ids = self._pairs.workers_of(task)[local]
        sub = self.store.block(ids, ids)
        return sub + sub.T


#: Bits a position key shifts its task by: ``task << 32 | worker``. No
#: valid worker id reaches 2**32, so a negative or too-large id never
#: matches a valid key of another task.
_KEY_SHIFT = 32


class SparseTaskBlocks(TaskBlocks):
    """:class:`TaskBlocks` over a :class:`SparseQualityStore`: each task's
    block as an integer code array plus a small value table.

    Positions number the validity relation's (task, watcher) pairs in
    task-major order: task ``j``'s watchers hold ``starts[j]`` up to
    ``starts[j + 1]``, so a sorted run of one task's positions is a
    sorted run of its worker ids (the peel's highest-index tie-break is
    unchanged). Code 0 is the prior, code 1 the diagonal's 0.0 and
    codes 2 and up the stored entries inside the block, in the order the
    row segments list them. A task's block is built on its first read by scattering
    the stored entries of its watchers' row segments, so the cost
    follows those rows' entries instead of ``k^2`` key searches; after
    that a read indexes the codes and the table. All codes share one
    arena whose dtype is the :func:`numpy.min_scalar_type` of the
    largest code built so far (``uint8`` up to 254 entries in one
    block). Blocks are immutable once built, as the store is.
    """

    __slots__ = (
        "_starts",
        "_workers",
        "_keys",
        "_row_base",
        "_column",
        "_table_at",
        "_tasks",
        "_codes",
        "_values",
        "_used",
        "_local",
    )

    def __init__(self, store: SparseQualityStore, valid_pairs) -> None:
        super().__init__(store, valid_pairs)
        self._starts = valid_pairs.task_ptr
        self._workers = valid_pairs.task_workers
        sizes = np.diff(self._starts)
        tasks = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
        # Ascending: task-major, each task's watchers ascending.
        self._keys = (tasks << _KEY_SHIFT) + self._workers
        code_starts = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes * sizes, out=code_starts[1:])
        column = np.arange(self._workers.size, dtype=np.int64) - self._starts[tasks]
        # Per position: where its row starts in the code arena, its
        # column within its task's block, and its task's value table
        # (-1 until the block is built).
        self._row_base = code_starts[tasks] + column * sizes[tasks]
        self._column = column.astype(np.int32)
        self._table_at = np.full(self._workers.size, -1, dtype=np.int64)
        # Per task, once built: (code base, watchers, table start, end).
        self._tasks: list[tuple[int, int, int, int] | None] = [None] * sizes.size
        self._codes = np.empty(int(code_starts[-1]), dtype=np.uint8)
        self._values = np.empty(256, dtype=np.float64)
        self._used = 0
        # Worker id -> local index, written for one task at a time and
        # never cleared: a read counts only if it maps back to its worker.
        self._local = np.empty(store.size, dtype=np.intp)

    def locate(self, tasks, workers) -> np.ndarray:
        """The positions of ``workers`` in ``tasks`` (broadcast).

        Raises ``ValueError`` for a worker that does not reach its task.
        """
        keys = (np.asarray(tasks, dtype=np.int64) << _KEY_SHIFT) + workers
        positions = self._keys.searchsorted(keys)
        if keys.size and (
            not self._keys.size
            or (self._keys.take(positions, mode="clip") != keys).any()
        ):
            raise ValueError("a worker does not reach the task it is read for")
        return positions

    def worker_ids(self, positions) -> np.ndarray:
        """The worker id at each position."""
        return self._workers[positions]

    def block(self, rows, cols) -> np.ndarray:
        """``q[ids[rows[..., :, None]], ids[cols[..., None, :]]]``, each
        entry looked up in its task's codes and table."""
        rows = np.asarray(rows, dtype=np.intp)[..., :, None]
        cols = np.asarray(cols, dtype=np.intp)[..., None, :]
        tables = self._table_at[rows]
        if tables.size and tables.min() < 0:
            self._build(rows[tables < 0])
            tables = self._table_at[rows]
        codes = self._codes.take(self._row_base[rows] + self._column[cols])
        return self._values.take(tables + codes)

    def pair_block(self, task: int, local: np.ndarray) -> np.ndarray:
        base, count, table, end = self._task(task)
        # The live block's codes are cut out of the task's (one byte per
        # entry), then looked up in its table.
        codes = (
            self._codes[base : base + count * count]
            .reshape(count, count)
            .take(local, axis=0)
            .take(local, axis=1)
        )
        sub = self._values[table:end].take(codes)
        return sub + sub.T

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.store!r}, "
            f"tasks={self._starts.size - 1}, positions={self._workers.size})"
        )

    def codes(self, task: int) -> np.ndarray:
        """Task ``task``'s ``(k, k)`` code block, built if it was not."""
        base, count, _, _ = self._task(task)
        return self._codes[base : base + count * count].reshape(count, count)

    def _task(self, task: int) -> tuple[int, int, int, int]:
        """Task ``task``'s (code base, watchers, table start, table end),
        building its block if it was not."""
        info = self._tasks[task]
        if info is None:
            start, end = int(self._starts[task]), int(self._starts[task + 1])
            if end == start:
                return 0, 0, 0, 0
            self._build(np.asarray([start]))
            info = self._tasks[task]
        return info

    def _build(self, positions: np.ndarray) -> None:
        started = time.perf_counter()
        tasks = np.unique(np.searchsorted(self._starts, positions, side="right") - 1)
        for task in tasks.tolist():
            self._build_task(task)
        self.built += tasks.size
        self.build_seconds += time.perf_counter() - started

    def _build_task(self, task: int) -> None:
        """Scatter task ``task``'s block into the arena and its table."""
        store = self.store
        start, end = int(self._starts[task]), int(self._starts[task + 1])
        ids = self._workers[start:end]
        count = ids.size
        seg_starts = store._indptr[ids]
        lengths = store._indptr[ids + 1] - seg_starts
        ends = np.cumsum(lengths)
        total = int(ends[-1])
        cells = np.empty(0, dtype=np.int64)
        entries = np.empty(0, dtype=np.float64)
        if total:
            # Flat positions of every segment entry, segment by segment.
            flat = np.arange(total) + np.repeat(seg_starts - ends + lengths, lengths)
            columns = store._row_keys[flat] - np.repeat(ids * store._size, lengths)
            local = self._local
            local[ids] = np.arange(count)
            found = local[columns]
            hit = np.flatnonzero(ids.take(found, mode="clip") == columns)
            owner = np.searchsorted(ends, hit, side="right")
            cells = owner * count + found[hit]
            entries = store._row_values[flat[hit]]
        dtype = np.min_scalar_type(entries.size + 1)
        if dtype.itemsize > self._codes.itemsize:
            self._codes = self._codes.astype(dtype)
        base = int(self._row_base[start])
        block = self._codes[base : base + count * count]
        block.fill(0)
        block[:: count + 1] = 1
        block[cells] = np.arange(2, entries.size + 2)
        table = self._used
        self._used += entries.size + 2
        if self._used > self._values.size:
            grown = np.empty(max(self._used, 2 * self._values.size))
            grown[:table] = self._values[:table]
            self._values = grown
        self._values[table] = store._prior
        self._values[table + 1] = 0.0
        self._values[table + 2 : self._used] = entries
        self._table_at[start:end] = table
        self._tasks[task] = (base, count, table, self._used)


def task_blocks(store, valid_pairs) -> TaskBlocks:
    """A new task-block reader of ``store`` over ``valid_pairs``' tasks.

    One solve's reader: the solver builds it, passes it to the parts of
    the solve that read the same tasks (so each block is built at most
    once per solve), counts its builds
    (:meth:`~repro.core.stats.SolverStats.add_block_counters`) and hands
    its results the store
    (:meth:`~repro.core.revenue.RevenueCache.use_reads`) when the solve
    is over. A reader is not shared between solves or threads.
    """
    if isinstance(store, SparseQualityStore):
        return SparseTaskBlocks(store, valid_pairs)
    return TaskBlocks(store, valid_pairs)


#: Segment names created (and still owned) by *this* process. An attach
#: within the creating process must not unregister the name — the
#: tracker keeps one entry per name, so doing so would strip the
#: creator's crash-cleanup registration and make the eventual unlink()
#: complain about an unknown name.
_OWNED_SEGMENT_NAMES: set[str] = set()


# --------------------------------------------------------------------------
# Segment name registry + orphan reaping.
#
# Python's resource tracker cleans up a crashed creator's segments only on
# a best-effort basis — SIGKILL the creator *and* its tracker (or kill the
# creator before the tracker registered the name) and the segment outlives
# everything, invisibly eating /dev/shm until reboot. The registry is the
# belt-and-braces answer: every create() drops one small JSON sidecar file
# (name, owner pid, size) into a well-known directory, every unlink()
# removes it, and reap_orphans() scans the directory on the next run,
# unlinking any segment whose owner pid is dead.

#: Environment variable overriding the registry directory (tests point it
#: at a tmp dir; deployments may point it at a persistent spool).
REGISTRY_ENV_VAR = "REPRO_SHM_REGISTRY"


def shm_registry_dir() -> Path:
    """The directory holding one JSON sidecar per live segment."""
    override = os.environ.get(REGISTRY_ENV_VAR)
    if override:
        return Path(override)
    return Path(tempfile.gettempdir()) / "repro-shm-registry"


def _registry_entry(name: str) -> Path:
    return shm_registry_dir() / f"{name}.json"


def register_segment(name: str, size: int) -> None:
    """Record a created segment in the on-disk registry (best effort)."""
    try:
        directory = shm_registry_dir()
        directory.mkdir(parents=True, exist_ok=True)
        _registry_entry(name).write_text(
            json.dumps({"name": name, "pid": os.getpid(), "size": int(size)}),
            encoding="utf-8",
        )
    except OSError:  # pragma: no cover - registry is advisory, never fatal
        pass


def unregister_segment(name: str) -> None:
    """Drop a segment's registry sidecar (no-op if absent)."""
    try:
        _registry_entry(name).unlink(missing_ok=True)
    except OSError:  # pragma: no cover - registry is advisory, never fatal
        pass


def registered_segments() -> list[dict]:
    """All registry entries, sorted by segment name."""
    directory = shm_registry_dir()
    if not directory.is_dir():
        return []
    entries = []
    for path in sorted(directory.glob("*.json")):
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if isinstance(entry, dict) and "name" in entry:
            entries.append(entry)
    return entries


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid exists, other user
        return True
    except (OverflowError, ValueError):  # pragma: no cover - garbage pid
        return False
    return True


@dataclass
class ReapReport:
    """Outcome of one :func:`reap_orphans` scan.

    ``scanned`` registry entries were examined; ``live`` belong to
    still-running owners (left alone unless ``force``), ``reaped`` were
    orphaned segments actually unlinked, ``stale`` were registry entries
    whose segment no longer exists (sidecar removed, nothing to unlink).
    """

    scanned: int = 0
    reaped: list[str] = field(default_factory=list)
    live: list[str] = field(default_factory=list)
    stale: list[str] = field(default_factory=list)

    def summary(self) -> str:
        return (
            f"scanned {self.scanned} registered segment(s): "
            f"reaped {len(self.reaped)}, stale {len(self.stale)}, "
            f"live {len(self.live)}"
        )


def reap_orphans(force: bool = False) -> ReapReport:
    """Unlink shared-memory segments whose owning process died.

    Scans the registry; for every entry whose owner pid no longer exists
    (or unconditionally with ``force=True``) the segment is attached and
    unlinked, and the sidecar removed. Entries whose segment is already
    gone are treated as stale bookkeeping and also removed. Safe to run
    concurrently with healthy sweeps: live owners' segments are not
    touched unless forced.
    """
    report = ReapReport()
    for entry in registered_segments():
        report.scanned += 1
        name = str(entry["name"])
        pid = int(entry.get("pid", -1))
        if not force and _pid_alive(pid):
            report.live.append(name)
            continue
        try:
            shm = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            # Tracker (or a previous reap) already removed the segment;
            # only the sidecar is left.
            unregister_segment(name)
            report.stale.append(name)
            continue
        _unregister_attached_segment(shm)
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - lost a race
            pass
        unregister_segment(name)
        report.reaped.append(name)
    return report


def _unregister_attached_segment(shm: shared_memory.SharedMemory) -> None:
    """Detach a segment from this process's resource tracker.

    Python 3.11 has no ``SharedMemory(track=False)``; without this, every
    *attaching* process registers the segment and the tracker both warns
    about and destroys it at interpreter exit — yanking it out from under
    the creating process. The creator stays registered so a crashed run
    is still cleaned up by its tracker.
    """
    if shm.name in _OWNED_SEGMENT_NAMES:
        return
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary by version
        pass


class SharedDenseQualityStore(CooperationMatrix):
    """Dense backend whose buffer lives in POSIX shared memory.

    Semantics are exactly :class:`~repro.core.quality.CooperationMatrix`
    (every method inherited, same floats, same reductions — bit-identical
    results); only the allocation differs, so any number of sweep-pool
    workers can :meth:`attach` to one copy of the ``n^2`` floats
    zero-copy. The *creator* owns the segment: call :meth:`close` +
    :meth:`unlink` when done (the executor does this in a ``finally``).
    """

    __slots__ = ("_shm", "_owner")

    def __init__(
        self, shm: shared_memory.SharedMemory, size: int, owner: bool
    ) -> None:
        view = np.ndarray((size, size), dtype=np.float64, buffer=shm.buf)
        view.setflags(write=False)
        self._q = view
        self._shm = shm
        self._owner = owner

    @classmethod
    def create(
        cls, source: "CooperationMatrix | np.ndarray"
    ) -> "SharedDenseQualityStore":
        """Allocate a segment and copy ``source`` into it (validating it)."""
        if isinstance(source, CooperationMatrix):
            validated = source.values
        else:
            validated = CooperationMatrix(source).values
        size = validated.shape[0]
        shm = shared_memory.SharedMemory(create=True, size=max(validated.nbytes, 1))
        view = np.ndarray((size, size), dtype=np.float64, buffer=shm.buf)
        view[:] = validated
        _OWNED_SEGMENT_NAMES.add(shm.name)
        register_segment(shm.name, size)
        return cls(shm, size, owner=True)

    @classmethod
    def attach(cls, name: str, size: int) -> "SharedDenseQualityStore":
        """Attach read-only to an existing segment (zero-copy)."""
        shm = shared_memory.SharedMemory(name=name)
        _unregister_attached_segment(shm)
        if os.environ.get("REPRO_CHAOS_SPEC"):
            # Chaos hook: an armed attach_exit injection hard-exits here,
            # between opening the segment and building the store — the
            # crash window the orphan registry exists for.
            from repro.chaos.policy import attach_checkpoint

            attach_checkpoint()
        return cls(shm, size, owner=False)

    @property
    def name(self) -> str:
        """Segment name — pass with :attr:`size` to :meth:`attach`."""
        return self._shm.name

    @property
    def owner(self) -> bool:
        return self._owner

    def close(self) -> None:
        """Drop this process's mapping (safe to call twice)."""
        if self._shm is None:
            return
        # The numpy view exports the mmap's buffer; release it first or
        # SharedMemory.close() raises BufferError.
        self._q = np.zeros((0, 0), dtype=float)
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - a caller kept a row view
            pass

    def unlink(self) -> None:
        """Destroy the segment (creator only; no-op for attachers)."""
        if self._owner and self._shm is not None:
            self._shm.unlink()
            _OWNED_SEGMENT_NAMES.discard(self._shm.name)
            unregister_segment(self._shm.name)
            self._owner = False

    def __repr__(self) -> str:
        return f"SharedDenseQualityStore(size={self.size}, name={self._shm.name!r})"
