"""Pluggable cooperation-quality backends (the ``QualityStore`` protocol).

Every consumer of pairwise qualities — Equation 2 revenue, the GT
best-response scan, TPG stage one, the batch framework — reads through a
small access protocol instead of touching a dense array directly. Three
interchangeable backends implement it:

* :class:`DenseQualityStore` (an alias of
  :class:`~repro.core.quality.CooperationMatrix`) — the historical dense
  ``(n, n)`` float64 matrix. Default backend, unchanged semantics.
* :class:`SparseQualityStore` — Equation 1 makes the matrix "prior +
  sparse deviations" by construction: most worker pairs share no history
  and sit exactly at the prior. This backend stores only the deviating
  entries in a hand-rolled CSR/CSC pair (scipy is deliberately not a
  dependency) for O(nnz) memory, serves the best-response ``reduceat``
  pass from per-worker materialized rows behind a small LRU, and answers
  point/sum queries with ``np.searchsorted`` gathers.
* :class:`SharedDenseQualityStore` — the dense buffer placed in
  :mod:`multiprocessing.shared_memory` so sweep-pool workers attach
  zero-copy instead of rebuilding ``n^2`` floats per process. Lifecycle
  (create/close/unlink) is owned by whoever created the segment — the
  :class:`~repro.experiments.parallel.SweepExecutor` unlinks on shutdown
  and on KeyboardInterrupt.

Bit-identity contract
---------------------
All three backends return *value-identical* arrays from ``q_row`` /
``q_col`` / ``gather``, and compute pair sums with the same numpy
reduction over the same float values — so solvers produce repr-identical
assignments regardless of backend (enforced by ``tests/test_quality_store.py``
and the differential audit's backend axis). The closed form
``prior * |M| * (|M| - 1) + D[M, M].sum()`` is exact mathematics but a
*different float reduction order*, so the sparse backend deliberately
serves sums from gathered submatrices instead (see
:meth:`SparseQualityStore.structural_pair_sum` for the closed form).
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import OrderedDict
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
    history_pair_values,
)
from repro.utils.errors import InvalidInstanceError

__all__ = [
    "QualityStore",
    "DenseQualityStore",
    "SparseQualityStore",
    "SharedDenseQualityStore",
    "RowCacheInfo",
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
    (which satisfies it structurally); see that class for the semantics of
    each method.
    """

    @property
    def size(self) -> int: ...

    @property
    def values(self) -> np.ndarray: ...

    @property
    def nbytes(self) -> int: ...

    def pair(self, i: int, k: int) -> float: ...

    def is_symmetric(self, tolerance: float = 1e-12) -> bool: ...

    def ordered_pair_sum(self, members: Sequence[int]) -> float: ...

    def submatrix_sum(self, index: np.ndarray) -> float: ...

    def cross_sum(self, worker: int, members: Sequence[int]) -> float: ...

    def q_row(self, worker: int) -> np.ndarray: ...

    def q_col(self, worker: int) -> np.ndarray: ...

    def gather(self, index: np.ndarray) -> np.ndarray: ...

    def gather_rows(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray: ...

    def top_qualities(self, worker: int, count: int) -> np.ndarray: ...

    def bottom_qualities(self, worker: int, count: int) -> np.ndarray: ...

    def restricted_to(self, workers: Sequence[int]) -> "QualityStore": ...

    def to_dense(self) -> CooperationMatrix: ...

    def as_kernel_buffers(self): ...


#: The dense backend is the existing matrix, verbatim.
DenseQualityStore = CooperationMatrix


@dataclass(frozen=True)
class RowCacheInfo:
    """Counters of one materialized-row LRU (mirrors ``functools.lru_cache``)."""

    hits: int
    misses: int
    evictions: int
    currsize: int
    maxsize: int


class _CacheLedger:
    """Per-orientation hit/miss/eviction counters over a shared LRU.

    A symmetric store serves column reads from the row cache (one
    physical cache, half the materialization work). Counting those reads
    on the row cache's own counters double-counted them: both
    ``row_cache_info()`` and ``col_cache_info()`` reported the same
    totals, so summing the two infos — the natural aggregation — counted
    every lookup twice, and row info silently included column traffic.
    Each orientation now books its lookups on its own ledger while the
    storage stays shared.
    """

    __slots__ = ("hits", "misses", "evictions")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0


class _RowLRU:
    """A tiny ordered-dict LRU holding materialized quality rows."""

    __slots__ = ("maxsize", "hits", "misses", "evictions", "_rows")

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError(f"row_cache_size must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._rows: OrderedDict[int, np.ndarray] = OrderedDict()

    def get(self, key: int, build, ledger=None) -> np.ndarray:
        """One lookup; counters land on ``ledger`` (default: the cache
        itself), so aliased callers can attribute traffic separately."""
        target = self if ledger is None else ledger
        row = self._rows.get(key)
        if row is not None:
            self._rows.move_to_end(key)
            target.hits += 1
            return row
        target.misses += 1
        row = build()
        self._rows[key] = row
        while len(self._rows) > self.maxsize:
            self._rows.popitem(last=False)
            target.evictions += 1
        return row

    def info(self) -> RowCacheInfo:
        return RowCacheInfo(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            currsize=len(self._rows),
            maxsize=self.maxsize,
        )


def _sorted_lookup(
    sorted_keys: np.ndarray,
    values: np.ndarray,
    queries: np.ndarray,
    default: float,
) -> np.ndarray:
    """Gather ``values`` at ``queries`` from a sorted sparse axis.

    ``sorted_keys`` are the stored (strictly increasing) positions of one
    CSR/CSC slice; queries not present get ``default``.
    """
    out = np.full(queries.shape, default, dtype=float)
    if sorted_keys.size:
        pos = np.searchsorted(sorted_keys, queries)
        clipped = np.minimum(pos, sorted_keys.size - 1)
        hit = sorted_keys[clipped] == queries
        out[hit] = values[clipped[hit]]
    return out


class SparseQualityStore:
    """``q[i, k] = prior`` except at explicitly stored deviating pairs.

    The store keeps the *absolute* quality value at each deviating entry
    (not the delta), both in CSR order (row gathers) and CSC order
    (column gathers), so every read materializes exactly the floats the
    dense matrix holds — the key to backend bit-identity. Memory is
    O(nnz) plus a bounded LRU of materialized rows (``row_cache_size``
    rows of ``n`` floats) serving the GT best-response ``reduceat`` scan.

    Diagonal entries are implicitly zero, exactly like
    :class:`~repro.core.quality.CooperationMatrix`.
    """

    __slots__ = (
        "_size",
        "_prior",
        "_indptr",
        "_indices",
        "_data",
        "_col_indptr",
        "_col_indices",
        "_col_data",
        "_symmetric",
        "_row_cache",
        "_col_cache",
        "_col_ledger",
        "_kernel_buffers",
    )

    def __init__(
        self,
        size: int,
        prior: float,
        rows: Sequence[int],
        cols: Sequence[int],
        values: Sequence[float],
        row_cache_size: int = 128,
    ) -> None:
        size = int(size)
        if size < 0:
            raise InvalidInstanceError(f"size must be >= 0, got {size}")
        prior = float(prior)
        if not 0.0 <= prior <= 1.0:
            raise InvalidInstanceError(f"prior must be in [0, 1], got {prior}")
        rows = np.asarray(rows, dtype=np.intp).reshape(-1)
        cols = np.asarray(cols, dtype=np.intp).reshape(-1)
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
            keys = rows * size + cols
            if np.unique(keys).size != keys.size:
                raise InvalidInstanceError("duplicate deviation entries")

        order = np.lexsort((cols, rows))
        rows, cols, data = rows[order], cols[order], data[order]
        self._size = size
        self._prior = prior
        counts = np.bincount(rows, minlength=size) if size else np.zeros(0, dtype=np.intp)
        self._indptr = np.concatenate(([0], counts)).cumsum().astype(np.intp)
        self._indices = cols
        self._data = data

        col_order = np.lexsort((rows, cols))
        col_counts = (
            np.bincount(cols, minlength=size) if size else np.zeros(0, dtype=np.intp)
        )
        self._col_indptr = np.concatenate(([0], col_counts)).cumsum().astype(np.intp)
        self._col_indices = rows[col_order]
        self._col_data = data[col_order]

        # Exact (not tolerance-based) symmetry lets the column cache alias
        # the row cache and halves materialization work.
        self._symmetric = bool(
            np.array_equal(cols[col_order], rows)
            and np.array_equal(rows[col_order], cols)
            and np.array_equal(data[col_order], data)
        )
        self._row_cache = _RowLRU(row_cache_size)
        if self._symmetric:
            # One physical cache serves both orientations; the ledger
            # keeps the column traffic's counters separate so the two
            # info views never double-count a lookup.
            self._col_cache = self._row_cache
            self._col_ledger = _CacheLedger()
        else:
            self._col_cache = _RowLRU(row_cache_size)
            self._col_ledger = None
        self._kernel_buffers = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(
        cls,
        matrix: "CooperationMatrix | np.ndarray",
        prior: float,
        row_cache_size: int = 128,
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
        return cls(q.shape[0], prior, rows, cols, q[rows, cols], row_cache_size)

    @classmethod
    def from_history(
        cls,
        worker_count: int,
        shared_task_ratings: dict[tuple[int, int], Sequence[float]],
        base_quality: float = DEFAULT_BASE_QUALITY,
        alpha: float = DEFAULT_ALPHA,
        row_cache_size: int = 128,
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
        return cls(worker_count, base_quality, rows, cols, values, row_cache_size)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _row_slice(self, worker: int) -> tuple[np.ndarray, np.ndarray]:
        start, end = self._indptr[worker], self._indptr[worker + 1]
        return self._indices[start:end], self._data[start:end]

    def _col_slice(self, worker: int) -> tuple[np.ndarray, np.ndarray]:
        start, end = self._col_indptr[worker], self._col_indptr[worker + 1]
        return self._col_indices[start:end], self._col_data[start:end]

    def _coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        rows = np.repeat(
            np.arange(self._size, dtype=np.intp), np.diff(self._indptr)
        )
        return rows, self._indices, self._data

    def _materialize_row(self, worker: int) -> np.ndarray:
        row = np.full(self._size, self._prior, dtype=float)
        idx, vals = self._row_slice(worker)
        row[idx] = vals
        row[worker] = 0.0
        row.setflags(write=False)
        return row

    def _materialize_col(self, worker: int) -> np.ndarray:
        col = np.full(self._size, self._prior, dtype=float)
        idx, vals = self._col_slice(worker)
        col[idx] = vals
        col[worker] = 0.0
        col.setflags(write=False)
        return col

    # ------------------------------------------------------------------
    # QualityStore API
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return self._size

    @property
    def nnz(self) -> int:
        """Number of explicitly stored (deviating) entries."""
        return int(self._data.size)

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
        """Bytes held by the CSR+CSC arrays (LRU rows not included)."""
        return int(
            self._indptr.nbytes
            + self._indices.nbytes
            + self._data.nbytes
            + self._col_indptr.nbytes
            + self._col_indices.nbytes
            + self._col_data.nbytes
        )

    @property
    def values(self) -> np.ndarray:
        """Materialized dense array — O(n²) escape hatch.

        Exists for dataset serialization (``datasets/io.py``) and tests;
        hot paths must use ``q_row``/``q_col``/``gather`` instead.
        """
        return self.to_dense().values

    def to_dense(self) -> CooperationMatrix:
        """The equivalent dense matrix (the backend-parity bridge)."""
        q = np.full((self._size, self._size), self._prior, dtype=float)
        rows, cols, vals = self._coo()
        q[rows, cols] = vals
        return CooperationMatrix(q, copy=False)

    def pair(self, i: int, k: int) -> float:
        if i == k:
            raise ValueError("cooperation quality is undefined for a self-pair")
        idx, vals = self._row_slice(i)
        pos = int(np.searchsorted(idx, k))
        if pos < idx.size and idx[pos] == k:
            return float(vals[pos])
        return self._prior

    def is_symmetric(self, tolerance: float = 1e-12) -> bool:
        if self._symmetric:
            return True
        rows, cols, vals = self._coo()
        forward = rows * self._size + cols
        reverse = cols * self._size + rows
        order = np.argsort(reverse)
        transposed_keys = reverse[order]
        transposed_vals = vals[order]
        at_forward = _sorted_lookup(transposed_keys, transposed_vals, forward, self._prior)
        at_reverse = _sorted_lookup(forward, vals, transposed_keys, self._prior)
        return bool(
            np.allclose(vals, at_forward, atol=tolerance)
            and np.allclose(transposed_vals, at_reverse, atol=tolerance)
        )

    def q_row(self, worker: int) -> np.ndarray:
        """Full row ``worker``, materialized once and LRU-cached (read-only)."""
        worker = int(worker)
        return self._row_cache.get(worker, lambda: self._materialize_row(worker))

    def q_col(self, worker: int) -> np.ndarray:
        """Full column ``worker``; served from the row cache when symmetric
        (shared storage, column-ledger accounting)."""
        worker = int(worker)
        if self._symmetric:
            return self._row_cache.get(
                worker,
                lambda: self._materialize_row(worker),
                ledger=self._col_ledger,
            )
        return self._col_cache.get(worker, lambda: self._materialize_col(worker))

    def gather(self, index: np.ndarray) -> np.ndarray:
        """The ``(k, k)`` submatrix over ``index`` as a fresh writable array.

        Delegates to :meth:`gather_rows` — one batched ``searchsorted``
        over the globally sorted CSR keys instead of the historical
        per-row lookup loop. The retrieved floats are exactly those of
        the dense submatrix (pure lookups, no reductions), so sums over
        the result are bit-identical to the dense backend and to the
        per-row path this replaced.
        """
        index = np.asarray(index, dtype=np.intp)
        return self.gather_rows(index, index)

    def gather_rows(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Rectangular gather ``q[rows[:, None], cols]`` in one batch.

        The bulk multi-row protocol method: a single
        :func:`~repro.core.kernels.gather_block` lookup over the store's
        flat kernel buffers answers the whole block, replacing one
        ``_sorted_lookup`` round-trip per row. Positions where
        ``rows[i] == cols[j]`` are 0 (the implicit diagonal), absent
        pairs default to the prior — value-identical to materialized
        ``q_row`` reads.
        """
        from repro.core.kernels import gather_block

        return gather_block(self.as_kernel_buffers(), rows, cols)

    def ordered_pair_sum(self, members: Sequence[int]) -> float:
        index = np.asarray(members, dtype=np.intp)
        if np.unique(index).size != index.size:
            raise ValueError(f"duplicate members: {sorted(members)}")
        return float(self.gather(index).sum())

    def submatrix_sum(self, index: np.ndarray) -> float:
        return float(self.gather(index).sum())

    def structural_pair_sum(self, members: Sequence[int]) -> float:
        """Closed-form ordered pair sum: ``prior·|M|·(|M|−1) + Δ(M)``.

        Exact mathematics in O(|M| log nnz) without materializing the
        submatrix, where ``Δ(M)`` sums the stored deviations *relative to
        the prior* inside ``M``. Not used on solver paths because its
        float reduction order differs from the dense backend (breaking
        repr-parity); exposed for analysis and cross-checks.
        """
        index = np.asarray(members, dtype=np.intp)
        if np.unique(index).size != index.size:
            raise ValueError(f"duplicate members: {sorted(members)}")
        count = index.size
        delta = 0.0
        for worker in index:
            idx, vals = self._row_slice(worker)
            present = _sorted_lookup(idx, vals, index, self._prior)
            mask = index != worker
            delta += float((present[mask] - self._prior).sum())
        return self._prior * count * (count - 1) + delta

    def cross_sum(self, worker: int, members: Sequence[int]) -> float:
        index = np.asarray(members, dtype=np.intp)
        ridx, rvals = self._row_slice(worker)
        row_part = _sorted_lookup(ridx, rvals, index, self._prior)
        row_part[index == worker] = 0.0
        cidx, cvals = self._col_slice(worker)
        col_part = _sorted_lookup(cidx, cvals, index, self._prior)
        col_part[index == worker] = 0.0
        return float(row_part.sum() + col_part.sum())

    def as_kernel_buffers(self):
        """Flat CSR/CSC key-array export for the batched kernels.

        Keys are globally sorted ordered-pair codes (``row * size + col``
        for the row orientation, ``col * size + row`` for the column
        orientation) so one binary search answers any lookup; absent
        pairs default to the prior and the diagonal to 0 — exactly the
        floats :meth:`q_row`/:meth:`q_col` materialize. The export also
        shares (without copying) the CSR row pointers and column indices,
        which small square gathers scatter from. Built lazily and cached
        (the deviation arrays are immutable).
        """
        from repro.core.kernels import KernelBuffers

        if self._kernel_buffers is None:
            size = self._size
            row_owner = np.repeat(
                np.arange(size, dtype=np.int64), np.diff(self._indptr)
            )
            col_owner = np.repeat(
                np.arange(size, dtype=np.int64), np.diff(self._col_indptr)
            )
            self._kernel_buffers = KernelBuffers.from_csr(
                size=size,
                row_keys=row_owner * size + self._indices,
                row_values=self._data,
                col_keys=col_owner * size + self._col_indices,
                col_values=self._col_data,
                prior=self._prior,
                indptr=self._indptr,
                indices=self._indices,
            )
        return self._kernel_buffers

    def top_qualities(self, worker: int, count: int) -> np.ndarray:
        row = np.delete(self.q_row(worker), worker)
        if count >= row.size:
            return np.sort(row)[::-1]
        top = np.partition(row, row.size - count)[row.size - count :]
        return np.sort(top)[::-1]

    def bottom_qualities(self, worker: int, count: int) -> np.ndarray:
        row = np.delete(self.q_row(worker), worker)
        if count >= row.size:
            return np.sort(row)
        bottom = np.partition(row, count - 1)[:count]
        return np.sort(bottom)

    def restricted_to(self, workers: Sequence[int]) -> "SparseQualityStore":
        """Positionally re-indexed sub-store (``workers`` must be unique)."""
        index = np.asarray(workers, dtype=np.intp)
        if np.unique(index).size != index.size:
            raise ValueError(f"duplicate workers: {sorted(workers)}")
        position = np.full(self._size, -1, dtype=np.intp)
        position[index] = np.arange(index.size, dtype=np.intp)
        rows, cols, vals = self._coo()
        keep = (position[rows] >= 0) & (position[cols] >= 0)
        return SparseQualityStore(
            index.size,
            self._prior,
            position[rows[keep]],
            position[cols[keep]],
            vals[keep],
            row_cache_size=self._row_cache.maxsize,
        )

    def row_cache_info(self) -> RowCacheInfo:
        """Counters of row-orientation (``q_row``) lookups only.

        On a symmetric store the column orientation shares this cache's
        *storage* but books its traffic on its own ledger, so
        ``row_cache_info() + col_cache_info()`` sums to exactly the
        physical lookup/eviction totals — no double counting.
        """
        return self._row_cache.info()

    def col_cache_info(self) -> RowCacheInfo:
        """Counters of column-orientation (``q_col``) lookups only.

        Symmetric stores report the column ledger over the shared row
        cache (``currsize``/``maxsize`` describe that shared storage);
        asymmetric stores report their dedicated column cache.
        """
        if self._col_ledger is not None:
            return RowCacheInfo(
                hits=self._col_ledger.hits,
                misses=self._col_ledger.misses,
                evictions=self._col_ledger.evictions,
                currsize=self._row_cache.info().currsize,
                maxsize=self._row_cache.maxsize,
            )
        return self._col_cache.info()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseQualityStore):
            return NotImplemented
        if self._size != other._size or self._prior != other._prior:
            return False
        return (
            np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
            and np.array_equal(self._data, other._data)
        )

    def __repr__(self) -> str:
        return (
            f"SparseQualityStore(size={self._size}, nnz={self.nnz}, "
            f"prior={self._prior!r})"
        )


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
