"""Batched best-response kernels for the Equation-5 utility scan.

The game solver's hot loop scores every candidate task of every worker
once per round. ``kernel="python"`` keeps the historical per-worker
numpy scan in :mod:`repro.core.game`; ``kernel="native"`` evaluates the
utilities of *all* workers' candidates in one pass over flat CSR-style
arrays — compiled with numba when it is importable, otherwise through a
vectorized numpy fallback that produces bit-identical floats. Both
kernels reproduce the scalar ``join_gain`` summation order exactly, so
the choice of kernel never changes an assignment (enforced by the
differential audit's kernel axis and the parity test suite).

Summation-order contract
------------------------
The scalar path (``RevenueCache.join_gain`` via ``cross_sum``) sums the
row gather and the column gather separately with ``ndarray.sum()``,
which numpy evaluates strictly left-to-right for fewer than eight
elements and with pairwise (reordered) partial sums from eight elements
on. ``np.add.reduceat`` — the historical batch reduction — does *not*
share that contract: on current numpy its SIMD partial sums reorder
segments of as few as three elements, which silently broke the batch
path's bit-identity with the scalar path. Every reduction in this
module therefore accumulates strictly left-to-right
(:func:`segment_sums_ordered`, or a plain loop in the compiled kernel),
and groups of :data:`~repro.core.game._VECTOR_GROUP_LIMIT` or more
members — where the scalar path itself reorders — are deferred to the
scalar evaluation via :data:`CODE_SCALAR`.

numba is an *optional* dependency: when it is absent the ``"native"``
kernel silently degrades to the numpy fallback (counted separately in
:class:`~repro.core.stats.SolverStats.kernel_fallback_calls`), so the
flag is safe to enable everywhere. Compiled kernels are cached on disk
(``cache=True``; numba writes next to this module's ``__pycache__`` or
to ``NUMBA_CACHE_DIR``), so the one-off compile cost is paid once per
environment, not once per process.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NUMBA_AVAILABLE",
    "KERNELS",
    "DEFAULT_KERNEL",
    "PAIRWISE_CLIFF",
    "CODE_VALUE",
    "CODE_SCALAR",
    "CODE_CURRENT",
    "KernelBuffers",
    "resolve_kernel",
    "segment_sums_ordered",
    "ordered_row_sums",
    "verify_pairwise_cliff",
    "ensure_pairwise_cliff",
    "score_candidates",
    "gather_symmetric",
    "gather_block",
    "counted_subset_select",
    "greedy_group_select",
    "exact_group_select",
    "best_group",
]

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit as _njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - the common case in this repo's CI
    _njit = None
    NUMBA_AVAILABLE = False

#: The selectable kernels; ``"python"`` is the historical per-worker
#: scan, ``"native"`` the batched all-workers pass (numba when present).
KERNELS = ("python", "native")
DEFAULT_KERNEL = "python"

#: Per-slot classification emitted by :func:`score_candidates`.
CODE_VALUE = 0  #: utility fully evaluated by the kernel
CODE_SCALAR = 1  #: overflow/oversized join — needs the scalar peel path
CODE_CURRENT = 2  #: the worker's own task — caller fills ``leave_delta``


def resolve_kernel(name: str) -> str:
    """Validate a kernel name (raises ``ValueError`` on an unknown one)."""
    if name not in KERNELS:
        raise ValueError(f"unknown kernel {name!r}; expected one of {KERNELS}")
    return name


@dataclass(frozen=True)
class KernelBuffers:
    """Flat, read-only quality buffers exported by a ``QualityStore``.

    Dense backends expose their matrix directly (``dense``); the sparse
    backend exposes both orientations as globally-sorted key arrays
    (``row * size + col`` for the CSR side, ``col * size + row`` for the
    CSC side) so a single binary search answers any ordered-pair lookup,
    with absent entries defaulting to ``prior`` and the diagonal to 0.
    The sparse export also carries the store's own CSR row pointers and
    column indices (``indptr``/``indices``, aligned with ``row_values``;
    shared, not copied), so a gather over a few workers can scatter
    their row segments instead of searching the global keys.
    """

    size: int
    dense: np.ndarray | None = None
    row_keys: np.ndarray | None = None
    row_values: np.ndarray | None = None
    col_keys: np.ndarray | None = None
    col_values: np.ndarray | None = None
    prior: float = 0.0
    indptr: np.ndarray | None = None
    indices: np.ndarray | None = None

    @classmethod
    def from_dense(cls, matrix: np.ndarray) -> "KernelBuffers":
        return cls(size=int(matrix.shape[0]), dense=matrix)

    @classmethod
    def from_csr(
        cls,
        size: int,
        row_keys: np.ndarray,
        row_values: np.ndarray,
        col_keys: np.ndarray,
        col_values: np.ndarray,
        prior: float,
        indptr: np.ndarray,
        indices: np.ndarray,
    ) -> "KernelBuffers":
        return cls(
            size=size,
            row_keys=np.ascontiguousarray(row_keys, dtype=np.int64),
            row_values=np.ascontiguousarray(row_values, dtype=np.float64),
            col_keys=np.ascontiguousarray(col_keys, dtype=np.int64),
            col_values=np.ascontiguousarray(col_values, dtype=np.float64),
            prior=float(prior),
            indptr=indptr,
            indices=indices,
        )

    @property
    def is_dense(self) -> bool:
        return self.dense is not None


def segment_sums_ordered(
    values: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Per-segment sums in strict left-to-right order.

    Bit-identical to summing each segment with a sequential loop — and
    therefore to ``ndarray.sum()`` for segments of fewer than eight
    elements, which is exactly the regime the batch scan handles (larger
    groups go through the scalar path). ``np.add.reduceat`` cannot be
    used here: its SIMD partial sums reorder segments of three or more
    elements on current numpy.

    The implementation pads every segment to the maximum length with
    zeros (exact: ``x + 0.0 == x`` for the non-negative partial sums
    that occur here) and accumulates column by column, which keeps each
    row's additions in segment order while staying fully vectorized.
    """
    starts = np.asarray(starts, dtype=np.intp)
    lengths = np.asarray(lengths, dtype=np.intp)
    if starts.size == 0:
        return np.zeros(0, dtype=np.float64)
    width = int(lengths.max()) if lengths.size else 0
    if width == 0:
        return np.zeros(starts.size, dtype=np.float64)
    offsets = np.arange(width, dtype=np.intp)
    index = starts[:, None] + offsets[None, :]
    lane = offsets[None, :] < lengths[:, None]
    np.minimum(index, max(values.size - 1, 0), out=index)
    padded = np.where(lane, values[index], 0.0)
    total = padded[:, 0].copy()
    for column in range(1, width):
        total += padded[:, column]
    return total


#: numpy's pairwise-summation threshold: ``ndarray.sum()`` accumulates
#: strictly left-to-right below this many elements and with reordered
#: (block-pairwise) partial sums from it on. The counted-subset peel and
#: ``repro.core.revenue._VECTOR_PEEL_LIMIT`` both assume this value;
#: :func:`verify_pairwise_cliff` fails loudly if a numpy upgrade moves it.
PAIRWISE_CLIFF = 8

_cliff_state = {"verified": False}


def ordered_row_sums(matrix: np.ndarray) -> np.ndarray:
    """Per-row sums in strict left-to-right order.

    Bit-identical to ``matrix.sum(axis=1)`` for widths below
    :data:`PAIRWISE_CLIFF` (where numpy itself reduces sequentially), and
    the single source of truth for the counted-subset peel's ordered
    accumulation: both the vector branch of
    ``repro.core.revenue.best_counted_subset`` and the numpy fallback of
    :func:`counted_subset_select` route through it, so the summation
    order that defines the peel (hence the potential function) lives in
    exactly one place.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    rows, width = matrix.shape
    if width == 0:
        return np.zeros(rows, dtype=np.float64)
    total = matrix[:, 0].astype(np.float64, copy=True)
    for column in range(1, width):
        total += matrix[:, column]
    return total


def verify_pairwise_cliff(sum_func=None) -> None:
    """Assert numpy's pairwise-summation cliff still sits at 8 elements.

    The peel paths depend on two numpy facts: ``ndarray.sum()`` reduces
    strictly left-to-right below :data:`PAIRWISE_CLIFF` elements, and at
    exactly eight uses the block-pairwise order
    ``((a0+a1)+(a2+a3)) + ((a4+a5)+(a6+a7))``. Both are probed with a
    discriminating array (``1e16`` followed by ones: sequential addition
    absorbs every ``1.0`` into the big value's rounding, any reordering
    does not), and a deviation raises ``RuntimeError`` — a loud failure
    at the first peel instead of assignments silently diverging between
    code paths after a numpy upgrade.

    ``sum_func`` overrides the reduction under test (the regression test
    injects impostors); the default is genuine ``ndarray.sum``.
    """
    if sum_func is None:
        def sum_func(array):
            return array.sum()

    probe = np.empty(PAIRWISE_CLIFF, dtype=np.float64)
    probe[0] = 1e16
    probe[1:] = 1.0
    for length in range(1, PAIRWISE_CLIFF):
        sequential = probe[0]
        for value in probe[1:length]:
            sequential = sequential + value
        observed = float(sum_func(probe[:length]))
        if observed != float(sequential):
            raise RuntimeError(
                f"numpy no longer sums {length}-element arrays strictly "
                f"left-to-right (got {observed!r}, sequential gives "
                f"{float(sequential)!r}): the pairwise-summation cliff "
                f"moved below {PAIRWISE_CLIFF}. The counted-subset peel's "
                "summation-order contract "
                "(repro.core.revenue._VECTOR_PEEL_LIMIT) is broken — pin "
                "numpy, or update PAIRWISE_CLIFF and the peel kernels "
                "together."
            )
    sequential = probe[0]
    for value in probe[1:]:
        sequential = sequential + value
    pairwise = ((probe[0] + probe[1]) + (probe[2] + probe[3])) + (
        (probe[4] + probe[5]) + (probe[6] + probe[7])
    )
    observed = float(sum_func(probe))
    if observed == float(sequential) or observed != float(pairwise):
        raise RuntimeError(
            f"numpy's {PAIRWISE_CLIFF}-element reduction is no longer the "
            f"expected block-pairwise order (got {observed!r}, expected "
            f"{float(pairwise)!r}, sequential gives {float(sequential)!r}): "
            "the pairwise-summation cliff moved. The counted-subset peel's "
            "summation-order contract "
            "(repro.core.revenue._VECTOR_PEEL_LIMIT) is broken — pin "
            "numpy, or update PAIRWISE_CLIFF and the peel kernels together."
        )


def ensure_pairwise_cliff() -> None:
    """Run :func:`verify_pairwise_cliff` once per process (cached)."""
    if not _cliff_state["verified"]:
        verify_pairwise_cliff()
        _cliff_state["verified"] = True


def _lookup_sorted(
    keys: np.ndarray, values: np.ndarray, targets: np.ndarray, prior: float
) -> np.ndarray:
    """Vectorized sparse lookup: ``values`` where ``targets`` appear in
    the sorted ``keys``, ``prior`` elsewhere."""
    if keys.size == 0:
        return np.full(targets.shape, prior, dtype=np.float64)
    position = np.searchsorted(keys, targets)
    clamped = np.minimum(position, keys.size - 1)
    found = keys[clamped] == targets
    return np.where(found, values[clamped], prior)


def _scatter_rows(buffers: KernelBuffers, index: np.ndarray) -> np.ndarray:
    """The sparse ``(k, k)`` submatrix over duplicate-free ``index``.

    Scatters the stored entries of the candidates' CSR row segments into
    a prior-filled block, so the cost follows the k rows' stored entries
    instead of ``k²`` binary searches over the global key array. A stored
    column is mapped to its candidate position through an *uninitialised*
    worker-to-position array, O(1) to allocate at any store size: only
    the k candidate slots are written, so a read counts only if, clipped
    into range, it maps back to the same worker. All scratch is
    allocated per call; the buffers themselves are shared read-only
    (e.g. by the fallback ladder's watchdog threads). Values are exactly
    those of the key search: stored value where present, prior
    elsewhere, 0 on the diagonal.
    """
    count = index.size
    sub = np.full((count, count), buffers.prior, dtype=np.float64)
    starts = buffers.indptr[index]
    lengths = buffers.indptr[index + 1] - starts
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if count else 0
    if total:
        # Flat positions of every segment entry, segment by segment.
        flat = np.arange(total) + np.repeat(starts - ends + lengths, lengths)
        columns = buffers.indices[flat]
        position = np.empty(buffers.size, dtype=np.intp)
        position[index] = np.arange(count)
        local = position[columns]
        hit = np.flatnonzero(np.take(index, local, mode="clip") == columns)
        owner = np.searchsorted(ends, hit, side="right")
        sub[owner, local[hit]] = buffers.row_values[flat[hit]]
    sub.ravel()[:: count + 1] = 0.0  # the diagonal
    return sub


def gather_symmetric(buffers: KernelBuffers, index: np.ndarray) -> np.ndarray:
    """``sub + sub.T`` over the candidate submatrix, from flat buffers.

    Produces exactly the floats of ``quality.gather(index)`` plus its
    transpose — the dense branch is the same fancy-indexing expression,
    the sparse branch scatters the candidates' CSR row segments
    (:func:`_scatter_rows`: prior default, zero diagonal) — so group
    selections over the result are bit-identical to the store-backed TPG
    path. ``index`` must be duplicate-free (a candidate set).
    """
    index = np.asarray(index, dtype=np.int64)
    if buffers.is_dense:
        sub = buffers.dense[index[:, None], index]
    else:
        sub = _scatter_rows(buffers, index)
    return sub + sub.T


def gather_block(
    buffers: KernelBuffers, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Rectangular quality gather ``q[rows[:, None], cols]`` from flat buffers.

    The dense branch is the stores' own fancy-indexing expression; the
    sparse branch answers the whole ``(len(rows), len(cols))`` block with
    one batched ``searchsorted`` over the globally sorted CSR keys —
    absent pairs default to the prior, positions where ``rows[i] ==
    cols[j]`` to 0. The floats are exactly those of per-row
    ``q_row``/``gather`` round-trips, so reductions over the result stay
    bit-identical to the interpreted path. Returns a fresh writable array.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if buffers.is_dense:
        return np.array(
            buffers.dense[rows[:, None], cols], dtype=np.float64, copy=True
        )
    targets = rows[:, None] * np.int64(buffers.size) + cols[None, :]
    block = _lookup_sorted(
        buffers.row_keys, buffers.row_values, targets, buffers.prior
    )
    block[rows[:, None] == cols[None, :]] = 0.0
    return block


def _peel_small_numpy(sub: np.ndarray, size: int, keep: np.ndarray) -> None:
    """Sub-cliff peel endgame over a gathered submatrix (numpy fallback).

    ``sub`` holds at most :data:`PAIRWISE_CLIFF` survivors (zero
    diagonal); every iteration re-sums each survivor's row and column
    strictly left-to-right over the surviving positions — the regime
    where the scalar oracle's own reductions are sequential — and peels
    the *last* surviving position attaining the minimum (the
    highest-index tie-break). Mutates ``keep`` (1 = alive) in place.
    """
    positions = np.flatnonzero(keep)
    work = sub
    while positions.size > size:
        contributions = ordered_row_sums(work) + ordered_row_sums(work.T)
        minimum = contributions.min()
        weakest = int(np.flatnonzero(contributions == minimum)[-1])
        keep[positions[weakest]] = 0
        positions = np.delete(positions, weakest)
        if positions.size > size:
            work = np.delete(
                np.delete(work, weakest, axis=0), weakest, axis=1
            )


def counted_subset_select(
    buffers: KernelBuffers, members, size: int, stats=None
) -> tuple[list[int], float]:
    """Greedy counted-subset peel over flat quality buffers.

    Returns ``(kept, pair_sum)``: the kept members and their ordered pair
    sum (Equation 2's numerator for the counted subset). ``kept`` is
    bit-identical to ``repro.core.revenue.best_counted_subset`` (the
    scalar oracle) in floats *and* tie-breaks, and ``pair_sum`` to the
    store's ``submatrix_sum(kept)`` — it sums the kept block cut from the
    same master gather, an array of the same values and shape. The whole
    evaluation pays ONE bulk gather (:func:`gather_block`) instead of a
    store round-trip per peel iteration plus a re-gather of the result:

    * while more than :data:`PAIRWISE_CLIFF` members survive, the
      oracle's per-member others-arrays hold at least eight elements and
      numpy reduces them pairwise — reproduced by genuine
      ``ndarray.sum()`` calls on identical fresh contiguous arrays, so
      the bits match by construction rather than by emulating numpy's
      blocked accumulation;
    * at or below the cliff every oracle reduction is strictly
      sequential, so the endgame runs as one compiled loop
      (:func:`_peel_small_njit` under numba, :func:`_peel_small_numpy`
      otherwise) with the same left-to-right order;
    * ties peel the highest surviving worker index in both regimes.

    ``members`` must be duplicate-free. The kept members come sorted
    ascending, exactly like the oracle's. ``stats`` counts the endgame
    dispatch like every other kernel entry point.
    """
    ensure_pairwise_cliff()
    kept = sorted(int(member) for member in members)
    order = np.asarray(kept, dtype=np.int64)
    master = gather_block(buffers, order, order)
    if size >= len(kept):
        return kept, float(master.sum())
    alive = list(range(order.size))
    cur = len(alive)

    while cur > size and cur > PAIRWISE_CLIFF:
        index = np.asarray(alive, dtype=np.intp)
        sub = master[np.ix_(index, index)]
        # Each survivor's others-row/column as one contiguous (cur,
        # cur - 1) copy: row p of the boolean-masked reshape is exactly
        # np.delete(sub[p], p), and the axis-1 reduction applies numpy's
        # pairwise blocking per row — the same bits as the oracle's 1-D
        # ``ndarray.sum()`` over each fresh others-array.
        off_diagonal = ~np.eye(cur, dtype=bool)
        scores = (
            sub[off_diagonal].reshape(cur, cur - 1).sum(axis=1)
            + sub.T[off_diagonal].reshape(cur, cur - 1).sum(axis=1)
        )
        minimum = scores.min()
        # Ties peel the last (= highest-index) surviving position.
        weakest = int(np.flatnonzero(scores == minimum)[-1])
        del alive[weakest]
        cur -= 1

    if cur > size:
        if cur == order.size:
            sub = master  # big-peel loop never ran: already contiguous
        else:
            index = np.asarray(alive, dtype=np.intp)
            sub = np.ascontiguousarray(master[np.ix_(index, index)])
        keep = np.ones(cur, dtype=np.int64)
        if NUMBA_AVAILABLE:  # pragma: no cover - requires numba
            started = time.perf_counter()
            _peel_small_njit(sub, np.int64(size), keep)
            if stats is not None:
                stats.kernel_compiled_calls += 1
                if _compile_seconds_pending["peel"]:
                    stats.kernel_compile_seconds += (
                        time.perf_counter() - started
                    )
            _compile_seconds_pending["peel"] = False
        else:
            _peel_small_numpy(sub, size, keep)
            if stats is not None:
                stats.kernel_fallback_calls += 1
        alive = [alive[position] for position in range(cur) if keep[position]]
    index = np.asarray(alive, dtype=np.intp)
    # A fresh C-contiguous block of the kept values, shaped like the
    # store's own gather: its sum reduces in the same order.
    pair_sum = float(master[np.ix_(index, index)].sum())
    return [int(order[position]) for position in alive], pair_sum


def greedy_group_select(
    symmetric: np.ndarray, size: int
) -> tuple[list[int], float] | None:
    """Greedy ``size``-group selection over a symmetric pair matrix.

    Seeds with the (row-major first-max) best ordered pair and grows by
    argmax cross-sum additions — the float operations of TPG's
    historical stage-1 greedy, verbatim. Returns ``(positions,
    pair_sum)`` in selection order, or ``None`` when the matrix cannot
    yield a connected ``size``-group. Mutates ``symmetric``'s diagonal.
    """
    count = symmetric.shape[0]
    np.fill_diagonal(symmetric, -np.inf)
    flat_best = int(np.argmax(symmetric))
    first, second = divmod(flat_best, count)

    chosen = [first, second]
    # cross[c] = ordered-pair contribution of candidate c to the chosen set.
    cross = symmetric[first].copy()
    cross[first] = -np.inf
    cross += np.where(np.isfinite(symmetric[second]), symmetric[second], 0.0)
    cross[second] = -np.inf
    pair_sum = float(symmetric[first, second])

    while len(chosen) < size:
        next_local = int(np.argmax(cross))
        if not np.isfinite(cross[next_local]):
            return None
        pair_sum += float(cross[next_local])
        chosen.append(next_local)
        addition = np.where(
            np.isfinite(symmetric[next_local]), symmetric[next_local], 0.0
        )
        cross += addition
        cross[next_local] = -np.inf
    return chosen, pair_sum


def exact_group_select(
    symmetric: np.ndarray,
    pair_columns: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[int, float]:
    """Exhaustive group selection over precomputed combination columns.

    Each combination's pair sum is the sequential left-to-right
    accumulation over its position pairs in lexicographic order (the
    scalar loop's float additions, in the same order), and ``argmax``
    keeps the first maximum like a strict ``>`` scan. Returns
    ``(combination_row, pair_sum)``.
    """
    rows, cols = pair_columns[0]
    pair_sums = symmetric[rows, cols]
    for rows, cols in pair_columns[1:]:
        pair_sums = pair_sums + symmetric[rows, cols]
    best = int(np.argmax(pair_sums))
    return best, float(pair_sums[best])


def _score_candidates_numpy(
    buffers: KernelBuffers,
    vp_indptr: np.ndarray,
    vp_tasks: np.ndarray,
    mem_indptr: np.ndarray,
    mem_flat: np.ndarray,
    pair_sums: np.ndarray,
    revenues: np.ndarray,
    capacities: np.ndarray,
    minimum: int,
    limit: int,
    current_tasks: np.ndarray,
    worker_ids: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    slots = vp_tasks.size
    values = np.zeros(slots, dtype=np.float64)
    codes = np.zeros(slots, dtype=np.uint8)
    if slots == 0:
        return values, codes

    counts = mem_indptr[1:] - mem_indptr[:-1]
    slot_counts = counts[vp_tasks]
    rows = np.repeat(
        np.arange(vp_indptr.size - 1, dtype=np.int64), np.diff(vp_indptr)
    )
    # ``rows`` indexes the CSR rows of this call; ``workers`` are the
    # matching quality-store ids (identical unless the caller scores a
    # row subset, e.g. the per-worker mid-round rescan).
    workers = rows if worker_ids is None else worker_ids[rows]
    is_current = current_tasks[rows] == vp_tasks
    needs_scalar = (slot_counts + 1 > capacities[vp_tasks]) | (slot_counts >= limit)
    is_zero = ~needs_scalar & ((slot_counts == 0) | (slot_counts + 1 < minimum))
    batchable = ~(needs_scalar | is_zero) & ~is_current

    codes[needs_scalar] = CODE_SCALAR
    codes[is_current] = CODE_CURRENT
    zero_only = is_zero & ~is_current
    values[zero_only] = 0.0 - revenues[vp_tasks[zero_only]]

    if batchable.any():
        b_tasks = vp_tasks[batchable]
        b_workers = workers[batchable]
        b_lengths = slot_counts[batchable]
        b_starts = mem_indptr[b_tasks]
        width = int(b_lengths.max())
        offsets = np.arange(width, dtype=np.intp)
        index = b_starts[:, None] + offsets[None, :]
        lane = offsets[None, :] < b_lengths[:, None]
        np.minimum(index, max(mem_flat.size - 1, 0), out=index)
        member = mem_flat[index]
        if buffers.is_dense:
            dense = buffers.dense
            row_vals = dense[b_workers[:, None], member]
            col_vals = dense[member, b_workers[:, None]]
        else:
            size = np.int64(buffers.size)
            row_targets = b_workers[:, None] * size + member
            col_targets = b_workers[:, None] * size + member
            row_vals = _lookup_sorted(
                buffers.row_keys, buffers.row_values, row_targets, buffers.prior
            )
            col_vals = _lookup_sorted(
                buffers.col_keys, buffers.col_values, col_targets, buffers.prior
            )
            diagonal = member == b_workers[:, None]
            row_vals = np.where(diagonal, 0.0, row_vals)
            col_vals = np.where(diagonal, 0.0, col_vals)
        row_vals = np.where(lane, row_vals, 0.0)
        col_vals = np.where(lane, col_vals, 0.0)
        row_total = row_vals[:, 0].copy()
        col_total = col_vals[:, 0].copy()
        for column in range(1, width):
            row_total += row_vals[:, column]
            col_total += col_vals[:, column]
        cross = row_total + col_total
        new_revenue = (pair_sums[b_tasks] + cross) / b_lengths
        values[batchable] = new_revenue - revenues[b_tasks]
    return values, codes


if NUMBA_AVAILABLE:  # pragma: no cover - requires numba in the environment

    @_njit(cache=True)
    def _score_dense_njit(
        dense,
        vp_indptr,
        vp_tasks,
        mem_indptr,
        mem_flat,
        pair_sums,
        revenues,
        capacities,
        minimum,
        limit,
        current_tasks,
        worker_ids,
        values,
        codes,
    ):
        worker_count = vp_indptr.size - 1
        for row in range(worker_count):
            worker = worker_ids[row]
            current = current_tasks[row]
            for slot in range(vp_indptr[row], vp_indptr[row + 1]):
                task = vp_tasks[slot]
                count = mem_indptr[task + 1] - mem_indptr[task]
                if task == current:
                    codes[slot] = 2
                    values[slot] = 0.0
                elif count + 1 > capacities[task] or count >= limit:
                    codes[slot] = 1
                    values[slot] = 0.0
                elif count == 0 or count + 1 < minimum:
                    codes[slot] = 0
                    values[slot] = 0.0 - revenues[task]
                else:
                    row_total = 0.0
                    col_total = 0.0
                    for position in range(mem_indptr[task], mem_indptr[task + 1]):
                        member = mem_flat[position]
                        row_total += dense[worker, member]
                        col_total += dense[member, worker]
                    codes[slot] = 0
                    values[slot] = (
                        pair_sums[task] + (row_total + col_total)
                    ) / count - revenues[task]

    @_njit(cache=True)
    def _sparse_pair_njit(keys, vals, target, prior):
        low = 0
        high = keys.size
        while low < high:
            mid = (low + high) // 2
            if keys[mid] < target:
                low = mid + 1
            else:
                high = mid
        if low < keys.size and keys[low] == target:
            return vals[low]
        return prior

    @_njit(cache=True)
    def _score_csr_njit(
        size,
        row_keys,
        row_values,
        col_keys,
        col_values,
        prior,
        vp_indptr,
        vp_tasks,
        mem_indptr,
        mem_flat,
        pair_sums,
        revenues,
        capacities,
        minimum,
        limit,
        current_tasks,
        worker_ids,
        values,
        codes,
    ):
        worker_count = vp_indptr.size - 1
        for row in range(worker_count):
            worker = worker_ids[row]
            current = current_tasks[row]
            for slot in range(vp_indptr[row], vp_indptr[row + 1]):
                task = vp_tasks[slot]
                count = mem_indptr[task + 1] - mem_indptr[task]
                if task == current:
                    codes[slot] = 2
                    values[slot] = 0.0
                elif count + 1 > capacities[task] or count >= limit:
                    codes[slot] = 1
                    values[slot] = 0.0
                elif count == 0 or count + 1 < minimum:
                    codes[slot] = 0
                    values[slot] = 0.0 - revenues[task]
                else:
                    row_total = 0.0
                    col_total = 0.0
                    for position in range(mem_indptr[task], mem_indptr[task + 1]):
                        member = mem_flat[position]
                        if member == worker:
                            continue
                        target = worker * size + member
                        row_total += _sparse_pair_njit(
                            row_keys, row_values, target, prior
                        )
                        col_total += _sparse_pair_njit(
                            col_keys, col_values, target, prior
                        )
                    codes[slot] = 0
                    values[slot] = (
                        pair_sums[task] + (row_total + col_total)
                    ) / count - revenues[task]


    @_njit(cache=True)
    def _group_symmetric_dense_njit(dense, index, out):
        n = index.size
        for i in range(n):
            a = index[i]
            for j in range(n):
                b = index[j]
                out[i, j] = dense[a, b] + dense[b, a]

    @_njit(cache=True)
    def _group_symmetric_csr_njit(size, row_keys, row_values, prior, index, out):
        n = index.size
        for i in range(n):
            a = index[i]
            for j in range(n):
                if i == j:
                    out[i, j] = 0.0
                    continue
                b = index[j]
                forward = _sparse_pair_njit(
                    row_keys, row_values, a * size + b, prior
                )
                backward = _sparse_pair_njit(
                    row_keys, row_values, b * size + a, prior
                )
                out[i, j] = forward + backward

    @_njit(cache=True)
    def _greedy_group_njit(symmetric, size, chosen):
        # Scalar transliteration of greedy_group_select: row-major
        # first-max seed pair, then argmax cross-sum growth. Identical
        # float additions in identical order.
        count = symmetric.shape[0]
        for i in range(count):
            symmetric[i, i] = -np.inf
        best = -np.inf
        flat = 0
        for i in range(count):
            for j in range(count):
                if symmetric[i, j] > best:
                    best = symmetric[i, j]
                    flat = i * count + j
        first = flat // count
        second = flat - first * count
        chosen[0] = first
        chosen[1] = second
        cross = np.empty(count, dtype=np.float64)
        for c in range(count):
            add = symmetric[second, c]
            if not np.isfinite(add):
                add = 0.0
            cross[c] = symmetric[first, c] + add
        cross[first] = -np.inf
        cross[second] = -np.inf
        pair_sum = symmetric[first, second]
        n_chosen = 2
        while n_chosen < size:
            nxt = 0
            best = -np.inf
            for c in range(count):
                if cross[c] > best:
                    best = cross[c]
                    nxt = c
            if not np.isfinite(cross[nxt]):
                chosen[0] = -1
                return 0.0
            pair_sum += cross[nxt]
            chosen[n_chosen] = nxt
            n_chosen += 1
            for c in range(count):
                add = symmetric[nxt, c]
                if not np.isfinite(add):
                    add = 0.0
                cross[c] += add
            cross[nxt] = -np.inf
        return pair_sum

    @_njit(cache=True)
    def _peel_small_njit(sub, size, keep):
        # Scalar transliteration of _peel_small_numpy: strictly
        # sequential per-survivor row/column sums (the sub-cliff regime,
        # where a leading/interleaved +0.0 never changes a partial sum of
        # non-negative qualities), ties peel the last surviving position.
        n = sub.shape[0]
        remaining = 0
        for i in range(n):
            if keep[i] != 0:
                remaining += 1
        while remaining > size:
            weakest = -1
            weakest_score = np.inf
            for i in range(n):
                if keep[i] == 0:
                    continue
                row_total = 0.0
                col_total = 0.0
                for j in range(n):
                    if keep[j] == 0:
                        continue
                    row_total += sub[i, j]
                    col_total += sub[j, i]
                score = row_total + col_total
                if score <= weakest_score:
                    weakest = i
                    weakest_score = score
            keep[weakest] = 0
            remaining -= 1

    @_njit(cache=True)
    def _exact_group_njit(symmetric, combos, chosen):
        # Scalar transliteration of exact_group_select: per combination,
        # accumulate the position pairs in lexicographic order starting
        # from the first pair's value; first-max wins.
        n = combos.shape[0]
        size = combos.shape[1]
        best_val = -np.inf
        best_row = 0
        for r in range(n):
            total = symmetric[combos[r, 0], combos[r, 1]]
            for i in range(size):
                for j in range(i + 1, size):
                    if i == 0 and j == 1:
                        continue
                    total = total + symmetric[combos[r, i], combos[r, j]]
            if total > best_val:
                best_val = total
                best_row = r
        for k in range(size):
            chosen[k] = combos[best_row, k]
        return best_val


#: One-off compile bookkeeping: numba compiles lazily on first call, so
#: the first invocation's wall time includes compilation (or a disk
#: cache load). Recorded once per process and surfaced through
#: ``SolverStats.kernel_compile_seconds``.
_compile_seconds_pending: dict[str, bool] = {
    "dense": True,
    "csr": True,
    "group_dense": True,
    "group_csr": True,
    "peel": True,
}


def score_candidates(
    buffers: KernelBuffers,
    vp_indptr: np.ndarray,
    vp_tasks: np.ndarray,
    mem_indptr: np.ndarray,
    mem_flat: np.ndarray,
    pair_sums: np.ndarray,
    revenues: np.ndarray,
    capacities: np.ndarray,
    minimum: int,
    limit: int,
    current_tasks: np.ndarray,
    stats=None,
    worker_ids: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Score every (worker, candidate-task) slot of the validity CSR.

    Returns ``(values, codes)`` — one float and one classification code
    (:data:`CODE_VALUE` / :data:`CODE_SCALAR` / :data:`CODE_CURRENT`)
    per slot of ``vp_tasks``. Values for non-``CODE_VALUE`` slots are
    placeholders the caller must fill (scalar peel / ``leave_delta``).

    ``worker_ids`` maps CSR rows to quality-store worker ids when the
    call covers a subset of workers (one row per rescanned worker, as in
    the mid-round rescan path); by default row ``i`` *is* worker ``i``.
    ``current_tasks`` is always indexed by row.

    Dispatches to the compiled numba kernel when available, else to the
    vectorized numpy fallback; both produce bit-identical floats. The
    optional ``stats`` (a :class:`~repro.core.stats.SolverStats`) counts
    dispatches and the one-off compile time.
    """
    if NUMBA_AVAILABLE:
        slots = vp_tasks.size
        values = np.zeros(slots, dtype=np.float64)
        codes = np.zeros(slots, dtype=np.uint8)
        variant = "dense" if buffers.is_dense else "csr"
        row_workers = (
            np.arange(vp_indptr.size - 1, dtype=np.int64)
            if worker_ids is None
            else np.ascontiguousarray(worker_ids, dtype=np.int64)
        )
        started = time.perf_counter()
        if buffers.is_dense:
            _score_dense_njit(
                np.ascontiguousarray(buffers.dense, dtype=np.float64),
                vp_indptr,
                vp_tasks,
                mem_indptr,
                mem_flat,
                pair_sums,
                revenues,
                capacities,
                np.int64(minimum),
                np.int64(limit),
                current_tasks,
                row_workers,
                values,
                codes,
            )
        else:
            _score_csr_njit(
                np.int64(buffers.size),
                buffers.row_keys,
                buffers.row_values,
                buffers.col_keys,
                buffers.col_values,
                np.float64(buffers.prior),
                vp_indptr,
                vp_tasks,
                mem_indptr,
                mem_flat,
                pair_sums,
                revenues,
                capacities,
                np.int64(minimum),
                np.int64(limit),
                current_tasks,
                row_workers,
                values,
                codes,
            )
        if stats is not None:
            stats.kernel_compiled_calls += 1
            if _compile_seconds_pending[variant]:
                stats.kernel_compile_seconds += time.perf_counter() - started
        _compile_seconds_pending[variant] = False
        return values, codes

    values, codes = _score_candidates_numpy(
        buffers,
        vp_indptr,
        vp_tasks,
        mem_indptr,
        mem_flat,
        pair_sums,
        revenues,
        capacities,
        minimum,
        limit,
        current_tasks,
        worker_ids=worker_ids,
    )
    if stats is not None:
        stats.kernel_fallback_calls += 1
    return values, codes


def best_group(
    buffers: KernelBuffers,
    candidates,
    size: int,
    table=None,
    stats=None,
) -> tuple[list[int], float]:
    """The TPG stage-1 kernel: best ``size``-group among ``candidates``.

    Gathers the candidate pair submatrix from the flat quality buffers
    and runs the group selection — greedy by default, exhaustive when
    ``table`` (a :func:`repro.core.tpg._combo_table` entry for the tiny
    candidate counts) is given. Returns ``(group, Q)`` with global
    worker ids in selection order and the Equation 2 revenue, exactly
    like ``tpg.greedy_best_group`` — the floats are bit-identical to the
    store-backed path (same gathered values, same operation order),
    compiled with numba when available, shared numpy code otherwise.

    The caller is responsible for the ``len(candidates) >= size >= 2``
    precondition and for choosing greedy vs. exact; this function only
    evaluates. ``stats`` counts dispatches like :func:`score_candidates`.
    """
    index = np.asarray(candidates, dtype=np.int64)
    count = index.size
    divisor = size - 1
    if NUMBA_AVAILABLE:  # pragma: no cover - requires numba
        variant = "group_dense" if buffers.is_dense else "group_csr"
        started = time.perf_counter()
        symmetric = np.empty((count, count), dtype=np.float64)
        if buffers.is_dense:
            _group_symmetric_dense_njit(
                np.ascontiguousarray(buffers.dense, dtype=np.float64),
                index,
                symmetric,
            )
        else:
            _group_symmetric_csr_njit(
                np.int64(buffers.size),
                buffers.row_keys,
                buffers.row_values,
                np.float64(buffers.prior),
                index,
                symmetric,
            )
        chosen = np.empty(size, dtype=np.int64)
        if table is not None:
            combos = table[0]
            pair_sum = _exact_group_njit(
                symmetric, np.ascontiguousarray(combos, dtype=np.int64), chosen
            )
            result = (
                [int(index[local]) for local in chosen],
                float(pair_sum) / divisor,
            )
        else:
            pair_sum = _greedy_group_njit(symmetric, np.int64(size), chosen)
            if chosen[0] < 0:
                result = ([], 0.0)
            else:
                result = (
                    [int(index[local]) for local in chosen],
                    float(pair_sum) / divisor,
                )
        if stats is not None:
            stats.kernel_compiled_calls += 1
            if _compile_seconds_pending[variant]:
                stats.kernel_compile_seconds += time.perf_counter() - started
        _compile_seconds_pending[variant] = False
        return result

    symmetric = gather_symmetric(buffers, index)
    if stats is not None:
        stats.kernel_fallback_calls += 1
    if table is not None:
        combos, pair_columns = table
        best, pair_sum = exact_group_select(symmetric, pair_columns)
        return [int(index[local]) for local in combos[best]], pair_sum / divisor
    selection = greedy_group_select(symmetric, size)
    if selection is None:
        return [], 0.0
    chosen, pair_sum = selection
    return [int(index[local]) for local in chosen], pair_sum / divisor
