"""Batched evaluation kernels for the GT and TPG hot paths.

The game solver's hot loop scores every candidate task of every worker
once per round. :func:`score_candidates` evaluates the Equation-5
utilities of *all* workers' candidates in one vectorized numpy pass over
flat CSR-style arrays; :func:`counted_subset_batch` runs the Equation-2
best-``a_j``-subset peel of many equal-shaped groups in lockstep (one
gather per chunk of groups; :func:`counted_subset_select` is its
single-group call), and :func:`greedy_group_select` /
:func:`exact_group_select` TPG's stage-1 group selection over a
symmetric candidate block. Each reproduces the scalar evaluation it
replaced float for float — those scalar references now live in
:mod:`repro.audit.reference`, and the unit tests hold the kernels to
them bit for bit.

The kernels read qualities only through a reader's ``block(rows,
cols)``, never a backend's layout. During a solve the reader is the
solve's task-block reader (:func:`~repro.core.quality_store.task_blocks`)
and the ids the kernels pass are its positions (on the sparse store,
each task's watchers numbered in ascending order); any quality store
is a reader too, with worker ids as positions (the unit tests and the
oracles read it so).
:func:`cross_values` reads a join's two orientations through
``block``.

Summation-order contract
------------------------
Equation 2 has one summation order, in every path, scalar and batched:
strictly left to right over the members in the order they are given,
and row-major over a block. :func:`ordered_row_sums` is the one helper
that computes it; every revenue evaluation (the stores' ``cross_sum``
and ``submatrix_sum``, the revenue cache's batched joins and leaves,
the peel below and :func:`score_candidates`) goes through it, so a
batched evaluation gives the bits of the scalar one at every group
size. Neither ``ndarray.sum()`` (block-pairwise from eight elements on)
nor ``np.add.reduceat`` (whose SIMD partial sums reorder segments of as
few as three elements) reduces in this order, so neither sums an
Equation-2 float. TPG stage 1's group selection
(:func:`greedy_group_select`, :func:`exact_group_select`) ranks
candidate groups by its own sequential pair order; the groups it picks
are then evaluated like any other.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "CODE_VALUE",
    "CODE_SCALAR",
    "CODE_CURRENT",
    "ordered_row_sums",
    "cross_values",
    "fit_join_gains",
    "score_candidates",
    "PEEL_CHUNK",
    "counted_subset_batch",
    "counted_subset_select",
    "greedy_group_select",
    "exact_group_select",
]

#: Per-slot classification emitted by :func:`score_candidates`.
CODE_VALUE = 0  #: utility fully evaluated by the kernel
CODE_SCALAR = 1  #: overflow join — caller fills ``join_gains``
CODE_CURRENT = 2  #: the worker's own task — caller fills ``leave_deltas``


#: ``np.cumsum`` pays per row and the column loop per column, so
#: :func:`ordered_row_sums` loops only from this many rows per column on
#: (one ``cross_sum`` row: cumsum; a scan's thousands of slot rows: loop).
_LOOP_MIN_ROWS = 8


def ordered_row_sums(matrix: np.ndarray) -> np.ndarray:
    """Sums over the last axis in strict left-to-right order.

    The summation order of Equation 2 (see the module docstring). Few
    wide rows take the last column of ``np.cumsum``, many narrow rows
    one vector add per column; both accumulate sequentially, so they
    give the same bits. A 1-D input gives a 0-d array.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    width = matrix.shape[-1]
    if width == 0:
        return np.zeros(matrix.shape[:-1], dtype=np.float64)
    if matrix.size < _LOOP_MIN_ROWS * width * width:
        return np.cumsum(matrix, axis=-1)[..., -1]
    total = matrix[..., 0].copy()
    for column in range(1, width):
        total += matrix[..., column]
    return total


def cross_values(reads, workers, members) -> tuple[np.ndarray, np.ndarray]:
    """``(q[workers, members], q[members, workers])``, broadcast, read
    through ``reads``' ``block`` (a reader's or a store's).

    Each orientation is one elementwise block (trailing unit rows and
    columns); a reader over an exactly symmetric store reads one and
    returns it twice, since the two are then the same floats.
    """
    workers = np.asarray(workers, dtype=np.int64)[..., None]
    members = np.asarray(members, dtype=np.int64)[..., None]
    toward = reads.block(workers, members)[..., 0, 0]
    if getattr(reads, "symmetric", False):
        return toward, toward
    return toward, reads.block(members, workers)[..., 0, 0]


def fit_join_gains(
    reads, workers, members, lengths, pair_sums, revenues
) -> np.ndarray:
    """``(S + cross) / k - Q`` per row: Equation 4 for joins that fit
    their task's capacity and reach ``B``.

    Row ``i`` joins the position ``workers[i]`` to ``lengths[i]`` (``k``)
    members ``members[i]`` (insertion order, every argument but
    ``workers`` broadcast) with pair sum ``pair_sums[i]`` and revenue
    ``revenues[i]``. Lanes past ``k`` hold the joiner itself: its
    diagonal 0.0 moves no partial sum. ``cross`` is ``cross_sum``'s.
    """
    toward, back = cross_values(reads, workers[:, None], members)
    cross = ordered_row_sums(toward) + ordered_row_sums(back)
    return (pair_sums + cross) / lengths - revenues


#: Groups peeled per lockstep pass of :func:`counted_subset_batch`: the
#: working set is a ``(chunk, n, n)`` cube, so chunking bounds the extra
#: memory a whole kernel pass of stale overflow joins can allocate.
PEEL_CHUNK = 512


def counted_subset_batch(quality, groups, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Greedy counted-subset peel of ``B`` equal-shaped groups in lockstep.

    ``groups`` is a ``(B, n)`` integer array of ``quality``'s positions
    (worker ids, for a store), each row duplicate-free, sorted ascending
    and, for a task-block reader, one task's. Every row is peeled down
    to ``size`` members; returns ``(kept, pair_sums)``: a ``(B, min(size, n))`` array of the
    kept members (ascending) and the ``(B,)`` ordered pair sums of the
    kept blocks (Equation 2's numerator for the counted subset). Each
    row is bit-identical to the scalar reference peel
    (:func:`repro.audit.reference.reference_counted_subset`) in floats
    *and* tie-breaks, and each pair sum to the store's
    ``submatrix_sum(kept)``. A chunk of at most :data:`PEEL_CHUNK`
    groups pays ONE gather (the reader's ``block``) of its ``(B, n, n)``
    cube; every peel step then scores all of the chunk's groups at once,
    each survivor's row plus its column summed left to right by
    :func:`ordered_row_sums` (the diagonal's 0.0 leaves every partial
    sum unchanged), and peels the last (= highest-index) survivor
    attaining a row's minimum. The kept blocks are cut from the same
    cube and summed row-major.
    """
    groups = np.asarray(groups, dtype=np.int64)
    count, width = groups.shape
    size = min(size, width)
    kept = np.empty((count, size), dtype=np.int64)
    pair_sums = np.empty(count, dtype=np.float64)
    for start in range(0, count, PEEL_CHUNK):
        chunk = slice(start, start + PEEL_CHUNK)
        kept[chunk], pair_sums[chunk] = _peel_chunk(quality, groups[chunk], size)
    return kept, pair_sums


def _peel_chunk(
    quality, groups: np.ndarray, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """One lockstep pass of :func:`counted_subset_batch` over a chunk."""
    count, cur = groups.shape
    cube = quality.block(groups, groups)
    lanes = np.arange(count)[:, None]
    alive = np.broadcast_to(np.arange(cur), (count, cur))
    sub = cube
    while cur > size:
        scores = ordered_row_sums(sub) + ordered_row_sums(sub.transpose(0, 2, 1))
        # Ties peel the last (= highest-index) surviving position.
        ties = scores == scores.min(axis=1, keepdims=True)
        weakest = cur - 1 - np.argmax(ties[:, ::-1], axis=1)
        survivors = np.arange(cur) != weakest[:, None]
        cur -= 1
        alive = alive[survivors].reshape(count, cur)
        sub = cube[lanes[:, :, None], alive[:, :, None], alive[:, None, :]]
    pair_sums = ordered_row_sums(sub.reshape(count, cur * cur))
    return groups[lanes, alive], pair_sums


def counted_subset_select(quality, members, size: int) -> tuple[list[int], float]:
    """:func:`counted_subset_batch` of a single group: ``(kept,
    pair_sum)`` with the kept members as a sorted list. ``members`` must
    be duplicate-free."""
    order = np.asarray(sorted(int(member) for member in members), dtype=np.int64)
    kept, pair_sums = counted_subset_batch(
        quality, order.reshape(1, order.size), size
    )
    return kept[0].tolist(), float(pair_sums[0])


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


def score_candidates(
    quality,
    vp_indptr: np.ndarray,
    vp_tasks: np.ndarray,
    mem_indptr: np.ndarray,
    mem_flat: np.ndarray,
    pair_sums: np.ndarray,
    revenues: np.ndarray,
    capacities: np.ndarray,
    minimum: int,
    current_tasks: np.ndarray,
    stats=None,
    positions: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Score every (worker, candidate-task) slot of the validity CSR.

    Returns ``(values, codes)`` — one float and one classification code
    (:data:`CODE_VALUE` / :data:`CODE_SCALAR` / :data:`CODE_CURRENT`)
    per slot of ``vp_tasks``. Values for non-``CODE_VALUE`` slots are
    placeholders the caller must fill (the revenue cache's
    ``join_gains`` / ``leave_deltas``). Every other join is evaluated
    here, whatever its group size: ``0 - Q`` below ``B``, otherwise
    :func:`fit_join_gains`.

    ``mem_flat`` holds the members as ``quality``'s positions, and
    ``positions`` gives each slot's worker as a position in the slot's
    task (GT rounds pass the task-block reader's); by default the
    reader is a store and row ``i`` *is* worker ``i``.
    ``current_tasks`` is always indexed by row. The optional ``stats``
    (a :class:`~repro.core.stats.SolverStats`) counts the call in
    ``kernel_fallback_calls``.
    """
    if stats is not None:
        stats.kernel_fallback_calls += 1
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
    # slots' reader positions.
    workers = rows if positions is None else positions
    is_current = current_tasks[rows] == vp_tasks
    needs_scalar = slot_counts + 1 > capacities[vp_tasks]
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
        offsets = np.arange(int(b_lengths.max()), dtype=np.int64)
        members = mem_flat.take(mem_indptr[b_tasks][:, None] + offsets, mode="clip")
        members = np.where(offsets < b_lengths[:, None], members, b_workers[:, None])
        values[batchable] = fit_join_gains(
            quality, b_workers, members, b_lengths, pair_sums[b_tasks], revenues[b_tasks]
        )
    return values, codes
