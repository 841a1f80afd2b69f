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

The kernels take the quality store itself and read it only through its
two primitives, ``block`` and ``cross_values``
(:mod:`repro.core.quality_store`); they never see a backend's layout.

Summation-order contract
------------------------
The scalar path (``RevenueCache.join_gain`` via ``cross_sum``) sums the
row gather and the column gather separately with ``ndarray.sum()``,
which numpy evaluates strictly left-to-right for fewer than eight
elements and with pairwise (reordered) partial sums from eight elements
on. ``np.add.reduceat`` does *not* share that contract: on current numpy
its SIMD partial sums reorder segments of as few as three elements.
Every float reduction in this module therefore either accumulates
strictly left-to-right (column by column over padded rows, or
:func:`ordered_row_sums` over the last axis of a stack of groups) or
calls genuine ``ndarray.sum()`` over contiguous last-axis rows of the
oracle's exact length (numpy reduces each such row exactly like a fresh
1-D array), and groups of
:data:`~repro.core.game._VECTOR_GROUP_LIMIT` or more members — where the
scalar path itself reorders — are deferred to the scalar evaluation via
:data:`CODE_SCALAR`. :func:`verify_pairwise_cliff` checks at first use
that numpy still puts the pairwise cliff at :data:`PAIRWISE_CLIFF`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PAIRWISE_CLIFF",
    "CODE_VALUE",
    "CODE_SCALAR",
    "CODE_CURRENT",
    "ordered_row_sums",
    "verify_pairwise_cliff",
    "ensure_pairwise_cliff",
    "score_candidates",
    "PEEL_CHUNK",
    "counted_subset_batch",
    "counted_subset_select",
    "greedy_group_select",
    "exact_group_select",
]

#: Per-slot classification emitted by :func:`score_candidates`.
CODE_VALUE = 0  #: utility fully evaluated by the kernel
CODE_SCALAR = 1  #: overflow/oversized join — filled by the caller (peel/scalar)
CODE_CURRENT = 2  #: the worker's own task — caller fills ``leave_delta``


#: numpy's pairwise-summation threshold: ``ndarray.sum()`` accumulates
#: strictly left-to-right below this many elements and with reordered
#: (block-pairwise) partial sums from it on. The counted-subset peel and
#: its scalar reference (``repro.audit.reference``) both assume this value;
#: :func:`verify_pairwise_cliff` fails loudly if a numpy upgrade moves it.
PAIRWISE_CLIFF = 8

_cliff_state = {"verified": False}


def ordered_row_sums(matrix: np.ndarray) -> np.ndarray:
    """Sums over the last axis in strict left-to-right order.

    Bit-identical to ``matrix.sum(axis=-1)`` for widths below
    :data:`PAIRWISE_CLIFF` (where numpy itself reduces sequentially), and
    the single source of truth for the counted-subset peel's ordered
    accumulation: both the sub-cliff steps of
    :func:`counted_subset_batch` (a ``(B, n, n)`` stack of groups) and
    the vector branch of the scalar reference peel
    (:func:`repro.audit.reference.reference_counted_subset`) route
    through it, so the summation order that defines the peel (hence the
    potential function) lives in exactly one place.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    width = matrix.shape[-1]
    if width == 0:
        return np.zeros(matrix.shape[:-1], dtype=np.float64)
    total = matrix[..., 0].astype(np.float64, copy=True)
    for column in range(1, width):
        total += matrix[..., column]
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
                "(kernels.counted_subset_batch) is broken — pin "
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
            "(kernels.counted_subset_batch) is broken — pin "
            "numpy, or update PAIRWISE_CLIFF and the peel kernels together."
        )


def ensure_pairwise_cliff() -> None:
    """Run :func:`verify_pairwise_cliff` once per process (cached)."""
    if not _cliff_state["verified"]:
        verify_pairwise_cliff()
        _cliff_state["verified"] = True


#: Groups peeled per lockstep pass of :func:`counted_subset_batch`: the
#: working set is a ``(chunk, n, n)`` cube, so chunking bounds the extra
#: memory a whole kernel pass of stale overflow joins can allocate.
PEEL_CHUNK = 512


def counted_subset_batch(quality, groups, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Greedy counted-subset peel of ``B`` equal-shaped groups in lockstep.

    ``groups`` is a ``(B, n)`` integer array, each row duplicate-free
    and sorted ascending. Every row is peeled down to ``size`` members;
    returns ``(kept, pair_sums)``: a ``(B, min(size, n))`` array of the
    kept members (ascending) and the ``(B,)`` ordered pair sums of the
    kept blocks (Equation 2's numerator for the counted subset). Each
    row is bit-identical to the scalar reference peel
    (:func:`repro.audit.reference.reference_counted_subset`) in floats
    *and* tie-breaks, and each pair sum to the store's
    ``submatrix_sum(kept)``. A chunk of at most :data:`PEEL_CHUNK`
    groups pays ONE gather (the store's ``block``) of its ``(B, n, n)``
    cube; every peel step then scores all of the chunk's groups at once:

    * while more than :data:`PAIRWISE_CLIFF` members survive, the
      oracle's per-member others-arrays hold at least eight elements and
      numpy reduces them pairwise — reproduced by genuine
      ``sum(axis=-1)`` reductions over fresh contiguous rows of identical
      values, so the bits match by construction rather than by emulating
      numpy's blocked accumulation;
    * at or below the cliff every oracle reduction is strictly
      sequential, so the survivors' rows and columns are re-summed left
      to right by :func:`ordered_row_sums`;
    * ties peel the last (= highest-index) survivor attaining a row's
      minimum, in both regimes.

    The kept blocks are cut from the same cube, so their pair sums reduce
    arrays of the store block's values and shape.
    """
    ensure_pairwise_cliff()
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
        if cur > PAIRWISE_CLIFF:
            # Each survivor's others-row/column as one contiguous (cur,
            # cur - 1) block per group: row p is exactly np.delete(sub[b,
            # p], p) (resp. the column), and the last-axis reduction
            # applies numpy's pairwise blocking per row — the same bits
            # as the oracle's 1-D ``ndarray.sum()``. ``np.take`` returns
            # C-contiguous blocks; fancy or boolean indexing along the
            # trailing axes would lay the group axis innermost, and numpy
            # would then reduce each row sequentially instead.
            flat = sub.reshape(count, cur * cur)
            others = np.flatnonzero(~np.eye(cur, dtype=bool))
            transposed = others % cur * cur + others // cur
            scores = np.take(flat, others, axis=1).reshape(
                count, cur, cur - 1
            ).sum(axis=-1) + np.take(flat, transposed, axis=1).reshape(
                count, cur, cur - 1
            ).sum(axis=-1)
        else:
            scores = ordered_row_sums(sub) + ordered_row_sums(
                sub.transpose(0, 2, 1)
            )
        # Ties peel the last (= highest-index) surviving position.
        ties = scores == scores.min(axis=1, keepdims=True)
        weakest = cur - 1 - np.argmax(ties[:, ::-1], axis=1)
        survivors = np.arange(cur) != weakest[:, None]
        cur -= 1
        alive = alive[survivors].reshape(count, cur)
        sub = cube[lanes[:, :, None], alive[:, :, None], alive[:, None, :]]
    # ``sub`` is now a fresh C-contiguous block of the kept values per
    # group (or the cube itself), shaped like the store's own block, so
    # each flattened row sums in the same order.
    pair_sums = sub.reshape(count, cur * cur).sum(axis=1)
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
    limit: int,
    current_tasks: np.ndarray,
    stats=None,
    worker_ids: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Score every (worker, candidate-task) slot of the validity CSR.

    Returns ``(values, codes)`` — one float and one classification code
    (:data:`CODE_VALUE` / :data:`CODE_SCALAR` / :data:`CODE_CURRENT`)
    per slot of ``vp_tasks``. Values for non-``CODE_VALUE`` slots are
    placeholders the caller must fill (overflow peel or scalar
    ``join_gain`` / ``leave_delta``).

    ``worker_ids`` maps CSR rows to quality-store worker ids when the
    call covers a subset of workers (one row per scored worker, as in
    every GT round); by default row ``i`` *is* worker ``i``.
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
    # matching quality-store ids (identical unless the caller scores a
    # row subset, as every GT round does).
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
        row_vals, col_vals = quality.cross_values(b_workers[:, None], member)
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
