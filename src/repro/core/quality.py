"""Pairwise cooperation quality — Definition 1 and Equation 1.

The platform maintains a score ``q_i(w_k) in [0, 1]`` for every ordered
worker pair. :class:`CooperationMatrix` wraps a dense numpy matrix with
constructors for every way the paper obtains these scores:

* :meth:`CooperationMatrix.from_history` — the Equation 1 estimator that
  blends a platform-configured base quality with the mean rating of tasks
  the two workers completed together.
* :meth:`CooperationMatrix.from_group_memberships` — the Meetup
  configuration of Section VI-A: ``q_i(w_k) = alpha * omega +
  (1 - alpha) * |common groups| / |union groups|`` with
  ``alpha = omega = 0.5``.
* :meth:`CooperationMatrix.random_uniform` /
  :meth:`CooperationMatrix.random_community` — synthetic matrices for the
  UNIF/SKEW experiments and for tests.

Every quality store answers reads through one primitive, ``block`` (a
block of ordered pairs, with leading batch dimensions), plus an uncached
``q_row``. :class:`QualityReads` writes every other read once on top of
them, so each backend feeds the same floats through the same reduction,
Equation 2's one left-to-right order
(:func:`~repro.core.kernels.ordered_row_sums`). The solvers read
task-local blocks instead (:mod:`repro.core.quality_store`); these reads
serve the oracles, the baselines and the tests.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.core.kernels import cross_values, ordered_row_sums
from repro.utils.errors import InvalidInstanceError
from repro.utils.rng import ensure_rng

__all__ = [
    "CooperationMatrix",
    "QualityReads",
    "estimate_pair_quality",
    "history_pair_values",
]

DEFAULT_BASE_QUALITY = 0.5
DEFAULT_ALPHA = 0.5
# Rows per Equation-1 pass of the in-place Meetup build: each pass's
# temporaries are a few (rows, m) arrays, not (m, m) ones.
_GROUP_QUALITY_BLOCK_ROWS = 128


def estimate_pair_quality(
    ratings: Sequence[float],
    base_quality: float = DEFAULT_BASE_QUALITY,
    alpha: float = DEFAULT_ALPHA,
) -> float:
    """Equation 1 for a single pair.

    ``ratings`` are the requester scores ``s_j in [0, 1]`` of the tasks the
    two workers completed together (``T_ik``). With no shared history the
    estimate falls back to the prior ``base_quality`` alone — the paper's
    "priori assumption" term — because the historical mean is undefined.

    >>> estimate_pair_quality([1.0, 0.5])
    0.625
    >>> estimate_pair_quality([])
    0.5
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if not 0.0 <= base_quality <= 1.0:
        raise ValueError(f"base_quality must be in [0, 1], got {base_quality}")
    scores = _validated_ratings(ratings)
    if not scores.size:
        return base_quality
    # cumsum reduces strictly left-to-right, exactly like the Python-level
    # ``sum`` this replaced, so results are bit-identical to the old loop
    # (np.sum would reorder via pairwise summation for >= 8 ratings).
    historical = float(scores.cumsum()[-1]) / scores.size
    return alpha * base_quality + (1.0 - alpha) * historical


def _validated_ratings(ratings: Sequence[float]) -> np.ndarray:
    """Range-check ratings in one vectorized pass and return them as floats."""
    scores = np.asarray(ratings, dtype=float)
    if scores.ndim != 1:
        scores = scores.reshape(-1)
    if scores.size:
        invalid = ~((scores >= 0.0) & (scores <= 1.0))  # catches NaN too
        if invalid.any():
            bad = scores[invalid][0]
            raise ValueError(f"rating {bad} outside [0, 1]")
    return scores


def history_pair_values(
    worker_count: int,
    shared_task_ratings: dict[tuple[int, int], Sequence[float]],
    base_quality: float = DEFAULT_BASE_QUALITY,
    alpha: float = DEFAULT_ALPHA,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized Equation 1 over a history dict.

    Returns ``(rows, cols, values)`` with both orientations of every pair
    interleaved in dict order — assigning ``q[rows, cols] = values`` then
    reproduces the historical per-pair loop's last-write-wins behaviour
    when a dict lists both ``(i, k)`` and ``(k, i)``. Validation
    (alpha/base ranges, self-pairs, out-of-range indices, rating range)
    happens in bulk numpy passes; rating means use ``np.add.reduceat``
    over one concatenated array instead of a Python loop per rating.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if not 0.0 <= base_quality <= 1.0:
        raise ValueError(f"base_quality must be in [0, 1], got {base_quality}")
    pair_count = len(shared_task_ratings)
    if not pair_count:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty, np.empty(0, dtype=float)

    first = np.fromiter(
        (i for i, _ in shared_task_ratings), dtype=np.intp, count=pair_count
    )
    second = np.fromiter(
        (k for _, k in shared_task_ratings), dtype=np.intp, count=pair_count
    )
    self_pairs = first == second
    if self_pairs.any():
        where = int(np.flatnonzero(self_pairs)[0])
        raise InvalidInstanceError(
            f"self-pair ({first[where]}, {second[where]}) in history"
        )
    out_of_range = (
        (first < 0) | (first >= worker_count) | (second < 0) | (second >= worker_count)
    )
    if out_of_range.any():
        where = int(np.flatnonzero(out_of_range)[0])
        raise InvalidInstanceError(
            f"pair ({first[where]}, {second[where]}) out of range"
        )

    rating_arrays = [
        np.asarray(ratings, dtype=float).reshape(-1)
        for ratings in shared_task_ratings.values()
    ]
    lengths = np.fromiter(
        (arr.size for arr in rating_arrays), dtype=np.intp, count=pair_count
    )
    values = np.full(pair_count, base_quality, dtype=float)
    rated = lengths > 0
    if rated.any():
        flat = np.concatenate([arr for arr in rating_arrays if arr.size])
        _validated_ratings(flat)
        starts = np.concatenate(([0], lengths[rated].cumsum()[:-1]))
        means = np.add.reduceat(flat, starts) / lengths[rated]
        values[rated] = alpha * base_quality + (1.0 - alpha) * means

    rows = np.empty(2 * pair_count, dtype=np.intp)
    cols = np.empty(2 * pair_count, dtype=np.intp)
    rows[0::2] = first
    rows[1::2] = second
    cols[0::2] = second
    cols[1::2] = first
    return rows, cols, np.repeat(values, 2)


class QualityReads:
    """The reads every quality store derives from its primitives.

    A backend implements ``block(rows, cols)`` and ``q_row(worker)``;
    this base writes the pair lookup, Equation 2's pair sums, the cross
    sum of a join and the Lemma V.2/V.3 row extremes once over them.
    ``block`` returns a C-contiguous float64 array with 0 wherever the
    two ids are equal, so every backend reduces the same floats in the
    same order.
    """

    __slots__ = ()

    def pair(self, i: int, k: int) -> float:
        """``q_i(w_k)`` — quality of worker ``i`` toward worker ``k``."""
        if i == k:
            raise ValueError("cooperation quality is undefined for a self-pair")
        return float(self.block([i], [k])[0, 0])

    def ordered_pair_sum(self, members: Sequence[int]) -> float:
        """``sum_{i in M} sum_{k in M, k != i} q_i(w_k)``.

        This is the numerator of Equation 2 for the member set ``M``
        (the block's diagonal is zero, so the full block sum equals the
        ordered off-diagonal sum).
        """
        index = np.asarray(members, dtype=np.intp)
        if np.unique(index).size != index.size:
            raise ValueError(f"duplicate members: {sorted(members)}")
        return self.submatrix_sum(index)

    def submatrix_sum(self, index: np.ndarray) -> float:
        """:meth:`ordered_pair_sum` without the duplicate check, for index
        arrays the revenue hot paths already know to be duplicate-free.
        The block is summed row-major, left to right."""
        return float(ordered_row_sums(self.block(index, index).reshape(-1)))

    def cross_sum(self, worker: int, members: Sequence[int]) -> float:
        """Ordered-pair contribution of adding ``worker`` to ``members``.

        Equals ``sum_k (q_worker(k) + q_k(worker))`` over ``k in members``,
        i.e. exactly the increase of :meth:`ordered_pair_sum` when
        ``worker`` joins. The row part and the column part are each
        summed left to right over ``members`` in the given order, then
        added. Both parts come from one ``block`` read
        (:func:`~repro.core.kernels.cross_values`).
        """
        toward, back = cross_values(self, worker, members)
        return float(ordered_row_sums(toward) + ordered_row_sums(back))

    def top_qualities(self, worker: int, count: int) -> np.ndarray:
        """The worker's ``count`` largest qualities toward others, sorted
        descending. Used by the UPPER bound (Lemma V.2)."""
        row = np.delete(self.q_row(worker), worker)
        if count >= row.size:
            return np.sort(row)[::-1]
        top = np.partition(row, row.size - count)[row.size - count :]
        return np.sort(top)[::-1]

    def bottom_qualities(self, worker: int, count: int) -> np.ndarray:
        """The worker's ``count`` smallest qualities, sorted ascending
        (Lemma V.3's lower bound)."""
        row = np.delete(self.q_row(worker), worker)
        if count >= row.size:
            return np.sort(row)
        bottom = np.partition(row, count - 1)[:count]
        return np.sort(bottom)


class CooperationMatrix(QualityReads):
    """Dense ``(m, m)`` matrix of cooperation qualities.

    The diagonal is forced to zero (a worker has no cooperation score with
    themselves — Equation 2 sums over ``k != i`` only). Entries may be
    asymmetric in general; every constructor that derives scores from
    shared history produces a symmetric matrix, matching the paper's
    experimental setup.
    """

    __slots__ = ("_q",)

    def __init__(self, values: np.ndarray, copy: bool = True) -> None:
        q = np.array(values, dtype=float, copy=copy)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise InvalidInstanceError(
                f"cooperation matrix must be square, got shape {q.shape}"
            )
        if q.size and (np.nanmin(q) < 0.0 or np.nanmax(q) > 1.0):
            raise InvalidInstanceError("cooperation scores must lie in [0, 1]")
        if np.isnan(q).any():
            raise InvalidInstanceError("cooperation matrix contains NaN")
        np.fill_diagonal(q, 0.0)
        q.setflags(write=False)
        self._q = q

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_history(
        cls,
        worker_count: int,
        shared_task_ratings: dict[tuple[int, int], Sequence[float]],
        base_quality: float = DEFAULT_BASE_QUALITY,
        alpha: float = DEFAULT_ALPHA,
    ) -> "CooperationMatrix":
        """Build the matrix from co-completed task ratings (Equation 1).

        ``shared_task_ratings[(i, k)]`` lists the ratings of tasks workers
        ``i`` and ``k`` completed together. Pairs are treated as unordered:
        an entry for ``(i, k)`` also fills ``(k, i)``. Pairs with no entry
        get the prior ``base_quality``.
        """
        prior = estimate_pair_quality([], base_quality, alpha)
        q = np.full((worker_count, worker_count), prior, dtype=float)
        rows, cols, values = history_pair_values(
            worker_count, shared_task_ratings, base_quality, alpha
        )
        q[rows, cols] = values
        return cls(q, copy=False)

    @classmethod
    def from_group_memberships(
        cls,
        memberships: Sequence[Iterable[int]],
        base_quality: float = DEFAULT_BASE_QUALITY,
        alpha: float = DEFAULT_ALPHA,
    ) -> "CooperationMatrix":
        """The paper's Meetup configuration of Equation 1.

        ``memberships[i]`` is the set of group ids worker ``i`` belongs to.
        The historical term is the Jaccard similarity of the two workers'
        group sets: ``c_ik / C_ik`` with ``c_ik = |common|`` and
        ``C_ik = |union|``. Two workers with no groups at all share no
        evidence, so their score is the prior ``alpha * base_quality``
        contribution only (the paper's formula with ``c_ik / C_ik = 0``).

        The matrix is built in place and allocates no other ``(m, m)``
        array: every group adds 1 to the ``|common|`` count of each pair
        of its members, then Equation 1 overwrites the counts a block of
        rows at a time, with ``|union| = deg_i + deg_k - |common|``. The
        counts are small integers, exact in float64, so the result is
        bit-identical to the dense incidence-matmul formula kept as
        :func:`repro.audit.reference.reference_group_quality`.
        """
        group_sets = [frozenset(groups) for groups in memberships]
        count = len(group_sets)
        prior = alpha * base_quality
        if count == 0:
            return cls(np.zeros((0, 0)), copy=False)

        members_of: dict[int, list[int]] = {}
        for worker, groups in enumerate(group_sets):
            for group in groups:
                members_of.setdefault(group, []).append(worker)
        q = np.zeros((count, count), dtype=np.float64)
        for members in members_of.values():
            index = np.array(members, dtype=np.intp)
            q[np.ix_(index, index)] += 1.0

        degrees = np.array([len(groups) for groups in group_sets], dtype=np.float64)
        for start in range(0, count, _GROUP_QUALITY_BLOCK_ROWS):
            stop = start + _GROUP_QUALITY_BLOCK_ROWS
            common = q[start:stop]
            union = degrees[start:stop, None] + degrees[None, :] - common
            with np.errstate(divide="ignore", invalid="ignore"):
                jaccard = np.where(union > 0, common / np.maximum(union, 1e-300), 0.0)
            common[...] = prior + (1.0 - alpha) * jaccard
        return cls(q, copy=False)

    @classmethod
    def random_uniform(
        cls, worker_count: int, seed=None, low: float = 0.0, high: float = 1.0
    ) -> "CooperationMatrix":
        """A symmetric matrix with i.i.d. uniform off-diagonal scores."""
        if not 0.0 <= low <= high <= 1.0:
            raise ValueError(f"need 0 <= low <= high <= 1, got [{low}, {high}]")
        rng = ensure_rng(seed)
        q = rng.uniform(low, high, size=(worker_count, worker_count))
        q = (q + q.T) / 2.0
        return cls(q, copy=False)

    @classmethod
    def random_community(
        cls,
        worker_count: int,
        community_count: int = 8,
        within: float = 0.8,
        across: float = 0.3,
        noise: float = 0.1,
        seed=None,
    ) -> "CooperationMatrix":
        """A block-structured matrix mimicking social communities.

        Workers are split uniformly into ``community_count`` communities;
        pairs inside a community centre on ``within``, pairs across
        communities on ``across``, with truncated Gaussian noise. This is
        the synthetic stand-in for the Meetup group structure and gives
        cooperation-aware solvers real signal to exploit.
        """
        if community_count < 1:
            raise ValueError("community_count must be >= 1")
        rng = ensure_rng(seed)
        labels = rng.integers(0, community_count, size=worker_count)
        same = labels[:, None] == labels[None, :]
        base = np.where(same, within, across)
        jitter = rng.normal(0.0, noise, size=(worker_count, worker_count))
        q = np.clip(base + (jitter + jitter.T) / 2.0, 0.0, 1.0)
        return cls(q, copy=False)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return self._q.shape[0]

    @property
    def values(self) -> np.ndarray:
        """The underlying read-only ``(m, m)`` array."""
        return self._q

    @property
    def nbytes(self) -> int:
        """Bytes held by the backing store (the dense array here)."""
        return int(self._q.nbytes)

    def block(self, rows, cols) -> np.ndarray:
        """``q[rows[..., :, None], cols[..., None, :]]`` as a fresh array.

        One-dimensional ``rows``/``cols`` give the ``(len(rows),
        len(cols))`` block; leading batch dimensions give a stack of
        blocks (the peel gathers its ``(B, n, n)`` cube this way). The
        matrix's zero diagonal supplies the 0 where the ids are equal.
        """
        rows = np.asarray(rows, dtype=np.intp)[..., :, None]
        cols = np.asarray(cols, dtype=np.intp)[..., None, :]
        # Advanced indexing always returns a fresh C-contiguous copy.
        return self._q[rows, cols]

    def q_row(self, worker: int) -> np.ndarray:
        """Read-only view of row ``worker``: ``q_worker(w_k)`` for all k."""
        return self._q[worker]

    def to_dense(self) -> "CooperationMatrix":
        """This store is already dense."""
        return self

    def is_symmetric(self, tolerance: float = 1e-12) -> bool:
        return bool(np.allclose(self._q, self._q.T, atol=tolerance))

    def restricted_to(self, workers: Sequence[int]) -> "CooperationMatrix":
        """The submatrix over ``workers``, re-indexed positionally.

        The batch framework uses this to carve each batch's matrix out of
        the population-level matrix. A principal submatrix of a
        validated matrix is valid as it stands (values in [0, 1], zero
        diagonal), so the one gather is wrapped read-only without the
        constructor's copy and scans.
        """
        index = np.asarray(workers, dtype=np.intp)
        values = self._q[index[:, None], index]
        values.setflags(write=False)
        restricted = CooperationMatrix.__new__(CooperationMatrix)
        restricted._q = values
        return restricted

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CooperationMatrix):
            return NotImplemented
        return np.array_equal(self._q, other._q)

    def __repr__(self) -> str:
        return f"CooperationMatrix(size={self.size})"
