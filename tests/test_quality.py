"""Tests for the cooperation quality model (Equation 1, matrices)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.reference import reference_group_quality
from repro.core.quality import (
    CooperationMatrix,
    estimate_pair_quality,
)
from repro.datasets.meetup import generate_meetup_dataset
from repro.utils.errors import InvalidInstanceError

ratings = st.lists(st.floats(0, 1, allow_nan=False), max_size=10)


class TestEstimator:
    def test_paper_formula(self):
        # alpha=0.5, omega=0.5, mean rating 0.75 -> 0.25 + 0.375
        assert estimate_pair_quality([1.0, 0.5]) == pytest.approx(0.625)

    def test_no_history_falls_back_to_prior(self):
        assert estimate_pair_quality([]) == 0.5
        assert estimate_pair_quality([], base_quality=0.3) == 0.3

    def test_alpha_extremes(self):
        assert estimate_pair_quality([1.0], alpha=1.0) == 0.5
        assert estimate_pair_quality([1.0], alpha=0.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_pair_quality([0.5], alpha=1.5)
        with pytest.raises(ValueError):
            estimate_pair_quality([0.5], base_quality=-0.1)
        with pytest.raises(ValueError):
            estimate_pair_quality([1.5])

    @given(ratings)
    def test_always_in_unit_interval(self, scores):
        assert 0.0 <= estimate_pair_quality(scores) <= 1.0

    @given(ratings, st.floats(0, 1), st.floats(0, 1))
    def test_bounded_by_extremes(self, scores, base, alpha):
        value = estimate_pair_quality(scores, base, alpha)
        if scores:
            mean = sum(scores) / len(scores)
            assert min(base, mean) - 1e-12 <= value <= max(base, mean) + 1e-12


class TestMatrixConstruction:
    def test_shape_validation(self):
        with pytest.raises(InvalidInstanceError):
            CooperationMatrix(np.zeros((2, 3)))

    def test_range_validation(self):
        with pytest.raises(InvalidInstanceError):
            CooperationMatrix([[0, 2.0], [0.5, 0]])
        with pytest.raises(InvalidInstanceError):
            CooperationMatrix([[0, -0.1], [0.5, 0]])

    def test_nan_rejected(self):
        with pytest.raises(InvalidInstanceError):
            CooperationMatrix([[0, np.nan], [0.5, 0]])

    def test_diagonal_zeroed(self):
        matrix = CooperationMatrix([[1.0, 0.5], [0.5, 1.0]])
        assert matrix.values[0, 0] == 0.0
        assert matrix.values[1, 1] == 0.0

    def test_values_read_only(self):
        matrix = CooperationMatrix.random_uniform(4, seed=0)
        with pytest.raises(ValueError):
            matrix.values[0, 1] = 0.9

    def test_pair_access(self):
        matrix = CooperationMatrix([[0, 0.25], [0.75, 0]])
        assert matrix.pair(0, 1) == 0.25
        assert matrix.pair(1, 0) == 0.75
        with pytest.raises(ValueError):
            matrix.pair(1, 1)

    def test_equality(self):
        a = CooperationMatrix.random_uniform(5, seed=1)
        b = CooperationMatrix(a.values)
        assert a == b
        assert a != "not a matrix" or True  # NotImplemented path

    def test_from_history(self):
        matrix = CooperationMatrix.from_history(
            3, {(0, 1): [1.0, 1.0], (1, 2): [0.0]}
        )
        assert matrix.pair(0, 1) == pytest.approx(0.75)
        assert matrix.pair(1, 0) == pytest.approx(0.75)
        assert matrix.pair(1, 2) == pytest.approx(0.25)
        assert matrix.pair(0, 2) == pytest.approx(0.5)  # prior only

    def test_from_history_validation(self):
        with pytest.raises(InvalidInstanceError):
            CooperationMatrix.from_history(2, {(0, 0): [1.0]})
        with pytest.raises(InvalidInstanceError):
            CooperationMatrix.from_history(2, {(0, 5): [1.0]})

    def test_from_group_memberships_paper_configuration(self):
        # Two workers sharing 1 of 3 union groups:
        # q = 0.5*0.5 + 0.5 * 1/3
        matrix = CooperationMatrix.from_group_memberships(
            [{1, 2}, {2, 3}, set()]
        )
        assert matrix.pair(0, 1) == pytest.approx(0.25 + 0.5 / 3)
        assert matrix.pair(0, 2) == pytest.approx(0.25)
        assert matrix.is_symmetric()

    def test_from_group_memberships_matches_bruteforce(self):
        rng = np.random.default_rng(3)
        memberships = [
            set(rng.integers(0, 12, size=rng.integers(0, 6)).tolist())
            for _ in range(20)
        ]
        matrix = CooperationMatrix.from_group_memberships(memberships)
        for i in range(20):
            for k in range(i + 1, 20):
                union = len(memberships[i] | memberships[k])
                common = len(memberships[i] & memberships[k])
                jaccard = common / union if union else 0.0
                assert matrix.pair(i, k) == pytest.approx(0.25 + 0.5 * jaccard)

    def test_from_group_memberships_empty(self):
        assert CooperationMatrix.from_group_memberships([]).size == 0

    def test_random_uniform_bounds(self):
        matrix = CooperationMatrix.random_uniform(30, seed=0, low=0.2, high=0.8)
        off_diagonal = matrix.values[~np.eye(30, dtype=bool)]
        assert off_diagonal.min() >= 0.2
        assert off_diagonal.max() <= 0.8
        assert matrix.is_symmetric()

    def test_random_uniform_bad_range(self):
        with pytest.raises(ValueError):
            CooperationMatrix.random_uniform(5, low=0.9, high=0.1)

    def test_random_community_structure(self):
        matrix = CooperationMatrix.random_community(
            200, community_count=4, within=0.9, across=0.1, noise=0.02, seed=5
        )
        values = matrix.values[~np.eye(200, dtype=bool)]
        # Bimodal: some pairs near 0.9, some near 0.1.
        assert (values > 0.7).any()
        assert (values < 0.3).any()
        assert matrix.is_symmetric()

    def test_random_community_validation(self):
        with pytest.raises(ValueError):
            CooperationMatrix.random_community(10, community_count=0)


def _group_quality_or_error(build, memberships, **kwargs):
    """``build``'s matrix values, or its exception type when it raises."""
    try:
        return build(memberships, **kwargs).values
    except InvalidInstanceError as error:
        return type(error)


def _assert_matches_reference(memberships, **kwargs):
    built = _group_quality_or_error(
        CooperationMatrix.from_group_memberships, memberships, **kwargs
    )
    expected = _group_quality_or_error(reference_group_quality, memberships, **kwargs)
    if isinstance(expected, type):
        assert built is expected
    else:
        assert isinstance(built, np.ndarray)
        assert np.array_equal(built, expected)


group_ids = st.one_of(st.integers(0, 8), st.integers(-(2**64), 2**64))


class TestGroupQualityOracle:
    """The in-place Meetup build against the incidence-matmul formula,
    bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_meetup_surrogate(self, seed):
        dataset = generate_meetup_dataset(seed=seed)
        expected = reference_group_quality(dataset.memberships)
        assert np.array_equal(dataset.quality.values, expected.values)

    @pytest.mark.parametrize(
        "memberships",
        [
            [],
            [{3}],
            [set()],
            [set(), set(), set()],
            [{7}] * 5,
            [{7}, set(), {7}, set()],
            [{10**12, 5}, {5}, {2**70, 10**12}, {-3, 2**70}],
            [[1, 1, 2], [2, 2], [1], [2, 1, 2, 1]],
        ],
        ids=[
            "no-users",
            "one-user",
            "one-user-no-groups",
            "no-groups",
            "one-group-holds-everyone",
            "one-group-and-loners",
            "non-contiguous-large-ids",
            "lists-with-duplicates",
        ],
    )
    def test_hand_cases(self, memberships):
        _assert_matches_reference(memberships)

    @settings(max_examples=60, deadline=None)
    @given(
        memberships=st.lists(st.lists(group_ids, max_size=6), max_size=14),
        alpha=st.floats(0, 1),
        base_quality=st.floats(0, 1),
    )
    def test_property_random_memberships(self, memberships, alpha, base_quality):
        _assert_matches_reference(
            memberships, alpha=alpha, base_quality=base_quality
        )


class TestMatrixQueries:
    def test_ordered_pair_sum(self):
        q = np.array([[0, 0.1, 0.2], [0.3, 0, 0.4], [0.5, 0.6, 0]])
        matrix = CooperationMatrix(q)
        assert matrix.ordered_pair_sum([0, 1, 2]) == pytest.approx(2.1)
        assert matrix.ordered_pair_sum([0, 2]) == pytest.approx(0.7)
        assert matrix.ordered_pair_sum([1]) == 0.0

    def test_ordered_pair_sum_rejects_duplicates(self):
        matrix = CooperationMatrix.random_uniform(4, seed=0)
        with pytest.raises(ValueError):
            matrix.ordered_pair_sum([1, 1])

    def test_cross_sum_is_pair_sum_increment(self):
        matrix = CooperationMatrix.random_uniform(8, seed=2)
        members = [0, 3, 5]
        before = matrix.ordered_pair_sum(members)
        after = matrix.ordered_pair_sum(members + [6])
        assert after - before == pytest.approx(matrix.cross_sum(6, members))

    def test_top_and_bottom_qualities(self):
        q = np.array(
            [
                [0, 0.9, 0.1, 0.5],
                [0.9, 0, 0.2, 0.3],
                [0.1, 0.2, 0, 0.8],
                [0.5, 0.3, 0.8, 0],
            ]
        )
        matrix = CooperationMatrix(q)
        assert matrix.top_qualities(0, 2).tolist() == [0.9, 0.5]
        assert matrix.bottom_qualities(0, 2).tolist() == [0.1, 0.5]
        # Requesting more than available returns everything.
        assert matrix.top_qualities(0, 10).tolist() == [0.9, 0.5, 0.1]

    def test_restricted_to(self):
        matrix = CooperationMatrix.random_uniform(6, seed=4)
        sub = matrix.restricted_to([1, 3, 5])
        assert sub.size == 3
        assert sub.pair(0, 1) == matrix.pair(1, 3)
        assert sub.pair(2, 0) == matrix.pair(5, 1)

    def test_restricted_to_is_one_read_only_gather(self):
        matrix = CooperationMatrix.random_uniform(9, seed=2)
        workers = [7, 0, 4, 8, 2]
        sub = matrix.restricted_to(workers)
        assert type(sub) is CooperationMatrix
        assert np.array_equal(sub.values, matrix.values[np.ix_(workers, workers)])
        assert not sub.values.flags.writeable
        assert not np.diagonal(sub.values).any()
        assert matrix.restricted_to([]).size == 0

    @given(st.integers(2, 12), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_pair_sum_permutation_invariant(self, size, seed):
        rng = np.random.default_rng(seed)
        matrix = CooperationMatrix.random_uniform(size, seed=seed)
        members = rng.permutation(size)[: max(2, size // 2)]
        shuffled = rng.permutation(members)
        assert matrix.ordered_pair_sum(members) == pytest.approx(
            matrix.ordered_pair_sum(shuffled)
        )
