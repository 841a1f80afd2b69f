"""A Meetup-like event-based social network (real-data surrogate).

The paper evaluates on a 2011-2012 crawl of meetup.com restricted to Hong
Kong (1,282 events as tasks, 3,525 users as workers, cooperation quality
from co-attended groups). The crawl is not redistributable and not
available offline, so this module generates a population with the same
statistical skeleton:

* **users** clustered around a handful of district centres inside a city
  bounding box (mapped to ``[0, 1]^2`` like the paper maps check-ins);
* **groups** with Zipf-distributed sizes whose members are drawn with a
  locality bias (nearby users join the same groups) — this produces the
  community structure that makes cooperation-aware assignment matter;
* **events** (task sites) located near district centres.

Worker-pair quality follows the paper's configuration of Equation 1:
``q_i(w_k) = alpha * omega + (1 - alpha) * c_ik / C_ik`` with
``alpha = omega = 0.5``, where ``c_ik`` counts common groups and ``C_ik``
the union of the two users' groups (Jaccard similarity).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.quality import CooperationMatrix
from repro.utils.rng import ensure_rng

__all__ = ["MeetupDataset", "draw_meetup_population", "generate_meetup_dataset"]

DEFAULT_USER_COUNT = 3525
DEFAULT_EVENT_COUNT = 1282
DEFAULT_GROUP_COUNT = 600
DEFAULT_DISTRICT_COUNT = 12


@dataclass(frozen=True)
class MeetupDataset:
    """The generated population.

    Attributes
    ----------
    user_locations:
        ``(users, 2)`` coordinates in ``[0, 1]^2``.
    event_locations:
        ``(events, 2)`` coordinates in ``[0, 1]^2``.
    memberships:
        ``memberships[u]`` — frozenset of group ids user ``u`` joined.
    quality:
        The Equation 1 cooperation matrix over all users.
    """

    user_locations: np.ndarray
    event_locations: np.ndarray
    memberships: tuple[frozenset[int], ...]
    quality: CooperationMatrix

    @property
    def user_count(self) -> int:
        return self.user_locations.shape[0]

    @property
    def event_count(self) -> int:
        return self.event_locations.shape[0]

    @property
    def group_count(self) -> int:
        groups: set[int] = set()
        for membership in self.memberships:
            groups |= membership
        return len(groups)


def generate_meetup_dataset(
    user_count: int = DEFAULT_USER_COUNT,
    event_count: int = DEFAULT_EVENT_COUNT,
    group_count: int = DEFAULT_GROUP_COUNT,
    district_count: int = DEFAULT_DISTRICT_COUNT,
    mean_groups_per_user: float = 3.0,
    locality: float = 0.7,
    seed=None,
) -> MeetupDataset:
    """Generate the surrogate population.

    Parameters
    ----------
    locality:
        Probability that a group member is drawn from the group's home
        district rather than from the whole city; higher values give
        stronger spatial-social correlation.
    """
    user_locations, event_locations, memberships = draw_meetup_population(
        user_count=user_count,
        event_count=event_count,
        group_count=group_count,
        district_count=district_count,
        mean_groups_per_user=mean_groups_per_user,
        locality=locality,
        seed=seed,
    )
    quality = CooperationMatrix.from_group_memberships(memberships)
    return MeetupDataset(
        user_locations=user_locations,
        event_locations=event_locations,
        memberships=tuple(frozenset(m) for m in memberships),
        quality=quality,
    )


def draw_meetup_population(
    user_count: int = DEFAULT_USER_COUNT,
    event_count: int = DEFAULT_EVENT_COUNT,
    group_count: int = DEFAULT_GROUP_COUNT,
    district_count: int = DEFAULT_DISTRICT_COUNT,
    mean_groups_per_user: float = 3.0,
    locality: float = 0.7,
    seed=None,
) -> tuple[np.ndarray, np.ndarray, list[set[int]]]:
    """The random part of :func:`generate_meetup_dataset`: ``(user
    locations, event locations, memberships)``.

    The cooperation matrix takes no draws, so a caller that brings its
    own quality store gets the same locations from this alone, without
    building the matrix.
    """
    if not 0.0 <= locality <= 1.0:
        raise ValueError(f"locality must be in [0, 1], got {locality}")
    rng = ensure_rng(seed)

    centers = rng.uniform(0.15, 0.85, size=(district_count, 2))
    district_weights = rng.dirichlet(np.full(district_count, 2.0))

    user_district = rng.choice(district_count, size=user_count, p=district_weights)
    user_locations = np.clip(
        centers[user_district] + rng.normal(0.0, 0.06, size=(user_count, 2)),
        0.0,
        1.0,
    )

    event_district = rng.choice(district_count, size=event_count, p=district_weights)
    event_locations = np.clip(
        centers[event_district] + rng.normal(0.0, 0.08, size=(event_count, 2)),
        0.0,
        1.0,
    )

    memberships = _generate_groups(
        rng,
        user_count=user_count,
        group_count=group_count,
        user_district=user_district,
        district_count=district_count,
        mean_groups_per_user=mean_groups_per_user,
        locality=locality,
    )
    return user_locations, event_locations, memberships


def _generate_groups(
    rng,
    user_count: int,
    group_count: int,
    user_district: np.ndarray,
    district_count: int,
    mean_groups_per_user: float,
    locality: float,
) -> list[set[int]]:
    """Zipf-sized groups with a locality bias toward a home district."""
    memberships: list[set[int]] = [set() for _ in range(user_count)]
    target_membership_total = int(mean_groups_per_user * user_count)

    # Zipf-ish group sizes normalized to the target total membership mass.
    raw_sizes = rng.zipf(2.0, size=group_count).astype(float)
    raw_sizes = np.clip(raw_sizes * 3, 3, max(user_count // 3, 3))
    sizes = np.maximum(
        3, np.round(raw_sizes * target_membership_total / raw_sizes.sum()).astype(int)
    )

    users_by_district = [
        np.flatnonzero(user_district == d) for d in range(district_count)
    ]
    for group_id, size in enumerate(sizes):
        home = int(rng.integers(district_count))
        home_users = users_by_district[home]
        members: set[int] = set()
        size = int(min(size, user_count))
        while len(members) < size:
            if home_users.size and rng.random() < locality:
                candidate = int(home_users[rng.integers(home_users.size)])
            else:
                candidate = int(rng.integers(user_count))
            members.add(candidate)
        for user in members:
            memberships[user].add(group_id)
    return memberships
