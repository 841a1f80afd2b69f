"""Spatial substrate: geometry primitives, the grid index and road networks.

The batch framework (paper Section III) computes, for every worker, the set
of tasks inside the worker's working area via a spatial range query. The
paper prescribes an R-tree; this package answers the same query with a
uniform grid (:class:`~repro.spatial.grid.GridIndex`), which beat an
R-tree, a k-d tree and a dense distance matrix on every named bench
regime. :func:`repro.core.validity.compute_valid_pairs_reference` checks
the grid's answers against a brute-force scan.
"""

from repro.spatial.geometry import Point, euclidean, travel_time
from repro.spatial.grid import GridIndex
from repro.spatial.roadnet import (
    EuclideanTravel,
    RoadNetwork,
    RoadNetworkTravel,
    grid_network,
    random_geometric_network,
)

__all__ = [
    "EuclideanTravel",
    "RoadNetwork",
    "RoadNetworkTravel",
    "grid_network",
    "random_geometric_network",
    "Point",
    "euclidean",
    "travel_time",
    "GridIndex",
]
