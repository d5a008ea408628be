"""HiTi-style grid hierarchy for the HYP method (paper §V-B).

The coordinate space is tiled into ``p`` grid cells; a node adjacent to
a node of another cell is a *border* node; hyper-edges between border
nodes carry the exact shortest path distance ``W*(b1, b2)``.
Following the paper's footnote 1, hyper-edges are materialized for
*any* pair of border nodes, not only same-cell pairs.
"""

from repro.hiti.partition import GridPartition, GridSpec
from repro.hiti.hyperedges import HyperEdgeSet, compute_hyperedges

__all__ = [
    "GridSpec",
    "GridPartition",
    "HyperEdgeSet",
    "compute_hyperedges",
]
