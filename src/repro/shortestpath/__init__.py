"""Shortest path computation.

One search (:mod:`repro.shortestpath.kernel`): A* with re-opening over
CSR lists under an admissible bound, a stop rule on the goal's pop and
a gap rule for undisclosed neighbours.  Every provider and every
client runs it.  The data owner's NumPy/SciPy bulk backends
(:mod:`repro.shortestpath.bulk`: all-pairs and multi-source distances,
incremental repair) materialize the authenticated hints.
"""

from repro.shortestpath.bulk import all_pairs_distances, multi_source_distances
from repro.shortestpath.kernel import (
    IndexedSearchResult,
    Search,
    indexed_dijkstra,
    indexed_search,
    indexed_shortest_path,
    search,
)
from repro.shortestpath.path import Path

__all__ = [
    "Path",
    "Search",
    "IndexedSearchResult",
    "search",
    "indexed_search",
    "indexed_dijkstra",
    "indexed_shortest_path",
    "all_pairs_distances",
    "multi_source_distances",
]
