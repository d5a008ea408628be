"""Shortest path computation.

The pure-Python dict Dijkstra, the array kernels over the compiled
graph index (:mod:`repro.shortestpath.kernel`: Dijkstra, and the
bounded A* cone LDM proves) used by providers, plus NumPy/SciPy bulk
backends (Floyd-Warshall, multi-source Dijkstra) used by the data
owner when materializing authenticated hints.
"""

from repro.shortestpath.bulk import all_pairs_distances, multi_source_distances
from repro.shortestpath.dijkstra import SearchResult, dijkstra, shortest_path
from repro.shortestpath.floyd_warshall import floyd_warshall
from repro.shortestpath.kernel import (
    IndexedSearchResult,
    indexed_ball,
    indexed_cone,
    indexed_dijkstra,
    indexed_multi_source,
    indexed_shortest_path,
)
from repro.shortestpath.path import Path

__all__ = [
    "Path",
    "SearchResult",
    "IndexedSearchResult",
    "dijkstra",
    "shortest_path",
    "indexed_ball",
    "indexed_cone",
    "indexed_dijkstra",
    "indexed_shortest_path",
    "indexed_multi_source",
    "floyd_warshall",
    "all_pairs_distances",
    "multi_source_distances",
]
