"""Bulk distance computation over the compiled graph index.

The data owner's hint construction is distance-heavy: FULL needs all
pairs, LDM needs one single-source tree per landmark, HYP one per
border node.  All three funnel through these two functions so that the
construction-time *ratios* reported by the benchmarks reflect the same
backend (docs/architecture.md, "Performance").

Both functions run over :meth:`SpatialGraph.to_index`'s CSR arrays.
With SciPy present (the normal case) the C ``csgraph`` routines consume
the cached :class:`scipy.sparse.csr_matrix` built from those arrays —
and because the matrix is symmetric by construction, they run with
``directed=True``, which skips csgraph's undirected edge-doubling pass
and is measurably faster with identical results.  Without SciPy, the
pure-Python array kernel (:mod:`repro.shortestpath.kernel`) computes
the same distances, so owner-side construction keeps working on
minimal installs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import GraphError
from repro.graph.graph import SpatialGraph
from repro.shortestpath.kernel import indexed_multi_source

try:
    from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra
    from scipy.sparse.csgraph import floyd_warshall as csgraph_floyd_warshall

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover - exercised on minimal installs
    HAVE_SCIPY = False


def multi_source_distances(graph: SpatialGraph, sources: Sequence[int]) -> np.ndarray:
    """Distances from each source to every node.

    Returns a ``(len(sources), |V|)`` float64 array; columns follow
    ``graph.node_ids()`` order; unreachable entries are ``inf``.
    """
    index = graph.to_index()
    try:
        rows = [index.index_of[s] for s in sources]
    except KeyError as exc:
        raise GraphError(f"unknown source node {exc.args[0]}") from None
    if not rows:
        return np.empty((0, index.num_nodes))
    if not HAVE_SCIPY:
        return indexed_multi_source(index, list(sources))
    return csgraph_dijkstra(index.csr_matrix(), directed=True, indices=rows)


def all_pairs_distances(graph: SpatialGraph, *, method: str = "auto") -> np.ndarray:
    """All-pairs distance matrix in ``graph.node_ids()`` order.

    ``method``:

    * ``"auto"`` — Dijkstra from every node (fastest on sparse road
      networks);
    * ``"floyd-warshall"`` — SciPy's dense Floyd-Warshall, matching the
      paper's prescribed algorithm at ``O(|V|^3)``.
    """
    index = graph.to_index()
    if method == "auto":
        if not HAVE_SCIPY:
            return indexed_multi_source(index, index.ids)
        return csgraph_dijkstra(index.csr_matrix(), directed=True)
    if method == "floyd-warshall":
        if not HAVE_SCIPY:
            raise GraphError("floyd-warshall requires scipy; use method='auto'")
        return csgraph_floyd_warshall(index.csr_matrix(), directed=True)
    raise GraphError(f"unknown all-pairs method {method!r}")
