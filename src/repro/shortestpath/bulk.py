"""Bulk distance computation over the compiled graph index.

The data owner's hint construction is distance-heavy: FULL needs all
pairs, LDM needs one single-source tree per landmark, HYP one per
border node.  All three funnel through these functions so that the
construction-time *ratios* reported by the benchmarks reflect the same
backend (docs/architecture.md, "Performance").

The builds run SciPy's C ``csgraph`` routines over the cached
:class:`scipy.sparse.csr_matrix` of :meth:`SpatialGraph.to_index` — and
because the matrix is symmetric by construction, they run with
``directed=True``, which skips csgraph's undirected edge-doubling pass
and is measurably faster with identical results.

:func:`repair_distances` is the live-update side: it brings rows that
were exact before a mutation batch to exactly what a re-run would
return, touching only the labels the batch moved.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heapify, heappop, heappush
from math import inf
from typing import Sequence

import numpy as np
from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra
from scipy.sparse.csgraph import floyd_warshall as csgraph_floyd_warshall

from repro.errors import GraphError
from repro.graph.graph import ADD_EDGE, ADD_NODE, GraphMutation, SpatialGraph
from repro.graph.index import GraphIndex

#: A row repair that settles more than ``n // REPAIR_LIMIT`` labels is
#: abandoned: past that size one C Dijkstra over the whole row is the
#: cheaper way to the same result.  Abandoned rows re-run in one call.
REPAIR_LIMIT = 16


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
        return csgraph_dijkstra(index.csr_matrix(), directed=True)
    if method == "floyd-warshall":
        return csgraph_floyd_warshall(index.csr_matrix(), directed=True)
    raise GraphError(f"unknown all-pairs method {method!r}")


def _net_changes(index: GraphIndex, mutations: Sequence[GraphMutation]):
    """``(raised, lowered)`` edges, net of the whole batch: ``(a, b)``
    index pairs now heavier, ``(a, b, weight)`` now lighter, comparing
    each weight before the batch (``inf`` if added) with *index*'s
    (``inf`` if removed).  A re-weight the batch undoes is neither."""
    before: dict[tuple[int, int], float] = {}
    for mutation in mutations:
        if mutation.kind == ADD_NODE:
            raise GraphError("add-node changes the column space; rebuild instead")
        a, b = sorted((index.index_of[mutation.u], index.index_of[mutation.v]))
        if (a, b) not in before:
            before[a, b] = inf if mutation.kind == ADD_EDGE else mutation.old_weight
    raised, lowered = [], []
    nbrs = index.neighbors
    for (a, b), old in before.items():
        lo, hi = index.indptr[a], index.indptr[a + 1]
        slot = bisect_left(nbrs, b, lo, hi)
        new = index.weights[slot] if slot < hi and nbrs[slot] == b else inf
        if new > old:
            raised.append((a, b))
        elif new < old:
            lowered.append((a, b, new))
    return raised, lowered


def _repair_row(index: GraphIndex, d: memoryview, source: int, raised,
                lowered, limit: int) -> "set[int] | None":
    """Repair the row *d* in place; the columns it touched, or ``None``
    once more than *limit* labels would be settled.  *d* is a memoryview
    of a copy: list-speed indexing without ``tolist``'s cost per row."""
    indptr, nbrs, wts = index.indptr, index.neighbors, index.weights
    # 1. Walk out from the raised edges in label order.  A supporter of
    #    x is a surviving neighbour p with d[p] < d[x] and
    #    d[p] + w == d[x]; a label with none is lost, and so may be the
    #    labels at least as large that it supported.
    lost: set[int] = set()
    heap = [(d[x], x) for edge in raised for x in edge]
    heapify(heap)
    while heap:
        dx, x = heappop(heap)
        if x in lost or x == source:
            continue
        lo, hi = indptr[x], indptr[x + 1]
        for k in range(lo, hi):
            p = nbrs[k]
            dp = d[p]
            if dp < dx and dp + wts[k] == dx and p not in lost:
                break
        else:
            lost.add(x)
            if len(lost) > limit:
                return None
            for k in range(lo, hi):
                q = nbrs[k]
                if d[q] >= dx and q not in lost:
                    heappush(heap, (d[q], q))
    # 2. Re-seed lost labels from their surviving neighbours, and the
    #    far end of every lowered edge from its near end.
    for x in lost:
        d[x] = inf
    heap = []
    for x in lost:
        best = min([d[nbrs[k]] + wts[k] for k in range(indptr[x], indptr[x + 1])],
                   default=inf)
        heap.append((best, x))
    for best, x in heap:
        d[x] = best
    for a, b, w in lowered:
        for u, v in ((a, b), (b, a)):
            candidate = d[u] + w
            if candidate < d[v]:
                d[v] = candidate
                heap.append((candidate, v))
    # 3. Dijkstra from the seeds.
    heapify(heap)
    touched = set(lost)
    while heap:
        dx, x = heappop(heap)
        if dx > d[x]:
            continue
        touched.add(x)
        if len(touched) > limit:
            return None
        for k in range(indptr[x], indptr[x + 1]):
            v = nbrs[k]
            candidate = dx + wts[k]
            if candidate < d[v]:
                d[v] = candidate
                heappush(heap, (candidate, v))
    return touched


def repair_distances(
    index: GraphIndex,
    matrix: np.ndarray,
    rows: Sequence[int],
    sources: Sequence[int],
    mutations: Sequence[GraphMutation],
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """The entries of ``matrix[rows]`` that *mutations* changed.

    ``matrix[rows[i]]`` holds the exact distances from ``sources[i]``
    before the batch; *index* is the graph after it.  Returns ``(rows,
    cols, values)`` of the entries that moved, bit-identical to a
    :func:`multi_source_distances` re-run, and leaves ``matrix`` as it
    was, so a caller can reject an infinite label before any write.

    Why it is exact: SciPy's Dijkstra returns the least float path cost
    ``min_p fl(d[p] + w(p, x))``.  A label that kept a surviving, strictly
    smaller supporter is still a real path's cost, so an upper bound;
    re-seeding the lost labels and the lowered edges, then settling from
    those seeds, leaves ``d[x] <= fl(d[p] + w)`` on every edge, so every
    label is also a lower bound.  A row whose repair would settle more
    than ``n // REPAIR_LIMIT`` labels is re-run instead.
    """
    raised, lowered = _net_changes(index, mutations)
    limit = index.num_nodes // REPAIR_LIMIT
    found = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]
    redo: dict[int, int] = {}
    for row, source in zip(np.asarray(rows).tolist(), sources):
        labels = matrix[row].copy()
        touched = _repair_row(index, memoryview(labels),
                              index.index_of[source], raised, lowered, limit)
        if touched is None:
            redo[row] = index.index_of[source]
        elif touched:
            cols = np.fromiter(touched, dtype=np.intp, count=len(touched))
            found.append((np.full(len(cols), row, np.intp), cols, labels[cols]))
    if redo:
        fresh = csgraph_dijkstra(index.csr_matrix(), directed=True,
                                 indices=list(redo.values()))
        r, c = np.nonzero(fresh != matrix[list(redo)])
        found.append((np.array(list(redo), np.intp)[r], c, fresh[r, c]))
    out_rows, out_cols, values = (np.concatenate(part) for part in zip(*found))
    moved = values != matrix[out_rows, out_cols]
    return out_rows[moved], out_cols[moved], values[moved]
