"""Array-based Dijkstra kernel over a compiled :class:`GraphIndex`.

This is the provider's hot path.  The dict kernel in
:mod:`repro.shortestpath.dijkstra` pays a method call, a mapping-proxy
wrapper and a dict-items iterator per expanded node, plus hashed dict
lookups per relaxed edge; this kernel runs over the flat
``indptr`` / ``neighbors`` / ``weights`` arrays with list indexing
only.  Semantics are identical (see
``tests/shortestpath/test_kernel_equivalence.py``):

* *target* mode — stop as soon as the target is settled;
* *radius* mode — settle every node with ``dist <= radius`` (radius
  takes precedence over target for stopping);
* neither — settle the whole connected component;
* heap ties break on node order, and node index order equals node id
  order, so tie-breaking matches the dict kernel too.

A *multi-source* mode (:func:`indexed_multi_source`) is the pure-Python
reference the SciPy-backed :mod:`repro.shortestpath.bulk` is tested
against.  :func:`indexed_cone` is the bounded A* the LDM provider
runs instead of a Dijkstra ball.
"""

from __future__ import annotations

import heapq
from math import inf
from typing import Callable

from repro.errors import GraphError, NoPathError
from repro.graph.index import GraphIndex
from repro.shortestpath.path import Path

__all__ = [
    "IndexedSearchResult",
    "indexed_ball",
    "indexed_cone",
    "indexed_dijkstra",
    "indexed_multi_source",
    "indexed_shortest_path",
]


class IndexedSearchResult:
    """Outcome of one indexed expansion (Dijkstra, or the A* cone).

    Distances and parents are arrays keyed by node *index*;
    ``settled_order`` lists settled indices in settlement order.  The
    id-keyed adapters (:meth:`distances`, :meth:`settled_ids`,
    :meth:`path_to`) make the result a drop-in replacement for the dict
    kernel's :class:`~repro.shortestpath.dijkstra.SearchResult`.
    """

    __slots__ = ("index", "source", "dist", "parent", "settled_order")

    def __init__(self, index: GraphIndex, source: int, dist: "list[float]",
                 parent: "list[int]", settled_order: "list[int]") -> None:
        self.index = index
        self.source = source
        #: Settled distance per node index (``inf`` when unsettled).
        self.dist = dist
        #: Predecessor node index per node index (-1 at the source/unreached).
        self.parent = parent
        #: Node indices in settlement order.
        self.settled_order = settled_order

    # -- id-keyed adapters ---------------------------------------------
    def settled_ids(self) -> "list[int]":
        """Ids of all settled nodes, in settlement order."""
        ids = self.index.ids
        return [ids[i] for i in self.settled_order]

    def settled_items(self) -> "list[tuple[int, float]]":
        """``(node id, distance)`` for all settled nodes, in settle order."""
        ids = self.index.ids
        dist = self.dist
        return [(ids[i], dist[i]) for i in self.settled_order]

    def distances(self) -> "dict[int, float]":
        """Id-keyed settled-distance mapping (dict-kernel compatible)."""
        return dict(self.settled_items())

    def dist_of(self, node_id: int) -> "float | None":
        """Settled distance of *node_id*, or ``None`` when unsettled."""
        d = self.dist[self.index.index(node_id)]
        return None if d == inf else d

    def path_to(self, target: int) -> Path:
        """Reconstruct the shortest path from the source to *target*."""
        t = self.index.index(target)
        if self.dist[t] == inf:
            raise NoPathError(self.source, target)
        ids = self.index.ids
        parent = self.parent
        nodes = [ids[t]]
        u = t
        while ids[u] != self.source:
            u = parent[u]
            nodes.append(ids[u])
        nodes.reverse()
        return Path(nodes=tuple(nodes), cost=self.dist[t])


def indexed_dijkstra(
    index: GraphIndex,
    source: int,
    *,
    target: "int | None" = None,
    radius: "float | None" = None,
) -> IndexedSearchResult:
    """Run Dijkstra from *source* over the compiled arrays.

    Mirrors :func:`repro.shortestpath.dijkstra.dijkstra` exactly: with
    *target* it stops when the target is settled; with *radius* it
    settles every node at distance <= radius (radius takes precedence
    for stopping); with neither it settles the component.
    """
    try:
        s = index.index_of[source]
    except KeyError:
        raise GraphError(f"unknown source node {source}") from None
    t = -1
    if target is not None:
        try:
            t = index.index_of[target]
        except KeyError:
            raise GraphError(f"unknown target node {target}") from None

    n = index.num_nodes
    indptr = index.indptr
    nbrs = index.neighbors
    wts = index.weights
    dist = [inf] * n
    best = [inf] * n
    parent = [-1] * n
    settled = bytearray(n)
    order: list[int] = []

    best[s] = 0.0
    heap: list[tuple[float, int]] = [(0.0, s)]
    pop = heapq.heappop
    push = heapq.heappush
    bounded = radius is not None

    while heap:
        d, u = pop(heap)
        if settled[u]:
            continue  # stale entry
        if bounded and d > radius:
            break
        settled[u] = 1
        dist[u] = d
        order.append(u)
        if u == t and not bounded:
            break
        for k in range(indptr[u], indptr[u + 1]):
            v = nbrs[k]
            if settled[v]:
                continue
            nd = d + wts[k]
            if nd < best[v]:
                best[v] = nd
                parent[v] = u
                push(heap, (nd, v))
    return IndexedSearchResult(index, source, dist, parent, order)


def indexed_shortest_path(index: GraphIndex, source: int, target: int) -> Path:
    """Shortest path between two nodes (raises :class:`NoPathError`)."""
    return indexed_dijkstra(index, source, target=target).path_to(target)


def indexed_ball(
    index: GraphIndex,
    source: int,
    target: int,
) -> IndexedSearchResult:
    """One fused expansion: settle *target*, then fill the Lemma-1 ball.

    Equivalent to a target-mode run followed by a radius-mode run with
    ``radius = dist(source, target)`` — DIJ needs both the path and the
    ball, and the two runs share their entire prefix, so fusing them
    halves its search cost.
    Identical output is guaranteed because the heap/relaxation sequence
    matches the separate runs step for step: parents of settled nodes
    are frozen, so the path is the target-run's path, and the settled
    set is the radius-run's ball.

    When the target is unreachable, the returned result leaves it
    unsettled (``path_to`` raises :class:`NoPathError`), matching the
    unbounded kernel.
    """
    try:
        s = index.index_of[source]
    except KeyError:
        raise GraphError(f"unknown source node {source}") from None
    try:
        t = index.index_of[target]
    except KeyError:
        raise GraphError(f"unknown target node {target}") from None

    n = index.num_nodes
    indptr = index.indptr
    nbrs = index.neighbors
    wts = index.weights
    dist = [inf] * n
    best = [inf] * n
    parent = [-1] * n
    settled = bytearray(n)
    order: list[int] = []

    best[s] = 0.0
    heap: list[tuple[float, int]] = [(0.0, s)]
    pop = heapq.heappop
    push = heapq.heappush
    radius = inf

    while heap:
        d, u = pop(heap)
        if settled[u]:
            continue  # stale entry
        if d > radius:
            break
        settled[u] = 1
        dist[u] = d
        order.append(u)
        if u == t:
            radius = d
        for k in range(indptr[u], indptr[u + 1]):
            v = nbrs[k]
            if settled[v]:
                continue
            nd = d + wts[k]
            if nd < best[v]:
                best[v] = nd
                parent[v] = u
                push(heap, (nd, v))
    return IndexedSearchResult(index, source, dist, parent, order)


def indexed_cone(
    index: GraphIndex,
    source: int,
    target: int,
    bound: "Callable[[int], float]",
    *,
    margin: "Callable[[float], float]",
    radius: "float | None" = None,
) -> IndexedSearchResult:
    """Label-correcting A* under *bound*, out to the Lemma-2 radius.

    ``bound(i)`` lower-bounds the distance from node index ``i`` to
    *target*.  It is called once per node the search reaches, so its
    cost follows the cone, not the graph.  It must be admissible but
    need not be consistent, so a node whose distance improves after its
    expansion is re-opened and the target's first pop is still optimal.
    When the target first pops at distance ``d`` the search admits only
    keys ``<= d + margin(d)``; a given *radius* sets that limit from the
    first pop instead, and the target's pop then changes nothing.  Every
    node expands with a key within the final limit, so the expanded set
    is every node reachable by a path whose every prefix stays within
    it: whatever order a search under the same bound pops in, it pops
    nothing outside that set.

    ``settled_order`` lists expanded indices in first-expansion order,
    and ``dist`` holds their final distances (``inf`` elsewhere, the
    unexpanded frontier included).  A target the limit cuts off stays
    unexpanded, so ``path_to`` raises :class:`NoPathError` only then.
    """
    try:
        s = index.index_of[source]
    except KeyError:
        raise GraphError(f"unknown source node {source}") from None
    try:
        t = index.index_of[target]
    except KeyError:
        raise GraphError(f"unknown target node {target}") from None

    n = index.num_nodes
    indptr = index.indptr
    nbrs = index.neighbors
    wts = index.weights
    best = [inf] * n
    parent = [-1] * n
    h: "list[float | None]" = [None] * n
    expanded = bytearray(n)
    order: list[int] = []

    best[s] = 0.0
    heap: list[tuple[float, float, int]] = [(bound(s), 0.0, s)]
    pop = heapq.heappop
    push = heapq.heappush
    limit = inf if radius is None else radius
    waiting = radius is None

    while heap:
        key, d, u = pop(heap)
        if d > best[u]:
            continue  # superseded by a re-opening
        if key > limit:
            break
        if not expanded[u]:
            expanded[u] = 1
            order.append(u)
        if u == t and waiting:
            limit = d + margin(d)
            waiting = False
        for k in range(indptr[u], indptr[u + 1]):
            v = nbrs[k]
            nd = d + wts[k]
            if nd < best[v]:
                best[v] = nd
                parent[v] = u
                hv = h[v]
                if hv is None:
                    hv = h[v] = bound(v)
                push(heap, (nd + hv, nd, v))
    # An expanded node's distance is final: a later improvement has a
    # smaller key, so it re-expands before the limit stops the search.
    dist = [inf] * n
    for u in order:
        dist[u] = best[u]
    return IndexedSearchResult(index, source, dist, parent, order)


def indexed_multi_source(index: GraphIndex, sources: "list[int]"):
    """Distances from each source to every node, as a dense array.

    Pure-Python reference for
    :func:`repro.shortestpath.bulk.multi_source_distances`: returns a
    ``(len(sources), |V|)`` float64 NumPy array in index (== ascending
    id) order, with ``inf`` for unreachable nodes.
    """
    import numpy as np

    out = np.empty((len(sources), index.num_nodes))
    for row, source in enumerate(sources):
        if source not in index.index_of:
            raise GraphError(f"unknown source node {source}")
        result = indexed_dijkstra(index, source)
        out[row] = result.dist
    return out
