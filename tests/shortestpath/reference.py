"""Test-only shortest path references.

The dict-of-dicts Dijkstra (with the *target* and *radius* stopping
modes the paper needs), the textbook Floyd-Warshall of the paper's FULL
precomputation (§IV-B), a per-source multi-source loop over the
index kernel, and DIJ's provider search as two one-sided searches.
None of them serves a query: each is the independent
answer the production search (:mod:`repro.shortestpath.kernel`) and
the SciPy backends (:mod:`repro.shortestpath.bulk`) are held to.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.errors import GraphError, NoPathError
from repro.graph.graph import SpatialGraph
from repro.graph.index import GraphIndex
from repro.shortestpath.kernel import indexed_dijkstra, indexed_search
from repro.shortestpath.path import Path


@dataclass
class SearchResult:
    """Outcome of a Dijkstra expansion from one source.

    ``dist`` maps every *settled* node to its exact shortest path
    distance; ``parent`` supports path reconstruction.
    """

    source: int
    dist: dict[int, float] = field(default_factory=dict)
    parent: dict[int, int] = field(default_factory=dict)

    def path_to(self, target: int) -> Path:
        """Reconstruct the shortest path from the source to *target*."""
        if target not in self.dist:
            raise NoPathError(self.source, target)
        nodes = [target]
        while nodes[-1] != self.source:
            nodes.append(self.parent[nodes[-1]])
        nodes.reverse()
        return Path(nodes=tuple(nodes), cost=self.dist[target])


def dijkstra(
    graph: SpatialGraph,
    source: int,
    *,
    target: "int | None" = None,
    radius: "float | None" = None,
) -> SearchResult:
    """Run Dijkstra from *source*.

    * With *target*: stops when the target is settled.
    * With *radius*: settles every node at distance <= radius, then
      stops (*radius* takes precedence over *target* for stopping).
    * With neither: settles the whole connected component.
    """
    if not graph.has_node(source):
        raise GraphError(f"unknown source node {source}")
    if target is not None and not graph.has_node(target):
        raise GraphError(f"unknown target node {target}")

    result = SearchResult(source=source)
    dist = result.dist
    parent = result.parent
    heap: list[tuple[float, int]] = [(0.0, source)]
    best: dict[int, float] = {source: 0.0}

    while heap:
        d, u = heapq.heappop(heap)
        if u in dist:
            continue  # stale entry
        if radius is not None and d > radius:
            break
        dist[u] = d
        if u == target and radius is None:
            break
        for v, w in graph.neighbors(u).items():
            if v in dist:
                continue
            nd = d + w
            known = best.get(v)
            if known is None or nd < known:
                best[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    return result


def shortest_path(graph: SpatialGraph, source: int, target: int) -> Path:
    """The shortest path between two nodes (raises :class:`NoPathError`)."""
    result = dijkstra(graph, source, target=target)
    return result.path_to(target)


INF = float("inf")


def floyd_warshall(graph: SpatialGraph) -> "tuple[list[list[float]], list[int]]":
    """All-pairs shortest path distances.

    Returns ``(matrix, ids)`` where ``matrix[i][j]`` is the distance
    between ``ids[i]`` and ``ids[j]`` (``inf`` when disconnected).
    """
    ids = graph.node_ids()
    index_of = {node_id: i for i, node_id in enumerate(ids)}
    n = len(ids)
    dist = [[INF] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0.0
    for u, v, w in graph.edges():
        i, j = index_of[u], index_of[v]
        if w < dist[i][j]:
            dist[i][j] = w
            dist[j][i] = w
    for k in range(n):
        row_k = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            row_i = dist[i]
            for j in range(n):
                alt = dik + row_k[j]
                if alt < row_i[j]:
                    row_i[j] = alt
    return dist, ids


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


def one_ball_reply(method, source: int, target: int):
    """DIJ's reply for ``(source, target)`` under the paper's rule: the
    one Lemma-1 ball B_s(D), out to the provider's float margin, in
    place of the two half-balls the provider serves.

    The paper-figure tests size DIJ's bar with it (its accounting is the
    one ball); the bytes equal what the one-ball provider shipped.
    """
    from repro.core.framework import provider_margin
    from repro.core.proofs import NETWORK_TREE

    reply = method.answer(source, target)
    radius = reply.path_cost + provider_margin(reply.path_cost)
    ball = indexed_dijkstra(method.graph.to_index(), source, radius=radius)
    reply.sections = {NETWORK_TREE: method._bundle.section_for(ball.settled_ids())}
    return reply


def dij_two_searches(index: GraphIndex, source: int, target: int,
                     forced_path: "Path | None" = None):
    """DIJ's provider search as it was before it ran from both ends at
    once: ``(path, disclosed node ids)``.

    A target search from the source out to ``D + provider_margin(D)``
    (or past a forced path's cost), its ball filtered to the radius
    ``D / 2 + provider_margin(D)``, then a radius search from the
    target.  The two-sided search must disclose the same set and report
    the same ``D`` bits (:mod:`tests.core.test_dij_two_sided`).
    """
    from repro.core.framework import provider_margin

    if forced_path is None:
        ball = indexed_search(index, source, target, margin=provider_margin)
        path = ball.path_to(target)  # NoPathError if unreachable
    else:
        path = forced_path
        ball = indexed_search(index, source,
                              limit=path.cost + provider_margin(path.cost))
    radius = path.cost / 2 + provider_margin(path.cost)
    ids, dist = index.ids, ball.dist
    forward = {ids[i] for i in ball.settled_order if dist[i] <= radius}
    backward = indexed_dijkstra(index, target, radius=radius)
    return path, forward | set(backward.settled_ids())
