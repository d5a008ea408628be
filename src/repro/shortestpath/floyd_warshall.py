"""Pure-Python Floyd-Warshall (the paper's FULL precomputation, §IV-B).

This is the textbook ``O(|V|^3)`` algorithm the paper prescribes for
FULL.  It is used directly on small graphs and in tests; at benchmark
scale the owner uses :func:`repro.shortestpath.bulk.all_pairs_distances`
(SciPy) instead, which computes identical values faster — see
docs/architecture.md, "Performance: the compiled-layout fast path".
"""

from __future__ import annotations

from repro.graph.graph import SpatialGraph

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
