"""The one shortest path search, for provider and client alike.

:func:`search` is A\\* with re-opening over CSR lists (``indptr``,
``nbrs``, ``weights``; ``nbrs[k] == -1`` marks a neighbour that was not
disclosed) from row ``start`` towards row ``goal``.  Every proof method
runs it, on both sides of the wire, and differs only in three rules:

* **bound** — an admissible lower bound on the distance to the goal,
  called once per row the search reaches, so its cost follows the cone;
  ``None`` is the zero bound, i.e. Dijkstra;
* **stop** — on the goal's pop, stop (no *margin*), or admit only keys
  ``<= d + margin(d)`` from then on; a fixed *limit* caps keys from the
  start;
* **gap** — an edge into an undisclosed row at tentative distance
  ``<= gap`` ends the search and is reported.

A *finish* row runs a second Dijkstra in the same heap (Pohl's
bidirectional rule), which is DIJ's proof search.
Rows are in ascending node id order, so equal keys pop in id order.
:func:`indexed_search` is the by-node-id entry point over a compiled
:class:`GraphIndex`; :func:`indexed_dijkstra` and
:func:`indexed_shortest_path` are its Dijkstra spellings.
"""

from __future__ import annotations

import heapq
from math import inf
from typing import Callable, NamedTuple

from repro.errors import GraphError, NoPathError
from repro.graph.index import GraphIndex
from repro.shortestpath.path import Path

__all__ = [
    "IndexedSearchResult",
    "Search",
    "indexed_dijkstra",
    "indexed_search",
    "indexed_shortest_path",
    "node_rows",
    "search",
]


class Search(NamedTuple):
    """What one :func:`search` found, by row.

    ``order`` lists the expanded rows in first-expansion order, ``dist``
    their final distances (``inf`` elsewhere, the unexpanded frontier
    included) and ``parent`` each reached row's predecessor (-1 at the
    start).  ``gap`` is ``(row, edge, distance)`` when an edge into an
    undisclosed node ended the search; ``cut`` is true when the limit
    stopped it with routes still queued.  ``route`` is a two-sided
    search's path rows and cost.
    """

    dist: "list[float]"
    parent: "list[int]"
    order: "list[int]"
    gap: "tuple[int, int, float] | None"
    cut: bool
    route: "tuple[list[int], float] | None" = None


def search(
    indptr: "list[int]",
    nbrs: "list[int]",
    weights: "list[float]",
    start: int,
    goal: int = -1,
    *,
    bound: "Callable[[int], float] | None" = None,
    margin: "Callable[[float], float] | None" = None,
    limit: float = inf,
    gap: float = -inf,
    finish: int = -1,
) -> Search:
    """A\\* from row *start* under the three rules of the module doc.

    The bound must be admissible but need not be consistent: a row whose
    distance improves after its expansion is re-opened, so the goal's
    first pop is still optimal.  Every row expands with a key within the
    final limit, so the expanded set is every row reachable by a path
    whose every prefix stays within it, whatever the pop order.  An
    expanded row's distance is final once the limit stops the search or
    the heap runs dry: a later improvement has a smaller key, so it
    re-expands first.  A stopping goal's own distance is final at its
    pop, and that pop is never cut.  ``goal = -1`` means no goal.

    A *finish* row (no bound, no goal) over :meth:`GraphIndex.twin_lists`
    starts a Dijkstra from its twin in the same heap.  A pop of a row
    both sides labelled offers a route of cost μ; once keys reach
    ``(μ + margin(μ)) / 2`` each shortest route's two halves have
    popped, :func:`_onward` fixes ``route``, and *margin* caps both
    sides at ``D / 2 + margin(D)`` (with no margin, both run to *limit*).
    """
    n = len(indptr) - 1
    best = [inf] * n
    dist = [inf] * n
    parent = [-1] * n
    h: "list[float | None]" = [None] * n if bound is not None else []
    order: list[int] = []
    pop = heapq.heappop
    push = heapq.heappush
    hit = route = None
    cut = False

    best[start] = 0.0
    heap: list[tuple[float, float, int]] = [
        (0.0 if bound is None else bound(start), 0.0, start)]
    twin = 0
    if finish >= 0:
        best[finish + n // 2] = 0.0
        heap.append((0.0, 0.0, finish + n // 2))
        if margin is not None:
            twin, mu, cap = n // 2, inf, inf
    while heap:
        key, d, u = pop(heap)
        if d > best[u]:
            continue  # superseded by a re-opening
        if twin:
            m = u % twin
            if best[m] + best[m + twin] < mu:
                mu = best[m] + best[m + twin]
                cap = mu + margin(mu)
            if 2 * key >= cap:
                route = _onward(indptr, nbrs, weights, best, dist, parent,
                                order, finish, twin, cap)
                limit = route[1] / 2 + margin(route[1])
                twin = 0
        if u == goal:
            if margin is not None:
                limit = d + margin(d)
                goal = -1
        elif key > limit:
            cut = True
            break
        if dist[u] == inf:
            order.append(u)
        dist[u] = d
        if u == goal:
            break
        for k in range(indptr[u], indptr[u + 1]):
            v = nbrs[k]
            nd = d + weights[k]
            if v < 0:
                if nd <= gap:
                    hit = (u, k, nd)
                    break
            elif nd < best[v]:
                best[v] = nd
                parent[v] = u
                if bound is None:
                    push(heap, (nd, nd, v))
                else:
                    hv = h[v]
                    if hv is None:
                        hv = h[v] = bound(v)
                    push(heap, (nd + hv, nd, v))
        else:
            continue
        break  # a gap
    if twin and mu < inf:  # the heap ran dry first
        route = _onward(indptr, nbrs, weights, best, dist, parent, order,
                        finish, twin, inf)
    return Search(dist, parent, order, hit, cut, route)


def _onward(indptr, nbrs, weights, best, dist, parent, order, finish,
            half, cap):
    """The start's Dijkstra carried on from its frontier to the finish,
    through rows the finish's side expanded at ``d + d_t <= cap``: every
    route folding to ``D`` lies there, so this is the route and the bits
    of a one-sided search (a near-tie can fold to other bits from μ)."""
    label = {v - half: best[v - half] for v in order  # labelled, unexpanded
             if v >= half and best[v - half] < dist[v - half]}
    via = {v: parent[v] for v in label}
    heap = sorted((d, v) for v, d in label.items())
    while heap and dist[finish] == inf:
        d, v = heapq.heappop(heap)
        if v == finish:
            break
        if d > label[v] or d + dist[v + half] > cap:
            continue
        for k in range(indptr[v], indptr[v + 1]):
            w, nd = nbrs[k], d + weights[k]
            if dist[w] == inf and nd < label.get(w, inf):
                label[w], via[w] = nd, v
                heapq.heappush(heap, (nd, w))
    rows = [finish]
    while (p := via.get(rows[-1], parent[rows[-1]])) >= 0:
        rows.append(p)
    return rows[::-1], min(dist[finish], label.get(finish, inf))


class IndexedSearchResult:
    """A :func:`search` over a :class:`GraphIndex`, readable by node id.

    ``dist`` and ``parent`` are arrays keyed by node *index*;
    ``settled_order`` lists expanded indices in expansion order.
    """

    __slots__ = ("index", "source", "dist", "parent", "settled_order")

    def __init__(self, index: GraphIndex, source: int, run: Search) -> None:
        self.index = index
        self.source = source
        self.dist = run.dist
        self.parent = run.parent
        self.settled_order = run.order

    def settled_ids(self) -> "list[int]":
        """Ids of all settled nodes, in settlement order."""
        ids = self.index.ids
        return [ids[i] for i in self.settled_order]

    def distances(self) -> "dict[int, float]":
        """Settled distance by node id, in settlement order."""
        ids, dist = self.index.ids, self.dist
        return {ids[i]: dist[i] for i in self.settled_order}

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


def indexed_search(
    index: GraphIndex,
    source: int,
    target: "int | None" = None,
    *,
    bound: "Callable[[int], float] | None" = None,
    margin: "Callable[[float], float] | None" = None,
    limit: float = inf,
) -> IndexedSearchResult:
    """:func:`search` from node id *source* towards *target* (or no goal).

    Raises :class:`GraphError` for an unknown node.  A target the search
    does not reach stays unsettled, so ``path_to`` raises
    :class:`NoPathError`.
    """
    run = search(index.indptr, index.neighbors, index.weights,
                 *node_rows(index, source, target),
                 bound=bound, margin=margin, limit=limit)
    return IndexedSearchResult(index, source, run)


def node_rows(index: GraphIndex, source: int,
              target: "int | None") -> "tuple[int, int]":
    """The rows of two node ids (-1 for ``None``), or :class:`GraphError`."""
    index_of = index.index_of
    for role, node_id in (("source", source), ("target", target)):
        if node_id is not None and node_id not in index_of:
            raise GraphError(f"unknown {role} node {node_id}")
    return index_of[source], index_of.get(target, -1)


def indexed_dijkstra(
    index: GraphIndex,
    source: int,
    *,
    target: "int | None" = None,
    radius: "float | None" = None,
) -> IndexedSearchResult:
    """Dijkstra from *source*: with *radius*, settle every node at
    distance ``<= radius``; else with *target*, stop once it settles;
    with neither, settle the component."""
    if radius is not None:
        return indexed_search(index, source, limit=radius)
    return indexed_search(index, source, target)


def indexed_shortest_path(index: GraphIndex, source: int, target: int) -> Path:
    """Shortest path between two nodes (raises :class:`NoPathError`)."""
    return indexed_search(index, source, target).path_to(target)
