"""Undirected weighted spatial graph.

This is the substrate every other subsystem builds on: orderings walk
it, Merkle trees authenticate its extended tuples, shortest path
algorithms search it, and the HiTi partition tiles its coordinate
space.

Design notes
------------
* Adjacency is a ``dict[int, dict[int, float]]`` — node id to
  ``{neighbor id: weight}``.  Road networks are sparse (|E| ~ |V|), so
  hash maps beat matrices by orders of magnitude in memory.
* Hot paths never walk the dicts: :meth:`SpatialGraph.to_index`
  compiles the adjacency into contiguous CSR-style arrays
  (:class:`~repro.graph.index.GraphIndex`) that the array Dijkstra
  kernel and the SciPy bulk backends consume directly.
* Bulk distance computations (all-pairs for FULL, multi-source for
  LDM/HYP construction) go through :meth:`SpatialGraph.to_csr`, which
  exports a cached :class:`scipy.sparse.csr_matrix` plus the id <->
  index maps (derived from the same index snapshot).
* Mutation bumps an internal version counter that invalidates the
  index and CSR caches, so callers can freely interleave edits and
  exports.
* Every mutation is also appended to a :class:`GraphMutation`
  changelog, so owner-side incremental re-authentication
  (:meth:`repro.core.method.VerificationMethod.apply_update`) can
  replay exactly the edits it has not yet absorbed instead of
  diffing the whole graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from repro.errors import GraphError
from repro.graph.index import GraphIndex, build_graph_index


#: Changelog mutation kinds.
ADD_NODE = "add-node"
ADD_EDGE = "add-edge"
UPDATE_WEIGHT = "update-weight"
REMOVE_EDGE = "remove-edge"

#: Mutation kinds that change the adjacency *structure* (not just a
#: weight).  Adjacency-dependent leaf orderings (bfs/dfs) are only
#: stable across weight changes, so incremental re-authentication
#: checks pending mutations against this set.
TOPOLOGY_KINDS = frozenset({ADD_NODE, ADD_EDGE, REMOVE_EDGE})


@dataclass(frozen=True, slots=True)
class GraphMutation:
    """One changelog entry: what changed and the version it produced.

    ``old_weight`` carries the pre-mutation weight for
    ``update-weight`` / ``remove-edge`` entries (``nan`` otherwise);
    incremental re-authentication needs it to decide which distances a
    weight change can possibly have touched.
    """

    kind: str
    u: int
    v: int = -1
    weight: float = math.nan
    old_weight: float = math.nan
    version: int = 0


@dataclass(frozen=True, slots=True)
class Node:
    """A graph node: identifier plus planar coordinates.

    For non-spatial graphs the paper substitutes nulls for coordinates;
    here use ``0.0`` and pick a non-spatial ordering (bfs/dfs/random).
    """

    id: int
    x: float
    y: float


class SpatialGraph:
    """Undirected weighted graph with node coordinates.

    >>> g = SpatialGraph()
    >>> g.add_node(1, 0.0, 0.0); g.add_node(2, 3.0, 4.0)
    >>> g.add_edge(1, 2, 5.0)
    >>> g.weight(1, 2)
    5.0
    """

    __slots__ = ("_nodes", "_adj", "_num_edges", "_version", "_csr_cache",
                 "_index_cache", "_changelog", "_changelog_base")

    def __init__(self) -> None:
        self._nodes: dict[int, Node] = {}
        self._adj: dict[int, dict[int, float]] = {}
        self._num_edges = 0
        self._version = 0
        self._csr_cache: tuple[int, object] | None = None
        self._index_cache: tuple[int, GraphIndex] | None = None
        self._changelog: list[GraphMutation] = []
        #: Version of the oldest retained changelog entry minus one —
        #: entries before it were dropped by :meth:`trim_changelog`.
        self._changelog_base = 0

    def _record(self, kind: str, u: int, v: int = -1,
                weight: float = math.nan,
                old_weight: float = math.nan) -> None:
        """Bump the version and append the matching changelog entry."""
        self._version += 1
        self._changelog.append(GraphMutation(
            kind, u, v, weight, old_weight, self._version,
        ))

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node_id: int, x: float = 0.0, y: float = 0.0) -> None:
        """Add a node; re-adding an existing id with new coords is an error."""
        if node_id in self._nodes:
            existing = self._nodes[node_id]
            if existing.x != x or existing.y != y:
                raise GraphError(
                    f"node {node_id} already exists at ({existing.x}, {existing.y})"
                )
            return
        self._nodes[node_id] = Node(node_id, float(x), float(y))
        self._adj[node_id] = {}
        self._record(ADD_NODE, node_id)

    def add_edge(self, u: int, v: int, weight: float) -> None:
        """Add an undirected edge; both endpoints must already exist.

        Re-adding an existing edge overwrites its weight and is logged
        as an ``update-weight`` mutation (not a structural change).
        """
        if u == v:
            raise GraphError(f"self-loop on node {u} is not allowed")
        if u not in self._nodes or v not in self._nodes:
            missing = u if u not in self._nodes else v
            raise GraphError(f"edge ({u}, {v}) references unknown node {missing}")
        weight = float(weight)
        if weight < 0 or math.isnan(weight) or math.isinf(weight):
            raise GraphError(f"edge ({u}, {v}) has invalid weight {weight}")
        old = self._adj[u].get(v)
        if old is None:
            self._num_edges += 1
            self._adj[u][v] = weight
            self._adj[v][u] = weight
            self._record(ADD_EDGE, u, v, weight)
            return
        self._adj[u][v] = weight
        self._adj[v][u] = weight
        self._record(UPDATE_WEIGHT, u, v, weight, old)

    def update_edge_weight(self, u: int, v: int, weight: float) -> None:
        """Re-weight an *existing* undirected edge.

        The explicit live-update entry point: unlike :meth:`add_edge`
        it refuses to create the edge, so a typo'd node pair fails
        loudly instead of silently growing the network.
        """
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u}, {v}) does not exist")
        weight = float(weight)
        if weight < 0 or math.isnan(weight) or math.isinf(weight):
            raise GraphError(f"edge ({u}, {v}) has invalid weight {weight}")
        old = self._adj[u][v]
        self._adj[u][v] = weight
        self._adj[v][u] = weight
        self._record(UPDATE_WEIGHT, u, v, weight, old)

    def remove_edge(self, u: int, v: int) -> None:
        """Remove an undirected edge (closures, tamper/ablation tooling)."""
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u}, {v}) does not exist")
        old = self._adj[u][v]
        del self._adj[u][v]
        del self._adj[v][u]
        self._num_edges -= 1
        self._record(REMOVE_EDGE, u, v, math.nan, old)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def has_node(self, node_id: int) -> bool:
        """True if *node_id* is in the graph."""
        return node_id in self._nodes

    def has_edge(self, u: int, v: int) -> bool:
        """True if the undirected edge (u, v) exists."""
        return u in self._adj and v in self._adj[u]

    def node(self, node_id: int) -> Node:
        """The :class:`Node` record for *node_id*."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise GraphError(f"unknown node {node_id}") from None

    def weight(self, u: int, v: int) -> float:
        """Weight of edge (u, v)."""
        try:
            return self._adj[u][v]
        except KeyError:
            raise GraphError(f"edge ({u}, {v}) does not exist") from None

    def neighbors(self, node_id: int) -> Mapping[int, float]:
        """Read-only view of ``{neighbor: weight}`` for *node_id*.

        The view is a :class:`types.MappingProxyType`: mutating it
        raises ``TypeError``, so callers cannot corrupt the adjacency
        (or bypass the version counter) through a leaked reference.
        """
        try:
            return MappingProxyType(self._adj[node_id])
        except KeyError:
            raise GraphError(f"unknown node {node_id}") from None

    def degree(self, node_id: int) -> int:
        """Number of incident edges."""
        try:
            return len(self._adj[node_id])
        except KeyError:
            raise GraphError(f"unknown node {node_id}") from None

    @property
    def version(self) -> int:
        """Monotonic mutation counter.

        Every structural change (node/edge add or remove) bumps it, so
        derived caches — the CSR export here, proof caches in
        :mod:`repro.service` — can detect staleness with one integer
        comparison.
        """
        return self._version

    @property
    def changelog(self) -> tuple[GraphMutation, ...]:
        """The retained mutation history, oldest first."""
        return tuple(self._changelog)

    def mutations_since(self, version: int) -> tuple[GraphMutation, ...]:
        """Mutations applied after the graph was at *version*.

        Every version bump appends exactly one changelog entry, so the
        slice is an O(1) index, not a scan.  Raises when *version* is
        ahead of the graph or behind the retained history (entries
        dropped by :meth:`trim_changelog`).
        """
        if not self._changelog_base <= version <= self._version:
            raise GraphError(
                f"version {version} outside the retained changelog "
                f"[{self._changelog_base}, {self._version}]"
            )
        return tuple(self._changelog[version - self._changelog_base:])

    def trim_changelog(self, before_version: int) -> None:
        """Drop changelog entries at or below *before_version*.

        A long-lived owner absorbing a steady update stream calls this
        with the version every consumer has already synced past
        (:class:`~repro.service.server.ProofServer` does so after each
        successful update batch), keeping memory flat.  Trimming never
        touches the graph itself; it only limits how far back
        :meth:`mutations_since` and :meth:`rollback_to` can reach.
        """
        before_version = min(before_version, self._version)
        if before_version <= self._changelog_base:
            return
        del self._changelog[: before_version - self._changelog_base]
        self._changelog_base = before_version

    @classmethod
    def from_parts(
        cls,
        nodes: "Iterable[tuple[int, float, float]]",
        edges: "Iterable[tuple[int, int, float]]",
        *,
        version: int = 0,
    ) -> "SpatialGraph":
        """Bulk-construct from pre-validated parts (the rehydration path).

        Installs nodes and undirected edges directly into the adjacency
        maps — no per-operation validation, no changelog entries — and
        starts the mutation counter at *version* with an empty retained
        history: the construction is not an owner edit, so
        :meth:`mutations_since` replays only edits made after it.

        **Trusted callers only**: the caller guarantees unique node
        ids, edges between existing distinct nodes, no duplicates, and
        finite non-negative weights (the artifact loader checks all of
        this vectorized before calling).  Feeding unchecked data here
        bypasses the invariants :meth:`add_edge` enforces.
        """
        graph = cls()
        nodes_map = graph._nodes
        adjacency = graph._adj
        for node_id, x, y in nodes:
            nodes_map[node_id] = Node(node_id, x, y)
            adjacency[node_id] = {}
        count = 0
        for u, v, w in edges:
            adjacency[u][v] = w
            adjacency[v][u] = w
            count += 1
        graph._num_edges = count
        graph._version = version
        graph._changelog_base = version
        return graph

    def rollback_to(self, version: int) -> None:
        """Inverse-apply retained mutations back to the state at *version*.

        Restores nodes/edges/weights as of *version* by applying each
        newer edge mutation in reverse (the changelog records old
        weights).  The version counter keeps moving forward — a
        rollback is itself a sequence of mutations, so caches and
        derived structures invalidate normally.  Node additions have
        no inverse and raise.
        """
        for mutation in reversed(self.mutations_since(version)):
            if mutation.kind == UPDATE_WEIGHT:
                self.update_edge_weight(mutation.u, mutation.v,
                                        mutation.old_weight)
            elif mutation.kind == ADD_EDGE:
                self.remove_edge(mutation.u, mutation.v)
            elif mutation.kind == REMOVE_EDGE:
                self.add_edge(mutation.u, mutation.v, mutation.old_weight)
            else:
                raise GraphError(
                    f"cannot roll back mutation kind {mutation.kind!r}"
                )

    @property
    def num_nodes(self) -> int:
        """|V|."""
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        """|E| (each undirected edge counted once)."""
        return self._num_edges

    def node_ids(self) -> list[int]:
        """Sorted list of node ids."""
        return sorted(self._nodes)

    def nodes(self) -> Iterator[Node]:
        """Iterate nodes in ascending id order."""
        for node_id in self.node_ids():
            yield self._nodes[node_id]

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate undirected edges once each, as ``(u, v, w)`` with u < v."""
        for u in self.node_ids():
            for v, w in sorted(self._adj[u].items()):
                if u < v:
                    yield (u, v, w)

    def bounding_box(self) -> tuple[float, float, float, float]:
        """``(min_x, min_y, max_x, max_y)`` over all node coordinates."""
        if not self._nodes:
            raise GraphError("bounding box of an empty graph")
        xs = [n.x for n in self._nodes.values()]
        ys = [n.y for n in self._nodes.values()]
        return (min(xs), min(ys), max(xs), max(ys))

    def euclidean(self, u: int, v: int) -> float:
        """Euclidean distance between the coordinates of two nodes."""
        a, b = self.node(u), self.node(v)
        return math.hypot(a.x - b.x, a.y - b.y)

    # ------------------------------------------------------------------
    # derived structures
    # ------------------------------------------------------------------
    def subgraph(self, node_ids: Iterable[int]) -> "SpatialGraph":
        """Induced subgraph on *node_ids* (edges with both endpoints kept)."""
        keep = set(node_ids)
        sub = SpatialGraph()
        for node_id in keep:
            node = self.node(node_id)
            sub.add_node(node.id, node.x, node.y)
        for node_id in keep:
            for nbr, w in self._adj[node_id].items():
                if nbr in keep and node_id < nbr:
                    sub.add_edge(node_id, nbr, w)
        return sub

    def copy(self) -> "SpatialGraph":
        """Deep copy."""
        return self.subgraph(self._nodes)

    def to_index(self) -> GraphIndex:
        """Compile the adjacency into a :class:`GraphIndex` snapshot.

        Contiguous ``indptr`` / ``neighbors`` / ``weights`` arrays plus
        the id <-> index maps, in ascending id order with each node's
        neighbor run sorted by id.  Cached until the graph is mutated,
        so repeated hot-path queries share one compiled layout.
        """
        if self._index_cache is not None and self._index_cache[0] == self._version:
            return self._index_cache[1]
        index = None
        if self._index_cache is not None and \
                self._index_cache[0] >= self._changelog_base:
            cached_version, cached = self._index_cache
            pending = self._changelog[cached_version - self._changelog_base:]
            if pending and all(m.kind == UPDATE_WEIGHT for m in pending):
                # Weight-only drift: topology arrays are still valid, so
                # patch a shared-topology sibling instead of recompiling
                # (identical output; the live-update hot path).
                index = cached.with_updated_weights(
                    (m.u, m.v, m.weight) for m in pending
                )
        if index is None:
            index = build_graph_index(self._adj)
        self._index_cache = (self._version, index)
        return index

    def to_csr(self):
        """Export ``(matrix, ids, index_of)`` for scipy bulk algorithms.

        * ``matrix`` — symmetric :class:`scipy.sparse.csr_matrix` of weights;
        * ``ids`` — node id for each matrix row (ascending id order);
        * ``index_of`` — inverse map ``{node id: row}``.

        The export is cached until the graph is mutated and is derived
        from :meth:`to_index`, so the two caches describe the same
        snapshot.
        """
        if self._csr_cache is not None and self._csr_cache[0] == self._version:
            return self._csr_cache[1]
        index = self.to_index()
        result = (index.csr_matrix(), index.ids, index.index_of)
        self._csr_cache = (self._version, result)
        return result

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check internal invariants; raises :class:`GraphError` on breach."""
        edge_count = 0
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                if self._adj.get(v, {}).get(u) != w:
                    raise GraphError(f"asymmetric adjacency on edge ({u}, {v})")
                if w < 0:
                    raise GraphError(f"negative weight on edge ({u}, {v})")
                edge_count += 1
        if edge_count != 2 * self._num_edges:
            raise GraphError(
                f"edge count mismatch: counted {edge_count // 2}, stored {self._num_edges}"
            )

    def __repr__(self) -> str:
        return f"SpatialGraph(|V|={self.num_nodes}, |E|={self.num_edges})"

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes
