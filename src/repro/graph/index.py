"""Compiled adjacency layout: contiguous CSR-style arrays.

The dict-of-dicts adjacency in :class:`~repro.graph.graph.SpatialGraph`
is the right structure for mutation, but every hot-path consumer — the
provider's Dijkstra ball, the owner's bulk distance runs, the SciPy
export — pays dictionary overhead per edge visit.  :class:`GraphIndex`
freezes the adjacency into three flat arrays (the classic CSR layout)::

    indptr[i] .. indptr[i+1]   slice of `neighbors` / `weights` for node i
    neighbors[k]               neighbor *index* (not id)
    weights[k]                 edge weight

plus the id <-> index maps.  Nodes are laid out in ascending id order
and each node's neighbor run is sorted by neighbor id, so every derived
structure (canonical tuples, SciPy matrices, search results) is
deterministic.

Arrays are plain Python lists, which CPython indexes faster than NumPy
scalars inside interpreted loops; NumPy views for vectorized consumers
are derived lazily and cached.  Instances are immutable snapshots —
:meth:`SpatialGraph.to_index` caches one per graph version and rebuilds
on mutation, exactly like the CSR export.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.errors import GraphError


class GraphIndex:
    """Immutable CSR-style snapshot of a :class:`SpatialGraph` adjacency."""

    __slots__ = ("ids", "index_of", "indptr", "neighbors", "weights",
                 "_np_cache", "_csr_cache", "_twin_cache")

    def __init__(self, ids: "list[int]", index_of: "dict[int, int]",
                 indptr: "list[int]", neighbors: "list[int]",
                 weights: "list[float]") -> None:
        self.ids = ids
        self.index_of = index_of
        self.indptr = indptr
        self.neighbors = neighbors
        self.weights = weights
        self._np_cache = None
        self._csr_cache = None
        self._twin_cache = None

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """|V|."""
        return len(self.ids)

    @property
    def num_arcs(self) -> int:
        """Number of directed arcs (2·|E| for an undirected graph)."""
        return len(self.neighbors)

    def degree(self, index: int) -> int:
        """Out-degree of the node at *index*."""
        return self.indptr[index + 1] - self.indptr[index]

    def index(self, node_id: int) -> int:
        """Index of *node_id*; raises :class:`GraphError` when unknown."""
        try:
            return self.index_of[node_id]
        except KeyError:
            raise GraphError(f"unknown node {node_id}") from None

    # ------------------------------------------------------------------
    def numpy_arrays(self):
        """``(indptr, neighbors, weights)`` as NumPy arrays (cached)."""
        if self._np_cache is None:
            import numpy as np

            self._np_cache = (
                np.asarray(self.indptr, dtype=np.int64),
                np.asarray(self.neighbors, dtype=np.int64),
                np.asarray(self.weights, dtype=np.float64),
            )
        return self._np_cache

    def twin_lists(self):
        """The lists of two copies of the graph, the second offset by |V|."""
        if self._twin_cache is None:
            n, m = self.num_nodes, self.num_arcs
            self._twin_cache = (
                self.indptr + [p + m for p in self.indptr[1:]],
                self.neighbors + [v + n for v in self.neighbors],
                self.weights * 2)
        return self._twin_cache

    def with_updated_weights(self, edges) -> "GraphIndex":
        """A sibling snapshot with re-weighted edges, topology shared.

        *edges* yields ``(u id, v id, weight)``.  Weight-only mutations
        leave ``ids`` / ``indptr`` / ``neighbors`` untouched, so the
        new snapshot shares them and only copies the weights array —
        this is the live-update fast path behind
        :meth:`SpatialGraph.to_index`, identical to a full recompile.
        Raises :class:`GraphError` when an edge does not exist.
        """
        weights = list(self.weights)
        indptr, neighbors = self.indptr, self.neighbors
        for u, v, weight in edges:
            iu, iv = self.index(u), self.index(v)
            for a, b in ((iu, iv), (iv, iu)):
                lo, hi = indptr[a], indptr[a + 1]
                # Neighbor runs are sorted by neighbor index (= id order).
                slot = bisect_left(neighbors, b, lo, hi)
                if slot >= hi or neighbors[slot] != b:
                    raise GraphError(f"edge ({u}, {v}) is not in the index")
                weights[slot] = float(weight)
        return GraphIndex(self.ids, self.index_of, indptr, neighbors, weights)

    def csr_matrix(self):
        """SciPy CSR matrix of weights in index order (cached).

        Built directly from the native CSR triple — no COO round trip,
        no duplicate summing, no Python-level edge loop.
        """
        if self._csr_cache is None:
            from scipy.sparse import csr_matrix

            indptr, neighbors, weights = self.numpy_arrays()
            n = self.num_nodes
            self._csr_cache = csr_matrix(
                (weights, neighbors, indptr), shape=(n, n)
            )
        return self._csr_cache


def build_graph_index(adj: "dict[int, dict[int, float]]") -> GraphIndex:
    """Compile a dict-of-dicts adjacency into a :class:`GraphIndex`."""
    ids = sorted(adj)
    index_of = {node_id: i for i, node_id in enumerate(ids)}
    indptr = [0] * (len(ids) + 1)
    neighbors: list[int] = []
    weights: list[float] = []
    for i, node_id in enumerate(ids):
        row = adj[node_id]
        for v in sorted(row):
            neighbors.append(index_of[v])
            weights.append(row[v])
        indptr[i + 1] = len(neighbors)
    return GraphIndex(ids, index_of, indptr, neighbors, weights)
