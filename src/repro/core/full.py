"""FULL — fully materialized distances (paper §IV-B).

The owner materializes ``dist(vi, vj)`` for every node pair and stores
the tuples in a distance Merkle B-tree keyed by ``(vi.id, vj.id)``.
The proof for a query is a single distance tuple plus the sibling
digests along its root path — tiny, but pre-computation is ``O(|V|^3)``
time / ``O(|V|^2)`` space, so FULL only fits small networks.

Implementation notes: the graph is undirected, so only the upper
triangle (``a < b`` by id) is materialized; the leaf index of a pair
is computed arithmetically (triangle ranking over the sorted id list),
which avoids storing millions of key objects.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.checks import (
    NetworkTreeBundle,
    check_reported_path,
    resign_descriptor,
    sign_descriptor,
)
from repro.core.framework import VerificationResult, distances_close
from repro.core.incremental import (
    affected_sources,
    edge_endpoints,
    needs_layout_rebuild,
)
from repro.core.method import (
    VerificationMethod,
    check_algo_sp,
    register_method,
)
from repro.core.state import dump_bundle, load_bundle, load_descriptor_tree
from repro.core.proofs import (
    DISTANCE_TREE,
    NETWORK_TREE,
    QueryResponse,
    SignedDescriptor,
    TreeConfig,
    TreeSection,
)
from repro.crypto.signer import Signer
from repro.errors import (
    ArtifactError,
    EncodingError,
    GraphError,
    MethodError,
    NoPathError,
)
from repro.graph.graph import GraphMutation, SpatialGraph
from repro.graph.tuples import (
    BaseTuple,
    DistanceTuple,
    TupleColumns,
    decode_columns,
    triangle_leaf_digests,
)
from repro.hiti.hyperedges import triangle_index
from repro.merkle.tree import MerkleTree
from repro.shortestpath.bulk import all_pairs_distances, repair_distances
from repro.shortestpath.kernel import indexed_shortest_path
from repro.shortestpath.path import Path


@register_method
class FullMethod(VerificationMethod):
    """Fully materialized all-pairs distances."""

    name = "FULL"

    def __init__(self, graph: SpatialGraph, bundle: NetworkTreeBundle,
                 distance_tree: MerkleTree, matrix: np.ndarray,
                 descriptor: SignedDescriptor) -> None:
        super().__init__()
        self._graph = graph
        self._bundle = bundle
        self._distance_tree = distance_tree
        self._matrix = matrix
        self._ids = graph.node_ids()
        self._index_of = {node_id: i for i, node_id in enumerate(self._ids)}
        self._descriptor = descriptor

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, graph: SpatialGraph, signer: Signer, *, fanout: int = 2,
              ordering: str = "hbt", hash_name: str = "sha1",
              all_pairs_method: str = "auto", algo_sp: str = "dijkstra",
              **params) -> "FullMethod":
        if params:
            raise EncodingError(f"FULL takes no extra parameters, got {sorted(params)}")
        check_algo_sp(algo_sp)
        if graph.num_nodes < 2:
            raise MethodError("FULL needs at least two nodes")
        bundle = NetworkTreeBundle(
            graph, lambda v: BaseTuple.from_graph(graph, v),
            ordering=ordering, fanout=fanout, hash_name=hash_name,
        )
        start = time.perf_counter()
        matrix = all_pairs_distances(graph, method=all_pairs_method)
        if np.isinf(matrix).any():
            raise GraphError("FULL requires a connected graph")
        ids = graph.node_ids()
        distance_tree = MerkleTree(
            leaf_digests=triangle_leaf_digests(ids, matrix, hash_name),
            fanout=fanout, hash_fn=hash_name,
        )
        construction = time.perf_counter() - start

        descriptor = sign_descriptor(
            SignedDescriptor(
                method=cls.name,
                hash_name=hash_name,
                params=b"",
                trees=(
                    TreeConfig(NETWORK_TREE, bundle.tree.num_leaves, fanout,
                               bundle.tree.root),
                    TreeConfig(DISTANCE_TREE, distance_tree.num_leaves, fanout,
                               distance_tree.root),
                ),
                version=graph.version,
            ),
            signer,
        )
        method = cls(graph, bundle, distance_tree, matrix, descriptor)
        method.construction_seconds = construction
        method.algo_sp = algo_sp
        method._synced_version = graph.version
        method._build_params = dict(fanout=fanout, ordering=ordering,
                                    hash_name=hash_name,
                                    all_pairs_method=all_pairs_method,
                                    algo_sp=algo_sp)
        method._publish_params = method._build_params
        return method

    # ------------------------------------------------------------------
    # serve-state persistence
    # ------------------------------------------------------------------
    def _dump_sections(self, state) -> None:
        dump_bundle(state, self._bundle)
        state.arrays["full/matrix"] = self._matrix
        state.blobs["distance/tree"] = self._distance_tree.dump_state()

    @classmethod
    def _load_sections(cls, state) -> "FullMethod":
        graph = state.graph
        n = graph.num_nodes
        # The matrix section is the serve-state jackpot: the O(|V|^2)
        # all-pairs result maps straight off the artifact (zero-copy,
        # copy-on-write — a later apply_update patches rows privately).
        matrix = state.array("full/matrix", dtype=np.float64, shape=(n, n))
        distance_tree = load_descriptor_tree(state, "distance/tree",
                                             DISTANCE_TREE)
        if distance_tree.num_leaves != n * (n - 1) // 2:
            raise ArtifactError(
                f"distance tree has {distance_tree.num_leaves} leaves; a "
                f"{n}-node FULL method needs {n * (n - 1) // 2}"
            )
        bundle = load_bundle(
            state, lambda v: BaseTuple.from_graph(graph, v))
        return cls(graph, bundle, distance_tree, matrix, state.descriptor)

    # ------------------------------------------------------------------
    def _apply_mutations(self, mutations: "list[GraphMutation]",
                         signer: Signer) -> tuple[str, int, int]:
        """Repair only the distance rows the batch can have touched.

        The affected-source filter (:mod:`repro.core.incremental`)
        flags every node whose shortest path forest could involve a
        mutated edge; those rows are repaired bit-identically to a
        fresh all-pairs run, and the triangle leaves whose distance
        moved are patched.  ``all_pairs_method="floyd-warshall"`` sums
        in a different order than Dijkstra, so it falls back to a full
        rebuild.
        """
        if needs_layout_rebuild(mutations, self._bundle.ordering):
            return self._rebuild(signer)
        if self._build_params.get("all_pairs_method") == "floyd-warshall":
            return self._rebuild(signer)
        graph = self._graph
        ids = self._ids
        n = len(ids)
        matrix = self._matrix
        affected = affected_sources(matrix, mutations, self._index_of)
        rows, cols, values = repair_distances(
            graph.to_index(), matrix, affected,
            [ids[i] for i in affected.tolist()], mutations)
        if np.isinf(values).any():
            raise GraphError("FULL requires a connected graph")
        matrix[rows, cols] = values
        upper = cols > rows  # leaf (i, j) carries row i's value, i < j
        self._distance_tree.update_leaves({
            triangle_index(i, j, n): DistanceTuple(ids[i], ids[j], d).encode()
            for i, j, d in zip(rows[upper].tolist(), cols[upper].tolist(),
                               values[upper].tolist())
        })
        leaves_patched = int(upper.sum()) + self._bundle.refresh_nodes(
            edge_endpoints(mutations))
        self._synced_version = graph.version  # a failed re-sign replays from here
        old = self._descriptor
        fanout = old.tree(NETWORK_TREE).fanout
        self._descriptor = resign_descriptor(
            old, signer,
            trees=(
                TreeConfig(NETWORK_TREE, self._bundle.tree.num_leaves, fanout,
                           self._bundle.tree.root),
                TreeConfig(DISTANCE_TREE, self._distance_tree.num_leaves,
                           old.tree(DISTANCE_TREE).fanout,
                           self._distance_tree.root),
            ),
            version=graph.version,
        )
        return "incremental", leaves_patched, 0

    # ------------------------------------------------------------------
    def distance_of(self, a: int, b: int) -> float:
        """Materialized ``dist(a, b)``."""
        return float(self._matrix[self._index_of[a], self._index_of[b]])

    def _distance_section(self, a: int, b: int) -> TreeSection:
        i, j = self._index_of[a], self._index_of[b]
        if i > j:
            i, j = j, i
        leaf = triangle_index(i, j, len(self._ids))
        payload = DistanceTuple(self._ids[i], self._ids[j],
                                float(self._matrix[i, j])).encode()
        entries = self._distance_tree.prove([leaf])
        return TreeSection(DISTANCE_TREE, [leaf], [payload], entries)

    def _matrix_path(self, source: int, target: int) -> "Path | None":
        """Reconstruct the shortest path from the materialized matrix.

        FULL already holds every distance, so instead of re-running a
        search the provider walks backwards from the target: an edge
        ``(v, u)`` is on a shortest path iff ``dist(s, v) + w(v, u)``
        equals ``dist(s, u)`` — bit-exactly, because the bulk backend
        accumulated ``dist(s, u)`` as exactly that sum along its
        Dijkstra tree.  Cost is O(path length · degree) against the
        array kernel's full expansion.  Returns ``None`` when no
        predecessor matches exactly (pathological float ties), letting
        the caller fall back to the search kernel.
        """
        index = self._graph.to_index()
        iof = index.index_of
        try:
            si = iof[source]
        except KeyError:
            raise GraphError(f"unknown source node {source}") from None
        try:
            ti = iof[target]
        except KeyError:
            raise GraphError(f"unknown target node {target}") from None
        row = self._matrix[si]
        if not np.isfinite(row[ti]):
            raise NoPathError(source, target)
        indptr, nbrs, wts = index.indptr, index.neighbors, index.weights
        ids = index.ids
        rev: list[int] = [target]
        u = ti
        for _ in range(index.num_nodes):
            if u == si:
                rev.reverse()
                return Path(nodes=tuple(rev), cost=float(row[ti]))
            here = row[u]
            pred = -1
            for k in range(indptr[u], indptr[u + 1]):
                v = nbrs[k]
                if row[v] + wts[k] == here:
                    pred = v
                    break
            if pred < 0:
                return None  # float tie fell apart; use the search kernel
            rev.append(ids[pred])
            u = pred
        return None  # cycle guard tripped (cannot happen on valid data)

    def answer(self, source: int, target: int, *,
               forced_path: "Path | None" = None) -> QueryResponse:
        if source == target:
            raise MethodError("degenerate query: source equals target")
        if forced_path is not None:
            path = forced_path
        else:
            path = self._matrix_path(source, target)
            if path is None:
                path = indexed_shortest_path(self._graph.to_index(),
                                             source, target)
        sections = {
            NETWORK_TREE: self._bundle.section_for(path.nodes),
            DISTANCE_TREE: self._distance_section(source, target),
        }
        return QueryResponse(
            method=self.name,
            source=source,
            target=target,
            path_nodes=path.nodes,
            path_cost=path.cost,
            sections=sections,
            descriptor=self._descriptor,
        )

    # ------------------------------------------------------------------
    @classmethod
    def decode_proof(cls, response: QueryResponse
                     ) -> "tuple[TupleColumns, DistanceTuple]":
        columns = decode_columns(response.section(NETWORK_TREE).payloads)
        payloads = response.section(DISTANCE_TREE).payloads
        if len(payloads) != 1:
            raise EncodingError(
                f"expected one distance tuple, got {len(payloads)}")
        return columns, DistanceTuple.decode(payloads[0])

    @classmethod
    def check(cls, source: int, target: int, response: QueryResponse,
              proof: "tuple[TupleColumns, DistanceTuple]") -> VerificationResult:
        columns, dist_tuple = proof
        if {dist_tuple.a, dist_tuple.b} != {source, target}:
            return VerificationResult.failure(
                "wrong-distance-tuple",
                f"distance tuple covers ({dist_tuple.a}, {dist_tuple.b}), "
                f"query was ({source}, {target})",
            )
        failure = check_reported_path(source, target, response, columns)
        if failure is not None:
            return failure
        if not distances_close(dist_tuple.distance, response.path_cost):
            return VerificationResult.failure(
                "not-optimal",
                f"materialized distance {dist_tuple.distance} != reported "
                f"path cost {response.path_cost}",
            )
        return VerificationResult.success(distance=dist_tuple.distance)
