"""DIJ — Dijkstra subgraph verification (paper §IV-A).

No authenticated hints.  The proof ΓS is Lemma 1 read from both ends:
the extended tuple of every node within ``D / 2`` of the source or of
the target, ``D = dist(vs, vt)``, out to twice the client's float
margin past it.  Any route cheaper than ``D`` splits at one edge
``(u, v)`` whose prefix to ``u`` costs at most ``D / 2`` and whose
suffix from ``v`` costs less, so it lies inside the two half-balls
B_s(D/2) ∪ B_t(D/2) and costs at least ``d(s, u) + w(u, v) + d(v, t)``.

The client runs Dijkstra from each end on the disclosed subgraph, out
to ``D / 2``; each half is valid only if every node its search needs
is present, which is what defeats the tuple-dropping attack described
in the paper.  The two searches then certify the meeting cost μ, the
cheapest route through a node both settled or an edge from one half
into the other, and the reply is accepted only if μ is the reported
``D``.  (Pohl's bidirectional stopping rule, checked as a certificate
instead of searched for.)
"""

from __future__ import annotations

from math import inf

import numpy as np

from repro.core.checks import (
    NetworkTreeBundle,
    check_reported_path,
    resign_descriptor,
    sign_descriptor,
)
from repro.core.framework import (
    VerificationResult,
    client_limit,
    distances_close,
    provider_margin,
)
from repro.core.incremental import edge_endpoints, needs_layout_rebuild
from repro.core.method import (
    VerificationMethod,
    check_algo_sp,
    register_method,
)
from repro.core.state import dump_bundle, load_bundle
from repro.core.proofs import NETWORK_TREE, QueryResponse, SignedDescriptor, TreeConfig
from repro.crypto.signer import Signer
from repro.errors import EncodingError
from repro.graph.graph import GraphMutation, SpatialGraph
from repro.graph.tuples import BaseTuple, TupleColumns, decode_columns
from repro.shortestpath.kernel import indexed_dijkstra, search
from repro.shortestpath.path import Path


@register_method
class DijMethod(VerificationMethod):
    """Dijkstra subgraph verification (no pre-computation)."""

    name = "DIJ"

    def __init__(self, graph: SpatialGraph, bundle: NetworkTreeBundle,
                 descriptor: SignedDescriptor) -> None:
        super().__init__()
        self._graph = graph
        self._bundle = bundle
        self._descriptor = descriptor

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, graph: SpatialGraph, signer: Signer, *, fanout: int = 2,
              ordering: str = "hbt", hash_name: str = "sha1",
              algo_sp: str = "dijkstra", **params) -> "DijMethod":
        if params:
            raise EncodingError(f"DIJ takes no extra parameters, got {sorted(params)}")
        check_algo_sp(algo_sp)
        bundle = NetworkTreeBundle(
            graph, lambda v: BaseTuple.from_graph(graph, v),
            ordering=ordering, fanout=fanout, hash_name=hash_name,
        )
        descriptor = sign_descriptor(
            SignedDescriptor(
                method=cls.name,
                hash_name=hash_name,
                params=b"",
                trees=(TreeConfig(NETWORK_TREE, bundle.tree.num_leaves, fanout,
                                  bundle.tree.root),),
                version=graph.version,
            ),
            signer,
        )
        method = cls(graph, bundle, descriptor)
        method.construction_seconds = 0.0  # DIJ pre-computes no hints
        method.algo_sp = algo_sp
        method._synced_version = graph.version
        method._build_params = dict(fanout=fanout, ordering=ordering,
                                    hash_name=hash_name, algo_sp=algo_sp)
        method._publish_params = method._build_params
        return method

    # ------------------------------------------------------------------
    # serve-state persistence
    # ------------------------------------------------------------------
    def _dump_sections(self, state) -> None:
        dump_bundle(state, self._bundle)

    @classmethod
    def _load_sections(cls, state) -> "DijMethod":
        graph = state.graph
        bundle = load_bundle(
            state, lambda v: BaseTuple.from_graph(graph, v))
        return cls(graph, bundle, state.descriptor)

    # ------------------------------------------------------------------
    def _apply_mutations(self, mutations: "list[GraphMutation]",
                         signer: Signer) -> tuple[str, int, int]:
        """Patch the endpoint leaves and re-sign — ``O(log |V|)`` hashes.

        DIJ's only ADS is the network Merkle tree and its hints are the
        adjacency lists themselves, so an edge mutation touches exactly
        the two endpoint tuples.  Previously issued responses remain
        verifiable only against the old descriptor — clients pin the
        version they trust.
        """
        if needs_layout_rebuild(mutations, self._bundle.ordering):
            return self._rebuild(signer)
        patched = self._bundle.refresh_nodes(edge_endpoints(mutations))
        old = self._descriptor
        self._descriptor = resign_descriptor(
            old, signer,
            trees=(TreeConfig(NETWORK_TREE, self._bundle.tree.num_leaves,
                              old.tree(NETWORK_TREE).fanout,
                              self._bundle.tree.root),),
            version=self._graph.version,
        )
        return "incremental", patched, 0

    # ------------------------------------------------------------------
    def answer(self, source: int, target: int, *,
               forced_path: "Path | None" = None) -> QueryResponse:
        path, ball = self._proof_search(source, target, forced_path)
        # The search from the source has settled its half on the way to
        # the target; one more search settles the target's.
        radius = path.cost / 2 + provider_margin(path.cost)
        ids, dist = ball.index.ids, ball.dist
        forward = [ids[i] for i in ball.settled_order if dist[i] <= radius]
        backward = indexed_dijkstra(ball.index, target, radius=radius)
        section = self._bundle.section_for(forward + backward.settled_ids())
        return QueryResponse(
            method=self.name,
            source=source,
            target=target,
            path_nodes=path.nodes,
            path_cost=path.cost,
            sections={NETWORK_TREE: section},
            descriptor=self._descriptor,
        )

    # ------------------------------------------------------------------
    @classmethod
    def decode_proof(cls, response: QueryResponse) -> TupleColumns:
        return decode_columns(response.section(NETWORK_TREE).payloads)

    @classmethod
    def check(cls, source: int, target: int, response: QueryResponse,
              columns: TupleColumns) -> VerificationResult:
        failure = check_reported_path(source, target, response, columns)
        if failure is not None:
            return failure

        # Lemma 1 from both ends: each half-ball search is only valid if
        # every node it needs — within half the reported distance of its
        # end — was disclosed.  The path check has proven both ends
        # disclosed.
        reported = response.path_cost
        limit = client_limit(reported / 2)
        nbrs = columns.nbrs
        lists = columns.search_lists(nbrs)
        halves = []
        for end in (source, target):
            run = search(*lists, columns.row_of(end), limit=limit, gap=limit)
            if run.gap is not None:
                _, k, tentative = run.gap
                return VerificationResult.failure(
                    "incomplete-subgraph",
                    f"node {columns.nbr_ids[k]} at distance {tentative} <= "
                    f"{reported} / 2 from {end} was not disclosed",
                )
            halves.append(run.dist)
        computed = meeting_cost(columns, nbrs, *halves)
        if computed == inf:
            return VerificationResult.failure(
                "target-unreachable",
                f"target {target} is unreachable in the disclosed subgraph",
            )
        if not distances_close(computed, reported):
            return VerificationResult.failure(
                "not-optimal",
                f"subgraph shortest distance {computed} != reported {reported}",
            )
        return VerificationResult.success(distance=computed,
                                          subgraph_nodes=len(columns))


def meeting_cost(columns: TupleColumns, nbrs: np.ndarray,
                 forward: "list[float]", backward: "list[float]") -> float:
    """μ: the cheapest route the two half-ball searches certify.

    The minimum of ``d_f(u) + w(u, v) + d_b(v)`` over disclosed edges
    from a row *forward* settled to one *backward* settled, and of
    ``d_f(u) + d_b(u)`` over rows both settled (``inf`` marks an
    unsettled row, and *nbrs*' ``-1`` an undisclosed neighbour).
    """
    d_f = np.array(forward)
    d_b = np.array(backward + [inf])  # row -1 reads the trailing inf
    rows = np.repeat(np.arange(len(d_f)), np.diff(columns.indptr))
    edges = d_f[rows] + columns.weights + d_b[nbrs]
    return float(min((d_f + d_b[:-1]).min(), edges.min(initial=inf)))
