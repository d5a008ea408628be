"""The verifier as it stood before the columnar rewrite — the oracle.

Everything below is the old client path, moved here verbatim when
``decode_columns`` and the array searches replaced it in ``src/``:
per-object tuple decoding, the dict-walking path check, DIJ's
``_client_dijkstra`` (since taught the two-half-ball rule of Lemma 1 as
``_client_half_ball`` plus the meeting cost, in the same dict style), LDM's ``_BoundEvaluator`` / ``_client_astar`` and
HYP's ``build_coarse_graph`` + dict ``dijkstra`` step, each under the
``verify`` classmethod body that drove it (``cls.name`` became the
literal method name, ``cls.expected_pairs`` a plain function; nothing
else changed).  ``tests/core/test_verifier_oracle.py`` holds new and
old to the same verdict, reason code and checks.  Descriptor and root
checks are shared with ``src/`` — the rewrite did not touch them.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import Iterable, Mapping, Type

import numpy as np

from repro.api import codes
from repro.core.checks import verify_descriptor, verify_section_root
from repro.core.framework import ABS_TOL, REL_TOL, VerificationResult, distances_close
from repro.core.ldm import LdmParams
from repro.core.method import SignatureVerifier
from repro.core.proofs import (
    DIRECTORY_TREE,
    DISTANCE_TREE,
    NETWORK_TREE,
    QueryResponse,
    TreeSection,
)
from repro.errors import EncodingError
from repro.graph.graph import SpatialGraph
from repro.graph.tuples import (
    BaseTuple,
    CellDirectoryTuple,
    DistanceTuple,
    HypTuple,
    LdmTuple,
)
from repro.hiti.partition import GridSpec
from repro.landmarks.compression import lemma4_lower_bound
from tests.shortestpath.reference import dijkstra


# ----------------------------------------------------------------------
# core/checks.py
# ----------------------------------------------------------------------
def decode_tuples(section: TreeSection, tuple_cls: Type[BaseTuple]) -> dict[int, BaseTuple]:
    """Decode a section's payloads as extended tuples, keyed by node id.

    Raises :class:`EncodingError` on malformed payloads or duplicate
    node ids (a provider must never present two tuples for one node).
    """
    tuples: dict[int, BaseTuple] = {}
    for payload in section.payloads:
        tup = tuple_cls.decode(payload)
        if tup.node_id in tuples:
            raise EncodingError(f"duplicate extended tuple for node {tup.node_id}")
        tuples[tup.node_id] = tup
    return tuples


def adjacency_weight(tup: BaseTuple, neighbor: int) -> "float | None":
    """Edge weight listed in Φ for *neighbor*, or ``None`` when absent.

    O(log degree): canonical tuples keep Φ sorted by neighbor id, so a
    bisect replaces the old linear scan — long reported paths through
    high-degree hubs verify in O(path · log degree).  For adversarial
    payloads that violate the canonical order the probe may miss an
    entry, which can only *reject* such a response (never accept a
    weight that is not present), so soundness is unaffected.
    """
    adjacency = tup.adjacency
    pos = bisect_left(adjacency, (neighbor,))
    if pos < len(adjacency) and adjacency[pos][0] == neighbor:
        return adjacency[pos][1]
    return None


def check_reported_path(
    source: int,
    target: int,
    response: QueryResponse,
    tuples: Mapping[int, BaseTuple],
) -> "VerificationResult | None":
    """Validate the reported path against authenticated adjacency.

    Checks: endpoints match the query, every path node is covered by an
    authenticated Φ, every consecutive pair is a real edge, and the sum
    of authenticated weights equals the reported cost.
    """
    nodes = response.path_nodes
    if not nodes:
        return VerificationResult.failure(codes.EMPTY_PATH, "response contains no path")
    if nodes[0] != source or nodes[-1] != target:
        return VerificationResult.failure(
            codes.ENDPOINT_MISMATCH,
            f"path runs {nodes[0]} -> {nodes[-1]}, query was {source} -> {target}",
        )
    if len(set(nodes)) != len(nodes):
        return VerificationResult.failure(codes.PATH_CYCLE, "reported path repeats a node")
    cost = 0.0
    for u, v in zip(nodes, nodes[1:]):
        tup = tuples.get(u)
        if tup is None:
            return VerificationResult.failure(
                codes.PATH_NODE_MISSING, f"no authenticated tuple for path node {u}"
            )
        w = adjacency_weight(tup, v)
        if w is None:
            return VerificationResult.failure(
                codes.PHANTOM_EDGE, f"edge ({u}, {v}) is not in the authenticated graph"
            )
        cost += w
    if nodes[-1] not in tuples:
        return VerificationResult.failure(
            codes.PATH_NODE_MISSING, f"no authenticated tuple for path node {nodes[-1]}"
        )
    if not distances_close(cost, response.path_cost):
        return VerificationResult.failure(
            codes.COST_MISMATCH,
            f"authenticated path cost {cost} != reported {response.path_cost}",
        )
    return None


# ----------------------------------------------------------------------
# core/dij.py
# ----------------------------------------------------------------------
def verify_dij(source: int, target: int, response: QueryResponse,
               verify_signature: SignatureVerifier, *,
               min_version: "int | None" = None) -> VerificationResult:
    failure = verify_descriptor("DIJ", response, verify_signature,
                                min_version=min_version)
    if failure is not None:
        return failure
    try:
        section = response.section(NETWORK_TREE)
        tuples = decode_tuples(section, BaseTuple)
    except EncodingError as exc:
        return VerificationResult.failure("malformed-proof", str(exc))
    failure = verify_section_root(response.descriptor, section)
    if failure is not None:
        return failure
    failure = check_reported_path(source, target, response, tuples)
    if failure is not None:
        return failure

    # Lemma 1 from both ends: a radius search from each end out to half
    # the reported distance, then the cheapest route they certify.
    reported = response.path_cost
    limit = reported / 2 * (1 + REL_TOL) + ABS_TOL
    halves = []
    for end in (source, target):
        verdict = _client_half_ball(end, reported, limit, tuples)
        if isinstance(verdict, VerificationResult):
            return verdict
        halves.append(verdict)
    forward, backward = halves
    computed = float("inf")
    for u, du in forward.items():
        if u in backward:
            computed = min(computed, du + backward[u])
        for v, w in tuples[u].adjacency:
            if v in backward:
                computed = min(computed, du + w + backward[v])
    if computed == float("inf"):
        return VerificationResult.failure(
            "target-unreachable",
            f"target {target} is unreachable in the disclosed subgraph",
        )
    if not distances_close(computed, reported):
        return VerificationResult.failure(
            "not-optimal",
            f"subgraph shortest distance {computed} != reported {reported}",
        )
    return VerificationResult.success(distance=computed, subgraph_nodes=len(tuples))


def _client_half_ball(end: int, reported: float, limit: float,
                      tuples: "dict[int, BaseTuple]",
                      ) -> "dict[int, float] | VerificationResult":
    """Validity-checked Dijkstra from *end* over the disclosed subgraph,
    settling every node within *limit* (half of Lemma 1's ball).

    The proof is invalid (and the function returns a failure) if a node
    the search needs — reachable within *limit* — has no disclosed
    tuple.  Relaxations beyond it may legitimately point at undisclosed
    nodes.
    """
    if end not in tuples:
        return VerificationResult.failure("source-missing",
                                          f"no tuple for end node {end}")
    dist: dict[int, float] = {}
    heap: list[tuple[float, int]] = [(0.0, end)]
    best = {end: 0.0}
    while heap:
        d, u = heapq.heappop(heap)
        if u in dist:
            continue
        if d > limit:
            break
        dist[u] = d
        for v, w in tuples[u].adjacency:
            if v in dist:
                continue
            nd = d + w
            if v not in tuples:
                if nd <= limit:
                    return VerificationResult.failure(
                        "incomplete-subgraph",
                        f"node {v} at distance {nd} <= {reported} / 2 "
                        f"was not disclosed",
                    )
                continue  # legitimately outside the half-ball
            known = best.get(v)
            if known is None or nd < known:
                best[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


# ----------------------------------------------------------------------
# core/full.py
# ----------------------------------------------------------------------
def verify_full(source: int, target: int, response: QueryResponse,
                verify_signature: SignatureVerifier, *,
                min_version: "int | None" = None) -> VerificationResult:
    failure = verify_descriptor("FULL", response, verify_signature,
                                min_version=min_version)
    if failure is not None:
        return failure
    try:
        net_section = response.section(NETWORK_TREE)
        dist_section = response.section(DISTANCE_TREE)
        tuples = decode_tuples(net_section, BaseTuple)
        if len(dist_section.payloads) != 1:
            return VerificationResult.failure(
                "malformed-proof",
                f"expected one distance tuple, got {len(dist_section.payloads)}",
            )
        dist_tuple = DistanceTuple.decode(dist_section.payloads[0])
    except EncodingError as exc:
        return VerificationResult.failure("malformed-proof", str(exc))
    for section in (net_section, dist_section):
        failure = verify_section_root(response.descriptor, section)
        if failure is not None:
            return failure
    if {dist_tuple.a, dist_tuple.b} != {source, target}:
        return VerificationResult.failure(
            "wrong-distance-tuple",
            f"distance tuple covers ({dist_tuple.a}, {dist_tuple.b}), "
            f"query was ({source}, {target})",
        )
    failure = check_reported_path(source, target, response, tuples)
    if failure is not None:
        return failure
    if not distances_close(dist_tuple.distance, response.path_cost):
        return VerificationResult.failure(
            "not-optimal",
            f"materialized distance {dist_tuple.distance} != reported "
            f"path cost {response.path_cost}",
        )
    return VerificationResult.success(distance=dist_tuple.distance)


# ----------------------------------------------------------------------
# core/ldm.py
# ----------------------------------------------------------------------
def verify_ldm(source: int, target: int, response: QueryResponse,
               verify_signature: SignatureVerifier, *,
               min_version: "int | None" = None) -> VerificationResult:
    failure = verify_descriptor("LDM", response, verify_signature,
                                min_version=min_version)
    if failure is not None:
        return failure
    try:
        params = LdmParams.decode(response.descriptor.params)
        section = response.section(NETWORK_TREE)
        tuples = decode_tuples(section, LdmTuple)
    except EncodingError as exc:
        return VerificationResult.failure("malformed-proof", str(exc))
    failure = verify_section_root(response.descriptor, section)
    if failure is not None:
        return failure
    failure = check_reported_path(source, target, response, tuples)
    if failure is not None:
        return failure

    verdict = _client_astar(source, target, response.path_cost, tuples, params)
    if isinstance(verdict, VerificationResult):
        return verdict
    if not distances_close(verdict, response.path_cost):
        return VerificationResult.failure(
            "not-optimal",
            f"subgraph A* distance {verdict} != reported {response.path_cost}",
        )
    return VerificationResult.success(distance=verdict, subgraph_nodes=len(tuples))


class _BoundEvaluator:
    """Client-side Lemma 4 bound over decoded tuples (with caching)."""

    def __init__(self, tuples: "dict[int, LdmTuple]", params: LdmParams) -> None:
        self._tuples = tuples
        self._params = params
        self._effective: dict[int, tuple[np.ndarray, int]] = {}

    def effective(self, node_id: int) -> "tuple[np.ndarray, int] | None":
        """``(representative codes, ε units)`` or None if unresolvable."""
        cached = self._effective.get(node_id)
        if cached is not None:
            return cached
        tup = self._tuples.get(node_id)
        if tup is None:
            return None
        # The bits field only travels with code-carrying tuples (compressed
        # tuples hold a reference, not codes), so it is checked on whichever
        # tuple actually supplies the vector.
        if tup.is_compressed:
            rep = self._tuples.get(tup.ref_id)
            if rep is None or rep.is_compressed or rep.bits != self._params.bits:
                return None
            resolved = (np.asarray(rep.codes, dtype=np.int64), tup.eps_units)
        else:
            if tup.bits != self._params.bits:
                return None
            resolved = (np.asarray(tup.codes, dtype=np.int64), 0)
        self._effective[node_id] = resolved
        return resolved

    def lower_bound(self, u_eff: "tuple[np.ndarray, int]",
                    v_eff: "tuple[np.ndarray, int]") -> float:
        """Lemma 4 bound between two resolved nodes."""
        return max(0.0, lemma4_lower_bound(u_eff[0], u_eff[1], v_eff[0],
                                           v_eff[1], self._params.lam)
                   - self._params.slack)


def _client_astar(source: int, target: int, reported: float,
                  tuples: "dict[int, LdmTuple]",
                  params: LdmParams) -> "float | VerificationResult":
    """Validity-checked A* (with re-opening) over the disclosed subgraph."""
    if source not in tuples:
        return VerificationResult.failure("source-missing",
                                          f"no tuple for source node {source}")
    if target not in tuples:
        return VerificationResult.failure("target-missing",
                                          f"no tuple for target node {target}")
    bounds = _BoundEvaluator(tuples, params)
    target_eff = bounds.effective(target)
    if target_eff is None:
        return VerificationResult.failure(
            "missing-representative", f"cannot resolve vector of target {target}"
        )
    margin = reported + REL_TOL * reported + ABS_TOL

    source_eff = bounds.effective(source)
    if source_eff is None:
        return VerificationResult.failure(
            "missing-representative", f"cannot resolve vector of source {source}"
        )
    best: dict[int, float] = {source: 0.0}
    heap: list[tuple[float, float, int]] = [
        (bounds.lower_bound(source_eff, target_eff), 0.0, source)
    ]
    while heap:
        key, g, u = heapq.heappop(heap)
        if g > best.get(u, float("inf")):
            continue  # superseded by a re-opening
        if u == target:
            return g
        if key > margin:
            return VerificationResult.failure(
                "not-optimal",
                f"every remaining route exceeds the reported distance {reported}",
            )
        for v, w in tuples[u].adjacency:
            nd = g + w
            if v not in tuples:
                return VerificationResult.failure(
                    "incomplete-subgraph",
                    f"neighbor {v} of expanded node {u} was not disclosed",
                )
            if nd >= best.get(v, float("inf")):
                continue
            v_eff = bounds.effective(v)
            if v_eff is None:
                return VerificationResult.failure(
                    "missing-representative",
                    f"cannot resolve vector of node {v}",
                )
            best[v] = nd
            heapq.heappush(heap, (nd + bounds.lower_bound(v_eff, target_eff), nd, v))
    return VerificationResult.failure(
        "target-unreachable",
        f"target {target} is unreachable in the disclosed subgraph",
    )


# ----------------------------------------------------------------------
# hiti/coarse.py and core/hyp.py
# ----------------------------------------------------------------------
def build_coarse_graph(
    cell_tuples: "Mapping[int, HypTuple]",
    hyper_edges: "Iterable[tuple[int, int, float]]",
) -> SpatialGraph:
    """Assemble ``G_coarse`` from cell tuples and hyper-edge weights.

    * ``cell_tuples`` — Φ(v) for every node of the source and target
      cells, keyed by node id;
    * ``hyper_edges`` — ``(a, b, W*)`` triples between border nodes.

    Real edges are added only when **both** endpoints are present
    (edges leaving the two cells are represented by hyper-edges).
    When a real edge and a hyper-edge connect the same pair, the
    smaller weight wins (the hyper-edge weight is the true distance,
    hence never larger than any single edge).
    """
    coarse = SpatialGraph()
    for tup in cell_tuples.values():
        coarse.add_node(tup.node_id, tup.x, tup.y)
    for tup in cell_tuples.values():
        for nbr, w in tup.adjacency:
            if nbr in cell_tuples and tup.node_id < nbr:
                coarse.add_edge(tup.node_id, nbr, w)
    for a, b, w in hyper_edges:
        if a == b:
            continue
        if coarse.has_edge(a, b):
            if w < coarse.weight(a, b):
                coarse.remove_edge(a, b)
                coarse.add_edge(a, b, w)
        else:
            coarse.add_edge(a, b, w)
    return coarse


def expected_pairs(borders_s: "list[int]", borders_t: "list[int]",
                   same_cell: bool) -> "set[tuple[int, int]]":
    """The hyper-edge pairs a proof must disclose (unordered, a < b)."""
    pairs: set[tuple[int, int]] = set()
    if same_cell:
        borders = sorted(set(borders_s))
        for i, a in enumerate(borders):
            for b in borders[i + 1:]:
                pairs.add((a, b))
    else:
        for a in borders_s:
            for b in borders_t:
                pairs.add((min(a, b), max(a, b)))
    return pairs


def verify_hyp(source: int, target: int, response: QueryResponse,
               verify_signature: SignatureVerifier, *,
               min_version: "int | None" = None) -> VerificationResult:
    failure = verify_descriptor("HYP", response, verify_signature,
                                min_version=min_version)
    if failure is not None:
        return failure
    try:
        GridSpec.decode(response.descriptor.params)  # structural sanity
        net_section = response.section(NETWORK_TREE)
        dir_section = response.section(DIRECTORY_TREE)
        tuples = decode_tuples(net_section, HypTuple)
        directories = [CellDirectoryTuple.decode(p) for p in dir_section.payloads]
        hyper_tuples: list[DistanceTuple] = []
        if DISTANCE_TREE in response.sections:
            dist_section = response.section(DISTANCE_TREE)
            hyper_tuples = [DistanceTuple.decode(p) for p in dist_section.payloads]
    except EncodingError as exc:
        return VerificationResult.failure("malformed-proof", str(exc))

    for section in response.sections.values():
        failure = verify_section_root(response.descriptor, section)
        if failure is not None:
            return failure

    if source not in tuples or target not in tuples:
        return VerificationResult.failure(
            "endpoint-missing", "no authenticated tuple for source or target"
        )
    cell_s = tuples[source].cell_id
    cell_t = tuples[target].cell_id

    # --- cell directory completeness -----------------------------
    directory_cells = {d.cell_id for d in directories}
    if directory_cells != {cell_s, cell_t}:
        return VerificationResult.failure(
            "directory-mismatch",
            f"directories cover cells {sorted(directory_cells)}, "
            f"expected {sorted({cell_s, cell_t})}",
        )
    cell_members: dict[int, set[int]] = {}
    for directory in directories:
        cell_members[directory.cell_id] = set(directory.member_ids)
        provided = {
            node_id for node_id, tup in tuples.items()
            if tup.cell_id == directory.cell_id
        }
        if provided != set(directory.member_ids):
            return VerificationResult.failure(
                "incomplete-cell",
                f"cell {directory.cell_id}: disclosed members do not match "
                f"the authenticated directory",
            )

    # --- hyper-edge completeness ----------------------------------
    borders_s = sorted(v for v in cell_members[cell_s] if tuples[v].is_border)
    borders_t = sorted(v for v in cell_members[cell_t] if tuples[v].is_border)
    expected = expected_pairs(borders_s, borders_t, cell_s == cell_t)
    weight_of: dict[tuple[int, int], float] = {}
    for tup in hyper_tuples:
        key = (min(tup.a, tup.b), max(tup.a, tup.b))
        if key in weight_of:
            return VerificationResult.failure(
                "malformed-proof", f"duplicate hyper-edge tuple for {key}"
            )
        weight_of[key] = tup.distance
    missing = expected - set(weight_of)
    if missing:
        return VerificationResult.failure(
            "incomplete-hyperedges",
            f"{len(missing)} required hyper-edges are undisclosed "
            f"(e.g. {sorted(missing)[0]})",
        )

    # --- coarse graph search (Theorem 2) --------------------------
    cell_tuples = {
        node_id: tup for node_id, tup in tuples.items()
        if tup.cell_id in (cell_s, cell_t)
    }
    coarse = build_coarse_graph(
        cell_tuples,
        [(a, b, weight_of[(a, b)]) for a, b in expected],
    )
    result = dijkstra(coarse, source, target=target)
    if target not in result.dist:
        return VerificationResult.failure(
            "target-unreachable",
            "target is unreachable in the coarse proof graph",
        )
    coarse_distance = result.dist[target]

    # --- fine proof: the reported path itself ----------------------
    failure = check_reported_path(source, target, response, tuples)
    if failure is not None:
        return failure
    if not distances_close(coarse_distance, response.path_cost):
        return VerificationResult.failure(
            "not-optimal",
            f"coarse graph distance {coarse_distance} != reported "
            f"path cost {response.path_cost}",
        )
    return VerificationResult.success(
        distance=coarse_distance,
        coarse_nodes=coarse.num_nodes,
        hyper_edges=len(expected),
    )


REFERENCE_VERIFY = {"DIJ": verify_dij, "FULL": verify_full,
                    "LDM": verify_ldm, "HYP": verify_hyp}
