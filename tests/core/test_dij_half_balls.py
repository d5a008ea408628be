"""DIJ's two half-balls: every tuple is needed, and the split is at D/2.

The reply discloses B_s(D/2) ∪ B_t(D/2).  The client searches each half
from its end and rejects a half that runs off the disclosure, so a
provider can neither leave a tuple of either half out (re-proving the
rest, so the root still reconstructs) nor split Lemma 1 anywhere but
halfway: B_s(αD) ∪ B_t((1 - α)D) also holds every route cheaper than
D, but it is not what the client checks.
"""

from __future__ import annotations

import pytest

from repro.core.dij import DijMethod
from repro.core.framework import client_limit
from repro.core.proofs import NETWORK_TREE, QueryResponse
from repro.graph.synthetic import grid_network
from tests.shortestpath.reference import dijkstra


def _with_nodes(method: DijMethod, honest: QueryResponse, node_ids) -> QueryResponse:
    """*honest* with its section re-proved over *node_ids*."""
    return QueryResponse(
        honest.method, honest.source, honest.target, honest.path_nodes,
        honest.path_cost, {NETWORK_TREE: method._bundle.section_for(node_ids)},
        honest.descriptor)


def _ball(graph, end: int, radius: float) -> "dict[int, float]":
    return dijkstra(graph, end, radius=radius).dist


def _pairs(workload):
    return list(workload.queries[:4])


def test_every_tuple_of_either_half_is_needed(dij, road300, workload, signer):
    checked = 0
    for vs, vt in _pairs(workload):
        honest = dij.answer(vs, vt)
        assert DijMethod.verify(vs, vt, honest, signer.verify).ok
        limit = client_limit(honest.path_cost / 2)
        halves = [_ball(road300, end, limit) for end in (vs, vt)]
        disclosed = set(halves[0]) | set(halves[1])
        for dropped in sorted(disclosed):
            reply = _with_nodes(dij, honest, disclosed - {dropped})
            verdict = DijMethod.verify(vs, vt, reply, signer.verify)
            assert not verdict.ok, (vs, vt, dropped)
            assert verdict.reason in ("incomplete-subgraph", "path-node-missing")
            checked += 1
    assert checked > 100


@pytest.mark.parametrize("share", [0.2, 0.35, 0.65, 0.8])
def test_a_moved_split_point_is_rejected(share, dij, road300, workload, signer):
    rejected = 0
    for vs, vt in _pairs(workload):
        honest = dij.answer(vs, vt)
        cost = honest.path_cost
        moved = set(_ball(road300, vs, share * cost)) \
            | set(_ball(road300, vt, (1 - share) * cost))
        needed = set(_ball(road300, vs, cost / 2)) | set(_ball(road300, vt, cost / 2))
        verdict = DijMethod.verify(vs, vt, _with_nodes(dij, honest, moved),
                                   signer.verify)
        # Accepted only where the moved halves happen to hold both true
        # halves (extra tuples are harmless).
        assert verdict.ok == (needed <= moved), (vs, vt, verdict.reason)
        rejected += not verdict.ok
    assert rejected


def test_the_one_ball_alone_is_rejected(dij, road300, workload, signer):
    # The paper's one ball B_s(D) alone misses most of B_t(D/2)'s far
    # side, so it is rejected; with the target's half added it verifies.
    vs, vt = _pairs(workload)[0]
    honest = dij.answer(vs, vt)
    one_ball = set(_ball(road300, vs, honest.path_cost))
    back = set(_ball(road300, vt, honest.path_cost / 2))
    assert not back <= one_ball
    assert not DijMethod.verify(vs, vt, _with_nodes(dij, honest, one_ball),
                                signer.verify).ok
    assert DijMethod.verify(vs, vt, _with_nodes(dij, honest, one_ball | back),
                            signer.verify).ok


def test_halves_meet_at_a_node_on_a_lattice(signer):
    # Unit lattice along one side, D = 4: node 2 sits exactly at D/2
    # from both ends, so both halves hold it, and the meeting cost is
    # read off the node both searches settle.
    graph = grid_network(5, 5)
    method = DijMethod.build(graph, signer)
    reply = method.answer(0, 4)
    verdict = DijMethod.verify(0, 4, reply, signer.verify)
    assert verdict.ok and verdict.checks["distance"] == 4.0
    halves = set(_ball(graph, 0, 2.0)) | set(_ball(graph, 4, 2.0))
    disclosed = reply.section(NETWORK_TREE).positions
    assert len(disclosed) == len(halves) < len(_ball(graph, 0, 4.0))
