"""Property-based update-equivalence suite.

The contract of the live-update pipeline: however a method absorbed a
mutation sequence — leaf patches, partial rebuilds, full rebuilds — its
observable state must be *byte-identical* to a from-scratch build on
the mutated graph with the same pinned parameters.  Seeded random
sequences of weight updates and edge insertions/removals are applied
incrementally and compared, for all four methods across fanouts.
"""

from __future__ import annotations

import random

import pytest

from repro.core.method import get_method
from repro.crypto.signer import NullSigner
from repro.errors import GraphError
from repro.service.server import ProofServer, UpdateRequest
from tests.shortestpath.reference import dijkstra
from repro.workload.updates import (
    ADD_EDGE,
    REMOVE_EDGE,
    UPDATE_WEIGHT,
    generate_update_workload,
)

METHOD_PARAMS = {
    "DIJ": {},
    "FULL": {},
    "LDM": dict(c=12),
    "HYP": dict(num_cells=25),
}

ALL_KINDS = (UPDATE_WEIGHT, ADD_EDGE, REMOVE_EDGE)


def assert_equivalent(method, graph, signer, queries):
    """Incrementally-updated *method* must equal a pinned rebuild."""
    fresh = type(method).build(graph, signer, **method._build_params)
    assert method.descriptor.encode() == fresh.descriptor.encode(), \
        "signed descriptor (roots/version/params) diverged from a rebuild"
    for tree_cfg, fresh_cfg in zip(method.descriptor.trees,
                                   fresh.descriptor.trees):
        assert tree_cfg.root == fresh_cfg.root
    for vs, vt in queries:
        incremental = method.answer(vs, vt).encode()
        rebuilt = fresh.answer(vs, vt).encode()
        assert incremental == rebuilt, f"response diverged for ({vs}, {vt})"


@pytest.mark.parametrize("name", sorted(METHOD_PARAMS))
@pytest.mark.parametrize("fanout", [2, 4])
@pytest.mark.parametrize("seed", [11, 23])
class TestUpdateEquivalence:
    def test_random_sequence_matches_rebuild(self, name, fanout, seed,
                                             road300, workload, signer):
        graph = road300.copy()
        method = get_method(name).build(graph, signer, fanout=fanout,
                                        **METHOD_PARAMS[name])
        updates = generate_update_workload(graph, 8, seed=seed,
                                           kinds=ALL_KINDS)
        for update in updates:
            update.apply(graph)
            report = method.apply_update(signer)
            assert report.version == graph.version
        assert_equivalent(method, graph, signer, workload.queries[:3])

    def test_batched_sequence_matches_rebuild(self, name, fanout, seed,
                                              road300, workload, signer):
        """One apply_update over the whole batch, not one per mutation."""
        graph = road300.copy()
        method = get_method(name).build(graph, signer, fanout=fanout,
                                        **METHOD_PARAMS[name])
        generate_update_workload(graph, 6, seed=seed,
                                 kinds=ALL_KINDS).apply_all(graph)
        report = method.apply_update(signer)
        assert report.mutations == 6
        assert_equivalent(method, graph, signer, workload.queries[:3])


@pytest.mark.parametrize("name", sorted(METHOD_PARAMS))
class TestUpdateSemantics:
    def test_weight_updates_take_the_incremental_path(self, name, road300,
                                                      signer):
        graph = road300.copy()
        method = get_method(name).build(graph, signer, **METHOD_PARAMS[name])
        generate_update_workload(graph, 3, seed=5,
                                 kinds=(UPDATE_WEIGHT,)).apply_all(graph)
        report = method.apply_update(signer)
        assert report.mode in ("incremental", "partial-rebuild")
        assert report.mode != "full-rebuild"

    def test_updated_answers_verify_and_are_optimal(self, name, road300,
                                                    workload, signer):
        graph = road300.copy()
        method = get_method(name).build(graph, signer, **METHOD_PARAMS[name])
        generate_update_workload(graph, 6, seed=3,
                                 kinds=ALL_KINDS).apply_all(graph)
        method.apply_update(signer)
        for vs, vt in workload.queries[:3]:
            response = method.answer(vs, vt)
            result = get_method(name).verify(vs, vt, response, signer.verify,
                                             min_version=graph.version)
            assert result.ok, (result.reason, result.detail)
            expected = dijkstra(graph, vs, target=vt).dist[vt]
            assert response.path_cost == pytest.approx(expected)

    def test_node_addition_forces_full_rebuild(self, name, road300, signer):
        graph = road300.copy()
        method = get_method(name).build(graph, signer, **METHOD_PARAMS[name])
        new_id = max(graph.node_ids()) + 1
        anchor = graph.node_ids()[0]
        node = graph.node(anchor)
        graph.add_node(new_id, node.x + 1.0, node.y + 1.0)
        graph.add_edge(new_id, anchor, 5.0)
        # Keep FULL/LDM/HYP satisfiable: the new node is connected.
        report = method.apply_update(signer)
        assert report.mode == "full-rebuild"
        fresh = type(method).build(graph, signer, **method._build_params)
        assert method.descriptor.encode() == fresh.descriptor.encode()

    def test_noop_apply_is_free(self, name, road300, signer):
        graph = road300.copy()
        method = get_method(name).build(graph, signer, **METHOD_PARAMS[name])
        before = method.descriptor.encode()
        report = method.apply_update(signer)
        assert report.mode == "noop"
        assert report.mutations == 0
        assert method.descriptor.encode() == before


def _path_edge(graph, workload):
    """An edge in the middle of a shortest path: re-weighting it moves rows."""
    vs, vt = workload.queries[0]
    nodes = dijkstra(graph, vs, target=vt).path_to(vt).nodes
    return nodes[len(nodes) // 2 - 1], nodes[len(nodes) // 2]


def _double_reweight(graph, server, signer, u, v):
    weight = graph.weight(u, v)
    graph.update_edge_weight(u, v, weight / 2)
    graph.update_edge_weight(u, v, weight)
    server.method.apply_update(signer)


def _insert_then_remove(graph, server, signer, u, v):
    # A shortcut from u to a node two hops away that would improve it.
    far = next(x for w in graph.neighbors(v) for x in graph.neighbors(w)
               if x != u and not graph.has_edge(u, x))
    graph.add_edge(u, far, 1e-3)
    graph.remove_edge(u, far)
    server.method.apply_update(signer)


def _rolled_back_batch(graph, server, signer, u, v):
    with pytest.raises(GraphError):
        server.apply_updates(
            [UpdateRequest(UPDATE_WEIGHT, u, v, graph.weight(u, v) / 2),
             UpdateRequest(UPDATE_WEIGHT, u, u + 10**9, 1.0)], signer)


class _SignerFailingOnce(NullSigner):
    def __init__(self) -> None:
        super().__init__()
        self.failed = False

    def sign(self, message: bytes) -> bytes:
        if not self.failed:
            self.failed = True
            raise RuntimeError("transient signing failure")
        return super().sign(message)


def _failed_resign(graph, server, signer, u, v):
    # The hints are patched before the re-sign fails; the rollback's
    # replay must start from the patched state, not the signed one.
    with pytest.raises(RuntimeError):
        server.apply_updates(
            [UpdateRequest(UPDATE_WEIGHT, u, v, graph.weight(u, v) / 2)],
            _SignerFailingOnce())


@pytest.mark.parametrize("name", sorted(METHOD_PARAMS))
@pytest.mark.parametrize("batch", [_double_reweight, _insert_then_remove,
                                   _rolled_back_batch, _failed_resign])
def test_batch_that_undoes_itself_matches_rebuild(name, batch, road300,
                                                  workload, signer):
    """A batch whose net effect is nil must leave every hint as it was.

    Seeding a repair from each mutation's own weights gets exactly these
    wrong: the halved weight, or the inserted edge, is gone by the end
    of the batch.  The server's rollback replays a batch plus its
    inverse, which is the same shape.
    """
    graph = road300.copy()
    server = ProofServer(get_method(name).build(graph, signer,
                                                **METHOD_PARAMS[name]))
    batch(graph, server, signer, *_path_edge(graph, workload))
    assert server.method.descriptor.version == graph.version
    assert_equivalent(server.method, graph, signer, workload.queries[:3])


def test_adjacency_dependent_ordering_rebuilds_on_topology_change(
    road300, signer
):
    """bfs leaf order moves when edges appear, so incremental patching
    would diverge — the pipeline must fall back to a full rebuild and
    still match a fresh build byte for byte."""
    graph = road300.copy()
    method = get_method("DIJ").build(graph, signer, ordering="bfs")
    ids = graph.node_ids()
    rng = random.Random(1)
    while True:
        a, b = rng.sample(ids, 2)
        if not graph.has_edge(a, b):
            graph.add_edge(a, b, 100.0)
            break
    report = method.apply_update(signer)
    assert report.mode == "full-rebuild"
    fresh = get_method("DIJ").build(graph, signer, **method._build_params)
    assert method.descriptor.encode() == fresh.descriptor.encode()


def test_weight_only_change_keeps_bfs_incremental(road300, signer):
    """bfs order ignores weights, so pure re-weights still patch."""
    graph = road300.copy()
    method = get_method("DIJ").build(graph, signer, ordering="bfs")
    u, v, w = next(iter(graph.edges()))
    graph.update_edge_weight(u, v, w * 3)
    report = method.apply_update(signer)
    assert report.mode == "incremental"
    fresh = get_method("DIJ").build(graph, signer, **method._build_params)
    assert method.descriptor.encode() == fresh.descriptor.encode()
