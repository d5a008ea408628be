"""Tests for incremental updates and the provider's algorithm choice."""

import pytest

from repro.core.dij import DijMethod
from repro.core.method import get_method
from repro.errors import ArtifactError, MethodError
from repro.merkle.tree import MerkleTree, reconstruct_root
from tests.shortestpath.reference import dijkstra
from repro.store.artifact import load_method, save_method


class TestMerkleLeafUpdate:
    def test_update_matches_rebuild(self):
        payloads = [b"p%d" % i for i in range(23)]
        tree = MerkleTree(payloads, fanout=3)
        payloads[7] = b"updated"
        tree.update_leaf(7, b"updated")
        rebuilt = MerkleTree(payloads, fanout=3)
        assert tree.root == rebuilt.root

    @pytest.mark.parametrize("fanout", [2, 4, 16])
    @pytest.mark.parametrize("index", [0, 9, 30])
    def test_update_positions_and_fanouts(self, fanout, index):
        payloads = [b"x%d" % i for i in range(31)]
        tree = MerkleTree(payloads, fanout=fanout)
        payloads[index] = b"new-payload"
        tree.update_leaf(index, b"new-payload")
        assert tree.root == MerkleTree(payloads, fanout=fanout).root

    def test_proofs_valid_after_update(self):
        payloads = [b"y%d" % i for i in range(40)]
        tree = MerkleTree(payloads)
        payloads[11] = b"fresh"
        tree.update_leaf(11, b"fresh")
        entries = tree.prove([11, 25])
        root = reconstruct_root(40, 2, "sha1",
                                {11: b"fresh", 25: payloads[25]}, entries)
        assert root == tree.root

    def test_out_of_range_rejected(self):
        tree = MerkleTree([b"a", b"b"])
        from repro.errors import MerkleError

        with pytest.raises(MerkleError):
            tree.update_leaf(2, b"c")

    def test_single_leaf_tree(self):
        tree = MerkleTree([b"only"])
        tree.update_leaf(0, b"new")
        assert tree.root == MerkleTree([b"new"]).root


class TestMerkleBatchUpdate:
    @pytest.mark.parametrize("fanout", [2, 3, 16])
    def test_batch_matches_rebuild(self, fanout):
        payloads = [b"p%d" % i for i in range(57)]
        tree = MerkleTree(payloads, fanout=fanout)
        updates = {3: b"a", 4: b"b", 29: b"c", 56: b"d"}
        for index, payload in updates.items():
            payloads[index] = payload
        tree.update_leaves(updates)
        assert tree.root == MerkleTree(payloads, fanout=fanout).root

    def test_batch_matches_sequential_updates(self):
        payloads = [b"q%d" % i for i in range(40)]
        batched = MerkleTree(payloads, fanout=2)
        sequential = MerkleTree(payloads, fanout=2)
        updates = {i: b"new%d" % i for i in (0, 1, 17, 39)}
        batched.update_leaves(updates)
        for index, payload in updates.items():
            sequential.update_leaf(index, payload)
        assert batched.root == sequential.root
        assert batched._levels == sequential._levels

    def test_empty_batch_is_noop(self):
        tree = MerkleTree([b"a", b"b", b"c"])
        root = tree.root
        tree.update_leaves({})
        assert tree.root == root

    def test_out_of_range_batch_rejected(self):
        from repro.errors import MerkleError

        tree = MerkleTree([b"a", b"b"])
        with pytest.raises(MerkleError):
            tree.update_leaves({2: b"c"})

    def test_proofs_valid_after_batch(self):
        payloads = [b"z%d" % i for i in range(31)]
        tree = MerkleTree(payloads, fanout=3)
        tree.update_leaves({5: b"x", 20: b"y"})
        entries = tree.prove([5, 20, 30])
        root = reconstruct_root(31, 3, "sha1",
                                {5: b"x", 20: b"y", 30: payloads[30]}, entries)
        assert root == tree.root


class TestDijIncrementalUpdate:
    def test_update_then_verify(self, road300, signer, workload):
        graph = road300.copy()
        method = DijMethod.build(graph, signer)
        vs, vt = workload.queries[0]
        before = method.answer(vs, vt)

        # Double the weight of the first edge on the current optimal path.
        u, v = before.path_nodes[0], before.path_nodes[1]
        method.update_edge_weight(u, v, graph.weight(u, v) * 2, signer)

        after = method.answer(vs, vt)
        result = get_method("DIJ").verify(vs, vt, after, signer.verify)
        assert result.ok, (result.reason, result.detail)
        expected = dijkstra(graph, vs, target=vt).dist[vt]
        assert after.path_cost == pytest.approx(expected)

    def test_old_response_fails_under_new_descriptor_key_rotation(
        self, road300, signer, workload
    ):
        graph = road300.copy()
        method = DijMethod.build(graph, signer)
        vs, vt = workload.queries[1]
        before = method.answer(vs, vt)
        u, v = before.path_nodes[0], before.path_nodes[1]
        method.update_edge_weight(u, v, graph.weight(u, v) * 3, signer)
        # The old response still carries the old (validly signed)
        # descriptor, so it verifies as a statement about the old graph;
        # a *mixed* response — old tuples with the new descriptor — must
        # fail because the root changed.
        import copy

        mixed = copy.deepcopy(before)
        mixed.descriptor = method.descriptor
        result = get_method("DIJ").verify(vs, vt, mixed, signer.verify)
        assert not result.ok
        assert result.reason == "root-mismatch"

    def test_hint_methods_update_incrementally(self, road300, signer, workload):
        """LDM (a hint-bearing method) now absorbs weight updates too."""
        from repro.core.ldm import LdmMethod

        graph = road300.copy()
        method = LdmMethod.build(graph, signer, c=8)
        vs, vt = workload.queries[0]
        u, v, w = next(iter(graph.edges()))
        report = method.update_edge_weight(u, v, w * 2, signer)
        assert report.mode == "incremental"
        assert report.version == graph.version
        response = method.answer(vs, vt)
        result = get_method("LDM").verify(vs, vt, response, signer.verify)
        assert result.ok, (result.reason, result.detail)

    def test_update_requires_existing_edge(self, road300, signer):
        graph = road300.copy()
        method = DijMethod.build(graph, signer)
        missing = graph.node_ids()[:2]
        if graph.has_edge(*missing):  # pick a definitely-absent pair
            missing = (graph.node_ids()[0], graph.node_ids()[0])
        from repro.errors import GraphError

        with pytest.raises(GraphError):
            method.update_edge_weight(missing[0], missing[1], 2.0, signer)


class TestProviderAlgorithmChoice:
    def test_unknown_algorithm_rejected(self, road300, signer):
        with pytest.raises(MethodError, match="choose 'dijkstra'"):
            DijMethod.build(road300, signer, algo_sp="teleport")

    @pytest.mark.parametrize("name,params", [
        ("DIJ", {}),
        ("FULL", {}),
        ("LDM", dict(c=8)),
        ("HYP", dict(num_cells=25)),
    ])
    @pytest.mark.parametrize("algo_sp", ["dijkstra-dict", "bidirectional"])
    def test_removed_algorithms_rejected(self, road300, signer, name, params,
                                         algo_sp):
        # The array Dijkstra is the one provider search; every method
        # rejects the old variant names once, at build.
        with pytest.raises(MethodError, match="choose 'dijkstra'"):
            get_method(name).build(road300, signer, algo_sp=algo_sp,
                                   **params)

    def test_artifact_with_removed_algorithm_rejected(self, road300, signer,
                                                      tmp_path):
        # An artifact packed while 'bidirectional' was a choice fails at
        # load, not on every query after it.
        method = DijMethod.build(road300, signer)
        method.algo_sp = "bidirectional"
        path = str(tmp_path / "old.rspv")
        save_method(method, path)
        with pytest.raises(ArtifactError, match="bidirectional"):
            load_method(path)
