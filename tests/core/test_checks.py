"""Unit tests for the shared client-side verification steps."""

import pytest

from repro.core.checks import (
    NetworkTreeBundle,
    check_reported_path,
    sign_descriptor,
    verify_descriptor,
    verify_section_root,
)
from repro.core.proofs import NETWORK_TREE, QueryResponse, SignedDescriptor, TreeConfig, TreeSection
from repro.crypto.signer import NullSigner
from repro.errors import EncodingError
from repro.graph.tuples import BaseTuple, decode_columns


@pytest.fixture()
def bundle(diamond):
    return NetworkTreeBundle(
        diamond, lambda v: BaseTuple.from_graph(diamond, v),
        ordering="hbt", fanout=2, hash_name="sha1",
    )


@pytest.fixture()
def descriptor(bundle):
    signer = NullSigner()
    return sign_descriptor(
        SignedDescriptor(
            method="DIJ", hash_name="sha1", params=b"",
            trees=(TreeConfig(NETWORK_TREE, bundle.tree.num_leaves, 2,
                              bundle.tree.root),),
        ),
        signer,
    ), signer


def make_response(bundle, descriptor, nodes, path, cost):
    return QueryResponse(
        method="DIJ", source=path[0], target=path[-1],
        path_nodes=tuple(path), path_cost=cost,
        sections={NETWORK_TREE: bundle.section_for(nodes)},
        descriptor=descriptor,
    )


class TestNetworkTreeBundle:
    def test_positions_cover_all_nodes(self, bundle, diamond):
        assert sorted(bundle.position_of) == diamond.node_ids()
        assert sorted(bundle.position_of.values()) == list(range(diamond.num_nodes))

    def test_section_payloads_sorted_by_position(self, bundle):
        section = bundle.section_for([5, 0, 3])
        assert section.positions == sorted(section.positions)

    def test_section_root_verifies(self, bundle, descriptor):
        desc, _ = descriptor
        section = bundle.section_for([0, 1, 2])
        assert verify_section_root(desc, section) is None

    def test_build_seconds_recorded(self, bundle):
        assert bundle.build_seconds >= 0.0


class TestVerifyDescriptor:
    def test_pass(self, bundle, descriptor):
        desc, signer = descriptor
        response = make_response(bundle, desc, [0, 1], [0, 1], 1.0)
        assert verify_descriptor("DIJ", response, signer.verify) is None

    def test_method_mismatch(self, bundle, descriptor):
        desc, signer = descriptor
        response = make_response(bundle, desc, [0, 1], [0, 1], 1.0)
        failure = verify_descriptor("FULL", response, signer.verify)
        assert failure is not None and failure.reason == "method-mismatch"

    def test_bad_signature(self, bundle, descriptor):
        desc, signer = descriptor
        bad = desc.with_signature(b"\x00" * len(desc.signature))
        response = make_response(bundle, bad, [0, 1], [0, 1], 1.0)
        failure = verify_descriptor("DIJ", response, signer.verify)
        assert failure is not None and failure.reason == "bad-signature"


class TestVerifySectionRoot:
    def test_unknown_tree(self, bundle, descriptor):
        desc, _ = descriptor
        section = bundle.section_for([0])
        section.tree = "mystery"
        failure = verify_section_root(desc, section)
        assert failure is not None and failure.reason == "unknown-tree"

    def test_tampered_payload(self, bundle, descriptor):
        desc, _ = descriptor
        section = bundle.section_for([0, 1])
        flipped = bytes([section.payloads[0][0] ^ 0xFF])
        section.payloads[0] = flipped + section.payloads[0][1:]
        failure = verify_section_root(desc, section)
        assert failure is not None and failure.reason == "root-mismatch"

    def test_missing_entries(self, bundle, descriptor):
        desc, _ = descriptor
        section = bundle.section_for([0])
        section.entries = section.entries[:-1]
        failure = verify_section_root(desc, section)
        assert failure is not None and failure.reason == "malformed-proof"


def columns_of(*tuples):
    return decode_columns([tup.encode() for tup in tuples])


class TestDecodeTuples:
    def test_roundtrip(self, bundle, diamond):
        section = bundle.section_for(diamond.node_ids())
        columns = decode_columns(section.payloads)
        assert columns.ids.tolist() == diamond.node_ids()

    def test_duplicate_rejected(self, bundle):
        section = bundle.section_for([0])
        section.positions.append(99)
        section.payloads.append(section.payloads[0])
        with pytest.raises(EncodingError):
            decode_columns(section.payloads)

    def test_adjacency_weight(self, diamond):
        columns = columns_of(BaseTuple.from_graph(diamond, 0))
        assert columns.edge_weight(0, 1) == 1.0
        assert columns.edge_weight(0, 3) is None

    def test_adjacency_weight_probes_every_position(self):
        # The bisect probe must find first/middle/last neighbors and
        # reject ids falling before, between, and after the entries —
        # without straying into the next row's adjacency.
        columns = columns_of(
            BaseTuple(0, 0.0, 0.0, ((2, 1.0), (5, 2.0), (9, 3.0))),
            BaseTuple(1, 0.0, 0.0, ()),
            BaseTuple(2, 0.0, 0.0, ((3, 4.0), (10, 5.0))),
        )
        assert [columns.edge_weight(0, v) for v in (2, 5, 9)] == [1.0, 2.0, 3.0]
        assert all(columns.edge_weight(0, v) is None for v in (0, 3, 7, 10))
        assert columns.edge_weight(1, 3) is None
        assert columns.edge_weight(2, 10) == 5.0

    def test_adjacency_weight_never_fabricates_on_unsorted_payload(self):
        # A malicious provider may violate the canonical sort; the probe
        # may then miss entries (rejecting the response) but must never
        # return a weight for a neighbor that is absent.
        columns = columns_of(BaseTuple(0, 0.0, 0.0, ((9, 3.0), (2, 1.0), (5, 2.0))))
        for v in (0, 1, 3, 4, 6, 7, 8, 10):
            assert columns.edge_weight(0, v) is None


class TestCheckReportedPath:
    def tuples_for(self, bundle, nodes):
        return decode_columns(bundle.section_for(nodes).payloads)

    def test_valid_path(self, bundle, descriptor, diamond):
        desc, _ = descriptor
        response = make_response(bundle, desc, diamond.node_ids(),
                                 [0, 1, 2, 3], 3.0)
        tuples = self.tuples_for(bundle, diamond.node_ids())
        assert check_reported_path(0, 3, response, tuples) is None

    def test_endpoint_mismatch(self, bundle, descriptor, diamond):
        desc, _ = descriptor
        response = make_response(bundle, desc, diamond.node_ids(),
                                 [0, 1, 2, 3], 3.0)
        tuples = self.tuples_for(bundle, diamond.node_ids())
        failure = check_reported_path(0, 5, response, tuples)
        assert failure is not None and failure.reason == "endpoint-mismatch"

    def test_phantom_edge(self, bundle, descriptor, diamond):
        desc, _ = descriptor
        response = make_response(bundle, desc, diamond.node_ids(),
                                 [0, 2, 3], 2.0)  # 0-2 is not an edge
        tuples = self.tuples_for(bundle, diamond.node_ids())
        failure = check_reported_path(0, 3, response, tuples)
        assert failure is not None and failure.reason == "phantom-edge"

    def test_cost_mismatch(self, bundle, descriptor, diamond):
        desc, _ = descriptor
        response = make_response(bundle, desc, diamond.node_ids(),
                                 [0, 1, 2, 3], 99.0)
        tuples = self.tuples_for(bundle, diamond.node_ids())
        failure = check_reported_path(0, 3, response, tuples)
        assert failure is not None and failure.reason == "cost-mismatch"

    def test_missing_tuple(self, bundle, descriptor, diamond):
        desc, _ = descriptor
        response = make_response(bundle, desc, diamond.node_ids(),
                                 [0, 1, 2, 3], 3.0)
        tuples = self.tuples_for(bundle, [0, 1, 3])  # node 2 undisclosed
        failure = check_reported_path(0, 3, response, tuples)
        assert failure is not None and failure.reason == "path-node-missing"

    def test_cycle_rejected(self, bundle, descriptor, diamond):
        desc, _ = descriptor
        response = make_response(bundle, desc, diamond.node_ids(),
                                 [0, 1, 0, 1], 3.0)
        tuples = self.tuples_for(bundle, diamond.node_ids())
        failure = check_reported_path(0, 1, response, tuples)
        assert failure is not None and failure.reason == "path-cycle"

    def test_empty_path(self, bundle, descriptor, diamond):
        desc, _ = descriptor
        response = make_response(bundle, desc, diamond.node_ids(), [0], 0.0)
        response.path_nodes = ()
        tuples = self.tuples_for(bundle, diamond.node_ids())
        failure = check_reported_path(0, 3, response, tuples)
        assert failure is not None and failure.reason == "empty-path"


class TestPaddedProofs:
    """ΓT must be exactly a cover: junk or repeated entries used to be
    ignored, so a reply padded with them verified."""

    @pytest.mark.parametrize("name, tree", [
        ("DIJ", "network"), ("LDM", "network"),
        ("FULL", "distance"), ("HYP", "distance"), ("HYP", "directory"),
    ])
    def test_padded_reply_rejected(self, name, tree, methods, workload, signer):
        from repro.merkle.proof import MerkleProofEntry

        method = methods[name]
        vs, vt = workload.queries[0]
        honest = method.answer(vs, vt)
        assert method.verify(vs, vt, honest, signer.verify).ok
        top = honest.descriptor.tree(tree).num_leaves  # far above any level
        junk = [MerkleProofEntry(top + i, i, bytes(20)) for i in range(100)]
        for padding in (junk, honest.section(tree).entries[:1]):
            padded = QueryResponse.decode(honest.encode())
            padded.section(tree).entries.extend(padding)
            result = method.verify(vs, vt, padded, signer.verify)
            assert (result.ok, result.reason) == (False, "malformed-proof")


class TestVerifySkeleton:
    """Every method's ``verify`` reconstructs every section it is sent."""

    @pytest.mark.parametrize("fixture", ["dij", "full", "ldm", "hyp"])
    def test_surplus_section_is_rejected(self, fixture, request, signer,
                                         workload):
        method = request.getfixturevalue(fixture)
        vs, vt = next(iter(workload))
        response = method.answer(vs, vt)
        assert method.verify(vs, vt, response, signer.verify).ok
        network = response.sections[NETWORK_TREE]
        response.sections["mystery"] = TreeSection(
            "mystery", list(network.positions), list(network.payloads),
            list(network.entries))
        verdict = method.verify(vs, vt, response, signer.verify)
        assert (verdict.ok, verdict.reason) == (False, "unknown-tree")
