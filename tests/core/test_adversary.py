"""Adversarial integration tests: every attack must be rejected.

These are the security claims of the paper: a malicious or compromised
provider cannot make a client accept a wrong answer.
"""

import pytest

from repro.core import adversary
from repro.core.method import get_method
from repro.errors import MethodError

METHOD_NAMES = ["DIJ", "FULL", "LDM", "HYP"]


def verify(name, vs, vt, response, signer):
    return get_method(name).verify(vs, vt, response, signer.verify)


@pytest.mark.parametrize("name", METHOD_NAMES)
class TestUniversalAttacks:
    """Attacks that apply to every method."""

    def test_suboptimal_path_rejected(self, name, methods, road300, workload, signer):
        method = methods[name]
        rejected = 0
        for vs, vt in workload.queries[:4]:
            try:
                response = adversary.suboptimal_path(method, road300, vs, vt)
            except MethodError:
                continue  # no detour exists for this pair
            result = verify(name, vs, vt, response, signer)
            assert not result.ok, f"suboptimal path accepted for ({vs},{vt})"
            rejected += 1
        assert rejected > 0, "workload offered no detours at all"

    def test_tampered_weight_rejected(self, name, methods, workload, signer):
        vs, vt = workload.queries[0]
        response = adversary.tamper_weight(methods[name].answer(vs, vt))
        result = verify(name, vs, vt, response, signer)
        assert not result.ok
        assert result.reason == "root-mismatch"

    def test_stripped_signature_rejected(self, name, methods, workload, signer):
        vs, vt = workload.queries[0]
        response = adversary.strip_signature(methods[name].answer(vs, vt))
        result = verify(name, vs, vt, response, signer)
        assert not result.ok
        assert result.reason == "bad-signature"

    def test_inflated_cost_rejected(self, name, methods, workload, signer):
        vs, vt = workload.queries[0]
        response = adversary.inflate_cost(methods[name].answer(vs, vt))
        assert not verify(name, vs, vt, response, signer).ok

    def test_replayed_response_rejected(self, name, methods, workload, signer):
        (vs, vt), (vs2, vt2) = workload.queries[0], workload.queries[3]
        response = methods[name].answer(vs, vt)
        assert not verify(name, vs2, vt2, response, signer).ok

    def test_descriptor_swap_rejected(self, name, methods, workload, signer):
        # Graft another method's (validly signed) descriptor onto the
        # response: the method binding must catch it.
        import copy

        vs, vt = workload.queries[0]
        response = copy.deepcopy(methods[name].answer(vs, vt))
        other = methods["FULL" if name != "FULL" else "DIJ"]
        response.descriptor = other.descriptor
        assert not verify(name, vs, vt, response, signer).ok

    def test_truncated_wire_bytes_rejected(self, name, methods, workload):
        from repro.core.proofs import QueryResponse
        from repro.errors import EncodingError, MerkleError

        vs, vt = workload.queries[0]
        data = methods[name].answer(vs, vt).encode()
        with pytest.raises((EncodingError, MerkleError)):
            QueryResponse.decode(data[: len(data) // 2])


@pytest.mark.parametrize("name", ["DIJ", "LDM"])
class TestSubgraphDropAttack:
    """§IV-A: drop ΓS tuples and patch ΓT so the root still matches."""

    def test_concealed_shortcut_rejected(self, name, methods, road300,
                                         workload, signer):
        """Report a detour AND withhold the true shortest path's tuples.

        This is the attack the validity check exists for: the Merkle root
        still reconstructs, the reported path is genuine, and the only
        evidence of the shorter route is the withheld tuples.
        """
        from tests.shortestpath.reference import dijkstra

        attacks = 0
        for vs, vt in workload.queries[:4]:
            true_path = dijkstra(road300, vs, target=vt).path_to(vt)
            try:
                detour_response = adversary.suboptimal_path(
                    methods[name], road300, vs, vt
                )
            except MethodError:
                continue
            victims = [
                n for n in true_path.nodes[1:-1]
                if n not in detour_response.path_nodes
            ]
            disclosed = _disclosed_ids(detour_response)
            for victim in victims:
                if victim not in disclosed:
                    continue
                try:
                    response = adversary.drop_tuple(
                        detour_response, keep=disclosed - {victim}
                    )
                except MethodError:
                    continue
                result = verify(name, vs, vt, response, signer)
                assert not result.ok, (
                    f"concealed shortcut accepted for ({vs},{vt}) "
                    f"with victim {victim}"
                )
                # The Merkle root still matched: the rejection must come
                # from shortest-path validity, not from the hash check.
                assert result.reason != "root-mismatch"
                attacks += 1
                break
        assert attacks > 0, "workload offered no concealable shortcut"

    def test_harmless_drop_never_flips_the_answer(self, name, methods,
                                                  workload, signer):
        """Dropping cone padding may go unnoticed — but then the accepted
        answer is still the true shortest path, so soundness holds."""
        vs, vt = workload.queries[0]
        honest = methods[name].answer(vs, vt)
        try:
            response = adversary.drop_tuple(honest)
        except MethodError:
            pytest.skip("nothing droppable")
        result = verify(name, vs, vt, response, signer)
        if result.ok:
            assert response.path_nodes == honest.path_nodes
            assert response.path_cost == honest.path_cost

    def test_dropping_path_node_rejected(self, name, methods, workload, signer):
        vs, vt = workload.queries[0]
        honest = methods[name].answer(vs, vt)
        # Force the drop onto a path node by keeping everything else.
        path_interior = set(honest.path_nodes[1:-1])
        if not path_interior:
            pytest.skip("path too short")
        try:
            response = adversary.drop_tuple(
                honest,
                keep={n for n in _disclosed_ids(honest) if n not in path_interior},
            )
        except MethodError:
            pytest.skip("no droppable sibling-covered path node")
        assert not verify(name, vs, vt, response, signer).ok


@pytest.mark.parametrize("name,params", [
    ("DIJ", {}),
    ("FULL", {}),
    ("LDM", dict(c=16)),
    ("HYP", dict(num_cells=25)),
])
class TestFreshnessAttacks:
    """Stale-proof replay after a live update (every method)."""

    def _updated_method(self, name, params, road300, workload, signer):
        graph = road300.copy()
        method = get_method(name).build(graph, signer, **params)
        vs, vt = workload.queries[0]
        stale = method.answer(vs, vt)
        u, v, w = next(iter(graph.edges()))
        method.update_edge_weight(u, v, w * 2, signer)
        return method, graph, (vs, vt), stale

    def test_stale_replay_rejected_with_version_pin(
        self, name, params, road300, workload, signer
    ):
        method, graph, (vs, vt), stale = self._updated_method(
            name, params, road300, workload, signer)
        replayed = adversary.replay_stale_root(stale)
        result = get_method(name).verify(vs, vt, replayed, signer.verify,
                                         min_version=graph.version)
        assert not result.ok
        assert result.reason == "stale-descriptor"

    def test_stale_replay_is_authentic_without_pin(
        self, name, params, road300, workload, signer
    ):
        """Without a freshness floor the replay verifies — every byte is
        genuinely owner-signed.  This is exactly why clients must pin
        the version, not a defect of the tamper checks."""
        method, _, (vs, vt), stale = self._updated_method(
            name, params, road300, workload, signer)
        replayed = adversary.replay_stale_root(stale)
        assert verify(name, vs, vt, replayed, signer).ok

    def test_fresh_response_passes_version_pin(
        self, name, params, road300, workload, signer
    ):
        method, graph, (vs, vt), _ = self._updated_method(
            name, params, road300, workload, signer)
        fresh = method.answer(vs, vt)
        result = get_method(name).verify(vs, vt, fresh, signer.verify,
                                         min_version=graph.version)
        assert result.ok, (result.reason, result.detail)

    def test_post_update_responses_still_reject_tampering(
        self, name, params, road300, workload, signer
    ):
        """The classic mutations stay rejected after incremental
        re-authentication — updating must not weaken tamper detection."""
        method, graph, (vs, vt), _ = self._updated_method(
            name, params, road300, workload, signer)
        fresh = method.answer(vs, vt)
        floor = graph.version

        tampered = adversary.tamper_weight(fresh)
        result = get_method(name).verify(vs, vt, tampered, signer.verify,
                                         min_version=floor)
        assert not result.ok
        assert result.reason == "root-mismatch"

        stripped = adversary.strip_signature(fresh)
        assert not get_method(name).verify(
            vs, vt, stripped, signer.verify, min_version=floor).ok

        inflated = adversary.inflate_cost(fresh)
        assert not get_method(name).verify(
            vs, vt, inflated, signer.verify, min_version=floor).ok

        if name in ("FULL", "HYP"):
            forged = adversary.forge_distance(fresh)
            assert not get_method(name).verify(
                vs, vt, forged, signer.verify, min_version=floor).ok

        if name in ("DIJ", "LDM"):
            try:
                dropped = adversary.drop_tuple(
                    fresh,
                    keep={n for n in _disclosed_ids(fresh)
                          if n not in set(fresh.path_nodes[1:-1])},
                )
            except MethodError:
                return
            assert not get_method(name).verify(
                vs, vt, dropped, signer.verify, min_version=floor).ok


def _disclosed_ids(response):
    from repro.core.proofs import NETWORK_TREE
    from repro.encoding import Decoder
    from repro.graph.tuples import BaseTuple

    return {
        BaseTuple._decode_header(Decoder(p))[0]
        for p in response.sections[NETWORK_TREE].payloads
    }


class TestDistanceForgery:
    def test_full_forged_distance_rejected(self, full, workload, signer):
        vs, vt = workload.queries[0]
        response = adversary.forge_distance(full.answer(vs, vt))
        result = verify("FULL", vs, vt, response, signer)
        assert not result.ok
        assert result.reason == "root-mismatch"

    def test_hyp_forged_hyperedge_rejected(self, hyp, workload, signer):
        vs, vt = workload.queries[0]
        response = adversary.forge_distance(hyp.answer(vs, vt), delta=-100.0)
        result = verify("HYP", vs, vt, response, signer)
        assert not result.ok

    def test_full_wrong_pair_tuple_rejected(self, full, workload, signer):
        # Present a *genuine* distance tuple for a different pair.
        import copy

        (vs, vt), (vs2, vt2) = workload.queries[0], workload.queries[1]
        honest = full.answer(vs, vt)
        other = full.answer(vs2, vt2)
        forged = copy.deepcopy(honest)
        from repro.core.proofs import DISTANCE_TREE

        forged.sections[DISTANCE_TREE] = other.sections[DISTANCE_TREE]
        result = verify("FULL", vs, vt, forged, signer)
        assert not result.ok
        assert result.reason == "wrong-distance-tuple"


class TestHypCellWithholding:
    def test_withheld_cell_member_rejected(self, hyp, workload, signer):
        """Remove one source-cell tuple (with canonical ΓT patching)."""
        import copy

        from repro.core.proofs import NETWORK_TREE
        from repro.crypto.hashing import get_hash
        from repro.encoding import Decoder
        from repro.graph.tuples import BaseTuple
        from repro.merkle.proof import MerkleProofEntry
        from repro.merkle.tree import leaf_digest

        vs, vt = workload.queries[0]
        honest = hyp.answer(vs, vt)
        cell_s = hyp._partition.cell(vs)
        victims = [
            n for n in hyp._partition.members_of(cell_s)
            if n not in honest.path_nodes
        ]
        if not victims:
            pytest.skip("source cell fully on path")
        response = None
        try:
            response = adversary.drop_tuple(
                honest, keep=_disclosed_ids(honest) - {victims[0]}
            )
        except MethodError:
            pytest.skip("victim not sibling-covered")
        result = verify("HYP", vs, vt, response, signer)
        assert not result.ok
        assert result.reason in ("incomplete-cell", "path-node-missing")
