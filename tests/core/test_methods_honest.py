"""End-to-end honest-provider tests, shared across all four methods."""

import pytest

from repro.core.method import get_method
from repro.core.proofs import QueryResponse
from tests.shortestpath.reference import dijkstra, one_ball_reply

METHOD_NAMES = ["DIJ", "FULL", "LDM", "HYP"]


@pytest.mark.parametrize("name", METHOD_NAMES)
class TestHonestProvider:
    def test_every_query_verifies(self, name, methods, workload, signer):
        method = methods[name]
        for vs, vt in workload:
            response = method.answer(vs, vt)
            result = get_method(name).verify(vs, vt, response, signer.verify)
            assert result.ok, (vs, vt, result.reason, result.detail)

    def test_reported_path_is_optimal(self, name, methods, workload, road300):
        method = methods[name]
        for vs, vt in workload:
            response = method.answer(vs, vt)
            expected = dijkstra(road300, vs, target=vt).dist[vt]
            assert response.path_cost == pytest.approx(expected)
            assert response.path_nodes[0] == vs
            assert response.path_nodes[-1] == vt

    def test_wire_roundtrip_verifies(self, name, methods, workload, signer):
        method = methods[name]
        vs, vt = workload.queries[0]
        response = QueryResponse.decode(method.answer(vs, vt).encode())
        result = get_method(name).verify(vs, vt, response, signer.verify)
        assert result.ok, (result.reason, result.detail)

    def test_verify_is_stateless_and_repeatable(self, name, methods, workload, signer):
        method = methods[name]
        vs, vt = workload.queries[1]
        response = method.answer(vs, vt)
        first = get_method(name).verify(vs, vt, response, signer.verify)
        second = get_method(name).verify(vs, vt, response, signer.verify)
        assert first.ok and second.ok

    def test_response_for_other_query_rejected(self, name, methods, workload, signer):
        method = methods[name]
        (vs, vt), (vs2, vt2) = workload.queries[0], workload.queries[2]
        response = method.answer(vs, vt)
        assert (vs, vt) != (vs2, vt2)
        result = get_method(name).verify(vs2, vt2, response, signer.verify)
        assert not result.ok

    def test_descriptor_is_method_specific(self, name, methods):
        assert methods[name].descriptor.method == name

    def test_sizes_positive(self, name, methods, workload):
        method = methods[name]
        vs, vt = workload.queries[0]
        sizes = method.answer(vs, vt).sizes()
        assert sizes.total_bytes > 0
        assert sizes.s_items >= 1


class TestCrossMethodShape:
    """The paper's headline ordering holds even on this small fixture."""

    def test_proof_size_ordering(self, methods, workload):
        # The robust relations at this tiny fixture scale; the full paper
        # ordering (DIJ >> LDM > HYP > FULL) is asserted by the benchmark
        # suite on the paper-scale datasets.  DIJ's bar is the paper's
        # one-ball proof B_s(D); the two half-balls served in its place
        # are smaller, and still the largest.
        totals = {}
        for name, method in methods.items():
            sizes = [method.answer(vs, vt).sizes().total_bytes for vs, vt in workload]
            totals[name] = sum(sizes) / len(sizes)
        served = totals["DIJ"]
        sizes = [one_ball_reply(methods["DIJ"], vs, vt).sizes().total_bytes
                 for vs, vt in workload]
        totals["DIJ"] = sum(sizes) / len(sizes)
        assert totals["LDM"] < served < totals["DIJ"]
        assert totals["DIJ"] > totals["LDM"]
        assert totals["DIJ"] > 2 * totals["FULL"]
        assert totals["LDM"] > totals["FULL"]
        assert totals["HYP"] > totals["FULL"]

    def test_construction_time_ordering(self, methods):
        assert methods["FULL"].construction_seconds > methods["LDM"].construction_seconds
        assert methods["DIJ"].construction_seconds == 0.0


class TestRsaEndToEnd:
    """One full pass with the real RSA signer (others use the fast stub)."""

    def test_ldm_with_rsa(self, road300, rsa_signer, workload):
        from repro.core.ldm import LdmMethod

        method = LdmMethod.build(road300, rsa_signer, c=10)
        vs, vt = workload.queries[0]
        response = method.answer(vs, vt)
        assert get_method("LDM").verify(vs, vt, response, rsa_signer.verify).ok
        # Verification must also work from the public key alone.
        verifier = rsa_signer.verifier_for_public_key()
        assert get_method("LDM").verify(vs, vt, response, verifier.verify).ok
        # And reject under a different key.
        from repro.crypto.signer import RsaSigner

        other = RsaSigner(bits=768, seed=4242)
        result = get_method("LDM").verify(vs, vt, response, other.verify)
        assert not result.ok and result.reason == "bad-signature"
