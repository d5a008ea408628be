"""Wire-level multiproof batches: envelope evolution and end-to-end trust.

Three layers under test:

* **envelope compatibility** — the ``multiproof`` request flag and the
  reply's ``shared`` blob are append-only tail fields: unset they leave
  the legacy bytes untouched, set they extend them, and decoders accept
  both generations;
* **the happy path** — a multiproof batch recovers responses
  byte-identical to independently served ones and every slot verifies;
* **the hostile path** — a tampered, truncated, or omitted shared blob
  produces per-slot failure verdicts, never an exception, and error
  slots ride alongside a shared proof for the ok ones.

Every method's burst takes the same path, so the last two layers run
on DIJ, FULL, LDM and HYP alike.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.api import codes
from repro.api.client import RemoteClient
from repro.api.envelope import (
    BatchQueryReply,
    BatchQueryRequest,
    decode_frame,
    decode_message,
)
from repro.api.transport import InProcessTransport
from repro.core.batch import MultiProofBatch, combine_multiproof
from repro.core.dij import DijMethod
from repro.core.full import FullMethod
from repro.core.hyp import HypMethod
from repro.core.ldm import LdmMethod
from repro.errors import MethodError
from repro.service.server import ProofServer

BAD_NODE = 10**9

BUILDERS = {
    "DIJ": lambda graph, signer: DijMethod.build(graph, signer),
    "FULL": lambda graph, signer: FullMethod.build(graph, signer),
    "LDM": lambda graph, signer: LdmMethod.build(graph, signer, c=20),
    "HYP": lambda graph, signer: HypMethod.build(graph, signer, num_cells=16),
}


@pytest.fixture()
def client(dispatcher, signer):
    return RemoteClient(InProcessTransport(dispatcher), signer.verify)


@pytest.fixture(scope="module", params=sorted(BUILDERS))
def method(request, road300, signer):
    return BUILDERS[request.param](road300, signer)


@pytest.fixture()
def method_dispatcher(method, signer):
    return ProofServer(method, cache_size=64).dispatcher()


@pytest.fixture()
def method_client(method_dispatcher, signer):
    return RemoteClient(InProcessTransport(method_dispatcher), signer.verify)


class TestEnvelopeCompatibility:
    def test_unset_flag_keeps_legacy_request_bytes(self, workload):
        pairs = tuple(workload[:3])
        plain = BatchQueryRequest(pairs)
        flagged = BatchQueryRequest(pairs, multiproof=True)
        assert flagged.encode().startswith(plain.encode())
        assert len(flagged.encode()) == len(plain.encode()) + 1

    def test_legacy_request_bytes_decode_with_default(self, workload):
        pairs = tuple(workload[:3])
        decoded = BatchQueryRequest.decode(BatchQueryRequest(pairs).encode())
        assert decoded.pairs == pairs
        assert decoded.multiproof is False

    def test_flagged_request_roundtrips(self, workload):
        pairs = tuple(workload[:2])
        encoded = BatchQueryRequest(pairs, multiproof=True).encode()
        assert BatchQueryRequest.decode(encoded).multiproof is True

    def test_legacy_reply_bytes_decode_with_empty_shared(self, client,
                                                         workload):
        reply = client.transport.roundtrip(
            BatchQueryRequest(tuple(workload[:2])).to_frame())
        message = decode_message(decode_frame(reply))
        assert isinstance(message, BatchQueryReply)
        assert message.shared == b""
        assert BatchQueryReply.decode(message.encode()).shared == b""

    def test_shared_reply_roundtrips(self, client, workload):
        reply = client.transport.roundtrip(
            BatchQueryRequest(tuple(workload[:2]),
                              multiproof=True).to_frame())
        message = decode_message(decode_frame(reply))
        assert message.shared
        again = BatchQueryReply.decode(message.encode())
        assert again.shared == message.shared
        # Ok slots carry empty placeholders; the payload lives once in
        # the shared blob.
        assert all(item.response_bytes == b"" for item in message.items)


class TestMultiproofRoundtrip:
    def test_recovered_responses_byte_identical(self, method_client, method,
                                                workload):
        results = method_client.query_batch(workload)
        assert [(r.source, r.target) for r in results] == workload
        for result in results:
            assert result.ok, (result.verdict.reason, result.verdict.detail)
            assert result.response_bytes == \
                method.answer(result.source, result.target).encode()

    def test_batch_ships_fewer_bytes_than_legacy(self, method_client,
                                                 workload):
        multi = method_client.query_batch(workload)
        legacy = method_client.query_batch(workload, multiproof=False)
        assert sum(r.wire_bytes for r in multi) < \
            sum(r.wire_bytes for r in legacy)

    def test_legacy_opt_out_still_carries_payloads(self, method_client,
                                                   method, workload):
        results = method_client.query_batch(workload, multiproof=False)
        for result in results:
            assert result.ok
            assert result.response_bytes == \
                method.answer(result.source, result.target).encode()

    def test_mixed_ok_and_error_slots(self, method_client, workload):
        pairs = [workload[0], (BAD_NODE, 1), workload[1]]
        results = method_client.query_batch(pairs)
        assert results[0].ok and results[2].ok
        assert not results[1].ok
        assert results[1].verdict.reason == codes.E_QUERY_FAILED
        # The error slot must not poison the shared proof of the rest.
        assert results[0].response_bytes and results[2].response_bytes

    def test_all_error_batch_falls_back_to_legacy_layout(self,
                                                         method_client):
        results = method_client.query_batch([(BAD_NODE, 1), (BAD_NODE, 2)])
        assert all(not r.ok for r in results)
        assert all(r.verdict.reason == codes.E_QUERY_FAILED for r in results)

    def test_duplicate_queries_in_one_batch(self, method_client, workload):
        pairs = [workload[0], workload[0], workload[1]]
        results = method_client.query_batch(pairs)
        assert all(r.ok for r in results)
        assert results[0].response_bytes == results[1].response_bytes

    def test_singleton_batch(self, method_client, workload):
        (result,) = method_client.query_batch([workload[0]])
        assert result.ok

    def test_query_many_uses_multiproof_by_default(self, method_client,
                                                   workload):
        transport = method_client.transport
        transport.wire_log.clear()
        transport._log_frames = True
        method_client.query_many(workload)
        frames = list(transport.wire_log)
        transport._log_frames = False
        assert len(frames) == 1  # one BATCH frame for the whole burst


class _RewriteTransport(InProcessTransport):
    """Dispatch normally, then rewrite the shared blob of BATCH replies."""

    def __init__(self, dispatcher, rewrite):
        super().__init__(dispatcher)
        self._rewrite = rewrite

    def roundtrip(self, frame: bytes) -> bytes:
        reply = super().roundtrip(frame)
        message = decode_message(decode_frame(reply))
        if isinstance(message, BatchQueryReply) and message.shared:
            return replace(
                message, shared=self._rewrite(message.shared)).to_frame()
        return reply


class TestHostileSharedBlob:
    def run_against(self, dispatcher, signer, workload, rewrite):
        client = RemoteClient(_RewriteTransport(dispatcher, rewrite),
                              signer.verify)
        return client.query_batch(workload)

    def assert_all_rejected(self, results, reason=None):
        for result in results:
            assert not result.ok
            if reason is not None:
                # Structural failures never hand back response bytes.
                assert result.response_bytes is None
                assert result.verdict.reason == reason

    def test_truncated_shared_blob(self, method_dispatcher, signer, workload):
        results = self.run_against(method_dispatcher, signer, workload,
                                   lambda shared: shared[:-7])
        self.assert_all_rejected(results, codes.MALFORMED_PROOF)

    def test_garbage_shared_blob(self, method_dispatcher, signer, workload):
        results = self.run_against(method_dispatcher, signer, workload,
                                   lambda shared: b"\xff" * len(shared))
        self.assert_all_rejected(results, codes.MALFORMED_PROOF)

    def test_omitted_shared_section(self, method_dispatcher, signer, workload):
        def drop_section(shared):
            batch = MultiProofBatch.decode(shared)
            name = sorted(batch.shared)[0]
            pruned = {k: v for k, v in batch.shared.items() if k != name}
            return replace(batch, shared=pruned).encode()

        results = self.run_against(method_dispatcher, signer, workload,
                                   drop_section)
        self.assert_all_rejected(results, codes.MALFORMED_PROOF)

    def test_tampered_shared_digest_fails_root_check(self, method_dispatcher,
                                                     signer, workload):
        def flip_digest(shared):
            batch = MultiProofBatch.decode(shared)
            name = sorted(batch.shared)[0]
            section = batch.shared[name]
            entry = section.entries[0]
            bad = replace(entry, digest=bytes([entry.digest[0] ^ 1])
                          + entry.digest[1:])
            sections = dict(batch.shared)
            sections[name] = replace(
                section, entries=[bad, *section.entries[1:]])
            return replace(batch, shared=sections).encode()

        results = self.run_against(method_dispatcher, signer, workload,
                                   flip_digest)
        # Value tampering survives recovery and dies in per-query root
        # verification — the same verdict independent replies would get.
        self.assert_all_rejected(results)
        assert {r.verdict.reason for r in results} <= {
            codes.ROOT_MISMATCH, codes.MALFORMED_PROOF}

    def test_reordered_batch_queries_rejected(self, method_dispatcher,
                                              signer, workload):
        def swap_queries(shared):
            batch = MultiProofBatch.decode(shared)
            queries = list(batch.queries)
            queries[0], queries[1] = queries[1], queries[0]
            return replace(batch, queries=tuple(queries)).encode()

        results = self.run_against(method_dispatcher, signer, workload[:3],
                                   swap_queries)
        self.assert_all_rejected(results, codes.MALFORMED_PROOF)

    def test_inflated_slot_cost_rejected_only_there(self, method_dispatcher,
                                                    signer, workload):
        def inflate_cost(shared):
            batch = MultiProofBatch.decode(shared)
            costs = list(batch.costs)
            costs[1] *= 1.5
            return replace(batch, costs=tuple(costs)).encode()

        results = self.run_against(method_dispatcher, signer, workload[:3],
                                   inflate_cost)
        assert results[0].ok and results[2].ok
        assert not results[1].ok

    def test_swapped_slot_paths_rejected(self, method_dispatcher, signer,
                                         workload):
        def swap_paths(shared):
            batch = MultiProofBatch.decode(shared)
            paths = list(batch.paths)
            paths[0], paths[1] = paths[1], paths[0]
            return replace(batch, paths=tuple(paths)).encode()

        results = self.run_against(method_dispatcher, signer, workload[:2],
                                   swap_paths)
        self.assert_all_rejected(results)

    def test_shared_proof_for_fewer_queries_than_ok_slots(
            self, method_dispatcher, signer, workload):
        def drop_last_query(shared):
            batch = MultiProofBatch.decode(shared)
            return replace(batch, queries=batch.queries[:-1],
                           paths=batch.paths[:-1], costs=batch.costs[:-1],
                           query_positions=batch.query_positions[:-1]
                           ).encode()

        results = self.run_against(method_dispatcher, signer, workload[:3],
                                   drop_last_query)
        self.assert_all_rejected(results, codes.MALFORMED_PROOF)

    def test_cover_naming_an_undisclosed_leaf(self, method_dispatcher,
                                              signer, workload):
        def point_outside(shared):
            batch = MultiProofBatch.decode(shared)
            (name, positions), *rest = batch.query_positions[0]
            disclosed = set(batch.shared[name].positions)
            outside = min(set(range(len(disclosed) + 1)) - disclosed)
            first = ((name, tuple(sorted({*positions, outside}))), *rest)
            return replace(batch, query_positions=(
                first, *batch.query_positions[1:])).encode()

        results = self.run_against(method_dispatcher, signer, workload[:2],
                                   point_outside)
        self.assert_all_rejected(results, codes.MALFORMED_PROOF)

    def test_shared_section_sent_twice(self, method_dispatcher, signer,
                                       workload):
        class Twice(dict):
            """Every section name listed twice in the encoded blob."""

            def __len__(self):
                return 2 * super().__len__()

            def __iter__(self):
                for name in list(super().__iter__()):
                    yield name
                    yield name

        def duplicate_sections(shared):
            batch = MultiProofBatch.decode(shared)
            return replace(batch, shared=Twice(batch.shared)).encode()

        results = self.run_against(method_dispatcher, signer, workload[:2],
                                   duplicate_sections)
        self.assert_all_rejected(results, codes.MALFORMED_PROOF)


class TestCombineRefusesDisagreeingResponses:
    """The server folds a burst into one multiproof only when every
    response can share it; otherwise ``combine_multiproof`` refuses
    with :class:`MethodError` and the burst ships per-item replies."""

    @pytest.fixture(scope="class")
    def replies(self, road300, signer, workload):
        dij = DijMethod.build(road300.copy(), signer)
        return [dij.answer(vs, vt) for vs, vt in workload[:2]]

    def test_empty_burst(self):
        with pytest.raises(MethodError, match="empty query batch"):
            combine_multiproof([], [])

    def test_more_queries_than_responses(self, replies, workload):
        with pytest.raises(MethodError, match="3 queries vs 2 responses"):
            combine_multiproof(workload[:3], replies)

    def test_response_for_another_query(self, replies, workload):
        with pytest.raises(MethodError, match="does not answer query"):
            combine_multiproof(workload[:2], replies[::-1])

    def test_responses_of_two_methods(self, replies, road300, signer,
                                      workload):
        full = FullMethod.build(road300.copy(), signer)
        with pytest.raises(MethodError, match="mixed methods"):
            combine_multiproof(workload[:2],
                               [replies[0], full.answer(*workload[1])])

    def test_responses_of_two_versions(self, road300, signer, workload):
        graph = road300.copy()
        dij = DijMethod.build(graph, signer)
        before = dij.answer(*workload[0])
        u, v, w = next(iter(graph.edges()))
        graph.update_edge_weight(u, v, w * 1.5)
        dij.apply_update(signer)
        after = dij.answer(*workload[1])
        with pytest.raises(MethodError, match="different descriptor versions"):
            combine_multiproof(workload[:2], [before, after])

    def test_conflicting_payloads_for_one_leaf(self, replies, workload):
        honest = replies[0]
        name, section = next(iter(honest.sections.items()))
        forged = replace(honest, sections={
            **honest.sections,
            name: replace(section, payloads=[section.payloads[0] + b"\x00",
                                             *section.payloads[1:]])})
        pair = workload[0]
        with pytest.raises(MethodError, match="conflicting payloads"):
            combine_multiproof([pair, pair], [honest, forged])
