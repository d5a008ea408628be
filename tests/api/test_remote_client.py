"""RemoteClient over the trivial transport: bytes-only verification."""

from __future__ import annotations

import pytest

from repro.api import codes
from repro.api.client import RemoteClient
from repro.api.transport import InProcessTransport
from repro.api.envelope import (
    PROTOCOL_VERSION,
    BatchQueryRequest,
    DescriptorReply,
    HelloReply,
    QueryRequest,
    WireUpdate,
)
from repro.core.proofs import QueryResponse
from repro.errors import ProtocolError


@pytest.fixture()
def client(dispatcher, signer):
    return RemoteClient(InProcessTransport(dispatcher), signer.verify)


class TestQueries:
    def test_query_verifies_and_matches_in_process_bytes(self, client, dij,
                                                         workload):
        for vs, vt in workload:
            result = client.query(vs, vt)
            assert result.ok, (result.verdict.reason, result.verdict.detail)
            assert result.response_bytes == dij.answer(vs, vt).encode()
            assert result.wire_bytes > len(result.response_bytes)

    def test_decoded_response_is_accessible(self, client, workload):
        vs, vt = workload[0]
        result = client.query(vs, vt)
        decoded = result.response
        assert isinstance(decoded, QueryResponse)
        assert (decoded.source, decoded.target) == (vs, vt)

    def test_query_batch(self, client, workload):
        results = client.query_batch(workload)
        assert all(result.ok for result in results)
        assert [(r.source, r.target) for r in results] == workload

    def test_unknown_node_is_a_verdict_not_an_exception(self, client):
        result = client.query(10**9, 1)
        assert not result.ok
        assert result.response_bytes is None
        assert result.verdict.reason == codes.E_QUERY_FAILED

    def test_batch_error_slot_is_a_verdict(self, client, workload):
        results = client.query_batch([workload[0], (10**9, 1)])
        assert results[0].ok
        assert not results[1].ok
        assert results[1].verdict.reason == codes.E_QUERY_FAILED


class TestTransportFreeInterpretation:
    """The ``interpret_*`` halves hold a reply to the request it answers."""

    def test_result_path_is_the_verified_path(self, client, dij, workload):
        vs, vt = workload[0]
        answer = dij.answer(vs, vt)
        assert client.query(vs, vt).path == (answer.path_nodes,
                                             answer.path_cost)

    def test_error_result_has_no_response_or_path(self, client):
        result = client.query(10**9, 1)
        assert result.response is None and result.path is None

    def test_exchange_of_another_reply_type_is_a_protocol_error(self):
        frame = HelloReply(PROTOCOL_VERSION, "DIJ", 1).to_frame()
        with pytest.raises(ProtocolError, match="expected DescriptorReply"):
            RemoteClient.interpret_exchange(frame, DescriptorReply)

    def test_query_reply_of_another_type_is_a_protocol_error(self, client):
        frame = HelloReply(PROTOCOL_VERSION, "DIJ", 1).to_frame()
        with pytest.raises(ProtocolError, match="expected QueryReply"):
            client.interpret_query_reply(3, 9, frame)

    def test_batch_reply_of_another_type_is_a_protocol_error(self, client,
                                                             dispatcher,
                                                             workload):
        frame = dispatcher.dispatch(QueryRequest(*workload[0]).to_frame())
        with pytest.raises(ProtocolError, match="expected BatchQueryReply"):
            client.interpret_batch_reply([workload[0]], frame)

    def test_batch_reply_for_another_burst_is_a_protocol_error(
            self, client, dispatcher, workload):
        frame = dispatcher.dispatch(
            BatchQueryRequest(tuple(workload[:2])).to_frame())
        with pytest.raises(ProtocolError, match="2 items for 3 queries"):
            client.interpret_batch_reply(workload[:3], frame)


class TestHandshakeAndDescriptor:
    def test_hello(self, client, dij):
        reply = client.hello()
        assert reply.method == dij.name
        assert reply.version == PROTOCOL_VERSION
        assert reply.descriptor_version == dij.descriptor.version

    def test_fetch_descriptor_verbatim(self, client, dij):
        descriptor, raw = client.fetch_descriptor()
        assert raw == dij.descriptor.encode()
        assert descriptor == dij.descriptor


class TestFreshness:
    def test_update_push_and_stale_replay_rejection(self, mutable_dispatcher,
                                                    signer, workload):
        client = RemoteClient(InProcessTransport(mutable_dispatcher),
                              signer.verify)
        graph = mutable_dispatcher.server.method.graph
        vs, vt = workload[0]
        stale_bytes = client.query(vs, vt).response_bytes

        u = next(iter(graph.node_ids()))
        v = next(iter(graph.neighbors(u)))
        report = client.push_updates(
            [WireUpdate("update-weight", u, v, graph.neighbors(u)[v] * 1.25)])
        client.require_version(report.version)

        # The pre-update bytes are authentic but superseded.
        stale = client.client.verify_bytes(vs, vt, stale_bytes)
        assert not stale.ok and stale.reason == codes.STALE_DESCRIPTOR
        # A fresh wire query serves — and verifies — the new version.
        fresh = client.query(vs, vt)
        assert fresh.ok
        assert fresh.response.descriptor.version == report.version

    def test_push_to_provider_only_endpoint_raises(self, server, signer,
                                                   workload):
        client = RemoteClient(InProcessTransport(server.dispatcher()),
                              signer.verify)
        with pytest.raises(ProtocolError, match=codes.E_UPDATES_DISABLED):
            client.push_updates([WireUpdate("update-weight", 1, 2, 5.0)])


class TestMetricsAndTransport:
    def test_metrics_counts_wire_traffic(self, client, workload):
        for pair in workload[:2]:
            client.query(*pair)
        metrics = client.metrics()
        assert metrics.requests == 2

    def test_bare_callable_transport(self, dispatcher, signer, workload):
        client = RemoteClient(dispatcher.dispatch, signer.verify)
        assert client.query(*workload[0]).ok

    def test_wire_log_accounts_frames(self, dispatcher, signer, workload):
        transport = InProcessTransport(dispatcher, log_frames=True)
        client = RemoteClient(transport, signer.verify)
        result = client.query(*workload[0])
        assert transport.wire_log[-1][1] == result.wire_bytes


class TestTamperDetection:
    def test_tampered_wire_bytes_are_rejected(self, dispatcher, signer,
                                              workload):
        """A man-in-the-middle flipping proof bytes cannot survive."""
        vs, vt = workload[0]

        class Tamper:
            def roundtrip(self, frame):
                reply = bytearray(dispatcher.dispatch(frame))
                reply[-40] ^= 0xFF  # inside the descriptor signature
                return bytes(reply)

        client = RemoteClient(Tamper(), signer.verify)
        result = client.query(vs, vt)
        assert not result.ok
        assert result.verdict.reason in (codes.BAD_SIGNATURE,
                                         codes.MALFORMED_RESPONSE,
                                         codes.ROOT_MISMATCH,
                                         codes.MALFORMED_PROOF)
