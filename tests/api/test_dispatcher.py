"""Dispatcher behavior: routing, error taxonomy, update gating."""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import codes
from repro.api import envelope as E
from repro.core.batch import MultiProofBatch
from repro.errors import MethodError, ServiceError


def roundtrip(dispatcher, message):
    """Dispatch one message, return the decoded reply message."""
    return E.decode_message(E.decode_frame(dispatcher.dispatch(message.to_frame())))


REQUESTS = [
    E.HelloRequest((1,)),
    E.QueryRequest(3, 9),
    E.BatchQueryRequest(((3, 9), (4, 8))),
    E.BatchQueryRequest(((3, 9), (4, 8)), multiproof=True),
    E.DescriptorRequest(),
    E.UpdatePushRequest((E.WireUpdate("update-weight", 3, 9, 1.0),)),
    E.MetricsRequest(),
]

REPLIES = [
    E.HelloReply(1, "DIJ", 1),
    E.QueryReply(b"x", False),
    E.BatchQueryReply((E.BatchItem(b"x", False),)),
    E.DescriptorReply(b"descriptor"),
    E.UpdateReply("incremental", 2, 1, 0, 0.01, 2),
    E.MetricsReply(1, 1.0, 1, 0, 10, 0.1, 0.2),
    E.ErrorMessage(codes.E_INTERNAL, "boom"),
]


def _name(message):
    return type(message).__name__


class TestHello:
    def test_negotiates_highest_shared_version(self, dispatcher, dij):
        # Version 1 (one-ball DIJ replies) is no longer spoken.
        reply = roundtrip(dispatcher, E.HelloRequest((1, E.PROTOCOL_VERSION)))
        assert reply == E.HelloReply(E.PROTOCOL_VERSION, "DIJ",
                                     dij.descriptor.version)

    def test_no_shared_version_is_an_error(self, dispatcher):
        # The hello frame itself rides the current version; the *listed*
        # versions clash.
        reply = roundtrip(dispatcher, E.HelloRequest((41, 42)))
        assert isinstance(reply, E.ErrorMessage)
        assert reply.code == codes.E_UNSUPPORTED_VERSION


class TestQuery:
    def test_query_payload_matches_in_process_answer(self, dispatcher, dij,
                                                     workload):
        vs, vt = workload[0]
        reply = roundtrip(dispatcher, E.QueryRequest(vs, vt))
        assert isinstance(reply, E.QueryReply)
        assert reply.response_bytes == dij.answer(vs, vt).encode()

    def test_second_hit_is_cached(self, dispatcher, workload):
        vs, vt = workload[0]
        first = roundtrip(dispatcher, E.QueryRequest(vs, vt))
        second = roundtrip(dispatcher, E.QueryRequest(vs, vt))
        assert not first.cached and second.cached
        assert first.response_bytes == second.response_bytes

    def test_unknown_node_is_query_failed(self, dispatcher):
        reply = roundtrip(dispatcher, E.QueryRequest(10**9, 3))
        assert isinstance(reply, E.ErrorMessage)
        assert reply.code == codes.E_QUERY_FAILED

    def test_batch_mixes_responses_and_errors(self, dispatcher, workload):
        pairs = [workload[0], (10**9, 3), workload[1]]
        reply = roundtrip(dispatcher, E.BatchQueryRequest(tuple(pairs)))
        assert isinstance(reply, E.BatchQueryReply)
        assert [item.ok for item in reply.items] == [True, False, True]
        assert reply.items[1].error_code == codes.E_QUERY_FAILED
        assert MultiProofBatch.decode(reply.shared).queries == \
            (workload[0], workload[1])


class TestDescriptorAndMetrics:
    def test_descriptor_verbatim(self, dispatcher, dij):
        reply = roundtrip(dispatcher, E.DescriptorRequest())
        assert reply == E.DescriptorReply(dij.descriptor.encode())

    def test_metrics_reflect_traffic(self, dispatcher, workload):
        for pair in workload[:3]:
            roundtrip(dispatcher, E.QueryRequest(*pair))
        reply = roundtrip(dispatcher, E.MetricsRequest())
        assert isinstance(reply, E.MetricsReply)
        assert reply.requests == 3
        assert reply.proof_bytes > 0

    def test_metrics_json_is_the_wire_frames_record(self, dispatcher,
                                                    workload):
        roundtrip(dispatcher, E.QueryRequest(*workload[0]))
        record = dispatcher.metrics_json()
        frame = roundtrip(dispatcher, E.MetricsRequest())
        derived = {"qps", "hit_rate"}
        assert set(record) - derived == {
            field.name for field in dataclasses.fields(frame)}
        assert record["requests"] == frame.requests == 1
        assert record["cache_capacity"] == frame.cache_capacity


class TestHandlerFailures:
    """A handler that raises still yields a typed reply frame."""

    def test_typed_failure_is_bad_request(self, server, dispatcher,
                                          monkeypatch):
        def refuse(source, target):
            raise ServiceError(f"cannot serve {source}->{target}")

        monkeypatch.setattr(server, "answer", refuse)
        reply = roundtrip(dispatcher, E.QueryRequest(3, 9))
        assert reply == E.ErrorMessage(codes.E_BAD_REQUEST,
                                       "cannot serve 3->9")

    def test_untyped_failure_is_internal_and_not_fatal(
            self, server, dispatcher, workload, monkeypatch):
        answer = server.answer

        def crash(source, target):
            raise RuntimeError("boom")

        monkeypatch.setattr(server, "answer", crash)
        reply = roundtrip(dispatcher, E.QueryRequest(*workload[0]))
        assert reply == E.ErrorMessage(codes.E_INTERNAL,
                                       "RuntimeError: boom")
        monkeypatch.setattr(server, "answer", answer)
        assert isinstance(roundtrip(dispatcher, E.QueryRequest(*workload[0])),
                          E.QueryReply)

    def test_burst_that_cannot_share_a_multiproof_is_an_internal_error(
            self, dispatcher, workload, monkeypatch):
        import repro.core.batch

        def cannot_share(queries, responses):
            raise MethodError("responses disagree")

        monkeypatch.setattr(repro.core.batch, "combine_multiproof",
                            cannot_share)
        reply = roundtrip(dispatcher, E.BatchQueryRequest(tuple(workload[:3]),
                                                          multiproof=True))
        assert reply == E.ErrorMessage(codes.E_INTERNAL,
                                       "MethodError: responses disagree")


class TestUpdates:
    def test_push_without_signer_is_refused(self, server):
        dispatcher = server.dispatcher()  # provider-side: no signing key
        reply = roundtrip(dispatcher, E.UpdatePushRequest(
            (E.WireUpdate("update-weight", 1, 2, 5.0),)))
        assert isinstance(reply, E.ErrorMessage)
        assert reply.code == codes.E_UPDATES_DISABLED

    def test_push_bumps_descriptor_version(self, mutable_dispatcher,
                                           mutable_graph):
        server = mutable_dispatcher.server
        base = server.descriptor_version
        u = next(iter(mutable_graph.node_ids()))
        v = next(iter(mutable_graph.neighbors(u)))
        weight = mutable_graph.neighbors(u)[v] * 1.5
        reply = roundtrip(mutable_dispatcher, E.UpdatePushRequest(
            (E.WireUpdate("update-weight", u, v, weight),)))
        assert isinstance(reply, E.UpdateReply)
        assert reply.version > base
        assert server.descriptor_version == reply.version

    def test_invalid_update_is_update_failed(self, mutable_dispatcher):
        server = mutable_dispatcher.server
        base = server.descriptor_version
        reply = roundtrip(mutable_dispatcher, E.UpdatePushRequest(
            (E.WireUpdate("update-weight", 10**9, 10**9 + 1, 1.0),)))
        assert isinstance(reply, E.ErrorMessage)
        assert reply.code == codes.E_UPDATE_FAILED
        # The rollback kept the served state intact.
        assert server.descriptor_version == base

    def test_unknown_update_kind_is_bad_request(self, mutable_dispatcher):
        reply = roundtrip(mutable_dispatcher, E.UpdatePushRequest(
            (E.WireUpdate("teleport-node", 1, 2, 0.0),)))
        assert isinstance(reply, E.ErrorMessage)
        assert reply.code in (codes.E_UPDATE_FAILED, codes.E_BAD_REQUEST)


class TestProtocolErrors:
    def test_malformed_frame(self, dispatcher):
        reply = E.decode_message(E.decode_frame(dispatcher.dispatch(b"junk")))
        assert reply.code == codes.E_MALFORMED_FRAME

    def test_unsupported_version(self, dispatcher):
        frame = E.encode_frame(E.MSG_QUERY, b"\x01\x02", version=9)
        reply = E.decode_message(E.decode_frame(dispatcher.dispatch(frame)))
        assert reply.code == codes.E_UNSUPPORTED_VERSION

    def test_unknown_message_type(self, dispatcher):
        frame = E.encode_frame(0x42, b"")
        reply = E.decode_message(E.decode_frame(dispatcher.dispatch(frame)))
        assert reply.code == codes.E_UNKNOWN_MESSAGE

    def test_error_code_follows_the_type_not_the_wording(self, dispatcher,
                                                         monkeypatch):
        from repro.api import dispatcher as module
        from repro.errors import ProtocolError, UnknownMessageError

        assert issubclass(UnknownMessageError, ProtocolError)
        for raised, code in (
                (UnknownMessageError("never heard of it"),
                 codes.E_UNKNOWN_MESSAGE),
                (ProtocolError("payload mentions unknown message type"),
                 codes.E_MALFORMED_FRAME)):
            def refuse(frame, raised=raised):
                raise raised

            monkeypatch.setattr(module, "decode_message", refuse)
            assert roundtrip(dispatcher, E.QueryRequest(1, 2)).code == code

    def test_reply_types_are_not_requests(self, dispatcher):
        reply = roundtrip(dispatcher, E.QueryReply(b"x", False))
        assert isinstance(reply, E.ErrorMessage)
        assert reply.code == codes.E_UNKNOWN_MESSAGE

    @pytest.mark.parametrize("request_message", REQUESTS, ids=_name)
    def test_request_with_a_stray_tail_is_malformed(self, dispatcher,
                                                    workload,
                                                    request_message):
        # The byte that follows a complete request is refused before
        # any handler runs, and the server keeps answering.
        frame = E.encode_frame(request_message.MSG_TYPE,
                               request_message.encode() + b"\xff")
        reply = E.decode_message(E.decode_frame(dispatcher.dispatch(frame)))
        assert reply.code == codes.E_MALFORMED_FRAME
        assert isinstance(roundtrip(dispatcher, E.QueryRequest(*workload[0])),
                          E.QueryReply)

    @pytest.mark.parametrize("reply_message", REPLIES, ids=_name)
    def test_every_reply_type_is_refused(self, dispatcher, reply_message):
        # A server takes requests only; nothing consumes another
        # server's replies.
        reply = roundtrip(dispatcher, reply_message)
        assert isinstance(reply, E.ErrorMessage)
        assert reply.code == codes.E_UNKNOWN_MESSAGE

    def test_retired_manifest_reply_type_is_unknown(self, dispatcher):
        frame = E.encode_frame(0x07 | E.REPLY_BIT, b"signed-manifest")
        reply = E.decode_message(E.decode_frame(dispatcher.dispatch(frame)))
        assert reply.code == codes.E_UNKNOWN_MESSAGE

    def test_all_emitted_codes_are_registered(self, dispatcher, workload):
        probes = [b"junk", E.encode_frame(0x42, b""),
                  E.encode_frame(E.MSG_QUERY, b"", version=9),
                  E.QueryRequest(10**9, 1).to_frame(),
                  E.QueryReply(b"x", False).to_frame()]
        for probe in probes:
            message = E.decode_message(E.decode_frame(dispatcher.dispatch(probe)))
            if isinstance(message, E.ErrorMessage):
                assert message.code in codes.WIRE_ERRORS
