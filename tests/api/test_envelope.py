"""Frame and message envelope round trips plus strict-decode rejections."""

from __future__ import annotations

import pytest

from repro.api import codes
from repro.api import envelope as E
from repro.encoding import Encoder
from repro.errors import ProtocolError, UnsupportedVersionError


ROUND_TRIP_MESSAGES = [
    E.HelloRequest((1,)),
    E.HelloRequest((1, 2, 7)),
    E.HelloReply(1, "DIJ", 42),
    E.QueryRequest(3, 9),
    E.QueryReply(b"\x00\x01payload", cached=True),
    E.QueryReply(b"", cached=False),
    E.BatchQueryRequest(((1, 2), (3, 4), (5, 6))),
    E.BatchQueryRequest(((1, 2), (3, 4)), multiproof=True),
    E.BatchQueryReply((
        E.BatchItem(b"resp-a", True),
        E.BatchItem(None, False, "query-failed", "unknown node 77"),
        E.BatchItem(b"resp-b", False),
    )),
    E.BatchQueryReply((
        E.BatchItem(b"", True),
        E.BatchItem(None, False, "query-failed", "unknown node 77"),
    ), shared=b"multiproof-bytes"),
    E.DescriptorRequest(),
    E.DescriptorReply(b"descriptor-bytes"),
    E.UpdatePushRequest((
        E.WireUpdate("update-weight", 3, 9, 17.25),
        E.WireUpdate("add-edge", 1, 2, 4.0),
    )),
    E.UpdateReply("incremental", 2, 5, 0, 0.0125, 31),
    E.MetricsRequest(),
    E.MetricsReply(10, 1.5, 6, 4, 12345, 0.8, 2.5, 1, 0.02),
    E.MetricsReply(10, 1.5, 6, 4, 12345, 0.8, 2.5, 1, 0.02,
                   cache_evictions=3, cache_invalidations=1,
                   cache_entries=40, cache_capacity=64),
    E.ErrorMessage("malformed-frame", "bad magic"),
]

#: Messages whose layout ends in an append-only extension: a payload
#: cut where the extension begins is the older layout, and decodes.
ADDITIVE_LAYOUTS = (E.BatchQueryRequest, E.BatchQueryReply, E.MetricsReply)


class TestFrameLayer:
    def test_frame_round_trip(self):
        frame_bytes = E.encode_frame(E.MSG_QUERY, b"abc")
        frame = E.decode_frame(frame_bytes)
        assert frame == E.Frame(E.PROTOCOL_VERSION, E.MSG_QUERY, b"abc")

    def test_magic_is_checked(self):
        with pytest.raises(ProtocolError, match="magic"):
            E.decode_frame(b"XSPV\x01\x02\x00")

    def test_empty_and_short_input(self):
        for data in (b"", b"R", b"RSP", b"RSPV"):
            with pytest.raises(ProtocolError):
                E.decode_frame(data)

    def test_non_bytes_input(self):
        with pytest.raises(ProtocolError, match="bytes"):
            E.decode_frame("RSPV not bytes")

    def test_trailing_bytes_rejected(self):
        frame_bytes = E.encode_frame(E.MSG_QUERY, b"abc") + b"x"
        with pytest.raises(ProtocolError):
            E.decode_frame(frame_bytes)

    def test_truncated_payload_rejected(self):
        frame_bytes = E.encode_frame(E.MSG_QUERY, b"abcdef")
        with pytest.raises(ProtocolError):
            E.decode_frame(frame_bytes[:-2])

    def test_unsupported_version(self):
        frame_bytes = E.encode_frame(E.MSG_QUERY, b"", version=99)
        with pytest.raises(UnsupportedVersionError) as excinfo:
            E.decode_frame(frame_bytes)
        assert excinfo.value.version == 99
        assert excinfo.value.accepted == (E.PROTOCOL_VERSION,)

    def test_accept_versions_is_honoured(self):
        frame_bytes = E.encode_frame(E.MSG_QUERY, b"q", version=3)
        frame = E.decode_frame(frame_bytes, accept_versions=(1, 3))
        assert frame.version == 3


class TestMessageRoundTrips:
    @pytest.mark.parametrize(
        "message", ROUND_TRIP_MESSAGES, ids=lambda m: type(m).__name__)
    def test_round_trip_via_frame(self, message):
        decoded = E.decode_message(E.decode_frame(message.to_frame()))
        assert decoded == message

    @pytest.mark.parametrize(
        "message", ROUND_TRIP_MESSAGES, ids=lambda m: type(m).__name__)
    def test_stray_trailing_byte_is_rejected(self, message):
        """Nothing may follow a complete message.  The stray byte is
        ``0xff`` because an append-only tail legitimately absorbs a
        ``0x00`` (an explicit ``False`` flag or an empty ``shared``)."""
        with pytest.raises(ProtocolError):
            type(message).decode(message.encode() + b"\xff")

    @pytest.mark.parametrize(
        "message", [m for m in ROUND_TRIP_MESSAGES if m.encode()],
        ids=lambda m: type(m).__name__)
    def test_every_truncation_is_rejected_or_an_older_layout(self, message):
        payload = message.encode()
        for cut in range(len(payload)):
            try:
                decoded = type(message).decode(payload[:cut])
            except ProtocolError:
                continue
            assert isinstance(message, ADDITIVE_LAYOUTS), cut
            assert type(decoded) is type(message)

    def test_metrics_reply_accepts_pre_cache_counter_layout(self):
        """Additive evolution: frames from builds without the cache
        counters still decode, with the counters defaulting to zero."""
        from repro.encoding import Encoder

        enc = Encoder()
        enc.write_uint(10).write_f64(1.5)
        enc.write_uint(6).write_uint(4).write_uint(12345)
        enc.write_f64(0.8).write_f64(2.5)
        enc.write_uint(1).write_f64(0.02)
        decoded = E.MetricsReply.decode(enc.getvalue())
        assert decoded.requests == 10
        assert decoded.cache_evictions == 0
        assert decoded.cache_capacity == 0

    def test_metrics_reply_partial_extension_rejected(self):
        """A frame cut inside the extension block is corrupt, not old."""
        full = E.MetricsReply(1, 1.0, 1, 0, 10, 0.1, 0.2, 0, 0.0,
                              cache_evictions=2).encode()
        with pytest.raises(ProtocolError):
            E.MetricsReply.decode(full[:-2])

    def test_query_reply_with_a_composite_tail_is_rejected(self):
        """The sharded-serving layout appended a stitched composite after
        ``cached``; the strict decoder now reads it as trailing bytes."""
        payload = (Encoder().write_bytes(b"").write_bool(False)
                   .write_bytes(b"stitched-composite").getvalue())
        with pytest.raises(ProtocolError):
            E.QueryReply.decode(payload)

    def test_batch_reply_with_a_slots_tail_is_rejected(self):
        """The sharded-serving layout followed the (possibly empty)
        ``shared`` tail with a list of composite slot indices; the
        strict decoder now reads it as trailing bytes."""
        enc = Encoder().write_uint(2)
        for response in (b"plain", b"composite-bytes"):
            enc.write_bool(True).write_bytes(response).write_bool(False)
        enc.write_bytes(b"").write_uint_seq((1,))
        with pytest.raises(ProtocolError):
            E.BatchQueryReply.decode(enc.getvalue())

    def test_manifest_request_type_is_unknown(self, dispatcher):
        """Type 0x07 (the shard manifest request) is not routable."""
        frame = E.encode_frame(0x07, b"")
        reply = E.decode_message(E.decode_frame(dispatcher.dispatch(frame)))
        assert reply.code == codes.E_UNKNOWN_MESSAGE

    def test_unknown_message_type(self):
        frame = E.Frame(E.PROTOCOL_VERSION, 0x55, b"")
        with pytest.raises(ProtocolError, match="unknown message type"):
            E.decode_message(frame)

    def test_payload_trailing_bytes_rejected(self):
        payload = E.QueryRequest(3, 9).encode() + b"\x00"
        with pytest.raises(ProtocolError):
            E.QueryRequest.decode(payload)

    def test_empty_request_messages_reject_payload(self):
        for cls in (E.DescriptorRequest, E.MetricsRequest):
            with pytest.raises(ProtocolError):
                cls.decode(b"\x00")

    def test_hello_with_no_versions_rejected(self):
        payload = E.HelloRequest((1,)).encode()[:1]  # count 1, no entries
        with pytest.raises(ProtocolError):
            E.HelloRequest.decode(payload)
        with pytest.raises(ProtocolError, match="no versions"):
            E.HelloRequest.decode(b"\x00")

    def test_empty_update_push_rejected(self):
        with pytest.raises(ProtocolError, match="no updates"):
            E.UpdatePushRequest.decode(b"\x00")

    def test_minimal_update_round_trips(self):
        # The smallest encodable update (empty kind, 11 bytes) must
        # survive its own round trip — kind validation is the
        # handler's job, not the decoder's.
        message = E.UpdatePushRequest((E.WireUpdate("", 1, 2, 0.0),) * 3)
        assert E.UpdatePushRequest.decode(message.encode()) == message

    def test_batch_count_guard(self):
        # A count far beyond the actual bytes must fail fast, not loop.
        payload = b"\xff\xff\xff\x7f"  # varint count ~256M, no pairs
        with pytest.raises(ProtocolError):
            E.BatchQueryRequest.decode(payload)


class TestErrorFrameHelper:
    def test_round_trip(self):
        message = E.decode_message(
            E.decode_frame(E.error_frame("internal-error", "boom")))
        assert message == E.ErrorMessage("internal-error", "boom")

    def test_unregistered_code_rejected(self):
        with pytest.raises(ProtocolError, match="unregistered"):
            E.error_frame("not-a-real-code", "nope")
