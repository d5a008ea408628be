"""Framed wire envelopes: the transport-agnostic protocol surface.

Every exchange between a client and a proof service is one *frame*:

.. code-block:: text

    +--------+-----------------+--------------+------------------+
    | "RSPV" | protocol version | message type | payload           |
    | 4 bytes| varint           | varint       | varint len + body |
    +--------+-----------------+--------------+------------------+

The frame is the only self-describing layer; payloads are fixed-schema
messages encoded with the canonical :mod:`repro.encoding` varint layer,
selected by the frame's message type.  Request types occupy ``0x01..``,
their replies ``0x81..`` (request | ``0x80``), and ``0x7F`` is the
protocol-level error reply.

Decoding is strict: unknown magic, truncated fields, trailing bytes and
out-of-range values all raise :class:`~repro.errors.ProtocolError` (a
:class:`~repro.errors.EncodingError`), never ``IndexError`` or
``struct.error`` — a server must survive arbitrary bytes on its socket.

Version negotiation: a client opens with :class:`HelloRequest` listing
the protocol versions it speaks; the server answers with the highest
one it shares (plus the served method and descriptor version) or an
``unsupported-version`` error.  Subsequent frames carry the negotiated
version; frames in an unaccepted version are rejected per frame, so a
stateless server needs no session table.

This module has no dependency on the serving stack — it is pure
bytes-in/bytes-out, which is what lets the same envelopes ride an HTTP
POST body, a unix socket, or the in-process trivial transport.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Sequence

from repro.api.codes import WIRE_ERRORS
from repro.encoding import Decoder, Encoder
from repro.errors import (
    EncodingError,
    ProtocolError,
    UnknownMessageError,
    UnsupportedVersionError,
)

#: Leading frame bytes: "Repro Shortest Path Verification".
MAGIC = b"RSPV"

#: The protocol version this build speaks (bump on breaking layout
#: changes; additions ride on new message types instead).  2: DIJ
#: replies disclose two half-balls and verify by their meeting cost.
PROTOCOL_VERSION = 2

#: Versions a default endpoint accepts.
SUPPORTED_VERSIONS = (PROTOCOL_VERSION,)

# -- message type registry ---------------------------------------------
MSG_HELLO = 0x01
MSG_QUERY = 0x02
MSG_BATCH_QUERY = 0x03
MSG_GET_DESCRIPTOR = 0x04
MSG_PUSH_UPDATES = 0x05
MSG_GET_METRICS = 0x06

#: Reply types mirror their request with the high bit set.
REPLY_BIT = 0x80
MSG_HELLO_OK = MSG_HELLO | REPLY_BIT
MSG_QUERY_OK = MSG_QUERY | REPLY_BIT
MSG_BATCH_OK = MSG_BATCH_QUERY | REPLY_BIT
MSG_DESCRIPTOR_OK = MSG_GET_DESCRIPTOR | REPLY_BIT
MSG_UPDATE_OK = MSG_PUSH_UPDATES | REPLY_BIT
MSG_METRICS_OK = MSG_GET_METRICS | REPLY_BIT

#: Protocol-level failure reply (any request may draw one).
MSG_ERROR = 0x7F


@dataclass(frozen=True)
class Frame:
    """One decoded wire frame."""

    version: int
    msg_type: int
    payload: bytes


def encode_frame(msg_type: int, payload: bytes, *,
                 version: int = PROTOCOL_VERSION) -> bytes:
    """Wrap a message payload in the framed envelope."""
    enc = Encoder()
    enc.write_raw(MAGIC)
    enc.write_uint(version)
    enc.write_uint(msg_type)
    enc.write_bytes(payload)
    return enc.getvalue()


def decode_frame(data: bytes, *,
                 accept_versions: Sequence[int] = SUPPORTED_VERSIONS) -> Frame:
    """Strictly decode one frame; inverse of :func:`encode_frame`.

    Raises :class:`ProtocolError` on anything but a well-formed frame,
    and :class:`UnsupportedVersionError` (a :class:`ProtocolError`)
    when the frame is well-formed but speaks an unaccepted version.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise ProtocolError(f"frame must be bytes, got {type(data).__name__}")
    data = bytes(data)
    if len(data) < len(MAGIC) or data[:len(MAGIC)] != MAGIC:
        raise ProtocolError("bad frame magic")
    dec = Decoder(data)
    dec.read_raw(len(MAGIC))
    try:
        version = dec.read_uint()
        msg_type = dec.read_uint()
        payload = dec.read_bytes()
        dec.expect_end()
    except ProtocolError:
        raise
    except EncodingError as exc:
        raise ProtocolError(f"malformed frame: {exc}") from exc
    if version not in accept_versions:
        raise UnsupportedVersionError(version, accept_versions)
    return Frame(version, msg_type, payload)


# ----------------------------------------------------------------------
# Message payloads
# ----------------------------------------------------------------------
class Message:
    """Base for fixed-schema payload messages.

    Subclasses define :attr:`MSG_TYPE`, :meth:`encode` and
    :meth:`decode`; :meth:`to_frame` / :func:`decode_message` bind them
    to the envelope.  ``decode`` is strict: it consumes the entire
    payload and raises only :class:`ProtocolError`.
    """

    MSG_TYPE: ClassVar[int] = 0

    def encode(self) -> bytes:
        raise NotImplementedError

    @classmethod
    def decode(cls, payload: bytes) -> "Message":
        raise NotImplementedError

    def to_frame(self, *, version: int = PROTOCOL_VERSION) -> bytes:
        """This message as one wire frame."""
        return encode_frame(self.MSG_TYPE, self.encode(), version=version)

    @classmethod
    def _decoder(cls, payload: bytes) -> Decoder:
        return Decoder(bytes(payload))

    @classmethod
    def _finish(cls, dec: Decoder) -> None:
        try:
            dec.expect_end()
        except EncodingError as exc:
            raise ProtocolError(f"{cls.__name__}: {exc}") from exc


def _strict(cls_name: str, fn, *args):
    """Run a decode step, normalizing failures to :class:`ProtocolError`."""
    try:
        return fn(*args)
    except ProtocolError:
        raise
    except EncodingError as exc:
        raise ProtocolError(f"{cls_name}: {exc}") from exc


@dataclass(frozen=True)
class HelloRequest(Message):
    """Client handshake: the protocol versions it can speak."""

    versions: tuple = (PROTOCOL_VERSION,)
    MSG_TYPE: ClassVar[int] = MSG_HELLO

    def encode(self) -> bytes:
        return Encoder().write_uint_seq(self.versions).getvalue()

    @classmethod
    def decode(cls, payload: bytes) -> "HelloRequest":
        dec = cls._decoder(payload)
        versions = tuple(_strict(cls.__name__, dec.read_uint_seq))
        cls._finish(dec)
        if not versions:
            raise ProtocolError("HelloRequest lists no versions")
        return cls(versions)


@dataclass(frozen=True)
class HelloReply(Message):
    """Server handshake: chosen version plus what is being served."""

    version: int
    method: str
    descriptor_version: int
    MSG_TYPE: ClassVar[int] = MSG_HELLO_OK

    def encode(self) -> bytes:
        enc = Encoder()
        enc.write_uint(self.version).write_str(self.method)
        enc.write_uint(self.descriptor_version)
        return enc.getvalue()

    @classmethod
    def decode(cls, payload: bytes) -> "HelloReply":
        dec = cls._decoder(payload)
        version = _strict(cls.__name__, dec.read_uint)
        method = _strict(cls.__name__, dec.read_str)
        descriptor_version = _strict(cls.__name__, dec.read_uint)
        cls._finish(dec)
        return cls(version, method, descriptor_version)


@dataclass(frozen=True)
class QueryRequest(Message):
    """One shortest path query ``(source, target)``."""

    source: int
    target: int
    MSG_TYPE: ClassVar[int] = MSG_QUERY

    def encode(self) -> bytes:
        return Encoder().write_uint(self.source).write_uint(self.target).getvalue()

    @classmethod
    def decode(cls, payload: bytes) -> "QueryRequest":
        dec = cls._decoder(payload)
        source = _strict(cls.__name__, dec.read_uint)
        target = _strict(cls.__name__, dec.read_uint)
        cls._finish(dec)
        return cls(source, target)


@dataclass(frozen=True)
class QueryReply(Message):
    """A successful answer: the full response encoding, verbatim.

    ``response_bytes`` is exactly ``QueryResponse.encode()`` as the
    provider produced it — the wire adds framing around the proof, never
    inside it, so a remote verification sees byte-identical input to an
    in-process one.  ``cached`` is advisory (latency attribution).
    """

    response_bytes: bytes
    cached: bool = False
    MSG_TYPE: ClassVar[int] = MSG_QUERY_OK

    def encode(self) -> bytes:
        enc = Encoder()
        enc.write_bytes(self.response_bytes).write_bool(self.cached)
        return enc.getvalue()

    @classmethod
    def decode(cls, payload: bytes) -> "QueryReply":
        dec = cls._decoder(payload)
        response_bytes = _strict(cls.__name__, dec.read_bytes)
        cached = _strict(cls.__name__, dec.read_bool)
        cls._finish(dec)
        return cls(response_bytes, cached)


@dataclass(frozen=True)
class BatchQueryRequest(Message):
    """A burst of queries from one client, answered in order.

    ``multiproof`` is kept for wire compatibility only: the server
    always answers in the shared-multiproof layout (see
    :class:`BatchQueryReply`) and no longer reads it.  It is an
    append-only tail, written only when set, and the decoder defaults a
    missing tail to ``False``, so request bytes from either generation
    still parse.
    """

    pairs: tuple
    multiproof: bool = False
    MSG_TYPE: ClassVar[int] = MSG_BATCH_QUERY

    def encode(self) -> bytes:
        enc = Encoder()
        enc.write_uint(len(self.pairs))
        for source, target in self.pairs:
            enc.write_uint(source).write_uint(target)
        if self.multiproof:
            enc.write_bool(True)
        return enc.getvalue()

    @classmethod
    def decode(cls, payload: bytes) -> "BatchQueryRequest":
        dec = cls._decoder(payload)
        count = _strict(cls.__name__, dec.read_count, 2)
        pairs = tuple(
            (_strict(cls.__name__, dec.read_uint),
             _strict(cls.__name__, dec.read_uint))
            for _ in range(count)
        )
        multiproof = False
        if dec.remaining:
            multiproof = _strict(cls.__name__, dec.read_bool)
        cls._finish(dec)
        return cls(pairs, multiproof)


@dataclass(frozen=True)
class BatchItem:
    """One slot of a batch reply: a response or a structured error."""

    response_bytes: "bytes | None"
    cached: bool = False
    error_code: str = ""
    error_detail: str = ""

    @property
    def ok(self) -> bool:
        """Whether this slot carries a response."""
        return self.response_bytes is not None


@dataclass(frozen=True)
class BatchQueryReply(Message):
    """Per-query outcomes for one burst, in request order.

    Individual failures (an unknown node in one query) do not fail the
    batch: each slot is independently a response or an error code from
    :data:`repro.api.codes.WIRE_ERRORS`.

    ``shared`` holds one encoded
    :class:`~repro.core.batch.MultiProofBatch` covering every ok slot,
    whose ``response_bytes`` are empty placeholders; the client checks
    the shared material once and each slot on its own leaves.  It is an
    append-only tail, written only when present: an all-error burst
    carries none, and the decoder defaults a missing tail to ``b""``.
    """

    items: tuple
    shared: bytes = b""
    MSG_TYPE: ClassVar[int] = MSG_BATCH_OK

    def encode(self) -> bytes:
        enc = Encoder()
        enc.write_uint(len(self.items))
        for item in self.items:
            enc.write_bool(item.ok)
            if item.ok:
                enc.write_bytes(item.response_bytes)
                enc.write_bool(item.cached)
            else:
                enc.write_str(item.error_code)
                enc.write_str(item.error_detail)
        if self.shared:
            enc.write_bytes(self.shared)
        return enc.getvalue()

    @classmethod
    def decode(cls, payload: bytes) -> "BatchQueryReply":
        dec = cls._decoder(payload)
        count = _strict(cls.__name__, dec.read_count, 3)
        items = []
        for _ in range(count):
            if _strict(cls.__name__, dec.read_bool):
                response_bytes = _strict(cls.__name__, dec.read_bytes)
                cached = _strict(cls.__name__, dec.read_bool)
                items.append(BatchItem(response_bytes, cached))
            else:
                code = _strict(cls.__name__, dec.read_str)
                detail = _strict(cls.__name__, dec.read_str)
                items.append(BatchItem(None, False, code, detail))
        shared = b""
        if dec.remaining:
            shared = _strict(cls.__name__, dec.read_bytes)
        cls._finish(dec)
        return cls(tuple(items), shared)


@dataclass(frozen=True)
class DescriptorRequest(Message):
    """Fetch the owner-signed descriptor currently being served."""

    MSG_TYPE: ClassVar[int] = MSG_GET_DESCRIPTOR

    def encode(self) -> bytes:
        return b""

    @classmethod
    def decode(cls, payload: bytes) -> "DescriptorRequest":
        if payload:
            raise ProtocolError(
                f"DescriptorRequest carries no payload, got {len(payload)} bytes"
            )
        return cls()


@dataclass(frozen=True)
class DescriptorReply(Message):
    """The signed descriptor, verbatim (``SignedDescriptor.encode()``)."""

    descriptor_bytes: bytes
    MSG_TYPE: ClassVar[int] = MSG_DESCRIPTOR_OK

    def encode(self) -> bytes:
        return Encoder().write_bytes(self.descriptor_bytes).getvalue()

    @classmethod
    def decode(cls, payload: bytes) -> "DescriptorReply":
        dec = cls._decoder(payload)
        descriptor_bytes = _strict(cls.__name__, dec.read_bytes)
        cls._finish(dec)
        return cls(descriptor_bytes)


@dataclass(frozen=True)
class WireUpdate:
    """One owner mutation on the wire (kind, endpoints, weight)."""

    kind: str
    u: int
    v: int
    weight: float = 0.0


@dataclass(frozen=True)
class UpdatePushRequest(Message):
    """An owner's mutation batch, applied atomically by the server."""

    updates: tuple
    MSG_TYPE: ClassVar[int] = MSG_PUSH_UPDATES

    def encode(self) -> bytes:
        enc = Encoder()
        enc.write_uint(len(self.updates))
        for update in self.updates:
            enc.write_str(update.kind)
            enc.write_uint(update.u).write_uint(update.v)
            enc.write_f64(update.weight)
        return enc.getvalue()

    @classmethod
    def decode(cls, payload: bytes) -> "UpdatePushRequest":
        dec = cls._decoder(payload)
        # Minimal encoded update: empty kind (1) + u (1) + v (1) + f64
        # weight (8) = 11 bytes.  Semantic validation of the kind is the
        # handler's job, so even such a frame must reach it.
        count = _strict(cls.__name__, dec.read_count, 11)
        updates = tuple(
            WireUpdate(
                _strict(cls.__name__, dec.read_str),
                _strict(cls.__name__, dec.read_uint),
                _strict(cls.__name__, dec.read_uint),
                _strict(cls.__name__, dec.read_f64),
            )
            for _ in range(count)
        )
        cls._finish(dec)
        if not updates:
            raise ProtocolError("UpdatePushRequest carries no updates")
        return cls(updates)


@dataclass(frozen=True)
class UpdateReply(Message):
    """Outcome of an absorbed update batch (mirrors ``UpdateReport``)."""

    mode: str
    mutations: int
    leaves_patched: int
    trees_rebuilt: int
    seconds: float
    version: int
    MSG_TYPE: ClassVar[int] = MSG_UPDATE_OK

    def encode(self) -> bytes:
        enc = Encoder()
        enc.write_str(self.mode).write_uint(self.mutations)
        enc.write_uint(self.leaves_patched).write_uint(self.trees_rebuilt)
        enc.write_f64(self.seconds).write_uint(self.version)
        return enc.getvalue()

    @classmethod
    def decode(cls, payload: bytes) -> "UpdateReply":
        dec = cls._decoder(payload)
        mode = _strict(cls.__name__, dec.read_str)
        mutations = _strict(cls.__name__, dec.read_uint)
        leaves_patched = _strict(cls.__name__, dec.read_uint)
        trees_rebuilt = _strict(cls.__name__, dec.read_uint)
        seconds = _strict(cls.__name__, dec.read_f64)
        version = _strict(cls.__name__, dec.read_uint)
        cls._finish(dec)
        return cls(mode, mutations, leaves_patched, trees_rebuilt,
                   seconds, version)


@dataclass(frozen=True)
class MetricsRequest(Message):
    """Fetch the server's current metrics window."""

    MSG_TYPE: ClassVar[int] = MSG_GET_METRICS

    def encode(self) -> bytes:
        return b""

    @classmethod
    def decode(cls, payload: bytes) -> "MetricsRequest":
        if payload:
            raise ProtocolError(
                f"MetricsRequest carries no payload, got {len(payload)} bytes"
            )
        return cls()


@dataclass(frozen=True)
class MetricsReply(Message):
    """A frozen metrics window (mirrors ``MetricsSnapshot``).

    The four ``cache_*`` counters and the trailing ``p99_ms`` are
    additive extensions: they ride at the end of the payload, and the
    decoder accepts every older prefix layout (defaulting the missing
    tail to zero) so frames from older builds still parse.  Additions
    must stay append-only — anything else is a breaking layout change
    and bumps the protocol version.
    """

    requests: int
    elapsed_seconds: float
    cache_hits: int
    cache_misses: int
    proof_bytes: int
    p50_ms: float
    p95_ms: float
    updates: int = 0
    update_seconds: float = 0.0
    cache_evictions: int = 0
    cache_invalidations: int = 0
    cache_entries: int = 0
    cache_capacity: int = 0
    p99_ms: float = 0.0
    MSG_TYPE: ClassVar[int] = MSG_METRICS_OK

    def encode(self) -> bytes:
        enc = Encoder()
        enc.write_uint(self.requests).write_f64(self.elapsed_seconds)
        enc.write_uint(self.cache_hits).write_uint(self.cache_misses)
        enc.write_uint(self.proof_bytes)
        enc.write_f64(self.p50_ms).write_f64(self.p95_ms)
        enc.write_uint(self.updates).write_f64(self.update_seconds)
        enc.write_uint(self.cache_evictions)
        enc.write_uint(self.cache_invalidations)
        enc.write_uint(self.cache_entries)
        enc.write_uint(self.cache_capacity)
        enc.write_f64(self.p99_ms)
        return enc.getvalue()

    @classmethod
    def decode(cls, payload: bytes) -> "MetricsReply":
        dec = cls._decoder(payload)
        fields = [
            _strict(cls.__name__, dec.read_uint),
            _strict(cls.__name__, dec.read_f64),
            _strict(cls.__name__, dec.read_uint),
            _strict(cls.__name__, dec.read_uint),
            _strict(cls.__name__, dec.read_uint),
            _strict(cls.__name__, dec.read_f64),
            _strict(cls.__name__, dec.read_f64),
            _strict(cls.__name__, dec.read_uint),
            _strict(cls.__name__, dec.read_f64),
        ]
        if dec.remaining:
            fields.extend(
                _strict(cls.__name__, dec.read_uint) for _ in range(4)
            )
        if dec.remaining:
            fields.append(_strict(cls.__name__, dec.read_f64))
        cls._finish(dec)
        return cls(*fields)


@dataclass(frozen=True)
class ErrorMessage(Message):
    """A protocol-level failure reply.

    ``code`` is one of :data:`repro.api.codes.WIRE_ERRORS`; ``detail``
    is human-readable and carries no stable contract.
    """

    code: str
    detail: str = ""
    MSG_TYPE: ClassVar[int] = MSG_ERROR

    def encode(self) -> bytes:
        return Encoder().write_str(self.code).write_str(self.detail).getvalue()

    @classmethod
    def decode(cls, payload: bytes) -> "ErrorMessage":
        dec = cls._decoder(payload)
        code = _strict(cls.__name__, dec.read_str)
        detail = _strict(cls.__name__, dec.read_str)
        cls._finish(dec)
        return cls(code, detail)


#: Message classes by frame type, for generic dispatch.
MESSAGE_TYPES = {
    cls.MSG_TYPE: cls
    for cls in (
        HelloRequest, HelloReply, QueryRequest, QueryReply,
        BatchQueryRequest, BatchQueryReply, DescriptorRequest,
        DescriptorReply, UpdatePushRequest, UpdateReply,
        MetricsRequest, MetricsReply, ErrorMessage,
    )
}


def decode_message(frame: Frame) -> Message:
    """Decode a frame's payload per its message type.

    Raises :class:`UnknownMessageError` for unknown types and plain
    :class:`ProtocolError` for malformed payloads.
    """
    cls = MESSAGE_TYPES.get(frame.msg_type)
    if cls is None:
        raise UnknownMessageError(
            f"unknown message type 0x{frame.msg_type:02x}")
    return cls.decode(frame.payload)


def error_frame(code: str, detail: str = "", *,
                version: int = PROTOCOL_VERSION) -> bytes:
    """Convenience: an :class:`ErrorMessage` wrapped in a frame."""
    if code not in WIRE_ERRORS:
        raise ProtocolError(f"unregistered wire error code {code!r}")
    return ErrorMessage(code, detail).to_frame(version=version)
