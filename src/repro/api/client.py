"""A client that trusts nothing but bytes and the owner's public key.

:class:`RemoteClient` is the paper's third party made literal: it holds
a transport and a signature verifier, and everything else it learns —
the served method, the signed descriptor, every proof — arrives as wire
bytes it decodes and checks itself.  Verification goes through the
method registry's *class-level* ``verify`` (via
:class:`~repro.core.framework.Client`), so no built
:class:`~repro.core.method.VerificationMethod` instance — and hence no
graph data — ever exists on the client side.

The claim this layering buys: a response that verifies here would
verify for a browser on another continent, because both see the same
bytes and hold the same public key.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.envelope import (
    BatchQueryRequest,
    BatchQueryReply,
    DescriptorReply,
    DescriptorRequest,
    ErrorMessage,
    HelloReply,
    HelloRequest,
    Message,
    MetricsReply,
    MetricsRequest,
    QueryReply,
    QueryRequest,
    SUPPORTED_VERSIONS,
    UpdatePushRequest,
    UpdateReply,
    WireUpdate,
    decode_frame,
    decode_message,
)
from repro.api import codes
from repro.core.framework import Client, VerificationResult
from repro.core.proofs import QueryResponse, SignedDescriptor
from repro.errors import ProtocolError


@dataclass(frozen=True)
class RemoteResult:
    """One remotely served and locally verified query.

    ``response_bytes`` is the provider's payload verbatim for a QUERY
    reply; it is ``None`` when the server answered with a wire error
    and for every BATCH slot, whose proof lives in the batch's shared
    multiproof and is never rebuilt into a standalone reply.
    ``wire_bytes`` is what the reply frame actually cost on the wire,
    framing included — the number to hold against the paper's
    proof-size figures (a batch's frame is split evenly over its
    slots).
    """

    source: int
    target: int
    verdict: VerificationResult
    response_bytes: "bytes | None"
    wire_bytes: int
    cached: bool = False
    #: A BATCH slot's ``(path_nodes, path_cost)`` as the batch reported it.
    batch_path: "tuple | None" = None

    @property
    def ok(self) -> bool:
        """Whether the response arrived and verified."""
        return self.verdict.ok

    @property
    def response(self) -> "QueryResponse | None":
        """The decoded QUERY response (re-decoded on access; else None)."""
        if self.response_bytes is None:
            return None
        return QueryResponse.decode(self.response_bytes)

    @property
    def path(self) -> "tuple | None":
        """``(path_nodes, path_cost)`` the provider reported (None on a
        wire error); verified exactly when :attr:`ok`."""
        decoded = self.response
        if decoded is None:
            return self.batch_path
        return decoded.path_nodes, decoded.path_cost


class RemoteClient:
    """Query a proof service over any transport and verify from bytes.

    >>> transport = HttpTransport("http://127.0.0.1:8350")  # doctest: +SKIP
    >>> client = RemoteClient(transport, owner_public.verify)  # doctest: +SKIP
    >>> client.query(3, 9).ok                               # doctest: +SKIP
    True
    """

    def __init__(self, transport, verify_signature, *,
                 min_descriptor_version: "int | None" = None) -> None:
        """``transport`` has ``roundtrip(bytes) -> bytes`` (or is a bare
        callable); ``verify_signature`` and ``min_descriptor_version``
        are the trust anchors, exactly as for
        :class:`~repro.core.framework.Client`.
        """
        self.transport = transport
        #: The bytes-first verifier doing the actual checking.
        self.client = Client(verify_signature,
                             min_descriptor_version=min_descriptor_version)

    # ------------------------------------------------------------------
    def require_version(self, version: int) -> None:
        """Raise the freshness floor (monotonic; see ``Client``)."""
        self.client.require_version(version)

    @property
    def min_descriptor_version(self) -> "int | None":
        """The current stale-replay rejection floor."""
        return self.client.min_descriptor_version

    # ------------------------------------------------------------------
    def _roundtrip(self, frame: bytes) -> bytes:
        roundtrip = getattr(self.transport, "roundtrip", self.transport)
        return roundtrip(frame)

    def _exchange(self, request: Message, reply_cls) -> Message:
        """Send one request; return its typed reply or the error message.

        Malformed reply frames raise :class:`ProtocolError` (the
        transport or server is broken — there is no verdict to salvage);
        a well-formed :class:`ErrorMessage` is returned for the caller
        to turn into a failure value where one makes sense.
        """
        reply_frame = self._roundtrip(request.to_frame())
        return self.interpret_exchange(reply_frame, reply_cls)

    @staticmethod
    def interpret_exchange(reply_frame: bytes, reply_cls) -> Message:
        """Decode one reply frame into its expected typed message.

        The transport-free half of :meth:`_exchange`, split out so
        callers that carry their own frames (an event loop over
        ``AsyncTransport``) reuse the exact decoding discipline.
        """
        message = decode_message(decode_frame(reply_frame))
        if isinstance(message, (reply_cls, ErrorMessage)):
            return message
        raise ProtocolError(
            f"expected {reply_cls.__name__} or ErrorMessage, "
            f"got {type(message).__name__}"
        )

    @staticmethod
    def _raise_on_error(message: Message) -> Message:
        if isinstance(message, ErrorMessage):
            raise ProtocolError(f"server error {message.code}: {message.detail}")
        return message

    # ------------------------------------------------------------------
    def hello(self, versions=SUPPORTED_VERSIONS) -> HelloReply:
        """Negotiate a protocol version; learn what is being served."""
        return self._raise_on_error(
            self._exchange(HelloRequest(tuple(versions)), HelloReply))

    def fetch_descriptor(self) -> "tuple[SignedDescriptor, bytes]":
        """The served signed descriptor, decoded plus verbatim bytes.

        The descriptor inside each response is what verification
        actually trusts; this call exists so a client can inspect the
        service (method, graph version) before querying, and so
        artifact-based verification (``repro-spv verify``) has a
        descriptor file to pin.
        """
        reply = self._raise_on_error(
            self._exchange(DescriptorRequest(), DescriptorReply))
        return SignedDescriptor.decode(reply.descriptor_bytes), reply.descriptor_bytes

    def query(self, source: int, target: int) -> RemoteResult:
        """One verified shortest path query over the wire."""
        request = QueryRequest(source, target)
        reply_frame = self._roundtrip(request.to_frame())
        return self.interpret_query_reply(source, target, reply_frame)

    def interpret_query_reply(self, source: int, target: int,
                              reply_frame: bytes) -> RemoteResult:
        """Decode and verify one query reply frame.

        The transport-free half of :meth:`query`: callers that already
        carried the frame (async drivers, recorded traffic) get the
        identical decoding and verification.
        """
        wire_bytes = len(reply_frame)
        message = decode_message(decode_frame(reply_frame))
        if isinstance(message, ErrorMessage):
            return RemoteResult(
                source, target,
                VerificationResult.failure(message.code, message.detail),
                None, wire_bytes,
            )
        if not isinstance(message, QueryReply):
            raise ProtocolError(
                f"expected QueryReply or ErrorMessage, got {type(message).__name__}"
            )
        verdict = self.client.verify_bytes(source, target, message.response_bytes)
        return RemoteResult(source, target, verdict, message.response_bytes,
                            wire_bytes, cached=message.cached)

    def query_batch(self, pairs) -> "list[RemoteResult]":
        """A burst of queries in one frame, individually verified.

        The server answers the ok slots with one shared Merkle
        multiproof, which this client authenticates once and then
        checks slot by slot (:func:`~repro.core.batch.verify_batch`).
        Each slot's verdict is the one :meth:`query` gives its pair
        alone; only the wire and verification cost change.
        """
        pairs = [(int(s), int(t)) for s, t in pairs]
        # The flag stays on the wire so request bytes do not change.
        request = BatchQueryRequest(tuple(pairs), multiproof=True)
        reply_frame = self._roundtrip(request.to_frame())
        return self.interpret_batch_reply(pairs, reply_frame)

    def interpret_batch_reply(self, pairs,
                              reply_frame: bytes) -> "list[RemoteResult]":
        """Decode and verify one batch reply frame against its queries.

        The transport-free half of :meth:`query_batch`, for callers
        that carry their own frames.  The shared blob is untrusted
        input: whatever is wrong with it — or with ok slots that carry
        bytes of their own — becomes failure verdicts, never an
        exception.
        """
        from repro.core.batch import verify_batch

        pairs = [(int(s), int(t)) for s, t in pairs]
        message = decode_message(decode_frame(reply_frame))
        self._raise_on_error(message)
        if not isinstance(message, BatchQueryReply):
            raise ProtocolError(
                f"expected BatchQueryReply, got {type(message).__name__}"
            )
        if len(message.items) != len(pairs):
            raise ProtocolError(
                f"batch reply has {len(message.items)} items for "
                f"{len(pairs)} queries"
            )
        ok = [index for index, item in enumerate(message.items) if item.ok]
        if any(message.items[index].response_bytes for index in ok) \
                or (ok and not message.shared):
            failure = VerificationResult.failure(
                codes.MALFORMED_PROOF,
                "ok batch slots must ride on one shared multiproof")
            checked = [(failure, None)] * len(ok)
        else:
            checked = verify_batch(
                message.shared, [pairs[index] for index in ok],
                self.client.verify_signature,
                min_version=self.client.min_descriptor_version)
        checked_at = dict(zip(ok, checked))
        # The shared material serves the whole batch; amortize the frame
        # evenly (the remainder rides on the first item).
        count, frame_bytes = len(pairs), len(reply_frame)
        share = frame_bytes // count if count else 0
        results = []
        for index, ((source, target), item) in enumerate(zip(pairs, message.items)):
            wire = share + (frame_bytes - share * count if index == 0 else 0)
            if item.ok:
                verdict, path = checked_at[index]
            else:
                verdict = VerificationResult.failure(item.error_code,
                                                     item.error_detail)
                path = None
            results.append(RemoteResult(source, target, verdict, None, wire,
                                        cached=item.cached, batch_path=path))
        return results

    def push_updates(self, updates) -> UpdateReply:
        """Push an owner mutation batch (server must hold the signer).

        ``updates`` may be :class:`~repro.api.envelope.WireUpdate`,
        :class:`~repro.workload.updates.GraphUpdate`, or any object with
        ``kind`` / ``u`` / ``v`` / ``weight``.  Raises
        :class:`ProtocolError` when the server refuses
        (``updates-not-supported``) or the batch fails.
        """
        wire_updates = tuple(
            WireUpdate(u.kind, u.u, u.v, getattr(u, "weight", 0.0))
            for u in updates
        )
        return self._raise_on_error(
            self._exchange(UpdatePushRequest(wire_updates), UpdateReply))

    def metrics(self) -> MetricsReply:
        """The server's current metrics window."""
        return self._raise_on_error(
            self._exchange(MetricsRequest(), MetricsReply))
