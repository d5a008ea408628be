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
    ManifestReply,
    ManifestRequest,
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
from repro.errors import ProtocolError, ReproError


@dataclass(frozen=True)
class RemoteResult:
    """One remotely served and locally verified query.

    ``response_bytes`` is the provider's payload verbatim (``None`` when
    the server answered with a wire error); ``wire_bytes`` is what the
    reply frame actually cost on the wire, framing included — the
    number to hold against the paper's proof-size figures.
    """

    source: int
    target: int
    verdict: VerificationResult
    response_bytes: "bytes | None"
    wire_bytes: int
    cached: bool = False
    #: True when ``response_bytes`` holds a stitched cross-shard
    #: :class:`~repro.shard.stitch.CompositeResponse` instead of a
    #: plain :class:`~repro.core.proofs.QueryResponse`.
    composite: bool = False

    @property
    def ok(self) -> bool:
        """Whether the response arrived and verified."""
        return self.verdict.ok

    @property
    def response(self) -> "QueryResponse | None":
        """The decoded response (re-decoded on access; None on error).

        Composite results have no single ``QueryResponse``; use
        :attr:`composite_response` for those.
        """
        if self.response_bytes is None or self.composite:
            return None
        return QueryResponse.decode(self.response_bytes)

    @property
    def composite_response(self):
        """The decoded stitched answer (None unless ``composite``)."""
        if self.response_bytes is None or not self.composite:
            return None
        from repro.shard.stitch import CompositeResponse

        return CompositeResponse.decode(self.response_bytes)

    @property
    def path(self) -> "tuple | None":
        """``(path_nodes, path_cost)`` regardless of response shape."""
        decoded = self.composite_response if self.composite else self.response
        if decoded is None:
            return None
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
        #: Cached, already-signature-checked shard manifest (set after
        #: the first composite reply or an explicit fetch).
        self._manifest = None

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
        drivers that perform their own roundtrips (the asyncio load
        driver) reuse the exact decoding discipline.
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

    def fetch_manifest(self):
        """The served shard manifest: decoded, verified, plus raw bytes.

        Routers only.  The manifest is the sharded counterpart of the
        descriptor: owner-signed, so the router cannot misrepresent the
        partition.  Raises :class:`ProtocolError` when the server has
        none or the bytes do not decode; the signature/freshness check
        is the returned manifest's and is performed here — a manifest
        that fails it raises too, since nothing it says can be trusted.
        """
        if self.transport is None:
            raise ProtocolError(
                "a transport-free client cannot fetch a manifest; its "
                "caller carries the exchange (interpret_manifest_reply)")
        reply_frame = self._roundtrip(ManifestRequest().to_frame())
        return self.interpret_manifest_reply(reply_frame)

    def interpret_manifest_reply(self, reply_frame: bytes):
        """Decode, verify and adopt one manifest reply frame.

        The transport-free half of :meth:`fetch_manifest`: a driver that
        carried the exchange on its own connection hands the reply here,
        and later composite replies verify against the adopted manifest
        with no further roundtrip.
        """
        from repro.shard.manifest import ShardManifest, verify_manifest

        reply = self._raise_on_error(
            self.interpret_exchange(reply_frame, ManifestReply))
        try:
            manifest = ShardManifest.decode(reply.manifest_bytes)
        except ReproError as exc:
            raise ProtocolError(f"served manifest does not decode: {exc}") from exc
        verdict = verify_manifest(manifest, self.client.verify_signature,
                                  min_version=self.client.min_descriptor_version)
        if not verdict.ok:
            raise ProtocolError(
                f"served manifest rejected ({verdict.reason}): {verdict.detail}"
            )
        self._manifest = manifest
        return manifest, reply.manifest_bytes

    def _composite_verdict(self, source: int, target: int,
                           composite_bytes: bytes) -> VerificationResult:
        """Verify a stitched reply, fetching the manifest on first use."""
        from repro.shard.stitch import verify_composite

        floor = self.client.min_descriptor_version
        manifest = self._manifest
        if manifest is None or (floor is not None and manifest.version < floor):
            try:
                manifest, _ = self.fetch_manifest()
            except ProtocolError as exc:
                return VerificationResult.failure(
                    codes.MALFORMED_MANIFEST,
                    f"cannot obtain a trusted shard manifest: {exc}",
                )
        return verify_composite(source, target, composite_bytes, manifest,
                                self.client.verify_signature,
                                min_version=floor, manifest_verified=True)

    def query(self, source: int, target: int) -> RemoteResult:
        """One verified shortest path query over the wire.

        Against a shard router the reply may be a stitched composite
        (``result.composite``); the verdict then covers every per-shard
        segment plus the cross-shard glue (see
        :func:`repro.shard.stitch.verify_composite`).
        """
        request = QueryRequest(source, target)
        reply_frame = self._roundtrip(request.to_frame())
        return self.interpret_query_reply(source, target, reply_frame)

    def interpret_query_reply(self, source: int, target: int,
                              reply_frame: bytes) -> RemoteResult:
        """Decode and verify one query reply frame.

        The transport-free half of :meth:`query`: callers that already
        carried the frame (async drivers, recorded traffic) get the
        identical decoding, composite handling and verification.
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
        if message.composite:
            verdict = self._composite_verdict(source, target, message.composite)
            return RemoteResult(source, target, verdict, message.composite,
                                wire_bytes, cached=message.cached,
                                composite=True)
        verdict = self.client.verify_bytes(source, target, message.response_bytes)
        return RemoteResult(source, target, verdict, message.response_bytes,
                            wire_bytes, cached=message.cached)

    def query_many(self, pairs) -> "list[RemoteResult]":
        """A burst of queries in one frame, individually verified.

        Asks for the multiproof reply layout (the server falls back to
        per-item responses when it cannot share one); pass
        ``multiproof=False`` to :meth:`query_batch` to force the legacy
        layout.
        """
        return self.query_batch(pairs)

    def query_batch(self, pairs, *, multiproof: bool = True) -> "list[RemoteResult]":
        """A burst of queries in one frame, individually verified.

        With ``multiproof=True`` the server is asked to answer with one
        shared Merkle multiproof: the ok slots arrive as one
        deduplicated digest set which this client expands back into
        per-query standalone responses
        (:func:`~repro.core.batch.recover_responses`) — byte-identical
        to independently served ones — and verifies each through the
        unchanged bytes-first path.  Per-query trust is therefore
        exactly what :meth:`query` provides; only the wire cost
        changes.
        """
        pairs = [(int(s), int(t)) for s, t in pairs]
        request = BatchQueryRequest(tuple(pairs), multiproof=multiproof)
        reply_frame = self._roundtrip(request.to_frame())
        return self.interpret_batch_reply(pairs, reply_frame)

    def interpret_batch_reply(self, pairs,
                              reply_frame: bytes) -> "list[RemoteResult]":
        """Decode and verify one batch reply frame against its queries.

        The transport-free half of :meth:`query_batch` (same multiproof
        expansion, per-slot verdicts and wire accounting), reused by the
        asyncio load driver.
        """
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
        if message.shared and not message.composite_slots:
            return self._verify_multiproof(pairs, message, len(reply_frame))
        composite_slots = frozenset(message.composite_slots)
        # The frame's framing bytes are charged to the batch's first
        # item; per-item payload sizes dominate by orders of magnitude.
        overhead = len(reply_frame) - sum(
            len(item.response_bytes or b"") for item in message.items)
        results = []
        for index, ((source, target), item) in enumerate(zip(pairs, message.items)):
            wire = len(item.response_bytes or b"") + (overhead if index == 0 else 0)
            if not item.ok:
                results.append(RemoteResult(
                    source, target,
                    VerificationResult.failure(item.error_code, item.error_detail),
                    None, wire,
                ))
                continue
            if index in composite_slots:
                verdict = self._composite_verdict(source, target,
                                                  item.response_bytes)
                results.append(RemoteResult(source, target, verdict,
                                            item.response_bytes, wire,
                                            cached=item.cached,
                                            composite=True))
                continue
            verdict = self.client.verify_bytes(source, target, item.response_bytes)
            results.append(RemoteResult(source, target, verdict,
                                        item.response_bytes, wire,
                                        cached=item.cached))
        return results

    def _verify_multiproof(self, pairs, message: BatchQueryReply,
                           frame_bytes: int) -> "list[RemoteResult]":
        """Expand a shared-multiproof reply and verify every slot.

        The shared blob is untrusted input: a decode failure or a
        structurally broken multiproof (omitted digests, covers that
        cannot be recovered) yields failure verdicts for the ok slots —
        never an unhandled exception — while value tampering flows into
        the recovered responses and fails signature/root checks inside
        ``verify_bytes`` exactly as it would for independent replies.
        """
        from repro.core.batch import MultiProofBatch, recover_responses

        ok_indices = [i for i, item in enumerate(message.items) if item.ok]
        recovered: "dict[int, bytes]" = {}
        failure: "VerificationResult | None" = None
        try:
            batch = MultiProofBatch.decode(message.shared)
            if len(batch.queries) != len(ok_indices):
                raise ProtocolError(
                    f"shared multiproof covers {len(batch.queries)} queries "
                    f"for {len(ok_indices)} ok slots"
                )
            for slot, (vs, vt) in zip(ok_indices, batch.queries):
                if (vs, vt) != pairs[slot]:
                    raise ProtocolError(
                        f"shared multiproof answers ({vs}, {vt}) in the "
                        f"slot of query {pairs[slot]}"
                    )
            responses = recover_responses(batch)
            recovered = {
                slot: response.encode()
                for slot, response in zip(ok_indices, responses)
            }
        except ReproError as exc:
            failure = VerificationResult.failure(
                codes.MALFORMED_PROOF,
                f"shared multiproof rejected: {exc}",
            )
        # The shared material serves the whole batch; amortize the frame
        # evenly (the remainder rides on the first item).
        count = len(pairs)
        share = frame_bytes // count if count else 0
        results = []
        for index, ((source, target), item) in enumerate(zip(pairs, message.items)):
            wire = share + (frame_bytes - share * count if index == 0 else 0)
            if not item.ok:
                results.append(RemoteResult(
                    source, target,
                    VerificationResult.failure(item.error_code, item.error_detail),
                    None, wire,
                ))
                continue
            if failure is not None:
                results.append(RemoteResult(source, target, failure, None, wire))
                continue
            response_bytes = recovered[index]
            verdict = self.client.verify_bytes(source, target, response_bytes)
            results.append(RemoteResult(source, target, verdict,
                                        response_bytes, wire,
                                        cached=item.cached))
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
