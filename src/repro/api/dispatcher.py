"""Transport-neutral request dispatch: frames in, frames out.

:class:`Dispatcher` is the single place requests become serving calls.
Every frontend — the in-process trivial transport, the HTTP server, a
test poking bytes directly — hands it one request frame and ships back
whatever frame it returns.  The dispatcher owns the protocol concerns
(version acceptance, strict decoding, the error taxonomy); the wrapped
:class:`~repro.service.server.ProofServer` owns the serving concerns
(cache, bursts, the update gate).  Keeping the split strict is what
makes transports interchangeable: nothing below this layer knows
whether bytes crossed a network.

A dispatcher never raises on malformed input: protocol failures become
:class:`~repro.api.envelope.ErrorMessage` frames with codes from
:mod:`repro.api.codes`, because the peer that sent garbage is exactly
the peer that still needs a well-formed reply.

Update pushes are only honoured when the dispatcher was built with the
owner's ``update_signer`` — a provider-side deployment (which must not
hold signing keys) leaves it unset and answers pushes with
``updates-not-supported``.
"""

from __future__ import annotations

from functools import partial

from repro.api import codes
from repro.api.envelope import (
    BatchItem,
    BatchQueryReply,
    BatchQueryRequest,
    DescriptorReply,
    DescriptorRequest,
    ErrorMessage,
    HelloReply,
    HelloRequest,
    MetricsReply,
    MetricsRequest,
    QueryReply,
    QueryRequest,
    SUPPORTED_VERSIONS,
    UpdatePushRequest,
    UpdateReply,
    decode_frame,
    decode_message,
    error_frame,
)
from repro.crypto.signer import Signer
from repro.errors import (
    MethodError,
    ProtocolError,
    ReproError,
    UnknownMessageError,
    UnsupportedVersionError,
)
from repro.service.server import ProofServer, UpdateRequest


class Dispatcher:
    """Route request frames to a :class:`ProofServer`, reply with frames.

    >>> dispatcher = Dispatcher(server)                  # doctest: +SKIP
    >>> reply = dispatcher.dispatch(QueryRequest(3, 9).to_frame())
    ...                                                  # doctest: +SKIP
    """

    def __init__(self, server: ProofServer, *,
                 update_signer: "Signer | None" = None) -> None:
        self.server = server
        self.update_signer = update_signer

    # ------------------------------------------------------------------
    def dispatch(self, frame_bytes: bytes) -> bytes:
        """Handle one request frame; always returns a reply frame."""
        ready = self.begin(frame_bytes)
        return ready if isinstance(ready, bytes) else ready()

    def begin(self, frame_bytes: bytes):
        """The half of :meth:`dispatch` that never waits.

        Returns the reply frame if it is ready without blocking (a
        malformed frame, ``HELLO``, a ``QUERY`` the cache holds while no
        update is active or queued), else the rest of the work as a
        callable returning it — which an event loop hands to a thread.
        """
        try:
            frame = decode_frame(frame_bytes)
        except UnsupportedVersionError as exc:
            return error_frame(codes.E_UNSUPPORTED_VERSION, str(exc))
        except ProtocolError as exc:
            return error_frame(codes.E_MALFORMED_FRAME, str(exc))
        try:
            message = decode_message(frame)
        except ProtocolError as exc:
            code = (codes.E_UNKNOWN_MESSAGE
                    if isinstance(exc, UnknownMessageError)
                    else codes.E_MALFORMED_FRAME)
            return error_frame(code, str(exc), version=frame.version)
        if isinstance(message, HelloRequest):
            return self._reply(self.handle, message, frame.version)
        if isinstance(message, QueryRequest):
            ready = self._reply(partial(self._handle_query, cached_only=True),
                                message, frame.version)
            if ready is not None:
                return ready
        return partial(self._reply, self.handle, message, frame.version)

    @staticmethod
    def _reply(handle, message, version: int) -> "bytes | None":
        """*handle*'s reply to *message* as a frame (its ``None`` as is)."""
        try:
            reply = handle(message)
        except ReproError as exc:  # a handler's own typed failure
            reply = ErrorMessage(codes.E_BAD_REQUEST, str(exc))
        except Exception as exc:  # noqa: BLE001 — a server must not crash
            reply = ErrorMessage(codes.E_INTERNAL,
                                 f"{type(exc).__name__}: {exc}")
        return None if reply is None else reply.to_frame(version=version)

    # ------------------------------------------------------------------
    def handle(self, message):
        """Dispatch one decoded message to its handler; returns a reply."""
        handler = self._HANDLERS.get(type(message))
        if handler is None:
            return ErrorMessage(
                codes.E_UNKNOWN_MESSAGE,
                f"{type(message).__name__} is not a request",
            )
        return handler(self, message)

    def _handle_hello(self, message: HelloRequest):
        shared = [v for v in message.versions if v in SUPPORTED_VERSIONS]
        if not shared:
            return ErrorMessage(
                codes.E_UNSUPPORTED_VERSION,
                f"no shared protocol version: client speaks "
                f"{sorted(message.versions)}, server accepts "
                f"{sorted(SUPPORTED_VERSIONS)}",
            )
        return HelloReply(
            version=max(shared),
            method=self.server.method.name,
            descriptor_version=self.server.descriptor_version,
        )

    def _handle_query(self, message: QueryRequest, *,
                      cached_only: bool = False):
        """The query's reply; ``None`` if *cached_only* and it is not."""
        answer = (self.server.answer_cached if cached_only
                  else self.server.answer)
        served = answer(message.source, message.target)
        if served is None:
            return None
        if not served.ok:
            return ErrorMessage(codes.E_QUERY_FAILED, served.error)
        return QueryReply(served.encoded, cached=served.cached)

    def _handle_batch(self, message: BatchQueryRequest):
        """Every ok slot's proof in one shared multiproof.

        The ok responses never span descriptor versions, because
        :meth:`~repro.service.server.ProofServer.answer_many` serves the
        whole burst under one hold of the update gate; should they fail
        to combine anyway, that is a server fault, not a bad request.
        An all-error burst carries no shared blob.  The request's
        ``multiproof`` flag is not read.
        """
        from repro.core.batch import combine_multiproof

        served = self.server.answer_many(list(message.pairs))
        ok_pairs = [pair for pair, item in zip(message.pairs, served)
                    if item.ok]
        shared = b""
        if ok_pairs:
            try:
                shared = combine_multiproof(
                    ok_pairs, [item.response for item in served if item.ok]
                ).encode()
            except MethodError as exc:
                return ErrorMessage(codes.E_INTERNAL, f"MethodError: {exc}")
        items = tuple(
            BatchItem(b"", item.cached) if item.ok
            else BatchItem(None, False, codes.E_QUERY_FAILED, item.error)
            for item in served
        )
        return BatchQueryReply(items, shared=shared)

    def _handle_descriptor(self, message: DescriptorRequest):
        return DescriptorReply(self.server.method.descriptor.encode())

    def _handle_updates(self, message: UpdatePushRequest):
        if self.update_signer is None:
            return ErrorMessage(
                codes.E_UPDATES_DISABLED,
                "this endpoint serves proofs only; it holds no signing key",
            )
        updates = [UpdateRequest(u.kind, u.u, u.v, u.weight)
                   for u in message.updates]
        try:
            report = self.server.apply_updates(updates, self.update_signer)
        except ReproError as exc:
            # The server rolled back; old state keeps serving.
            return ErrorMessage(codes.E_UPDATE_FAILED, str(exc))
        return UpdateReply(
            mode=report.mode,
            mutations=report.mutations,
            leaves_patched=report.leaves_patched,
            trees_rebuilt=report.trees_rebuilt,
            seconds=report.seconds,
            version=report.version,
        )

    def _handle_metrics(self, message: MetricsRequest):
        snapshot = self.server.snapshot()
        return MetricsReply(
            requests=snapshot.requests,
            elapsed_seconds=snapshot.elapsed_seconds,
            cache_hits=snapshot.cache_hits,
            cache_misses=snapshot.cache_misses,
            proof_bytes=snapshot.proof_bytes,
            p50_ms=snapshot.p50_ms,
            p95_ms=snapshot.p95_ms,
            updates=snapshot.updates,
            update_seconds=snapshot.update_seconds,
            cache_evictions=snapshot.cache_evictions,
            cache_invalidations=snapshot.cache_invalidations,
            cache_entries=snapshot.cache_entries,
            cache_capacity=snapshot.cache_capacity,
            p99_ms=snapshot.p99_ms,
        )

    def metrics_json(self) -> dict:
        """The current metrics window as a JSON-ready dict.

        This is what ``GET /metrics`` on the HTTP frontend serves; the
        keys match :meth:`MetricsSnapshot.as_dict`, so dashboards read
        the same record whether they scrape HTTP or the wire frame.
        """
        return self.server.snapshot().as_dict()

    _HANDLERS = {
        HelloRequest: _handle_hello,
        QueryRequest: _handle_query,
        BatchQueryRequest: _handle_batch,
        DescriptorRequest: _handle_descriptor,
        UpdatePushRequest: _handle_updates,
        MetricsRequest: _handle_metrics,
    }
