"""The shard router: one front door for a fleet of shard workers.

:class:`ShardRouter` speaks the same framed protocol as a single-box
:class:`~repro.api.dispatcher.Dispatcher`, so every existing frontend
(the HTTP server, the in-process transport, the CLI) can sit in front
of it unchanged.  Behind it, each shard worker is an ordinary proof
server over its shard's core+halo graph — workers do not know they are
sharded.

Routing is untrusted by design.  The router holds the full graph only
to *plan*: it computes the global shortest path on its own index,
splits it into per-shard segments at ownership changes, fans the
segment queries out to the owning workers, and stitches their proofs
into one :class:`~repro.shard.stitch.CompositeResponse`.  Nothing the
router computes is taken on faith — the client re-verifies every
segment against its shard's owner-signed root and every junction
against the owner-signed manifest, so a lying router can only produce
a rejected response or a worse-but-valid path, never a falsely
accepted one.

Queries whose global path never leaves one shard are proxied verbatim:
the reply is the worker's own single-root response, byte-identical to
single-box serving.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

from repro.api import codes
from repro.api.envelope import (
    BatchItem,
    BatchQueryReply,
    BatchQueryRequest,
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
    decode_frame,
    decode_message,
    error_frame,
)
from repro.core.proofs import QueryResponse
from repro.errors import (
    GraphError,
    ProtocolError,
    ReproError,
    ServiceError,
    UnknownMessageError,
    UnsupportedVersionError,
)
from repro.service.metrics import (
    MetricsSnapshot,
    ServerMetrics,
    merge_snapshots,
)
from repro.shard.manifest import ShardManifest
from repro.shard.stitch import CompositeResponse, CompositeSegment
from repro.shortestpath.kernel import indexed_shortest_path

#: Route plans (the segment split of one pair) kept hot in the router.
ROUTE_CACHE_SIZE = 4096


class _ShardFault(Exception):
    """Internal: one shard's leg of a fan-out failed (code + detail)."""

    def __init__(self, code: str, detail: str) -> None:
        super().__init__(detail)
        self.code = code
        self.detail = detail


class ShardRouter:
    """Route framed queries across shard workers; stitch the proofs.

    ``transports[s]`` carries frames to shard *s*'s worker (anything
    with ``roundtrip(bytes) -> bytes``, e.g.
    :class:`~repro.api.transport.PooledHttpTransport` — ``dispatch`` is
    called from the frontend's executor threads, several at once, and
    one HTTP connection carries one in-flight request, so per-shard
    transports must be thread-safe).  ``routing_graph`` is the full graph the manifest
    partitions; it powers planning only.  ``manifest_bytes`` should be
    the owner-produced encoding when available so clients get the
    signed bytes verbatim.
    """

    def __init__(self, manifest: ShardManifest, transports,
                 routing_graph, *, manifest_bytes: "bytes | None" = None,
                 accept_versions=SUPPORTED_VERSIONS) -> None:
        transports = list(transports)
        if len(transports) != manifest.num_shards:
            raise ServiceError(
                f"manifest names {manifest.num_shards} shards but "
                f"{len(transports)} worker transports were given"
            )
        self.manifest = manifest
        self.manifest_bytes = (manifest.encode() if manifest_bytes is None
                               else bytes(manifest_bytes))
        self.transports = transports
        self.accept_versions = tuple(accept_versions)
        self.metrics = ServerMetrics()
        self._index = routing_graph.to_index()
        self._executor = ThreadPoolExecutor(
            max_workers=max(2, 2 * len(transports)),
            thread_name_prefix="shard-router",
        )
        self._route_lock = threading.Lock()
        self._route_cache: "OrderedDict[tuple, tuple]" = OrderedDict()

    def close(self) -> None:
        """Release the fan-out pool (transports are the caller's)."""
        self._executor.shutdown(wait=False)

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- framed entry point (mirrors Dispatcher.dispatch) ---------------
    def dispatch(self, frame_bytes: bytes) -> bytes:
        """Handle one request frame; always returns a reply frame."""
        try:
            frame = decode_frame(frame_bytes,
                                 accept_versions=self.accept_versions)
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
        try:
            reply = self.handle(message)
        except ReproError as exc:
            reply = ErrorMessage(codes.E_BAD_REQUEST, str(exc))
        except Exception as exc:  # noqa: BLE001 — a router must not crash
            reply = ErrorMessage(codes.E_INTERNAL,
                                 f"{type(exc).__name__}: {exc}")
        return reply.to_frame(version=frame.version)

    def handle(self, message) -> Message:
        """Dispatch one decoded message to its handler; returns a reply."""
        handler = self._HANDLERS.get(type(message))
        if handler is None:
            return ErrorMessage(
                codes.E_UNKNOWN_MESSAGE,
                f"{type(message).__name__} is not a request",
            )
        return handler(self, message)

    # -- trivial handlers -----------------------------------------------
    def _handle_hello(self, message: HelloRequest):
        shared = [v for v in message.versions if v in self.accept_versions]
        if not shared:
            return ErrorMessage(
                codes.E_UNSUPPORTED_VERSION,
                f"no shared protocol version: client speaks "
                f"{sorted(message.versions)}, router accepts "
                f"{sorted(self.accept_versions)}",
            )
        return HelloReply(
            version=max(shared),
            method=self.manifest.method,
            descriptor_version=self.manifest.version,
        )

    def _handle_manifest(self, message: ManifestRequest):
        return ManifestReply(self.manifest_bytes)

    def _handle_descriptor(self, message: DescriptorRequest):
        return ErrorMessage(
            codes.E_BAD_REQUEST,
            "a shard router serves no single descriptor; fetch the shard "
            "manifest instead (MSG_GET_MANIFEST)",
        )

    def _handle_updates(self, message: UpdatePushRequest):
        return ErrorMessage(
            codes.E_UPDATES_DISABLED,
            "the router holds no signing key; push updates to the owner "
            "pipeline, which republishes per-shard artifacts",
        )

    def _handle_metrics(self, message: MetricsRequest):
        snapshot = self.metrics.snapshot()
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

    # -- query routing --------------------------------------------------
    def _handle_query(self, message: QueryRequest):
        start = time.perf_counter()
        reply = self._route_query(message.source, message.target)
        elapsed = time.perf_counter() - start
        if isinstance(reply, QueryReply):
            served = len(reply.composite or reply.response_bytes)
            self.metrics.record(elapsed, served, cached=reply.cached)
        else:
            self.metrics.record(elapsed, 0, cached=False)
        return reply

    def _handle_batch(self, message: BatchQueryRequest):
        # Pairs are routed independently; cross-shard slots carry
        # composite bytes and are indexed in ``composite_slots``.  The
        # shared-multiproof ask cannot span shard roots, so the router
        # always falls back to the per-item layout — the documented
        # contract for servers that cannot share one proof.
        start = time.perf_counter()
        items = []
        composite_slots = []
        served_bytes = 0
        for index, (source, target) in enumerate(message.pairs):
            reply = self._route_query(int(source), int(target))
            if isinstance(reply, ErrorMessage):
                items.append(BatchItem(None, False, reply.code, reply.detail))
                continue
            if reply.composite:
                composite_slots.append(index)
                items.append(BatchItem(reply.composite, reply.cached))
                served_bytes += len(reply.composite)
            else:
                items.append(BatchItem(reply.response_bytes, reply.cached))
                served_bytes += len(reply.response_bytes)
        count = max(1, len(message.pairs))
        per_query = (time.perf_counter() - start) / count
        for item in items:
            self.metrics.record(per_query, len(item.response_bytes or b""),
                                cached=item.cached)
        return BatchQueryReply(tuple(items),
                               composite_slots=tuple(composite_slots))

    def _plan(self, source: int, target: int) -> tuple:
        """The segment split for one pair: ``((shard, s, t), ...)``.

        Segments follow the *global* shortest path, so a pair whose
        endpoints share a shard but whose optimal route cuts through a
        neighbour still fans out — proxying it whole would let the
        shard answer with an honest but globally suboptimal path.
        """
        key = (source, target)
        with self._route_lock:
            cached = self._route_cache.get(key)
            if cached is not None:
                self._route_cache.move_to_end(key)
                return cached
        path = indexed_shortest_path(self._index, source, target)
        owners = []
        for node_id in path.nodes:
            shard_id = self.manifest.shard_of(node_id)
            if shard_id is None:
                raise _ShardFault(
                    codes.E_QUERY_FAILED,
                    f"node {node_id} is outside the shard manifest",
                )
            owners.append(shard_id)
        segments = []
        seg_start = 0
        for position in range(1, len(path.nodes)):
            if owners[position] != owners[position - 1]:
                segments.append((owners[seg_start],
                                 path.nodes[seg_start],
                                 path.nodes[position]))
                seg_start = position
        segments.append((owners[seg_start], path.nodes[seg_start],
                         path.nodes[-1]))
        plan = tuple(segments)
        with self._route_lock:
            self._route_cache[key] = plan
            if len(self._route_cache) > ROUTE_CACHE_SIZE:
                self._route_cache.popitem(last=False)
        return plan

    def _route_query(self, source: int, target: int) -> Message:
        """Answer one pair: a proxied or stitched :class:`QueryReply`,
        or an :class:`ErrorMessage`."""
        try:
            plan = self._plan(source, target)
        except _ShardFault as fault:
            return ErrorMessage(fault.code, fault.detail)
        except GraphError as exc:
            return ErrorMessage(codes.E_QUERY_FAILED, str(exc))
        if len(plan) == 1:
            shard_id = plan[0][0]
            try:
                return self._ask_shard(shard_id, source, target)
            except _ShardFault as fault:
                return ErrorMessage(fault.code, fault.detail)
        futures = [
            self._executor.submit(self._ask_shard, shard_id, s, t)
            for shard_id, s, t in plan
        ]
        replies = []
        fault: "_ShardFault | None" = None
        for future in futures:
            try:
                replies.append(future.result())
            except _ShardFault as exc:
                fault = fault or exc
                replies.append(None)
        if fault is not None:
            return ErrorMessage(fault.code, fault.detail)
        segments = []
        stitched: "list[int]" = []
        total = 0.0
        for (shard_id, _, _), reply in zip(plan, replies):
            try:
                response = QueryResponse.decode(reply.response_bytes)
            except ReproError as exc:
                return ErrorMessage(
                    codes.E_SHARD_UNAVAILABLE,
                    f"shard {shard_id} returned an undecodable response: {exc}",
                )
            segments.append(CompositeSegment(shard_id, reply.response_bytes))
            # The composite claims what the shards actually proved:
            # under equal-cost ties a shard may pick a different (but
            # equally short) segment path than the router's plan, so
            # the claim concatenates the answers, not the plan.
            stitched.extend(response.path_nodes if not stitched
                            else response.path_nodes[1:])
            total += response.path_cost
        composite = CompositeResponse(source, target, tuple(stitched),
                                      total, tuple(segments))
        cached = all(reply.cached for reply in replies)
        return QueryReply(b"", cached=cached, composite=composite.encode())

    def _ask_shard(self, shard_id: int, source: int, target: int) -> QueryReply:
        """One segment query against one worker (raises ``_ShardFault``)."""
        frame = QueryRequest(source, target).to_frame()
        transport = self.transports[shard_id]
        roundtrip = getattr(transport, "roundtrip", transport)
        try:
            reply_frame = roundtrip(frame)
            message = decode_message(decode_frame(reply_frame))
        except (OSError, ProtocolError) as exc:
            raise _ShardFault(
                codes.E_SHARD_UNAVAILABLE,
                f"shard {shard_id} worker unreachable or broken: {exc}",
            ) from exc
        if isinstance(message, ErrorMessage):
            raise _ShardFault(
                codes.E_QUERY_FAILED,
                f"shard {shard_id}: {message.code}: {message.detail}",
            )
        if not isinstance(message, QueryReply):
            raise _ShardFault(
                codes.E_SHARD_UNAVAILABLE,
                f"shard {shard_id} answered with "
                f"{type(message).__name__}, expected QueryReply",
            )
        return message

    # -- shard metric aggregation (GET /metrics) ------------------------
    def shard_snapshots(self) -> "list[MetricsSnapshot | None]":
        """Each worker's current window, labeled ``shard<i>``.

        A worker that cannot be reached (or answers garbage) yields
        ``None`` — the aggregate below stays the honest fleet view of
        the survivors.
        """
        def fetch(shard_id: int) -> "MetricsSnapshot | None":
            transport = self.transports[shard_id]
            roundtrip = getattr(transport, "roundtrip", transport)
            try:
                frame = roundtrip(MetricsRequest().to_frame())
                message = decode_message(decode_frame(frame))
            except (OSError, ProtocolError):
                return None
            if not isinstance(message, MetricsReply):
                return None
            return MetricsSnapshot(
                requests=message.requests,
                elapsed_seconds=message.elapsed_seconds,
                cache_hits=message.cache_hits,
                cache_misses=message.cache_misses,
                proof_bytes=message.proof_bytes,
                p50_ms=message.p50_ms,
                p95_ms=message.p95_ms,
                updates=message.updates,
                update_seconds=message.update_seconds,
                cache_evictions=message.cache_evictions,
                cache_invalidations=message.cache_invalidations,
                cache_entries=message.cache_entries,
                cache_capacity=message.cache_capacity,
                p99_ms=message.p99_ms,
                phase=f"shard{shard_id}",
            )

        return list(self._executor.map(fetch, range(len(self.transports))))

    def metrics_json(self) -> dict:
        """Router window + per-shard windows + fleet merge, JSON-ready.

        This is what ``GET /metrics`` serves when the HTTP frontend
        fronts a router: the top-level keys are the router's own window
        (every routed query, fan-out latency included), ``shards`` the
        per-worker windows labeled ``shard<i>`` (``null`` for a worker
        that could not be scraped), and ``fleet`` their merge under the
        shard-label consensus rule of
        :func:`~repro.service.metrics.merge_snapshots`.
        """
        record = self.metrics.snapshot().as_dict()
        record["phases"] = [
            phase.as_dict() for phase in self.metrics.phases
        ]
        shards = self.shard_snapshots()
        record["shards"] = [
            None if snapshot is None else snapshot.as_dict()
            for snapshot in shards
        ]
        record["fleet"] = merge_snapshots(shards).as_dict()
        return record

    _HANDLERS = {
        HelloRequest: _handle_hello,
        QueryRequest: _handle_query,
        BatchQueryRequest: _handle_batch,
        DescriptorRequest: _handle_descriptor,
        ManifestRequest: _handle_manifest,
        UpdatePushRequest: _handle_updates,
        MetricsRequest: _handle_metrics,
    }
