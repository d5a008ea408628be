"""Long-lived proof server wrapping a built verification method.

The library's :class:`~repro.core.framework.ServiceProvider` is a
per-call object: every ``answer`` recomputes the search and reassembles
the proof.  A real provider (Figure 2's third party) is a *server* —
it holds the outsourced structures for months and answers the same
popular queries over and over.  :class:`ProofServer` adds the serving
concerns around the unchanged proof machinery:

* **caching** — responses are deterministic per ``(method, source,
  target)`` for a fixed graph, so they are memoized in a versioned LRU
  (:class:`~repro.service.cache.ProofCache`) that drops itself when the
  graph's mutation counter moves;
* **bursts** — :meth:`ProofServer.answer_many` serves a client's
  burst under one hold of the update gate, so every response in it
  carries one graph version and the wire layer can ship them as one
  Merkle multiproof (:func:`repro.core.batch.combine_multiproof`);
* **concurrency** — :meth:`ProofServer.answer` is safe to call from
  many threads at once (cache and metrics are lock-protected), which is
  how the HTTP frontend's dispatch pool drives it;
* **live updates** — :meth:`ProofServer.apply_updates` mutates the
  graph and incrementally re-authenticates the wrapped method under
  the exclusive side of a reader/writer gate
  (:class:`~repro.service.sync.ReadWriteLock`), while queries hold the
  shared side: proofs never observe a half-applied update, and the
  version bump drops the cache so no post-update request replays a
  stale proof;
* **metrics** — :class:`~repro.service.metrics.ServerMetrics` tracks
  QPS, p50/p95 serve latency, cache hit rate, proof bytes served and
  update latency.

Per-query failures (unknown node, unreachable target) are *error
responses*, not exceptions: a long-lived server must keep serving the
rest of the stream, so :attr:`ServedResponse.error` carries the reason
and the request is metered like any other.

Soundness is untouched: the server only ever ships responses produced
by the wrapped method, so a client verifies a cached response exactly
as it would a fresh one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.method import UpdateReport, VerificationMethod
from repro.core.proofs import QueryResponse
from repro.crypto.signer import Signer
from repro.errors import ReproError, ServiceError
from repro.service.cache import DEFAULT_CAPACITY, CacheKey, ProofCache
from repro.service.metrics import MetricsSnapshot, ServerMetrics
from repro.service.sync import ReadWriteLock
from repro.workload.updates import GraphUpdate


@dataclass(frozen=True)
class ProofRequest:
    """One client query as received by the server."""

    source: int
    target: int


#: One owner mutation as received by the server: kind (one of
#: ``"update-weight"`` / ``"add-edge"`` / ``"remove-edge"`` — the
#: changelog vocabulary minus node additions, which a serving
#: deployment handles as a re-publish), endpoints, and weight.  The
#: server speaks the same type the update workload generator emits, so
#: generated streams feed :meth:`ProofServer.apply_updates` directly.
UpdateRequest = GraphUpdate


@dataclass(frozen=True)
class ServedResponse:
    """Server envelope around a query response.

    ``cached`` records whether the proof was replayed from the LRU;
    ``serve_seconds`` is the wall time this request cost the server;
    ``proof_bytes`` is the response's standalone wire size and
    ``encoded`` the encoding itself (made once per miss, memoised by a
    cache entry's first hit).  When the provider could not answer
    (unknown node, unreachable target), ``response`` and ``encoded``
    are ``None`` and ``error`` carries the reason.
    """

    response: "QueryResponse | None"
    cached: bool
    serve_seconds: float
    proof_bytes: int
    error: "str | None" = None
    encoded: "bytes | None" = None

    @property
    def ok(self) -> bool:
        """Whether the request produced a proof-bearing response."""
        return self.error is None


class ProofServer:
    """Request/response front end for one built verification method.

    >>> server = ProofServer(method)               # doctest: +SKIP
    >>> served = server.handle(ProofRequest(3, 9)) # doctest: +SKIP
    >>> served.response.path_cost                  # doctest: +SKIP
    1987.4
    """

    def __init__(self, method: VerificationMethod, *,
                 cache_size: int = DEFAULT_CAPACITY,
                 trim_changelog: bool = True) -> None:
        """``trim_changelog`` keeps the graph changelog bounded by
        dropping entries this server's method has absorbed after each
        successful update batch (memory stays flat under a steady
        update stream).  Disable it when other consumers — a second
        method built on the same graph object — still need the older
        entries for their own ``apply_update``.
        """
        self.method = method
        self.cache = ProofCache(cache_size)
        self.metrics = ServerMetrics()
        self.trim_changelog = trim_changelog
        #: Queries hold the shared side, updates the exclusive side, so
        #: a proof never assembles against a half-applied update.
        self._update_gate = ReadWriteLock()

    # ------------------------------------------------------------------
    def _key(self, source: int, target: int) -> CacheKey:
        return (self.method.name, source, target)

    def _version(self) -> int:
        return self.method.graph.version

    def _store(self, source: int, target: int, version: int,
               response: QueryResponse) -> bytes:
        """Cache *response*, returning its encoding."""
        encoded = response.encode()
        self.cache.put(self._key(source, target), version, response,
                       len(encoded))
        return encoded

    def _hit(self, start: float, source: int, target: int, version: int,
             *, count_miss: bool = True) -> "ServedResponse | None":
        """The metered cache replay for a query, ``None`` on a miss."""
        entry = self.cache.get(self._key(source, target), version,
                               count_miss=count_miss)
        if entry is None:
            return None
        elapsed = time.perf_counter() - start
        self.metrics.record(elapsed, entry.proof_bytes, cached=True)
        return ServedResponse(entry.response, True, elapsed,
                              entry.proof_bytes, encoded=entry.encoded())

    def _error(self, start: float, exc: ReproError) -> ServedResponse:
        """Meter and envelope a failed request (errors are not cached)."""
        elapsed = time.perf_counter() - start
        self.metrics.record(elapsed, 0, cached=False)
        return ServedResponse(None, False, elapsed, 0, error=str(exc))

    # ------------------------------------------------------------------
    def _serve(self, start: float, source: int, target: int,
               version: int) -> ServedResponse:
        """One metered query at *version*; the caller holds the read gate."""
        served = self._hit(start, source, target, version)
        if served is not None:
            return served
        try:
            response = self.method.answer(source, target)
        except ReproError as exc:
            return self._error(start, exc)
        encoded = self._store(source, target, version, response)
        elapsed = time.perf_counter() - start
        self.metrics.record(elapsed, len(encoded), cached=False)
        return ServedResponse(response, False, elapsed, len(encoded),
                              encoded=encoded)

    def answer(self, source: int, target: int) -> ServedResponse:
        """Serve one query, from cache when possible.

        The whole request — version read, cache probe, proof
        computation, store — runs under the shared side of the update
        gate, so it observes exactly one graph version: once an update
        has committed, no request can replay a pre-update proof (the
        version read under the gate is post-update, and the cache's
        version sync retires the old entries on that very probe).
        """
        start = time.perf_counter()
        with self._update_gate.read():
            return self._serve(start, source, target, self._version())

    def answer_cached(self, source: int, target: int
                      ) -> "ServedResponse | None":
        """:meth:`answer` if it needs no waiting, else ``None``.

        That is a cache hit while no update holds or awaits the gate.  A
        ``None`` has counted nothing (no miss, no request): the caller
        falls back to :meth:`answer`, which counts the request once.
        """
        start = time.perf_counter()
        if not self._update_gate.try_acquire_read():
            return None
        try:
            return self._hit(start, source, target, self._version(),
                             count_miss=False)
        finally:
            self._update_gate.release_read()

    def handle(self, request: ProofRequest) -> ServedResponse:
        """The request/response entry point."""
        return self.answer(request.source, request.target)

    def dispatcher(self, *, update_signer: "Signer | None" = None):
        """A wire-protocol :class:`~repro.api.dispatcher.Dispatcher`.

        This is how every transport reaches the server: frontends hand
        frames to the returned dispatcher, and in-process callers use
        it with the trivial transport.  ``update_signer`` enables
        owner update pushes over the wire; leave it unset for
        provider-side deployments, which must not hold signing keys.
        """
        from repro.api.dispatcher import Dispatcher

        return Dispatcher(self, update_signer=update_signer)

    # ------------------------------------------------------------------
    def answer_many(self, queries: "list[tuple[int, int]]"
                    ) -> "list[ServedResponse]":
        """Serve a burst of queries from one client, in request order.

        One shared-gate hold covers the whole burst, so every response
        carries the same graph version: an update either precedes the
        burst or follows it entirely, and the ok responses can always
        share one multiproof.  Each query is metered like a solo
        :meth:`answer`; a repeat within the burst replays the entry its
        first occurrence cached, and a repeated failure fails (and is
        metered) afresh.
        """
        with self._update_gate.read():
            version = self._version()
            return [self._serve(time.perf_counter(), vs, vt, version)
                    for vs, vt in queries]

    # ------------------------------------------------------------------
    # live updates
    # ------------------------------------------------------------------
    @property
    def descriptor_version(self) -> int:
        """Graph version of the currently-signed descriptor.

        This is what the owner announces to clients as their freshness
        floor (``min_version``) after an update round.
        """
        return self.method.descriptor.version

    def apply_updates(self, updates: "list[UpdateRequest]",
                      signer: Signer) -> UpdateReport:
        """Apply owner mutations and incrementally re-authenticate.

        Runs under the exclusive side of the update gate: in-flight
        queries drain first, queued queries wait, and once the method
        re-signs, the graph version bump retires every cached proof at
        the next lookup.  The batch
        is atomic from the server's point of view: if any mutation or
        the re-authentication fails (an invalid edge, a removal that
        disconnects the network), the graph is rolled back to its
        pre-batch state and the method re-synced to it before the
        error propagates, so the server keeps serving verifiable
        responses for the old network instead of searching a graph its
        signed trees no longer describe.
        Returns the method's :class:`~repro.core.method.UpdateReport`;
        the update latency is also metered into the current window.
        """
        if not updates:
            raise ServiceError("empty update batch")
        start = time.perf_counter()
        with self._update_gate.write():
            graph = self.method.graph
            base_version = graph.version
            try:
                for update in updates:
                    update.apply(graph)
                report = self.method.apply_update(signer)
            except Exception:
                graph.rollback_to(base_version)
                try:
                    # Re-sync the method against the restored graph:
                    # the method-specific paths order validation before
                    # commits, but an unexpected late failure (say a
                    # transient signer error after leaves were patched)
                    # may have left half-applied hint state.  Replaying
                    # the batch+inverse pairs patches any such leaves
                    # back and re-signs the original roots.
                    self.method.apply_update(signer)
                except Exception:
                    # Still failing (broken signer): the next successful
                    # apply_update heals the same way.
                    pass
                raise
            if self.trim_changelog:
                # The method has absorbed everything up to this point;
                # earlier entries are dead weight on a long-lived server.
                graph.trim_changelog(base_version)
        self.metrics.record_update(time.perf_counter() - start)
        return report

    def update_edge_weight(self, u: int, v: int, weight: float,
                           signer: Signer) -> UpdateReport:
        """Convenience wrapper for a single re-weight update."""
        return self.apply_updates(
            [UpdateRequest("update-weight", u, v, weight)], signer)

    # ------------------------------------------------------------------
    @classmethod
    def from_artifact(cls, path: str, **kwargs) -> "ProofServer":
        """Boot a server straight from a persisted ``.rspv`` artifact.

        The build/serve split made operational: the artifact was built
        (and signed) elsewhere, this process only serves it.  Keyword
        arguments are the regular constructor options.
        """
        from repro.store import load_method

        return cls(load_method(path), **kwargs)

    # ------------------------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        """Freeze the current metrics window (cache counters included)."""
        return self.metrics.snapshot(cache=self.cache)

    def reset_metrics(self) -> None:
        """Start a fresh metrics window (the cache is left warm)."""
        self.metrics.reset()
