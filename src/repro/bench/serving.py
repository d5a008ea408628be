"""The load driver: a traffic trace, verifying async clients, one topology.

:func:`run_loadtest` is the only way this repository puts load on a
serving stack.  Its three inputs are orthogonal:

* **a trace** — a :class:`~repro.workload.traffic.TrafficTrace`, either
  a generated scenario (:func:`~repro.workload.traffic.generate_traffic`:
  warmup → steady → burst → update-storm and friends) or a fixed-query
  replay (:func:`~repro.workload.traffic.replay_trace`: one closed-loop
  phase per pass, ``cold``, ``warm1``, …);
* **clients** — C :class:`AsyncRemoteClient` instances on one event
  loop, each one persistent connection with one request in flight,
  plus a coordinator connection that carries the owner's pushes;
* **a topology** — exactly one of an inline
  :class:`~repro.service.aio.AsyncProofHttpServer` over a
  :class:`~repro.service.server.ProofServer` for a built (or loaded)
  method, or any running endpoint by URL.

**Every reply is verified** by a client holding nothing but the owner's
public key: single proofs and multiproof batch slots alike.  Garbage
events assert the error taxonomy: each hostile frame must draw its
expected typed outcome, and an untyped exception fails the run.

Updates follow the phase's loop mode.  In a closed-loop phase an update
event is a barrier: every client drains, the push lands, and every
client's freshness floor rises, so each chunk verifies at the version it
was served under.  In an open-loop phase the coordinator pushes at the
event's timestamp while the clients keep firing.  Pushes land only on
the inline topology with an ``update_signer``; elsewhere they are
dropped.  After the last phase the coordinator queries once more at its
floor — the end-to-end stale-replay check.

The result is one :class:`SloReport` of :class:`PhaseReport` rows (a
replay pass is a phase); :class:`SloPolicy` + :func:`check_slo` turn it
into a gate, and the policy checked in under ``benchmarks/`` is what CI
enforces.  Speed is perfbench's to judge, not this driver's.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field, replace

from repro.api.client import RemoteClient, RemoteResult
from repro.api.envelope import (
    BatchQueryRequest,
    ErrorMessage,
    HelloReply,
    HelloRequest,
    QueryReply,
    QueryRequest,
    SUPPORTED_VERSIONS,
    UpdatePushRequest,
    UpdateReply,
    WireUpdate,
    decode_frame,
    decode_message,
)
from repro.api.transport import AsyncTransport
from repro.core.method import SignatureVerifier, VerificationMethod
from repro.crypto.signer import Signer
from repro.errors import ProtocolError, ServiceError
from repro.service.cache import DEFAULT_CAPACITY
from repro.service.metrics import percentile
from repro.workload.traffic import (
    EVENT_BATCH,
    EVENT_GARBAGE,
    EVENT_QUERY,
    EVENT_UPDATE,
    TrafficTrace,
)

#: Verifying clients when the caller does not say.
DEFAULT_CLIENTS = 2

#: How many clients dial concurrently while the driver opens them.  A
#: thousand simultaneous SYNs can overflow even a deep listen backlog;
#: waves keep the storm bounded without serialising the ramp-up.
CONNECT_WAVE = 128

#: Per-request deadline.  With hundreds of requests in flight on an
#: oversubscribed box, honest queueing can reach tens of seconds.
REQUEST_TIMEOUT = 120.0


class AsyncRemoteClient:
    """Verified queries over one awaited persistent connection.

    The async twin of :class:`~repro.api.client.RemoteClient`: the
    transport is awaited, the interpretation is shared — every reply
    frame goes through the same transport-free ``interpret_*`` methods
    the sync client uses, so a reply accepted here is exactly one the
    sync client would accept.
    """

    def __init__(self, transport: AsyncTransport, verify_signature, *,
                 min_descriptor_version: "int | None" = None) -> None:
        self.transport = transport
        #: The transport-free client that decodes and verifies.
        self.client = RemoteClient(
            None, verify_signature,
            min_descriptor_version=min_descriptor_version)

    def require_version(self, version: int) -> None:
        """Raise the freshness floor (monotonic; see ``Client``)."""
        self.client.require_version(version)

    @property
    def min_descriptor_version(self) -> "int | None":
        """The current stale-replay rejection floor."""
        return self.client.min_descriptor_version

    async def _exchange(self, request, reply_cls):
        reply = await self.transport.roundtrip(request.to_frame())
        return self.client._raise_on_error(
            self.client.interpret_exchange(reply, reply_cls))

    async def hello(self) -> HelloReply:
        """Negotiate a protocol version; learn what is being served."""
        return await self._exchange(HelloRequest(SUPPORTED_VERSIONS),
                                    HelloReply)

    async def query(self, source: int, target: int) -> RemoteResult:
        """One verified shortest path query over the wire."""
        reply = await self.transport.roundtrip(
            QueryRequest(source, target).to_frame())
        return self.client.interpret_query_reply(source, target, reply)

    async def query_batch(self, pairs) -> "list[RemoteResult]":
        """A burst of queries in one multiproof frame, each verified."""
        pairs = [(int(s), int(t)) for s, t in pairs]
        reply = await self.transport.roundtrip(
            BatchQueryRequest(tuple(pairs), multiproof=True).to_frame())
        return self.client.interpret_batch_reply(pairs, reply)

    async def push_updates(self, updates) -> UpdateReply:
        """Push an owner mutation batch (server must hold the signer)."""
        wire = tuple(WireUpdate(u.kind, u.u, u.v, getattr(u, "weight", 0.0))
                     for u in updates)
        return await self._exchange(UpdatePushRequest(wire), UpdateReply)

    async def close(self) -> None:
        """Drop the held connection."""
        await self.transport.close()


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PhaseReport:
    """One phase (or replay pass) as the clients observed it."""

    name: str
    mode: str  # "open" or "closed"
    requests: int          # frames sent (queries + batches + garbage)
    queries: int           # individual queries answered
    seconds: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    wire_bytes: int
    proof_bytes: int
    verified: int
    cache_hits: int        # replies flagged ``cached`` by the server
    failures: tuple[str, ...]
    garbage_sent: int = 0
    garbage_unexpected: int = 0
    garbage_untyped: int = 0
    updates_pushed: int = 0
    server_window: "dict | None" = None

    @property
    def qps(self) -> float:
        """Queries per second over the phase wall time."""
        return self.queries / self.seconds if self.seconds > 0 else 0.0

    @property
    def bytes_per_query(self) -> float:
        """Mean wire bytes per answered query."""
        return self.wire_bytes / self.queries if self.queries else 0.0

    @property
    def hit_rate(self) -> float:
        """Client-observed served-from-cache fraction."""
        return self.cache_hits / self.queries if self.queries else 0.0

    @property
    def all_verified(self) -> bool:
        """Whether every response in this phase verified."""
        return not self.failures

    def as_dict(self) -> dict:
        """Flat record for JSON results logs."""
        return {
            "name": self.name, "mode": self.mode,
            "requests": self.requests, "queries": self.queries,
            "seconds": self.seconds, "qps": self.qps,
            "p50_ms": self.p50_ms, "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "wire_bytes": self.wire_bytes, "proof_bytes": self.proof_bytes,
            "bytes_per_query": self.bytes_per_query,
            "hit_rate": self.hit_rate,
            "verified": self.verified, "failures": len(self.failures),
            "garbage_sent": self.garbage_sent,
            "garbage_unexpected": self.garbage_unexpected,
            "garbage_untyped": self.garbage_untyped,
            "updates_pushed": self.updates_pushed,
            "server_window": self.server_window,
        }


@dataclass(frozen=True)
class SloReport:
    """A full run: per-phase views plus the rollup."""

    scenario: str
    method: str
    seed: int
    trace_digest: str
    clients: int
    url: str
    phases: tuple[PhaseReport, ...]
    server_metrics: "dict | None" = None
    final_version: int = 0
    freshness_failures: tuple[str, ...] = ()

    @property
    def saturation_qps(self) -> float:
        """Best closed-loop phase QPS (0.0 when no phase is closed)."""
        closed = [p.qps for p in self.phases if p.mode == "closed"]
        return max(closed) if closed else 0.0

    @property
    def overhead_ratio(self) -> float:
        """Bytes on the wire over standalone proof bytes, run-wide."""
        proof = sum(p.proof_bytes for p in self.phases)
        return sum(p.wire_bytes for p in self.phases) / proof if proof else 0.0

    @property
    def verification_failures(self) -> int:
        """Responses that failed end-to-end verification, run-wide."""
        return (sum(len(p.failures) for p in self.phases)
                + len(self.freshness_failures))

    @property
    def untyped_garbage(self) -> int:
        """Garbage frames whose handling raised an untyped exception."""
        return sum(p.garbage_untyped for p in self.phases)

    @property
    def all_verified(self) -> bool:
        """Whether every response (and the freshness floor) verified."""
        return self.verification_failures == 0

    @property
    def total_queries(self) -> int:
        """Individual queries answered across all phases."""
        return sum(p.queries for p in self.phases)

    @property
    def updates_pushed(self) -> int:
        """Owner mutations pushed over the wire across all phases."""
        return sum(p.updates_pushed for p in self.phases)

    def table_rows(self) -> "list[list[object]]":
        """Rows for :func:`repro.bench.reporting.format_table`."""
        return [
            [p.name, p.mode, p.queries, p.qps, p.p50_ms, p.p95_ms,
             p.p99_ms, p.bytes_per_query, 100.0 * p.hit_rate,
             p.updates_pushed, p.garbage_sent,
             "ok" if p.all_verified else f"{len(p.failures)} FAILED"]
            for p in self.phases
        ]

    #: Header matching :meth:`table_rows`.
    TABLE_HEADERS = ("phase", "loop", "queries", "QPS", "p50 ms", "p95 ms",
                     "p99 ms", "B/query", "hit %", "updates", "garbage",
                     "verified")

    def as_dict(self) -> dict:
        """Flat record for JSON results logs and baseline gating."""
        return {
            "scenario": self.scenario,
            "method": self.method,
            "seed": self.seed,
            "trace_digest": self.trace_digest,
            "clients": self.clients,
            "phases": [p.as_dict() for p in self.phases],
            "saturation_qps": self.saturation_qps,
            "overhead_ratio": self.overhead_ratio,
            "verification_failures": self.verification_failures,
            "untyped_garbage": self.untyped_garbage,
            "all_verified": self.all_verified,
            "total_queries": self.total_queries,
            "updates_pushed": self.updates_pushed,
            "final_version": self.final_version,
            "server_metrics": self.server_metrics,
        }


# ----------------------------------------------------------------------
# Policy gate
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SloPolicy:
    """Service-level objectives a report is held against.

    ``max_p99_ms`` applies to every phase except warmup (cold caches are
    not an SLO violation); ``min_hit_rate`` is satisfied by the *best*
    phase (the steady phase is where locality shows); the two zero-max
    counters are the correctness gates and default to zero tolerance.
    """

    max_p99_ms: float = float("inf")
    min_saturation_qps: float = 0.0
    min_hit_rate: float = 0.0
    max_verification_failures: int = 0
    max_untyped_garbage: int = 0

    def as_dict(self) -> dict:
        """Flat record (inverse of :func:`load_slo_policy`)."""
        return {
            "max_p99_ms": self.max_p99_ms,
            "min_saturation_qps": self.min_saturation_qps,
            "min_hit_rate": self.min_hit_rate,
            "max_verification_failures": self.max_verification_failures,
            "max_untyped_garbage": self.max_untyped_garbage,
        }


def load_slo_policy(path: str) -> SloPolicy:
    """Read an :class:`SloPolicy` from a JSON file (unknown keys ignored)."""
    with open(path, "r", encoding="utf-8") as infile:
        record = json.load(infile)
    if not isinstance(record, dict):
        raise ServiceError(f"SLO policy {path!r} is not a JSON object")
    known = {f for f in SloPolicy.__dataclass_fields__}
    return SloPolicy(**{k: v for k, v in record.items() if k in known})


def check_slo(report: SloReport, policy: SloPolicy) -> "list[str]":
    """Violations of *policy* in *report* (empty list = gate passes)."""
    violations: list[str] = []
    for phase in report.phases:
        if phase.name == "warmup":
            continue
        if phase.p99_ms > policy.max_p99_ms:
            violations.append(
                f"phase {phase.name!r}: p99 {phase.p99_ms:.1f} ms exceeds "
                f"SLO {policy.max_p99_ms:.1f} ms")
    if report.saturation_qps < policy.min_saturation_qps:
        violations.append(
            f"saturation {report.saturation_qps:.1f} QPS below SLO "
            f"{policy.min_saturation_qps:.1f} QPS")
    if policy.min_hit_rate > 0.0:
        best = max((p.hit_rate for p in report.phases), default=0.0)
        if best < policy.min_hit_rate:
            violations.append(
                f"best phase hit rate {best:.2f} below SLO "
                f"{policy.min_hit_rate:.2f}")
    if report.verification_failures > policy.max_verification_failures:
        violations.append(
            f"{report.verification_failures} verification failures "
            f"(SLO allows {policy.max_verification_failures})")
    if report.untyped_garbage > policy.max_untyped_garbage:
        violations.append(
            f"{report.untyped_garbage} untyped exceptions on garbage frames "
            f"(SLO allows {policy.max_untyped_garbage})")
    return violations


# ----------------------------------------------------------------------
# Event execution
# ----------------------------------------------------------------------
@dataclass
class _Tally:
    """One phase's running counters; every client adds into it."""

    latencies: list = field(default_factory=list)
    requests: int = 0
    queries: int = 0
    wire: int = 0
    proof: int = 0
    verified: int = 0
    cached: int = 0
    failures: list = field(default_factory=list)
    garbage: int = 0
    unexpected: int = 0
    untyped: int = 0
    pushed: int = 0

    def add(self, results) -> None:
        """Account verified query results."""
        for r in results:
            self.queries += 1
            self.wire += r.wire_bytes
            self.proof += len(r.response_bytes or b"")
            self.cached += r.cached
            if r.ok:
                self.verified += 1
            else:
                self.failures.append(f"({r.source},{r.target}): "
                                     f"{r.verdict.reason} {r.verdict.detail}")

    def report(self, phase, seconds: float) -> PhaseReport:
        """Freeze into the phase's report row."""
        ms = [1000.0 * s for s in self.latencies]
        return PhaseReport(
            name=phase.name, mode="closed" if phase.closed_loop else "open",
            requests=self.requests, queries=self.queries, seconds=seconds,
            p50_ms=percentile(ms, 0.50), p95_ms=percentile(ms, 0.95),
            p99_ms=percentile(ms, 0.99), wire_bytes=self.wire,
            proof_bytes=self.proof, verified=self.verified,
            cache_hits=self.cached, failures=tuple(self.failures),
            garbage_sent=self.garbage, garbage_unexpected=self.unexpected,
            garbage_untyped=self.untyped, updates_pushed=self.pushed,
        )


def _refusal(event, exc: Exception) -> "tuple[str, str]":
    """Classify an exception raised while carrying a garbage frame.

    A :class:`ProtocolError` (transport rejection, or an error the reply
    decoder surfaced) is a *typed* outcome; anything else is the untyped
    failure garbage events exist to catch.  Returns ``(outcome,
    failure or "")``.
    """
    if not isinstance(exc, ProtocolError):
        return "untyped", (f"garbage {event.garbage_kind}: untyped "
                           f"{type(exc).__name__}: {exc}")
    if event.expect in ("error", "any"):
        return "typed", ""
    return "unexpected", (f"garbage {event.garbage_kind}: protocol-level "
                          f"refusal where a reply was expected")


def _garbage_verdict(client: RemoteClient, event,
                     reply: bytes) -> "tuple[str, str]":
    """Hold a garbage frame's reply against the event's expectation."""
    try:
        message = decode_message(decode_frame(reply))
    except Exception as exc:  # noqa: BLE001 — classification is the point
        return _refusal(event, exc)
    if event.expect == "error":
        if isinstance(message, ErrorMessage):
            return "typed", ""
        return "unexpected", (f"garbage {event.garbage_kind}: expected a "
                              f"typed error, got {type(message).__name__}")
    if not isinstance(message, QueryReply):
        if event.expect == "any":  # a typed error or a reply both pass
            return "typed", ""
        return "unexpected", (f"garbage {event.garbage_kind}: expected "
                              f"QueryReply, got {type(message).__name__}")
    if event.expect == "ok":  # a replay of a valid frame: full service
        (vs, vt), = event.queries
    else:
        # The flip may have landed in the query ids; decode the mutated
        # frame to know what was actually asked.
        try:
            asked = decode_message(decode_frame(event.frame))
        except Exception:  # noqa: BLE001
            return "typed", ""
        if not isinstance(asked, QueryRequest):
            return "typed", ""
        vs, vt = asked.source, asked.target
    verdict = client.interpret_query_reply(vs, vt, reply).verdict
    if verdict.ok:
        return "typed", ""
    return "unexpected", (f"garbage {event.garbage_kind} ({vs},{vt}): "
                          f"{verdict.reason} {verdict.detail}")


async def _execute(client: AsyncRemoteClient, event, tally: _Tally) -> None:
    """Send one traffic event and account its outcome into *tally*."""
    tally.requests += 1
    if event.kind == EVENT_GARBAGE:
        tally.garbage += 1
        try:
            reply = await client.transport.roundtrip(event.frame)
        except Exception as exc:  # noqa: BLE001 — this is the assertion
            outcome, failure = _refusal(event, exc)
        else:
            tally.wire += len(reply)
            outcome, failure = _garbage_verdict(client.client, event, reply)
        tally.unexpected += outcome == "unexpected"
        tally.untyped += outcome == "untyped"
        if failure:
            tally.failures.append(failure)
        return
    start = time.perf_counter()
    if event.kind == EVENT_QUERY:
        (vs, vt), = event.queries
        results = [await client.query(vs, vt)]
    else:
        results = await client.query_batch(event.queries)
    tally.latencies.append(time.perf_counter() - start)
    tally.add(results)


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
async def _run_phase(phase, events, users, coordinator, *,
                     time_scale: float, push: bool) -> PhaseReport:
    """Drive one phase's events through the clients; report it.

    Reads are dealt round-robin across the clients.  Closed loop: each
    update event is a barrier (drain, push, every floor rises).  Open
    loop: clients and coordinator pace by arrival time, sleeping only
    when *ahead* of schedule, so offered-rate pressure shows up as
    latency instead of being silently absorbed.
    """
    tally = _Tally()
    start = time.perf_counter()

    async def pace(event) -> None:
        if not phase.closed_loop:
            delay = start + event.at * time_scale - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)

    async def read(user, share) -> None:
        try:
            for event in share:
                await pace(event)
                await _execute(user, event, tally)
        except Exception as exc:  # noqa: BLE001 — a dead client fails the run
            tally.failures.append(f"client: {type(exc).__name__}: {exc}")

    async def read_all(batch) -> None:
        await asyncio.gather(*(read(user, batch[i::len(users)])
                               for i, user in enumerate(users)))

    async def write(event, floors) -> None:
        await pace(event)
        try:
            version = (await coordinator.push_updates([event.update])).version
        except Exception as exc:  # noqa: BLE001 — a failed push fails the run
            tally.failures.append(f"update push: {type(exc).__name__}: {exc}")
            return
        tally.pushed += 1
        for member in floors:
            member.require_version(version)

    if phase.closed_loop:
        pending: list = []
        for event in events:
            if event.kind != EVENT_UPDATE:
                pending.append(event)
            elif push:
                await read_all(pending)
                pending = []
                await write(event, (coordinator, *users))
        await read_all(pending)
    else:
        async def write_all() -> None:
            for event in events:
                if push and event.kind == EVENT_UPDATE:
                    await write(event, (coordinator,))

        await asyncio.gather(write_all(), read_all(
            [e for e in events if e.kind != EVENT_UPDATE]))
    return tally.report(phase, time.perf_counter() - start)


async def _drive(url: str, trace: TrafficTrace, verify_signature, *,
                 clients: int, time_scale: float, push: bool, metrics):
    """Open the clients, run every phase, close the clients.

    Returns ``(served method, phase reports, freshness failures,
    final floor)``.
    """
    members = [AsyncRemoteClient(AsyncTransport(url, timeout=REQUEST_TIMEOUT),
                                 verify_signature)
               for _ in range(clients + 1)]
    coordinator, users = members[0], members[1:]
    try:
        hellos = []
        for first in range(0, len(members), CONNECT_WAVE):
            hellos.extend(await asyncio.gather(
                *(m.hello() for m in members[first:first + CONNECT_WAVE])))
        reports = []
        for phase, events in trace.phases:
            if metrics is not None:
                metrics.begin_phase(phase.name)
            reports.append(await _run_phase(
                phase, events, users, coordinator,
                time_scale=time_scale, push=push))
        if metrics is not None:
            metrics.end_phase()
            windows = {w.phase: w.as_dict() for w in metrics.phases}
            reports = [replace(r, server_window=windows.get(r.name))
                       for r in reports]
        # The freshness gate: after every push, a fresh query must
        # verify with the last pushed version as the floor.
        freshness: list[str] = []
        floor = coordinator.min_descriptor_version or 0
        pair = next((e.queries[0] for _, events in trace.phases
                     for e in events if e.kind in (EVENT_QUERY, EVENT_BATCH)),
                    None)
        if pair is not None:
            final = await coordinator.query(*pair)
            if not final.ok:
                freshness.append(
                    f"final query {pair} at floor {floor}: "
                    f"{final.verdict.reason} {final.verdict.detail}")
        return hellos[0].method, reports, freshness, floor
    finally:
        await asyncio.gather(*(m.close() for m in members),
                             return_exceptions=True)


def fetch_http_metrics(url: str, *, timeout: float = 5.0) -> "dict | None":
    """Scrape ``GET {url}/metrics``; ``None`` when unavailable."""
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(f"{url.rstrip('/')}/metrics",
                                    timeout=timeout) as reply:
            return json.loads(reply.read().decode("utf-8"))
    except (urllib.error.URLError, OSError, ValueError):
        return None


def run_loadtest(
    trace: TrafficTrace,
    verify_signature: SignatureVerifier,
    *,
    method: "VerificationMethod | None" = None,
    update_signer: "Signer | None" = None,
    url: "str | None" = None,
    clients: int = DEFAULT_CLIENTS,
    cache_size: int = DEFAULT_CAPACITY,
    time_scale: float = 1.0,
) -> SloReport:
    """Drive *trace* through *clients* verifying clients; report per phase.

    Exactly one topology: *method* boots an inline
    :class:`~repro.service.aio.AsyncProofHttpServer` over a fresh
    :class:`~repro.service.server.ProofServer` (pushes land when
    *update_signer* is given, and each phase carries the server's own
    metrics window); *url* drives an already-running endpoint.  ``time_scale`` stretches (>1) or
    compresses (<1) every open-loop arrival timestamp.
    """
    from repro.service.aio import AsyncProofHttpServer
    from repro.service.server import ProofServer

    if (method is None) == (url is None):
        raise ServiceError(
            "a load test drives exactly one topology: method or url")
    if clients < 1:
        raise ServiceError(f"clients must be >= 1, got {clients}")
    if time_scale <= 0:
        raise ServiceError(f"time_scale must be positive, got {time_scale}")

    def run(endpoint: str, server=None) -> SloReport:
        served, reports, freshness, floor = asyncio.run(_drive(
            endpoint, trace, verify_signature, clients=clients,
            time_scale=time_scale,
            push=server is not None and update_signer is not None,
            metrics=server.metrics if server is not None else None))
        return SloReport(
            scenario=trace.scenario, method=served, seed=trace.seed,
            trace_digest=trace.digest(), clients=clients, url=endpoint,
            phases=tuple(reports), server_metrics=fetch_http_metrics(endpoint),
            final_version=floor, freshness_failures=tuple(freshness))

    if url is not None:
        return run(url)
    server = ProofServer(method, cache_size=cache_size)
    with AsyncProofHttpServer(
            server.dispatcher(update_signer=update_signer)) as http_server:
        return run(http_server.url, server)
