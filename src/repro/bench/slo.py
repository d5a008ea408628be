"""SLO soak harness: scenario traffic against a live serving stack.

This is where the :mod:`repro.workload.traffic` simulator meets the
real servers.  :func:`run_slo_soak` replays a scenario's phases —
warmup → steady → burst → update-storm — through a pool of client
*processes* (or threads, for fast tests) against either an in-process
:class:`~repro.service.aio.AsyncProofHttpServer` or a pre-forked
:class:`~repro.service.workers.WorkerPool`, and reports per phase:

* client-observed latency percentiles (p50/p95/p99) from the *merged
  raw samples* of every client — true fleet percentiles, not the
  weighted approximation the server-side merge uses;
* throughput, with **saturation QPS** taken from closed-loop phases
  (clients firing back-to-back measure the service ceiling; open-loop
  phases measure behaviour *at* an offered rate);
* bytes per query (wire and proof payload) and the client-observed
  cache hit rate (the ``cached`` flag on each reply);
* the server's own per-phase metrics window (via
  :meth:`~repro.service.metrics.ServerMetrics.begin_phase`) and the
  ``GET /metrics`` scrape, including per-worker request balance when a
  pool serves.

The harness keeps the loadtest invariant: **every well-formed response
is verified end to end** by a :class:`~repro.api.client.RemoteClient`
holding nothing but the owner's public key — including across
mid-soak update pushes, after which a final query must verify under
the pushed version as the freshness floor.  Garbage events assert the
error taxonomy: each adversarial frame must draw its expected typed
outcome, and any untyped exception anywhere fails the soak.

:class:`SloPolicy` + :func:`check_slo` turn a report into a gate; the
policy file checked in under ``benchmarks/`` is what CI enforces.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass

from repro.core.method import SignatureVerifier, VerificationMethod
from repro.crypto.signer import Signer, load_public_key
from repro.errors import ProtocolError, ServiceError
from repro.service.cache import DEFAULT_CAPACITY
from repro.service.metrics import percentile
from repro.workload.traffic import (
    EVENT_BATCH,
    EVENT_GARBAGE,
    EVENT_QUERY,
    EVENT_UPDATE,
    Scenario,
    TrafficTrace,
    generate_traffic,
)


# ----------------------------------------------------------------------
# Client-side event execution (shared by thread, process, async clients)
# ----------------------------------------------------------------------
def _blank_outcome(event) -> dict:
    """The flat outcome record every event execution fills in.

    A plain dict so process clients can ship it over a multiprocessing
    queue without custom picklers.
    """
    return {"kind": event.kind, "latency": 0.0, "wire": 0, "proof": 0,
            "queries": 0, "verified": 0, "cached": 0, "failures": [],
            "garbage_kind": event.garbage_kind, "garbage_outcome": ""}


def _note_query(out: dict, vs: int, vt: int, result) -> None:
    """Account one verified query result into *out*."""
    out["wire"] = result.wire_bytes
    out["proof"] = len(result.response_bytes or b"")
    out["queries"] = 1
    out["cached"] = int(result.cached)
    if result.ok:
        out["verified"] = 1
    else:
        out["failures"].append(
            f"({vs},{vt}): {result.verdict.reason} {result.verdict.detail}")


def _note_batch(out: dict, results) -> None:
    """Account one verified batch's results into *out*."""
    out["queries"] = len(results)
    for r in results:
        out["wire"] += r.wire_bytes
        out["proof"] += len(r.response_bytes or b"")
        out["cached"] += int(r.cached)
        if r.ok:
            out["verified"] += 1
        else:
            out["failures"].append(
                f"({r.source},{r.target}): {r.verdict.reason} "
                f"{r.verdict.detail}")


def _note_garbage_refusal(out: dict, event, exc: Exception) -> None:
    """Classify an exception raised while carrying a garbage frame.

    A :class:`ProtocolError` (transport rejection, or an error the reply
    decoder surfaced) is a *typed* outcome; anything else is the untyped
    failure the soak exists to catch.
    """
    if isinstance(exc, ProtocolError):
        out["garbage_outcome"] = \
            "typed" if event.expect in ("error", "any") else "unexpected"
        if out["garbage_outcome"] == "unexpected":
            out["failures"].append(
                f"garbage {event.garbage_kind}: protocol-level refusal "
                f"where a reply was expected")
    else:
        out["garbage_outcome"] = "untyped"
        out["failures"].append(
            f"garbage {event.garbage_kind}: untyped "
            f"{type(exc).__name__}: {exc}")


def _interpret_garbage_reply(out: dict, sync_client, event,
                             reply_frame: bytes) -> None:
    """Hold a garbage frame's reply against the event's expectation.

    *sync_client* is a :class:`~repro.api.client.RemoteClient` — async
    drivers pass the one embedded in their
    :class:`~repro.bench.aioclient.AsyncRemoteClient`, so the verdict
    logic is byte-for-byte shared across every client mode.
    """
    from repro.api.envelope import (
        ErrorMessage,
        QueryReply,
        QueryRequest,
        decode_frame,
        decode_message,
    )

    try:
        message = decode_message(decode_frame(reply_frame))
    except Exception as exc:  # noqa: BLE001 — classification is the point
        _note_garbage_refusal(out, event, exc)
        return
    out["wire"] = len(reply_frame)
    if event.expect == "error":
        ok = isinstance(message, ErrorMessage)
        out["garbage_outcome"] = "typed" if ok else "unexpected"
        if not ok:
            out["failures"].append(
                f"garbage {event.garbage_kind}: expected a typed error, "
                f"got {type(message).__name__}")
    elif event.expect == "ok":  # replay of a valid frame: full service
        if isinstance(message, QueryReply):
            (vs, vt), = event.queries
            if message.composite:  # a router answered with a stitch
                verdict = sync_client._composite_verdict(vs, vt,
                                                         message.composite)
            else:
                verdict = sync_client.client.verify_bytes(
                    vs, vt, message.response_bytes)
            out["garbage_outcome"] = "typed" if verdict.ok else "unexpected"
            if not verdict.ok:
                out["failures"].append(
                    f"garbage replay ({vs},{vt}): {verdict.reason} "
                    f"{verdict.detail}")
        else:
            out["garbage_outcome"] = "unexpected"
            out["failures"].append(
                f"garbage replay: expected QueryReply, "
                f"got {type(message).__name__}")
    else:  # "any": a typed error or a well-formed reply both pass
        out["garbage_outcome"] = "typed"
        if isinstance(message, QueryReply):
            # The flip may have landed in the query ids; decode the
            # mutated frame ourselves to know what was actually asked.
            try:
                mutated = decode_message(decode_frame(event.frame))
            except Exception:  # noqa: BLE001
                mutated = None
            if isinstance(mutated, QueryRequest):
                if message.composite:
                    verdict = sync_client._composite_verdict(
                        mutated.source, mutated.target, message.composite)
                else:
                    verdict = sync_client.client.verify_bytes(
                        mutated.source, mutated.target,
                        message.response_bytes)
                if not verdict.ok:
                    out["garbage_outcome"] = "unexpected"
                    out["failures"].append(
                        f"garbage bitflip: reply failed verification: "
                        f"{verdict.reason} {verdict.detail}")


def _execute_event(client, transport, event) -> dict:
    """Send one traffic event; return its flat outcome record."""
    out = _blank_outcome(event)
    start = time.perf_counter()
    if event.kind == EVENT_QUERY:
        (vs, vt), = event.queries
        result = client.query(vs, vt)
        out["latency"] = time.perf_counter() - start
        _note_query(out, vs, vt, result)
    elif event.kind == EVENT_BATCH:
        results = client.query_many(event.queries)
        out["latency"] = time.perf_counter() - start
        _note_batch(out, results)
    elif event.kind == EVENT_GARBAGE:
        try:
            reply_frame = transport.roundtrip(event.frame)
        except Exception as exc:  # noqa: BLE001 — this is the assertion
            out["latency"] = time.perf_counter() - start
            _note_garbage_refusal(out, event, exc)
            return out
        out["latency"] = time.perf_counter() - start
        _interpret_garbage_reply(out, client, event, reply_frame)
    return out


async def _execute_event_async(client, event) -> dict:
    """The event-loop twin of :func:`_execute_event`.

    *client* is an :class:`~repro.bench.aioclient.AsyncRemoteClient`;
    only the roundtrips are awaited — every accounting and verdict path
    is the shared sync helper the other client modes use.
    """
    out = _blank_outcome(event)
    start = time.perf_counter()
    if event.kind == EVENT_QUERY:
        (vs, vt), = event.queries
        result = await client.query(vs, vt)
        out["latency"] = time.perf_counter() - start
        _note_query(out, vs, vt, result)
    elif event.kind == EVENT_BATCH:
        results = await client.query_many(event.queries)
        out["latency"] = time.perf_counter() - start
        _note_batch(out, results)
    elif event.kind == EVENT_GARBAGE:
        try:
            reply_frame = await client.transport.roundtrip(event.frame)
        except Exception as exc:  # noqa: BLE001 — this is the assertion
            out["latency"] = time.perf_counter() - start
            _note_garbage_refusal(out, event, exc)
            return out
        out["latency"] = time.perf_counter() - start
        _interpret_garbage_reply(out, client.client, event, reply_frame)
    return out


def _run_events(client, transport, events, *, open_loop: bool,
                time_scale: float) -> "list[dict]":
    """Execute *events* in order, pacing by arrival time when open-loop.

    Open loop sleeps only when *ahead* of schedule — a client that falls
    behind keeps firing back-to-back, which is exactly how offered-rate
    pressure shows up as latency instead of being silently absorbed.
    """
    outcomes = []
    start = time.perf_counter()
    for event in events:
        if open_loop:
            delay = start + event.at * time_scale - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
        outcomes.append(_execute_event(client, transport, event))
    return outcomes


def _run_events_async(url: str, shards, verify_signature, *,
                      open_loop: bool, time_scale: float) -> "list[dict]":
    """Run every shard as a coroutine client on one private event loop.

    Each shard gets its own persistent
    :class:`~repro.api.transport.AsyncTransport` (one connection, one
    in-flight request — a simulated user), and all shards run
    concurrently on a single loop in the calling thread.  Pacing
    matches :func:`_run_events`: open loop sleeps only when ahead of
    schedule.
    """
    from repro.api.transport import AsyncTransport
    from repro.bench.aioclient import AsyncRemoteClient

    async def run_shard(shard) -> "list[dict]":
        transport = AsyncTransport(url)
        client = AsyncRemoteClient(transport, verify_signature)
        outcomes = []
        start = time.perf_counter()
        try:
            for event in shard:
                if open_loop:
                    delay = start + event.at * time_scale - time.perf_counter()
                    if delay > 0:
                        await asyncio.sleep(delay)
                outcomes.append(await _execute_event_async(client, event))
        finally:
            await transport.close()
        return outcomes

    async def run_all() -> "list[dict]":
        shard_outcomes = await asyncio.gather(
            *(run_shard(shard) for shard in shards if shard))
        return [o for outcomes in shard_outcomes for o in outcomes]

    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(run_all())
    finally:
        loop.close()


def _client_main(index: int, url: str, key_path: str, events,
                 open_loop: bool, time_scale: float, queue) -> None:
    """Entry point of one spawned client process."""
    from repro.api.client import RemoteClient
    from repro.api.transport import HttpTransport

    try:
        verify = load_public_key(key_path).verify
        with HttpTransport(url) as transport:
            client = RemoteClient(transport, verify)
            outcomes = _run_events(client, transport, events,
                                   open_loop=open_loop, time_scale=time_scale)
        queue.put((index, outcomes, None))
    except Exception as exc:  # noqa: BLE001 — report, don't hang the join
        queue.put((index, [], f"{type(exc).__name__}: {exc}"))


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PhaseReport:
    """One soak phase as the clients observed it."""

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
    """A full soak run: per-phase views plus the fleet rollup."""

    scenario: str
    method: str
    seed: int
    trace_digest: str
    clients: int
    client_mode: str
    url: str
    phases: tuple[PhaseReport, ...]
    server_metrics: "dict | None" = None
    worker_requests: tuple[int, ...] = ()
    final_version: int = 0
    freshness_failures: tuple[str, ...] = ()

    @property
    def saturation_qps(self) -> float:
        """Best closed-loop phase QPS (0.0 when no phase is closed)."""
        closed = [p.qps for p in self.phases if p.mode == "closed"]
        return max(closed) if closed else 0.0

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
            "client_mode": self.client_mode,
            "phases": [p.as_dict() for p in self.phases],
            "saturation_qps": self.saturation_qps,
            "verification_failures": self.verification_failures,
            "untyped_garbage": self.untyped_garbage,
            "all_verified": self.all_verified,
            "total_queries": self.total_queries,
            "updates_pushed": self.updates_pushed,
            "final_version": self.final_version,
            "worker_requests": list(self.worker_requests),
            "server_metrics": self.server_metrics,
        }


# ----------------------------------------------------------------------
# Policy gate
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SloPolicy:
    """Service-level objectives a soak report is held against.

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
# The soak driver
# ----------------------------------------------------------------------
def _drive_phase(phase, events, *, url: str, clients: int, client_mode: str,
                 key_path: "str | None", verify_signature, time_scale: float,
                 update_client, allow_updates: bool) -> PhaseReport:
    """Run one phase's events through the client pool; assemble its report.

    Query/batch/garbage events are sharded round-robin across the
    clients; update events stay with the coordinator, which pushes them
    over the wire at their scheduled times from a side thread (one
    writer, many readers — the owner is a single party in the model).
    """
    client_events = [e for e in events if e.kind != EVENT_UPDATE]
    update_events = [e for e in events if e.kind == EVENT_UPDATE] \
        if allow_updates else []
    shards = [client_events[i::clients] for i in range(clients)]
    open_loop = not phase.closed_loop

    update_failures: list[str] = []
    pushed = [0]

    def push_updates() -> None:
        start = time.perf_counter()
        for event in update_events:
            delay = start + event.at * time_scale - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            try:
                reply = update_client.push_updates([event.update])
                update_client.require_version(reply.version)
                pushed[0] += 1
            except Exception as exc:  # noqa: BLE001 — a failed push fails the soak
                update_failures.append(
                    f"update push: {type(exc).__name__}: {exc}")

    pusher = threading.Thread(target=push_updates, daemon=True)
    started = time.perf_counter()
    pusher.start()

    outcomes: list[dict] = []
    crashed: list[str] = []
    if client_mode == "process":
        import multiprocessing as mp

        ctx = mp.get_context("spawn")
        queue = ctx.Queue()
        processes = [
            ctx.Process(target=_client_main,
                        args=(i, url, key_path, shard, open_loop,
                              time_scale, queue),
                        daemon=True)
            for i, shard in enumerate(shards) if shard
        ]
        for process in processes:
            process.start()
        # Crash-tolerant collection: a client that dies without
        # reporting must surface as a failure, not hang the soak.
        import queue as queue_mod

        reported = 0
        grace = 3
        while reported < len(processes):
            try:
                index, client_outcomes, error = queue.get(timeout=1.0)
            except queue_mod.Empty:
                if not any(p.is_alive() for p in processes):
                    grace -= 1  # allow the feeder pipes to drain
                    if grace <= 0:
                        break
                continue
            reported += 1
            outcomes.extend(client_outcomes)
            if error:
                crashed.append(f"client {index}: {error}")
        if reported < len(processes):
            crashed.append(
                f"{len(processes) - reported} client process(es) died "
                f"without reporting")
        for process in processes:
            process.join(timeout=5.0)
    elif client_mode == "async":
        # Every shard is a coroutine on one loop: the only client shape
        # that reaches hundreds-to-thousands of concurrent connections.
        outcomes.extend(_run_events_async(
            url, shards, verify_signature,
            open_loop=open_loop, time_scale=time_scale))
    else:  # threads: same pacing logic, in-process verifier
        from repro.api.client import RemoteClient
        from repro.api.transport import HttpTransport

        def run_shard(shard) -> "list[dict]":
            with HttpTransport(url) as transport:
                client = RemoteClient(transport, verify_signature)
                return _run_events(client, transport, shard,
                                   open_loop=open_loop, time_scale=time_scale)

        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=max(1, len(shards))) as pool:
            for client_outcomes in pool.map(run_shard, shards):
                outcomes.extend(client_outcomes)

    pusher.join()
    seconds = time.perf_counter() - started

    latencies = [o["latency"] for o in outcomes
                 if o["kind"] in (EVENT_QUERY, EVENT_BATCH)]
    failures = [f for o in outcomes for f in o["failures"]]
    failures.extend(update_failures)
    failures.extend(crashed)
    garbage = [o for o in outcomes if o["kind"] == EVENT_GARBAGE]
    return PhaseReport(
        name=phase.name,
        mode="closed" if phase.closed_loop else "open",
        requests=len(outcomes),
        queries=sum(o["queries"] for o in outcomes),
        seconds=seconds,
        p50_ms=percentile(latencies, 0.50) * 1000.0,
        p95_ms=percentile(latencies, 0.95) * 1000.0,
        p99_ms=percentile(latencies, 0.99) * 1000.0,
        wire_bytes=sum(o["wire"] for o in outcomes),
        proof_bytes=sum(o["proof"] for o in outcomes),
        verified=sum(o["verified"] for o in outcomes),
        cache_hits=sum(o["cached"] for o in outcomes),
        failures=tuple(failures),
        garbage_sent=len(garbage),
        garbage_unexpected=sum(
            1 for o in garbage if o["garbage_outcome"] == "unexpected"),
        garbage_untyped=sum(
            1 for o in garbage if o["garbage_outcome"] == "untyped"),
        updates_pushed=pushed[0],
    )


def run_slo_soak(
    method: "VerificationMethod | None",
    scenario: Scenario,
    *,
    key_path: "str | None" = None,
    verify_signature: "SignatureVerifier | None" = None,
    update_signer: "Signer | None" = None,
    clients: int = 2,
    client_mode: str = "process",
    seed: int = 2010,
    time_scale: float = 1.0,
    cache_size: int = DEFAULT_CAPACITY,
    artifact_path: "str | None" = None,
    workers: int = 1,
    url: "str | None" = None,
    graph=None,
) -> SloReport:
    """Run *scenario* against a live serving stack; report per phase.

    Without *artifact_path* the soak boots an in-process
    :class:`~repro.service.aio.AsyncProofHttpServer` over a fresh
    :class:`~repro.service.server.ProofServer` for *method* — update
    events are honoured when *update_signer* is given, and the server's
    per-phase metrics windows land in each report.  With
    *artifact_path* a :class:`~repro.service.workers.WorkerPool` of
    *workers* processes serves instead; update events are dropped
    (replica pushes are ROADMAP item 5's scale-out work) and the
    report gains per-worker request balance.

    With *url* the soak drives an **already-running external endpoint**
    (e.g. a shard router) instead of booting anything: *method* may be
    ``None`` (the served method is learned from the handshake), the
    traffic graph comes from *graph* (or *method*'s), and update events
    are dropped — an external endpoint's update path is not this
    harness's to exercise.  Responses are verified exactly as in the
    other modes, stitched cross-shard composites included.

    ``client_mode="process"`` (the default, and what the CLI uses)
    spawns real client processes that verify with the public key file
    at *key_path*; ``"thread"`` keeps clients in-process using
    *verify_signature* — same pacing, no spawn latency, right for unit
    tests.  ``"async"`` multiplexes every client as a coroutine with
    its own persistent connection on one event loop — the only mode
    that scales to hundreds or thousands of concurrent connections
    (point it at a single-box frontend; composite router replies would
    need an out-of-band manifest).  ``time_scale`` stretches (>1) or
    compresses (<1) every arrival timestamp.
    """
    from repro.api.client import RemoteClient
    from repro.api.transport import HttpTransport
    from repro.bench.serving import fetch_http_metrics

    if clients < 1:
        raise ServiceError(f"clients must be >= 1, got {clients}")
    if client_mode not in ("process", "thread", "async"):
        raise ServiceError(f"unknown client_mode {client_mode!r}")
    if client_mode == "process" and key_path is None:
        raise ServiceError("process clients need key_path to verify with")
    if client_mode in ("thread", "async") and verify_signature is None:
        if key_path is None:
            raise ServiceError(
                f"{client_mode} clients need verify_signature or key_path")
        verify_signature = load_public_key(key_path).verify
    if time_scale <= 0:
        raise ServiceError(f"time_scale must be positive, got {time_scale}")

    traffic_graph = graph if graph is not None else (
        method.graph if method is not None else None)
    if traffic_graph is None:
        raise ServiceError(
            "the soak needs a traffic graph: pass method or graph")

    trace = generate_traffic(traffic_graph, scenario, seed=seed)
    coordinator_verify = verify_signature \
        if verify_signature is not None else load_public_key(key_path).verify

    def drive(url: str, server) -> "tuple[list[PhaseReport], list[str], int]":
        with HttpTransport(url) as update_transport:
            update_client = RemoteClient(update_transport, coordinator_verify)
            update_client.hello()
            reports: list[PhaseReport] = []
            for phase, events in trace.phases:
                if server is not None:
                    server.metrics.begin_phase(phase.name)
                reports.append(_drive_phase(
                    phase, events, url=url, clients=clients,
                    client_mode=client_mode, key_path=key_path,
                    verify_signature=verify_signature, time_scale=time_scale,
                    update_client=update_client,
                    allow_updates=(server is not None
                                   and update_signer is not None),
                ))
            if server is not None:
                from dataclasses import replace as _replace

                server.metrics.end_phase()
                windows = {w.phase: w.as_dict()
                           for w in server.metrics.phases}
                reports = [_replace(r, server_window=windows.get(r.name))
                           for r in reports]
            # The freshness gate: after every push, a fresh query must
            # verify with the last pushed version as the floor — the
            # end-to-end stale-replay defence, exercised mid-soak.
            freshness: list[str] = []
            floor = update_client.min_descriptor_version or 0
            pair = next(
                (e.queries[0] for _, events in trace.phases for e in events
                 if e.kind == EVENT_QUERY),
                None,
            )
            if pair is not None:
                vs, vt = pair
                final = update_client.query(vs, vt)
                if not final.ok:
                    freshness.append(
                        f"final query ({vs},{vt}) at floor {floor}: "
                        f"{final.verdict.reason} {final.verdict.detail}")
            return reports, freshness, floor

    if url is not None:
        with HttpTransport(url) as probe:
            served_method = RemoteClient(probe, coordinator_verify).hello().method
        reports, freshness, floor = drive(url, None)
        server_metrics = fetch_http_metrics(url)
        return SloReport(
            scenario=scenario.name,
            method=method.name if method is not None else served_method,
            seed=seed, trace_digest=trace.digest(), clients=clients,
            client_mode=client_mode, url=url, phases=tuple(reports),
            server_metrics=server_metrics,
            final_version=floor, freshness_failures=tuple(freshness),
        )

    if method is None:
        raise ServiceError("without url, the soak needs a built method")

    if artifact_path is not None:
        from repro.service.workers import WorkerPool

        with WorkerPool(artifact_path, workers=workers,
                        cache_size=cache_size) as pool:
            reports, freshness, floor = drive(pool.url, None)
            url = pool.url
            server_metrics = fetch_http_metrics(url)
        aggregate = pool.aggregate
        return SloReport(
            scenario=scenario.name, method=method.name, seed=seed,
            trace_digest=trace.digest(), clients=clients,
            client_mode=client_mode, url=url, phases=tuple(reports),
            server_metrics=(aggregate.as_dict() if aggregate
                            else server_metrics),
            worker_requests=tuple(s.requests for s in pool.worker_snapshots),
            final_version=floor, freshness_failures=tuple(freshness),
        )

    from repro.service.aio import AsyncProofHttpServer
    from repro.service.server import ProofServer

    server = ProofServer(method, cache_size=cache_size)
    dispatcher = server.dispatcher(update_signer=update_signer)
    with AsyncProofHttpServer(dispatcher) as http_server:
        url = http_server.url
        reports, freshness, floor = drive(url, server)
        server_metrics = fetch_http_metrics(url)
    return SloReport(
        scenario=scenario.name, method=method.name, seed=seed,
        trace_digest=trace.digest(), clients=clients,
        client_mode=client_mode, url=url, phases=tuple(reports),
        server_metrics=server_metrics,
        final_version=floor, freshness_failures=tuple(freshness),
    )
