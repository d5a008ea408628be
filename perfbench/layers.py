"""The traced run: per-layer metrics from spans around public calls.

Everything here runs in the driver's own process against a method loaded
from the same artifact the server process serves.  Each layer of ``repro``
is timed *from outside*, by wrapping a call into one of its public
functions in a span ``(name, start, end, parent, request)``; a layer's
self time is its span minus the spans it contains (``core.assemble_ms`` =
``method.answer`` − the kernel search, and so on).  Spans stay in memory
and are handed back to the caller, which writes them with ``--out``.

Three passes over the latency-phase request list:

1. *replay*, untraced then traced — warm-up and requests through
   ``Dispatcher.dispatch`` and ``RemoteClient.interpret_query_reply``,
   with the server process's cache size, so hit/miss dispatch times line
   up request by request with the wire latencies (their difference is
   ``service.aio.wire_ms``) and traced/untraced gives the trace overhead;
2. *stages* — each request's pair through every stage function alone;
3. *floors* — HELLO round trips against real server processes.
"""

from __future__ import annotations

import asyncio
import os
import time
from statistics import median

from repro.api.client import RemoteClient
from repro.api.envelope import (
    BatchQueryRequest,
    HelloRequest,
    QueryReply,
    QueryRequest,
    UpdateReply,
    decode_frame,
    decode_message,
)
from repro.api.transport import InProcessTransport
from repro.core import Client
from repro.core.checks import verify_descriptor, verify_section_root
from repro.core.proofs import QueryResponse
from repro.service import ProofServer
from repro.shortestpath.kernel import indexed_dijkstra
from repro.store import load_method

from perfbench.loadgen import Conn
from perfbench.serverproc import ServerProcess

STAGE_REQUESTS = 120      # per 10 s: requests taken through the stage pass
FLOOR_ROUND_TRIPS = 2000  # per 10 s, per frontend
BATCH_SIZE = 8
BATCHES = 4


class Tracer:
    """Spans in memory: ``[name, start, end, parent, request]``."""

    def __init__(self) -> None:
        self.spans: "list[list]" = []

    def open(self, name: str, request: int, parent: int = -1) -> int:
        self.spans.append([name, time.perf_counter(), 0.0, parent, request])
        return len(self.spans) - 1

    def close(self, span: int) -> float:
        record = self.spans[span]
        record[2] = time.perf_counter()
        return record[2] - record[1]

    def call(self, name: str, request: int, parent: int, fn, *args, **kwargs):
        """``fn(*args)`` inside a span; returns ``(result, seconds)``."""
        span = self.open(name, request, parent)
        result = fn(*args, **kwargs)
        return result, self.close(span)


def _untraced_call(name, request, parent, fn, *args):
    return fn(*args), 0.0


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise RuntimeError(f"traced run: {what}")


def _ms(seconds) -> float:
    """Median in ms; 0 when the run made no such call (the metric does
    not apply to the workload)."""
    seconds = list(seconds)
    return 1e3 * median(seconds) if seconds else 0.0


# ----------------------------------------------------------------------
# pass 1: replay through dispatcher and client
# ----------------------------------------------------------------------
def replay(workload, plan, setup, tracer: "Tracer | None"):
    """Warm-up plus the latency list, in process.

    Returns the wall time of the timed part and, per query position in
    the latency list, ``(dispatch seconds, reply was a cache hit)`` — the
    seconds are 0 when untraced.
    """
    signer = setup.signer if workload.push_every else None
    server = ProofServer(load_method(setup.artifact), cache_size=workload.cache)
    dispatcher = server.dispatcher(update_signer=signer)
    client = RemoteClient(InProcessTransport(dispatcher),
                          setup.signer.verifier_for_public_key().verify)
    for sample in plan.warmup:
        dispatcher.dispatch(sample.frame)
    dispatch: "dict[int, tuple[float, bool]]" = {}
    call = tracer.call if tracer is not None else _untraced_call
    started = time.perf_counter()
    for position, sample in enumerate(plan.repetitions[0].latency):
        root = tracer.open("request", position) if tracer is not None else -1
        reply, seconds = call("api.dispatcher.dispatch", position, root,
                              dispatcher.dispatch, sample.frame)
        if sample.push:
            client.require_version(
                RemoteClient.interpret_exchange(reply, UpdateReply).version)
        else:
            result, _ = call("api.client.interpret", position, root,
                             client.interpret_query_reply, sample.source,
                             sample.target, reply)
            _require(result.ok, f"in-process reply rejected: {result.verdict}")
            dispatch[position] = (seconds, result.cached)
        if tracer is not None:
            tracer.close(root)
    return time.perf_counter() - started, dispatch


# ----------------------------------------------------------------------
# pass 2: every stage alone
# ----------------------------------------------------------------------
def stages(workload, plan, setup, tracer: Tracer, count: int) -> dict:
    """Per-request medians of each stage function, called on its own."""
    verify_signature = setup.signer.verifier_for_public_key().verify
    started = time.perf_counter()
    method = load_method(setup.artifact)
    load_s = time.perf_counter() - started
    server = ProofServer(method, cache_size=workload.cache)
    core_client = Client(verify_signature)
    remote = RemoteClient(None, verify_signature)
    columns: "dict[str, list[float]]" = {}

    def record(name: str, value: float) -> None:
        columns.setdefault(name, []).append(value)

    queries = [s for s in plan.repetitions[0].latency if not s.push][:count]
    for request, sample in enumerate(queries):
        source, target = sample.source, sample.target
        root = tracer.open("stages", request)

        def call(name, fn, *args, **kwargs):
            return tracer.call(name, request, root, fn, *args, **kwargs)

        found, search = call("shortestpath.search", indexed_dijkstra,
                             method.graph.to_index(), source, target=target)
        response, answer = call("core.answer", method.answer, source, target)
        data, encode = call("encoding.response_encode", response.encode)
        decoded, decode = call("encoding.response_decode",
                               QueryResponse.decode, data)
        server.cache.clear()
        _, miss = call("service.server.answer_miss", server.answer,
                       source, target)
        _, hit = call("service.server.answer_hit", server.answer,
                      source, target)

        span = tracer.open("api.envelope.frame", request, root)
        request_frame = QueryRequest(source, target).to_frame()
        decode_message(decode_frame(request_frame))
        reply_frame = QueryReply(data, cached=False).to_frame()
        decode_message(decode_frame(reply_frame))
        frame = tracer.close(span)

        verdict, signature = call("crypto.signature", verify_descriptor,
                                  workload.method, decoded, verify_signature)
        _require(verdict is None, f"descriptor rejected: {verdict}")
        span = tracer.open("merkle.reconstruct", request, root)
        for section in decoded.sections.values():
            _require(verify_section_root(decoded.descriptor, section) is None,
                     f"root of {section.tree!r} does not reconstruct")
        reconstruct = tracer.close(span)
        verdict, verify = call("core.verify", core_client.verify_bytes,
                               source, target, data)
        _require(verdict.ok, f"response rejected: {verdict}")
        _, interpret = call("api.client.interpret_alone",
                            remote.interpret_query_reply, source, target,
                            reply_frame)
        tracer.close(root)

        sizes = response.sizes()
        record("shortestpath.search_ms", 1e3 * search)
        record("shortestpath.settled_nodes", len(found.settled_ids()))
        record("core.answer_ms", 1e3 * answer)
        record("core.assemble_ms", 1e3 * (answer - search))
        record("core.s_items", sizes.s_items)
        record("core.t_items", sizes.t_items)
        record("encoding.response_encode_ms", 1e3 * encode)
        record("encoding.response_decode_ms", 1e3 * decode)
        record("encoding.proof_bytes", len(data))
        record("service.server.answer_miss_ms", 1e3 * miss)
        record("service.server.self_miss_ms", 1e3 * (miss - answer))
        record("service.server.answer_hit_ms", 1e3 * hit)
        record("api.envelope.frame_ms", 1e3 * frame)
        record("api.envelope.overhead_bytes",
               len(request_frame) + len(reply_frame) - len(data))
        record("crypto.signature_ms", 1e3 * signature)
        record("merkle.reconstruct_ms", 1e3 * reconstruct)
        record("core.verify_ms", 1e3 * verify)
        record("core.recheck_ms",
               1e3 * (verify - decode - signature - reconstruct))
        record("api.client.interpret_ms", 1e3 * interpret)

    out = {name: median(values) for name, values in columns.items()}
    out["store.load_s"] = load_s
    out["store.artifact_bytes"] = float(os.path.getsize(setup.artifact))
    out["core.construction_s"] = setup.method.construction_seconds
    _, sign = tracer.call("crypto.sign", -1, -1, setup.signer.sign,
                          method.descriptor.message())
    out["crypto.sign_ms"] = 1e3 * sign
    out.update(_batches(server, queries, verify_signature, tracer))
    out.update(_updates(server, plan, setup, tracer))
    return out


def _batches(server, queries, verify_signature, tracer: Tracer) -> dict:
    """Multiproof bursts of eight (informational: no end-to-end metric
    uses batches yet).  Methods whose proofs cannot share a cover answer
    in the per-item layout, which is then what gets measured."""
    dispatcher = server.dispatcher()
    client = RemoteClient(None, verify_signature)
    pairs = list(dict.fromkeys((s.source, s.target) for s in queries))
    size, seconds = [], []
    for batch in range(BATCHES):
        burst = pairs[batch * BATCH_SIZE:(batch + 1) * BATCH_SIZE]
        if len(burst) < 2:
            break
        server.cache.clear()
        reply = dispatcher.dispatch(
            BatchQueryRequest(tuple(burst), multiproof=True).to_frame())
        results, spent = tracer.call("core.batch_verify", batch, -1,
                                     client.interpret_batch_reply, burst, reply)
        _require(all(r.ok for r in results), "batch slot rejected")
        size.append(len(reply) / len(burst))
        seconds.append(spent / len(burst))
    return {"core.batch_bytes_per_query_k8": median(size) if size else 0.0,
            "core.batch_verify_ms_per_query_k8": _ms(seconds)}


def _updates(server, plan, setup, tracer: Tracer) -> dict:
    """The planned re-weights applied in process (update workload only)."""
    seconds, patched = [], []
    for number, update in enumerate(plan.updates):
        report, spent = tracer.call("core.apply_update", number, -1,
                                    server.apply_updates, [update], setup.signer)
        seconds.append(spent)
        patched.append(report.leaves_patched)
    return {"core.apply_update_ms": _ms(seconds),
            "core.update_leaves_patched": median(patched) if patched else 0.0}


# ----------------------------------------------------------------------
# pass 3: HELLO floors against real server processes
# ----------------------------------------------------------------------
async def _floor(host: str, port: int, count: int) -> float:
    """Median HELLO round trip from the driver's own socket, in ms."""
    conn, frame, seconds = Conn(host, port), HelloRequest().to_frame(), []
    try:
        for _ in range(count):
            started = time.perf_counter()
            await conn.roundtrip(frame)
            seconds.append(time.perf_counter() - started)
    finally:
        await conn.close()
    return _ms(seconds)


async def _transport_floor(host: str, port: int, count: int) -> float:
    """The same through ``repro``'s own asyncio transport (0 if gone)."""
    try:
        from repro.api.transport import AsyncTransport
    except ImportError:
        return 0.0
    frame, seconds = HelloRequest().to_frame(), []
    async with AsyncTransport(f"http://{host}:{port}") as transport:
        for _ in range(count):
            started = time.perf_counter()
            await transport.roundtrip(frame)
            seconds.append(time.perf_counter() - started)
    return _ms(seconds)


def floors(workload, setup, count: int) -> dict:
    """The aio floors against the run's own server, the threaded
    frontend's against a second process serving the same artifact.  A
    frontend or transport this checkout no longer has reads 0."""
    aio = setup.server
    out = {
        "service.aio.floor_rt_ms":
            asyncio.run(_floor(aio.host, aio.port, count)),
        "api.transport.floor_rt_ms":
            asyncio.run(_transport_floor(aio.host, aio.port, count)),
    }
    with ServerProcess(setup.artifact, workload.cache,
                       frontend="http") as threaded:
        out["service.http.floor_rt_ms"] = asyncio.run(
            _floor(threaded.host, threaded.port, count)) \
            if threaded.available else 0.0
    return out


# ----------------------------------------------------------------------
def measure(workload, plan, setup, run, seconds: float, metrics: dict) -> list:
    """Fill *metrics* with every in-process layer metric; returns spans."""
    tracer = Tracer()
    # Untraced, traced, untraced: the first replay also warms the
    # process, so the traced one is held against the mean of its neighbours.
    first, _ = replay(workload, plan, setup, None)
    traced, dispatch = replay(workload, plan, setup, tracer)
    second, _ = replay(workload, plan, setup, None)
    untraced = (first + second) / 2.0
    metrics["driver.trace_overhead_pct"] = 100.0 * (traced - untraced) / untraced
    metrics["api.dispatcher.dispatch_hit_ms"] = _ms(
        s for s, cached in dispatch.values() if cached)
    metrics["api.dispatcher.dispatch_miss_ms"] = _ms(
        s for s, cached in dispatch.values() if not cached)
    # Same requests, same cache states, one connection: what the wire
    # adds to an in-process dispatch (queue + write + net + read).
    wire = run.of("latency")[0].samples
    metrics["service.aio.wire_ms"] = _ms(
        wire[position].received - wire[position].sent - seconds_in_process
        for position, (seconds_in_process, _) in dispatch.items()
        if not wire[position].error)
    scale = seconds / 10.0
    metrics.update(stages(workload, plan, setup, tracer,
                          max(2, round(STAGE_REQUESTS * scale))))
    metrics.update(floors(workload, setup,
                          max(10, round(FLOOR_ROUND_TRIPS * scale))))
    return tracer.spans
