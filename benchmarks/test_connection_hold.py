"""Connection-hold soak: a thousand held connections cost ~nothing.

``HOLD_CONNECTIONS`` :class:`~repro.api.transport.AsyncTransport`
connections on one event loop each hold a persistent keep-alive socket
and trickle verified traffic over it for ``HOLD_ROUNDS`` rounds, and
process RSS, sampled between rounds, must stay flat
(``MAX_RSS_GROWTH_MB``).  A per-connection leak — buffered frames,
un-reaped tasks, handler state — shows up here multiplied by a
thousand, long before it would trip any per-request test.

Every wire response is verified client-side (through
:meth:`RemoteClient.interpret_query_reply`), so this is an end-to-end
soundness check before it is a resource check.
"""

from __future__ import annotations

import asyncio
import gc
import os

from benchmarks.conftest import DEFAULT_DATASET, DEFAULT_SCALE, emit

#: Persistent connections held at once.
HOLD_CONNECTIONS = 1000
#: Rounds of one verified query per held connection.
HOLD_ROUNDS = 3
#: Process RSS may grow at most this much from the first round's
#: baseline to the last.
MAX_RSS_GROWTH_MB = 64.0
#: Connections dialed at once: a thousand simultaneous SYNs can overflow
#: even a deep listen backlog, so the ramp-up goes in waves.
CONNECT_WAVE = 128
#: Per-request deadline.  With a thousand requests in flight on an
#: oversubscribed box, honest queueing can reach tens of seconds.
REQUEST_TIMEOUT = 120.0


def _rss_mb() -> float:
    """Current (not peak) resident set size of this process, in MB."""
    with open("/proc/self/status", "r", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmRSS in /proc/self/status")


def test_connection_hold_soak(ctx, results):
    """C=1000 held connections: verified traffic, flat process RSS."""
    from repro.api.client import RemoteClient
    from repro.api.envelope import HelloReply, HelloRequest, QueryRequest
    from repro.api.transport import AsyncTransport
    from repro.service.aio import AsyncProofHttpServer
    from repro.service.server import ProofServer

    method = ctx.method("DIJ")
    graph = ctx.dataset()
    base = list(ctx.workload())
    # One query per held connection per round — the point is the held
    # sockets, not throughput.
    chunk = (base * (HOLD_CONNECTIONS // len(base) + 1))[:HOLD_CONNECTIONS]
    verifier = RemoteClient(None, ctx.signer.verify)
    hello = HelloRequest().to_frame()

    dispatcher = ProofServer(method, cache_size=256).dispatcher()
    rows = []

    async def query(transport, vs, vt):
        reply = await transport.roundtrip(QueryRequest(vs, vt).to_frame())
        return verifier.interpret_query_reply(vs, vt, reply)

    async def hold(url: str) -> "tuple[float, float, int]":
        transports = [AsyncTransport(url, timeout=REQUEST_TIMEOUT)
                      for _ in range(HOLD_CONNECTIONS)]
        failures = 0
        try:
            # All C connections established and handshaken, in waves.
            for first in range(0, HOLD_CONNECTIONS, CONNECT_WAVE):
                replies = await asyncio.gather(*(
                    t.roundtrip(hello)
                    for t in transports[first:first + CONNECT_WAVE]))
                for reply in replies:
                    assert isinstance(RemoteClient.interpret_exchange(
                        reply, HelloReply), HelloReply)
            gc.collect()
            baseline_mb = _rss_mb()
            grown = 0.0
            for round_index in range(HOLD_ROUNDS):
                outcomes = await asyncio.gather(
                    *(query(t, *pair) for t, pair in zip(transports, chunk)))
                failures += sum(1 for r in outcomes if not r.ok)
                gc.collect()
                grown = _rss_mb() - baseline_mb
                rows.append([round_index + 1, len(outcomes),
                             sum(1 for r in outcomes if r.ok), grown])
        finally:
            await asyncio.gather(*(t.close() for t in transports),
                                 return_exceptions=True)
        return baseline_mb, grown, failures

    with AsyncProofHttpServer(dispatcher) as server:
        baseline_mb, grown, failures = asyncio.run(hold(server.url))
        metrics = dispatcher.metrics_json()
    results.add(
        "connection_hold_soak", dataset=DEFAULT_DATASET, scale=DEFAULT_SCALE,
        nodes=graph.num_nodes, connections=HOLD_CONNECTIONS,
        rounds=HOLD_ROUNDS, requests=metrics.get("requests"),
        verification_failures=failures, baseline_rss_mb=baseline_mb,
        rss_growth_mb=grown, max_rss_growth_mb=MAX_RSS_GROWTH_MB,
        cpu_count=os.cpu_count(),
    )
    emit(
        f"Connection-hold soak (C={HOLD_CONNECTIONS} persistent connections, "
        f"baseline RSS {baseline_mb:.0f} MB, {os.cpu_count()} CPUs)",
        ["round", "queries", "verified", "RSS growth MB"],
        rows,
    )
    assert failures == 0, failures
    assert metrics.get("requests", 0) >= HOLD_ROUNDS * HOLD_CONNECTIONS
    assert grown <= MAX_RSS_GROWTH_MB, (
        f"RSS grew {grown:.1f} MB over {HOLD_ROUNDS} rounds with "
        f"{HOLD_CONNECTIONS} held connections (ceiling "
        f"{MAX_RSS_GROWTH_MB:g} MB) — a per-connection leak multiplied a "
        f"thousandfold"
    )
