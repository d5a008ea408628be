"""Connection-hold soak: a thousand held connections cost ~nothing.

``hold_connections`` :class:`~repro.bench.serving.AsyncRemoteClient`
instances on one event loop each hold a persistent connection and
trickle verified traffic over it for ``hold_rounds`` rounds, and
process RSS, sampled between rounds, must stay flat
(``max_rss_growth_mb``) — all three from the ``async_driver`` block of
``benchmarks/slo_baseline.json``.  A per-connection leak — buffered
frames, un-reaped tasks, handler state — shows up here multiplied by a
thousand, long before it would trip any per-request test.

Every wire response is verified client-side, so this is an end-to-end
soundness check before it is a resource check.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os

from benchmarks.conftest import DEFAULT_DATASET, DEFAULT_SCALE, emit

BASELINE = os.path.join(os.path.dirname(__file__), "slo_baseline.json")


def _async_policy() -> dict:
    with open(BASELINE, "r", encoding="utf-8") as infile:
        return json.load(infile)["async_driver"]


def _rss_mb() -> float:
    """Current (not peak) resident set size of this process, in MB."""
    with open("/proc/self/status", "r", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmRSS in /proc/self/status")


def test_connection_hold_soak(ctx, results):
    """C=1000 held connections: verified traffic, flat process RSS."""
    from repro.api.transport import AsyncTransport
    from repro.bench.serving import (
        CONNECT_WAVE,
        REQUEST_TIMEOUT,
        AsyncRemoteClient,
    )
    from repro.service.aio import AsyncProofHttpServer
    from repro.service.server import ProofServer

    policy = _async_policy()
    holders = int(policy["hold_connections"])
    rounds = int(policy["hold_rounds"])
    rss_ceiling = float(policy["max_rss_growth_mb"])
    method = ctx.method("DIJ")
    graph = ctx.dataset()
    base = list(ctx.workload())
    # One query per held connection per round — the point is the held
    # sockets, not throughput.
    chunk = (base * (holders // len(base) + 1))[:holders]

    dispatcher = ProofServer(method, cache_size=256).dispatcher()
    rows = []

    async def hold(url: str) -> "tuple[float, float, int]":
        clients = [AsyncRemoteClient(AsyncTransport(url,
                                                    timeout=REQUEST_TIMEOUT),
                                     ctx.signer.verify)
                   for _ in range(holders)]
        failures = 0
        try:
            # All C connections established and handshaken, in waves.
            for first in range(0, holders, CONNECT_WAVE):
                await asyncio.gather(*(c.hello() for c in
                                       clients[first:first + CONNECT_WAVE]))
            gc.collect()
            baseline_mb = _rss_mb()
            grown = 0.0
            for round_index in range(rounds):
                outcomes = await asyncio.gather(
                    *(c.query(*pair) for c, pair in zip(clients, chunk)))
                failures += sum(1 for r in outcomes if not r.ok)
                gc.collect()
                grown = _rss_mb() - baseline_mb
                rows.append([round_index + 1, len(outcomes),
                             sum(1 for r in outcomes if r.ok), grown])
        finally:
            await asyncio.gather(*(c.close() for c in clients),
                                 return_exceptions=True)
        return baseline_mb, grown, failures

    with AsyncProofHttpServer(dispatcher) as server:
        baseline_mb, grown, failures = asyncio.run(hold(server.url))
        metrics = dispatcher.metrics_json()
    results.add(
        "connection_hold_soak", dataset=DEFAULT_DATASET, scale=DEFAULT_SCALE,
        nodes=graph.num_nodes, connections=holders, rounds=rounds,
        requests=metrics.get("requests"), verification_failures=failures,
        baseline_rss_mb=baseline_mb, rss_growth_mb=grown,
        max_rss_growth_mb=rss_ceiling, cpu_count=os.cpu_count(),
    )
    emit(
        f"Connection-hold soak (C={holders} persistent connections, "
        f"baseline RSS {baseline_mb:.0f} MB, {os.cpu_count()} CPUs)",
        ["round", "queries", "verified", "RSS growth MB"],
        rows,
    )
    assert failures <= int(policy["max_verification_failures"]), failures
    assert metrics.get("requests", 0) >= rounds * holders
    assert grown <= rss_ceiling, (
        f"RSS grew {grown:.1f} MB over {rounds} rounds with {holders} held "
        f"connections (ceiling {rss_ceiling:g} MB) — a per-connection leak "
        f"multiplied a thousandfold"
    )
