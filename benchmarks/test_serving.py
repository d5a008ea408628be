"""Serving throughput — the heavy-traffic scenario beyond the paper.

The paper measures per-query proof cost; a production provider serves
the same popular queries to many clients.  This benchmark asks the
default workload three times of a
:class:`~repro.service.server.ProofServer` behind the HTTP frontend —
cold cache, then warm — through a verifying
:class:`~repro.api.client.RemoteClient`, and records QPS, latency
percentiles, hit rate and proof bytes per pass into
``benchmarks/results/``.

Expected shape: the warm passes hit the cache on (essentially) every
request and beat cold proving; every served proof — cached or fresh —
passes client verification.
"""

import pytest

from benchmarks.conftest import (
    DEFAULT_DATASET,
    DEFAULT_RANGE,
    DEFAULT_SCALE,
    emit,
    wire_passes,
)
from repro.service.metrics import percentile

METHODS = ["DIJ", "LDM", "FULL"]
PASSES = ("cold", "warm1", "warm2")


@pytest.fixture(scope="module")
def serving_passes(ctx) -> "dict[str, list[dict]]":
    summaries = {}
    for name in METHODS:
        method = ctx.method(name)
        queries = list(ctx.workload())
        # One direct answer outside the measured server warms process
        # state (lazy imports, compiled graph index) without touching
        # the server's proof cache: the "cold" pass measures a cold
        # cache, not interpreter first-touch costs.
        method.answer(*queries[0])
        summaries[name] = [
            _summary(label, timed) for label, timed in zip(
                PASSES, wire_passes(method, queries, ctx.signer.verify,
                                    passes=len(PASSES)))]
    return summaries


def _summary(label: str, timed: list) -> dict:
    seconds = [elapsed for _, elapsed in timed]
    served = [result for result, _ in timed]
    return {
        "pass": label,
        "queries": len(served),
        "qps": len(served) / sum(seconds),
        "p50_ms": 1000.0 * percentile(seconds, 0.50),
        "p95_ms": 1000.0 * percentile(seconds, 0.95),
        "hit_rate": sum(r.cached for r in served) / len(served),
        "proof_bytes": sum(len(r.response_bytes or b"") for r in served),
        "failures": [(r.source, r.target, r.verdict.reason)
                     for r in served if not r.ok],
    }


def test_serving_throughput(ctx, serving_passes, results, benchmark):
    graph = ctx.dataset()
    rows = []
    for name in METHODS:
        for p in serving_passes[name]:
            rows.append([name, p["pass"], p["queries"], p["qps"],
                         p["p50_ms"], p["p95_ms"], 100.0 * p["hit_rate"],
                         p["proof_bytes"] / 1024.0])
            results.add(
                "serving", method=name, dataset=DEFAULT_DATASET,
                scale=DEFAULT_SCALE, nodes=graph.num_nodes,
                query_range=DEFAULT_RANGE,
                **{k: v for k, v in p.items() if k != "failures"},
                failures=len(p["failures"]),
            )
    emit(
        f"Serving throughput — cold vs warm cache "
        f"({DEFAULT_DATASET}-like, |V|={graph.num_nodes}, range={DEFAULT_RANGE:g})",
        ["method", "pass", "queries", "QPS", "p50 ms", "p95 ms",
         "hit %", "proof KB"],
        rows,
    )
    for name in METHODS:
        passes = serving_passes[name]
        cold, warm = passes[0], passes[-1]
        assert not [p["failures"] for p in passes if p["failures"]]
        assert warm["hit_rate"] >= 0.9
        assert warm["qps"] > cold["qps"]

    # Representative serving op: a warm-cache hit on the DIJ server.
    from repro.service.server import ProofServer

    server = ProofServer(ctx.method("DIJ"))
    vs, vt = ctx.workload().queries[0]
    server.answer(vs, vt)
    benchmark(server.answer, vs, vt)
