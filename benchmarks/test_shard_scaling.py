"""Sharded serving: wire QPS of a 1-shard vs 2-shard router fleet.

Both configurations run the *same* topology — per-shard worker
processes behind a :class:`~repro.service.router.ShardRouter` behind
HTTP — so the k=1 number already pays the proxy hop and the comparison
isolates what sharding buys: proof computation spread across worker
processes, with the router's fan-out threads overlapping the shard
round trips.  Cross-shard pairs additionally pay stitching (two
sub-proofs instead of one), which is the honest price of the topology
and is included in the measured QPS rather than edited out.

Like ``test_worker_scaling``, the scaling gate is only meaningful on
real parallel hardware: a single core time-slices the worker processes
and measures scheduler noise, not scaling.  Such runners record both
configurations, assert correctness (every sampled response — plain and
composite — verifies; the router saw cross-shard traffic), and then
skip **loudly** so CI shows where the gate did not run.
"""

from __future__ import annotations

import os

import pytest

from benchmarks.conftest import DEFAULT_DATASET, DEFAULT_SCALE, emit
from repro.bench.serving import run_router_loadtest

pytestmark = pytest.mark.perf

SHARD_COUNTS = (1, 2)

#: Required warm-QPS advantage of the 2-shard fleet over 1 shard
#: (multi-core only; conservative — the stitch overhead on cross-shard
#: pairs makes perfect 2x unreachable by design).
MIN_SCALING = 1.15


def test_shard_scaling(ctx, results):
    graph = ctx.dataset()
    queries = list(ctx.workload())
    reports = {}
    rows = []
    for num_shards in SHARD_COUNTS:
        report = run_router_loadtest(
            graph, ctx.signer, queries, num_shards=num_shards, passes=3,
            client_threads=4, verify_signature=ctx.signer.verify,
        )
        assert report.all_verified, report.warm.failures
        assert report.num_shards == num_shards
        if num_shards > 1:
            assert report.cross_shard > 0, \
                "workload never crossed a shard; the gate measured nothing"
        fleet = (report.router_metrics or {}).get("fleet", {})
        reports[num_shards] = report
        for p in report.passes:
            rows.append([num_shards, p.label, p.requests, p.qps,
                         p.wire_bytes / 1024.0])
        results.add(
            "shard_scaling", dataset=DEFAULT_DATASET, scale=DEFAULT_SCALE,
            nodes=graph.num_nodes, shards=num_shards,
            cold_qps=report.cold.qps, warm_qps=report.warm.qps,
            cross_shard=report.cross_shard,
            fleet_requests=fleet.get("requests"),
            cpu_count=os.cpu_count(),
        )
    scaling = reports[2].warm.qps / reports[1].warm.qps \
        if reports[1].warm.qps else 0.0
    results.add(
        "shard_scaling_summary", dataset=DEFAULT_DATASET,
        scale=DEFAULT_SCALE, scaling=scaling, min_scaling=MIN_SCALING,
        cross_shard=reports[2].cross_shard,
        cpu_count=os.cpu_count(),
        gated=(os.cpu_count() or 1) >= 2,
    )
    emit(
        f"Sharded router wire QPS ({DEFAULT_DATASET}-like, "
        f"|V|={graph.num_nodes}, 4 client threads, "
        f"{reports[2].cross_shard} cross-shard pairs, "
        f"2-shard/1-shard warm scaling {scaling:.2f}x, "
        f"{os.cpu_count()} CPUs)",
        ["shards", "pass", "requests", "wire QPS", "wire KB"],
        rows,
    )
    if (os.cpu_count() or 1) < 2:
        pytest.skip(
            f"scaling gate needs >= 2 cores (this runner has "
            f"{os.cpu_count()}; measured {scaling:.2f}x is time-slicing, "
            f"not scaling)"
        )
    assert scaling >= MIN_SCALING, (
        f"2 shards scaled wire QPS only {scaling:.2f}x over 1 shard "
        f"(required {MIN_SCALING:g}x on a {os.cpu_count()}-core machine)"
    )
