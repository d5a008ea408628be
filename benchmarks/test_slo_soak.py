"""SLO soak benchmark: the steady-burst scenario against the DE method.

This is the serving stack's production-realism gate: Zipf-skewed bursty
traffic with batches, garbage and mid-soak owner pushes, driven through
a live HTTP server, with every response verified client-side.  The
resulting per-phase latency/locality/saturation numbers land in
``benchmarks/results/test_slo_soak.json`` and the run is held against
the checked-in SLO floor (``benchmarks/slo_baseline.json``) — p99,
saturation QPS, cache hit rate and the two zero-tolerance correctness
counters.

The soak *mutates* its graph (owner re-weights mid-run), so it builds a
private method on a copy of the session dataset rather than sharing
``ctx.method`` with the other benchmarks.
"""

from __future__ import annotations

import os

from benchmarks.conftest import DEFAULT_DATASET, DEFAULT_SCALE, emit
from repro.bench.serving import SloReport, check_slo, load_slo_policy, run_loadtest
from repro.core.method import get_method
from repro.workload.traffic import generate_traffic, get_scenario

BASELINE = os.path.join(os.path.dirname(__file__), "slo_baseline.json")

#: Event scale for CI: the full scenario's shape at a smoke-test size.
EVENTS_SCALE = float(os.environ.get("REPRO_SOAK_SCALE", "0.5"))


def test_slo_soak(ctx, results):
    graph = ctx.dataset().copy()
    method = get_method("DIJ").build(graph, ctx.signer)
    scenario = get_scenario("steady-burst").scaled(EVENTS_SCALE)
    report = run_loadtest(generate_traffic(graph, scenario, seed=2010),
                          ctx.signer.verify, method=method,
                          update_signer=ctx.signer, clients=2,
                          time_scale=0.25)

    policy = load_slo_policy(BASELINE)
    results.add(
        "slo_soak", dataset=DEFAULT_DATASET, scale=DEFAULT_SCALE,
        nodes=graph.num_nodes, events_scale=EVENTS_SCALE,
        policy=policy.as_dict(), **report.as_dict(),
    )
    emit(
        f"SLO soak '{scenario.name}' ({DEFAULT_DATASET}-like, "
        f"|V|={graph.num_nodes}, seed 2010, trace {report.trace_digest}, "
        f"{os.cpu_count()} CPUs)",
        list(SloReport.TABLE_HEADERS),
        report.table_rows(),
    )
    emit(
        "SLO summary vs baseline",
        ["objective", "measured", "floor"],
        [
            ["worst non-warmup p99 ms",
             max((p.p99_ms for p in report.phases if p.name != "warmup"),
                 default=0.0),
             policy.max_p99_ms],
            ["saturation QPS", report.saturation_qps,
             policy.min_saturation_qps],
            ["best hit rate",
             max((p.hit_rate for p in report.phases), default=0.0),
             policy.min_hit_rate],
            ["verification failures", report.verification_failures,
             policy.max_verification_failures],
            ["untyped garbage", report.untyped_garbage,
             policy.max_untyped_garbage],
        ],
    )

    # Correctness is unconditional: every response (including those
    # served after the mid-soak version pushes) verified client-side.
    assert report.all_verified, [p.failures for p in report.phases]
    assert report.untyped_garbage == 0
    assert report.updates_pushed >= 1, "soak never pushed an owner update"

    violations = check_slo(report, policy)
    assert not violations, violations
