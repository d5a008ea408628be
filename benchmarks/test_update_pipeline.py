"""Live-update pipeline — incremental re-authentication vs rebuild.

The paper's owner re-signs a static snapshot; the live-update pipeline
(`apply_update`) absorbs edge mutations by patching only the touched
hint tuples and Merkle leaves.  This benchmark quantifies the payoff on
the DE network and pins the correctness contract at benchmark scale:

* ``test_update_incremental_vs_rebuild`` — median latency of absorbing
  a single edge re-weight incrementally versus re-publishing from
  scratch (the owner's only alternative without the pipeline).
  Acceptance: at least 5x for DIJ and LDM, 4x for HYP, 1x for FULL.
* ``test_update_equivalence_after_n_random`` — after N random mixed
  updates, signed roots and full query responses are byte-identical to
  a from-scratch rebuild.
* ``test_update_aware_serving`` — the load driver replaying the default
  workload with owner re-weights interleaved mid-pass: every chunk
  verifies under the descriptor version it was served at.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import DEFAULT_SCALE, SWEEP_SCALE, emit, method_params
from repro.bench.serving import SloReport, run_loadtest
from repro.core.method import get_method
from repro.workload.traffic import replay_trace
from repro.workload.updates import (
    UPDATE_WEIGHT,
    generate_update_workload,
)

#: (method, dataset scale, updates measured) — FULL runs at the sweep
#: scale: its quadratic matrix dominates otherwise.
UPDATE_CONFIGS = [
    ("DIJ", DEFAULT_SCALE, 10),
    ("LDM", DEFAULT_SCALE, 10),
    ("HYP", DEFAULT_SCALE, 5),
    ("FULL", SWEEP_SCALE, 5),
]

#: Acceptance floor: incremental absorption of one edge re-weight must
#: beat a from-scratch re-publish by at least this factor.  FULL and HYP
#: floors are half the median speedup row repair measured on a 2-core
#: box (FULL 1.98x, HYP 7.94x over five runs).
MIN_SPEEDUP = {"DIJ": 5.0, "LDM": 5.0, "FULL": 1.0, "HYP": 4.0}


def _fresh_method(ctx, name, scale):
    """A private (mutable) copy of the cached dataset + a built method."""
    graph = ctx.dataset(scale=scale).copy()
    graph.to_csr()
    method = get_method(name).build(graph, ctx.signer,
                                    **method_params(name))
    return graph, method


@pytest.mark.perf
def test_update_incremental_vs_rebuild(ctx, results):
    rows = []
    for name, scale, count in UPDATE_CONFIGS:
        graph, method = _fresh_method(ctx, name, scale)
        workload = generate_update_workload(graph, count, seed=2010,
                                            kinds=(UPDATE_WEIGHT,))
        latencies = []
        patched = 0
        for update in workload:
            update.apply(graph)
            start = time.perf_counter()
            report = method.apply_update(ctx.signer)
            latencies.append(time.perf_counter() - start)
            assert report.mode != "full-rebuild"
            patched += report.leaves_patched
        median = sorted(latencies)[len(latencies) // 2]

        start = time.perf_counter()
        type(method).build(graph, ctx.signer, **method._publish_params)
        rebuild = time.perf_counter() - start
        speedup = rebuild / median if median > 0 else 0.0

        results.add(
            "update_incremental_vs_rebuild",
            method=name,
            nodes=graph.num_nodes,
            edges=graph.num_edges,
            updates=count,
            update_ms_median=median * 1000.0,
            update_ms_mean=sum(latencies) / count * 1000.0,
            leaves_patched_total=patched,
            rebuild_seconds=rebuild,
            speedup=speedup,
        )
        rows.append([name, graph.num_nodes, count, median * 1000.0,
                     rebuild * 1000.0, speedup])
        floor = MIN_SPEEDUP.get(name)
        if floor is not None:
            assert speedup >= floor, (
                f"{name}: incremental update is only {speedup:.1f}x faster "
                f"than a rebuild (need >= {floor:g}x)"
            )
    emit("incremental apply_update vs full re-publish (single re-weight)",
         ["method", "nodes", "updates", "update ms (median)", "rebuild ms",
          "speedup"], rows)


def test_update_equivalence_after_n_random(ctx, results):
    """Acceptance: responses after N random updates are byte-identical
    to a fresh rebuild on the mutated graph."""
    n_updates = 20
    rows = []
    for name, scale, _ in UPDATE_CONFIGS:
        graph, method = _fresh_method(ctx, name, scale)
        generate_update_workload(graph, n_updates, seed=777,
                                 kinds=(UPDATE_WEIGHT,)).apply_all(graph)
        method.apply_update(ctx.signer)
        fresh = type(method).build(graph, ctx.signer,
                                   **method._build_params)
        assert method.descriptor.encode() == fresh.descriptor.encode()
        queries = list(ctx.workload(scale=scale))[:5]
        identical = 0
        for vs, vt in queries:
            assert method.answer(vs, vt).encode() == \
                fresh.answer(vs, vt).encode()
            identical += 1
        results.add(
            "update_equivalence",
            method=name,
            updates=n_updates,
            queries_compared=identical,
            byte_identical=True,
        )
        rows.append([name, n_updates, identical, "yes"])
    emit(f"byte-identity after {n_updates} random re-weights",
         ["method", "updates", "responses compared", "identical"], rows)


@pytest.mark.parametrize("name", ["DIJ", "LDM"])
def test_update_aware_serving(ctx, results, name):
    graph = ctx.dataset().copy()
    graph.to_csr()
    method = get_method(name).build(graph, ctx.signer, **method_params(name))
    queries = list(ctx.workload())
    method.answer(*queries[0])  # absorb first-touch costs
    trace = replay_trace(graph, queries, passes=3, updates_per_pass=3)
    report = run_loadtest(trace, ctx.signer.verify, method=method,
                          update_signer=ctx.signer)
    assert report.all_verified, [p.failures[:3] for p in report.phases]
    for phase in report.phases:
        assert phase.updates_pushed == 3
        assert phase.server_window["updates"] == 3
        results.add("update_aware_serving", method=name, **phase.as_dict())
    emit(f"{name} serving with 3 owner re-weights per pass",
         list(SloReport.TABLE_HEADERS), report.table_rows())
