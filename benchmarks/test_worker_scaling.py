"""Multi-process serving: wire QPS of 1 vs N SO_REUSEPORT workers.

CPython's GIL caps one process at roughly a core of proof computation;
the pre-forked worker pool (``serve --artifact --http --workers N``)
is the escape hatch.  This benchmark packs the DE DIJ method, then
replays the default workload concurrently against a 1-worker and a
2-worker pool on the same machine, reporting client-observed wire QPS
and how the kernel spread requests across the workers.  The driver
holds one **persistent** connection per client thread across all
passes (``HttpTransport`` keep-alive); the old dial-per-frame client
buried proof serving under TCP setup, which is exactly the artifact
the recorded baselines used to carry.

The scaling *gate* (2 workers beat 1 worker's warm QPS) needs real
parallel hardware: on a single core two processes time-slice one CPU,
so there is nothing to scale into.  On such machines the wire test
records both configurations, asserts correctness (all frames
well-formed, the sampled response verifies, every worker reports its
final metrics) and then **skips** — a skip is visible in CI where a
silent pass at 0.80x "scaling" was not.  ``test_process_scaling``
additionally pins the ≥1.15x floor at the process level (raw proof
computation, no HTTP in the way) whenever two cores exist.
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks.conftest import DEFAULT_DATASET, DEFAULT_SCALE, emit
from repro.bench.serving import run_worker_loadtest
from repro.store import save_method

pytestmark = pytest.mark.perf

WORKER_COUNTS = (1, 2)

#: Required warm-QPS advantage of 2 workers over 1 (multi-core only;
#: conservative — perfect scaling would be ~2x).
MIN_SCALING = 1.15


@pytest.fixture(scope="module")
def dij_artifact(ctx, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("pool") / "dij.rspv")
    save_method(ctx.method("DIJ"), path)
    return path


def test_worker_scaling(ctx, results, dij_artifact):
    import socket

    if not hasattr(socket, "SO_REUSEPORT"):
        pytest.skip("platform has no SO_REUSEPORT")
    graph = ctx.dataset()
    queries = list(ctx.workload())
    reports = {}
    rows = []
    for workers in WORKER_COUNTS:
        report = run_worker_loadtest(
            dij_artifact, queries, workers=workers, passes=3,
            client_threads=4, verify_signature=ctx.signer.verify,
        )
        assert report.all_verified, report.warm.failures
        # Every worker must report in; how evenly SO_REUSEPORT spread
        # the handful of connections is recorded, not asserted — the
        # kernel balances by connection hash, so a small run can land
        # lopsided without anything being wrong.
        assert len(report.worker_requests) == workers
        assert sum(report.worker_requests) >= len(queries)
        reports[workers] = report
        for p in report.passes:
            rows.append([workers, p.label, p.requests, p.qps,
                         p.wire_bytes / 1024.0])
        results.add(
            "worker_scaling", dataset=DEFAULT_DATASET, scale=DEFAULT_SCALE,
            nodes=graph.num_nodes, workers=workers,
            cold_qps=report.cold.qps, warm_qps=report.warm.qps,
            worker_requests=list(report.worker_requests),
            server_requests=report.aggregate_metrics.get("requests"),
            cpu_count=os.cpu_count(),
        )
    scaling = reports[2].warm.qps / reports[1].warm.qps \
        if reports[1].warm.qps else 0.0
    results.add(
        "worker_scaling_summary", dataset=DEFAULT_DATASET,
        scale=DEFAULT_SCALE, scaling=scaling, min_scaling=MIN_SCALING,
        cpu_count=os.cpu_count(),
        gated=(os.cpu_count() or 1) >= 2,
    )
    emit(
        f"Worker-pool wire QPS ({DEFAULT_DATASET}-like, "
        f"|V|={graph.num_nodes}, 4 client threads, "
        f"2-worker/1-worker warm scaling {scaling:.2f}x, "
        f"{os.cpu_count()} CPUs)",
        ["workers", "pass", "requests", "wire QPS", "wire KB"],
        rows,
    )
    if (os.cpu_count() or 1) < 2:
        # The run above still recorded and asserted correctness; only
        # the *scaling* claim is meaningless here.  Skip loudly instead
        # of passing silently at whatever time-slicing produced.
        pytest.skip(
            f"scaling gate needs >= 2 cores (this runner has "
            f"{os.cpu_count()}; measured {scaling:.2f}x is time-slicing, "
            f"not scaling)"
        )
    assert scaling >= MIN_SCALING, (
        f"2 workers scaled wire QPS only {scaling:.2f}x over 1 worker "
        f"(required {MIN_SCALING:g}x on a {os.cpu_count()}-core machine)"
    )


def _scaling_worker(artifact_path, queries, rounds, ready, go, done):
    """Child of ``test_process_scaling``: pure proof computation."""
    from repro.service.server import ProofServer
    from repro.store import load_method

    # cache_size=1 with a multi-query workload: every answer is a real
    # proof computation, not an LRU hit — the CPU-bound work scaling is
    # supposed to parallelize.
    server = ProofServer(load_method(artifact_path), cache_size=1)
    ready.put(None)
    go.wait()
    ok = True
    for _ in range(rounds):
        for vs, vt in queries:
            ok = ok and server.answer(vs, vt).ok
    done.put(ok)


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="process-level scaling needs >= 2 cores")
def test_process_scaling(ctx, results, dij_artifact):
    """Two proof processes must beat one by >= 1.15x on >= 2 cores.

    Strips HTTP, sockets and SO_REUSEPORT out of the picture: the same
    total proof workload runs in one process (2N rounds) and split
    across two (N rounds each), timed from a shared start signal after
    both children finish loading the artifact.  What remains is the
    claim the worker pool exists for — proof computation scales across
    processes.
    """
    import multiprocessing as mp

    queries = list(ctx.workload())
    rounds = 3  # per process in the dual config; single runs 2x rounds

    def run(processes: int, rounds_each: int) -> float:
        spawn = mp.get_context("spawn")
        ready, done = spawn.Queue(), spawn.Queue()
        go = spawn.Event()
        children = [
            spawn.Process(target=_scaling_worker,
                          args=(dij_artifact, queries, rounds_each,
                                ready, go, done),
                          daemon=True)
            for _ in range(processes)
        ]
        for child in children:
            child.start()
        for _ in children:
            ready.get(timeout=300)
        start = time.perf_counter()
        go.set()
        outcomes = [done.get(timeout=600) for _ in children]
        elapsed = time.perf_counter() - start
        for child in children:
            child.join(timeout=30)
        assert all(outcomes), "a scaling child saw a failed answer"
        return elapsed

    single = run(1, 2 * rounds)
    dual = run(2, rounds)
    scaling = single / dual if dual else 0.0
    results.add(
        "process_scaling", dataset=DEFAULT_DATASET, scale=DEFAULT_SCALE,
        single_seconds=single, dual_seconds=dual, scaling=scaling,
        min_scaling=MIN_SCALING, cpu_count=os.cpu_count(),
    )
    emit(
        f"Process-level proof scaling ({os.cpu_count()} CPUs)",
        ["config", "seconds"],
        [["1 process x %d rounds" % (2 * rounds), single],
         ["2 processes x %d rounds" % rounds, dual],
         ["scaling", scaling]],
    )
    assert scaling >= MIN_SCALING, (
        f"two proof processes ran only {scaling:.2f}x faster than one "
        f"(required {MIN_SCALING:g}x on a {os.cpu_count()}-core machine)"
    )
