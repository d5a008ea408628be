"""Shared benchmark infrastructure.

Heavy artifacts (datasets, built methods, workloads) are cached at
session scope so that e.g. the default-configuration FULL build is paid
once across all figures.  Environment knobs:

* ``REPRO_BENCH_QUERIES`` — queries per workload (default 20; the paper
  uses 100, which roughly quintuples runtime).
* ``REPRO_BENCH_SCALE`` — dataset scale for the default dataset
  (default 1/16 of the paper's node counts).
* ``REPRO_BENCH_RECORD`` — set to ``1`` to write each test's measurements
  to ``benchmarks/results/<test>.json``; unset (the default, and what
  tier-1 runs with) nothing under the source tree is touched.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import time

import pytest

from repro.bench.harness import run_workload
from repro.bench.reporting import ResultsLog, format_table
from repro.core.method import get_method
from repro.crypto.signer import NullSigner
from repro.workload.datasets import load_dataset
from repro.workload.queries import generate_workload
from tests.shortestpath.reference import one_ball_reply

#: Table row for the DIJ replies actually served (two half-balls); the
#: paper-figure tests size DIJ's own bar as the paper's one ball.
SERVED_DIJ = "DIJ served"

#: Paper defaults (Table II; bold values).
DEFAULT_DATASET = "DE"
DEFAULT_RANGE = 2000.0
DEFAULT_FANOUT = 2
DEFAULT_ORDERING = "hbt"
LDM_DEFAULTS = dict(c=100, bits=12, xi=50.0)
HYP_DEFAULTS = dict(num_cells=100)

DEFAULT_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", 1.0 / 16.0))
#: The four-dataset sweep includes FULL (quadratic memory), so it runs
#: at a smaller scale; see DESIGN.md §4.
SWEEP_SCALE = DEFAULT_SCALE / 4.0

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def method_params(name: str, **overrides) -> dict:
    """Default build parameters for a method, with overrides."""
    params = dict(fanout=DEFAULT_FANOUT, ordering=DEFAULT_ORDERING)
    if name == "LDM":
        params.update(LDM_DEFAULTS)
    elif name == "HYP":
        params.update(HYP_DEFAULTS)
    params.update(overrides)
    return params


class BenchContext:
    """Session-wide caches plus convenience runners."""

    def __init__(self, num_queries: int) -> None:
        self.signer = NullSigner()
        self.num_queries = num_queries
        self._methods: dict = {}
        self._workloads: dict = {}
        self._datasets: dict = {}

    # -- caching ------------------------------------------------------
    def dataset(self, name: str = DEFAULT_DATASET, scale: float = DEFAULT_SCALE):
        key = (name, scale)
        if key not in self._datasets:
            graph = load_dataset(name, scale=scale)
            # Warm the derived caches (compiled index + SciPy matrix) so
            # whichever method happens to build first doesn't absorb
            # their one-time cost into its measured construction window.
            graph.to_csr()
            self._datasets[key] = graph
        return self._datasets[key]

    def method(self, method_name: str, dataset: str = DEFAULT_DATASET,
               scale: float = DEFAULT_SCALE, **overrides):
        params = method_params(method_name, **overrides)
        key = (method_name, dataset, scale, tuple(sorted(params.items())))
        if key not in self._methods:
            graph = self.dataset(dataset, scale)
            self._methods[key] = get_method(method_name).build(
                graph, self.signer, **params
            )
        return self._methods[key]

    def workload(self, dataset: str = DEFAULT_DATASET, scale: float = DEFAULT_SCALE,
                 query_range: float = DEFAULT_RANGE):
        key = (dataset, scale, query_range, self.num_queries)
        if key not in self._workloads:
            graph = self.dataset(dataset, scale)
            # tolerance=1.0 implements the paper's "as close to the query
            # range as possible" semantics even near the network diameter.
            self._workloads[key] = generate_workload(
                graph, query_range, count=self.num_queries, seed=2010,
                tolerance=1.0,
            )
        return self._workloads[key]

    # -- runners -------------------------------------------------------
    def measure(self, method_name: str, dataset: str = DEFAULT_DATASET,
                scale: float = DEFAULT_SCALE, query_range: float = DEFAULT_RANGE,
                *, paper: bool = False, **overrides):
        """``(method, run)`` over the workload.  With *paper*, a DIJ
        run's sizes are the paper's accounting: the one Lemma-1 ball
        B_s(D) per query, sized test-side, in place of the two
        half-balls served (timings stay the served replies')."""
        method = self.method(method_name, dataset, scale, **overrides)
        workload = self.workload(dataset, scale, query_range)
        run = run_workload(method, workload, self.signer.verify)
        if paper and method_name == "DIJ":
            run = _sized_as(run, [one_ball_reply(method, vs, vt).sizes()
                                  for vs, vt in workload])
        return method, run


def _sized_as(run, sizes):
    """*run* with its size means taken over *sizes* (as the harness
    takes them over the served replies)."""
    def mean(values):
        return statistics.fmean(values)

    return dataclasses.replace(
        run,
        total_kb=mean(s.total_kbytes for s in sizes),
        s_prf_kb=mean(s.s_prf_bytes / 1024 for s in sizes),
        t_prf_kb=mean((s.t_prf_bytes + s.path_bytes) / 1024 for s in sizes),
        s_items=mean(s.s_items for s in sizes),
        t_items=mean(s.t_items for s in sizes),
    )


@pytest.fixture(scope="session")
def ctx() -> BenchContext:
    import gc

    # The benchmarks share a process with hundreds of unit tests whose
    # long-lived objects would otherwise be rescanned by every cyclic-GC
    # pass triggered inside allocation-heavy timed loops (the Merkle
    # builds allocate millions of digests).  Freezing moves the existing
    # heap into the permanent generation — new garbage is still
    # collected, but timed sections stop paying for the suite's history.
    gc.collect()
    gc.freeze()
    num_queries = int(os.environ.get("REPRO_BENCH_QUERIES", "20"))
    return BenchContext(num_queries)


@pytest.fixture()
def results(request) -> ResultsLog:
    """Per-test results log (a file only under ``REPRO_BENCH_RECORD=1``)."""
    name = request.node.name.replace("[", "_").replace("]", "")
    log = ResultsLog(os.path.join(RESULTS_DIR, f"{name}.json"))
    yield log
    if os.environ.get("REPRO_BENCH_RECORD") == "1":
        log.save()


def emit(title: str, headers, rows) -> None:
    """Print a paper-style table (shown with pytest -s and in CI logs)."""
    print()
    print(format_table(headers, rows, title=title))


def wire_passes(method, queries, verify_signature, passes: int) -> list:
    """Serve *queries* *passes* times over a live HTTP frontend.

    One :class:`~repro.api.client.RemoteClient` on one keep-alive
    :class:`~repro.api.transport.HttpTransport` asks every query in
    turn; the first pass meets a cold proof cache.  Returns one list of
    ``(RemoteResult, seconds)`` per pass.
    """
    from repro.api.client import RemoteClient
    from repro.api.transport import HttpTransport
    from repro.service.aio import AsyncProofHttpServer
    from repro.service.server import ProofServer

    dispatcher = ProofServer(method).dispatcher()
    with AsyncProofHttpServer(dispatcher) as server, \
            HttpTransport(server.url) as transport:
        client = RemoteClient(transport, verify_signature)
        timed = []
        for _ in range(passes):
            served = []
            for vs, vt in queries:
                start = time.perf_counter()
                result = client.query(vs, vt)
                served.append((result, time.perf_counter() - start))
            timed.append(served)
    return timed
