"""One benchmark run: set up, drive a server process, check, measure.

Shape of a run (``--trace 0``): the timed set-up (seeded keygen → build
and sign → pack → spawn → first HELLO) three times over, then against
the last server five interleaved repetitions, on disjoint request
slices, of

* a *latency* phase — closed loop, one connection, every reply verified
  inline; a sample is request sent → verdict;
* a *capacity* phase — closed loop, two connections, replies kept and
  verified after the window, so the server is what saturates;
* on the open-loop workload an *open* phase — seeded arrivals at a fixed
  rate, each request timed from its due time.

Every timing metric is the median of the repetitions.  ``--trace 1`` sets
up once, runs one repetition (with all three open-loop rates) for the
wire-side layer metrics, and hands over to :mod:`perfbench.layers`.
"""

from __future__ import annotations

import asyncio
import math
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass
from statistics import median

from repro.api.envelope import MSG_QUERY_OK, decode_frame, decode_message
from repro.core import get_method
from repro.crypto.rsa import generate_keypair
from repro.crypto.signer import RsaSigner
from repro.errors import ReproError
from repro.store import save_method

from perfbench import layers
from perfbench.loadgen import (
    CONNECTIONS,
    Driver,
    Sample,
    verify_deferred,
)
from perfbench.report import ROOT, percentile
from perfbench.serverproc import ServerProcess
from perfbench.workloads import (
    E2E_RATE,
    RATES,
    REPETITIONS,
    SLO_MS,
    Plan,
    Workload,
    build_plan,
)

SETUP_REPETITIONS = 3
TAMPER_SAMPLES = 8
COST_SAMPLES = 16
DRIVE_TIMEOUT_S = 150.0


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
@dataclass
class Setup:
    signer: RsaSigner
    method: object
    artifact: str
    server: ServerProcess
    timings: "dict[str, float]"


def provision(workload: Workload, graph, seed: int, workdir: str) -> Setup:
    """What an owner and a provider do before the first query is served."""
    marks = [time.perf_counter()]

    def lap() -> float:
        marks.append(time.perf_counter())
        return marks[-1] - marks[-2]

    keypair = generate_keypair(seed=seed)
    signer = RsaSigner(keypair)
    timings = {"crypto.keygen_s": lap()}
    method = get_method(workload.method).build(graph, signer, **workload.build)
    timings["core.build_s"] = lap()
    artifact = os.path.join(workdir, f"{workload.name}.rspv")
    save_method(method, artifact)
    timings["store.pack_s"] = lap()
    server = ServerProcess(
        artifact, workload.cache,
        update_keypair=keypair if workload.push_every else None)
    try:
        asyncio.run(_first_hello(server))
    except BaseException:
        server.stop()
        raise
    timings["service.boot_s"] = lap()
    timings["setup_s"] = marks[-1] - marks[0]
    return Setup(signer, method, artifact, server, timings)


async def _first_hello(server: ServerProcess) -> None:
    driver = Driver(server.host, server.port, None)
    try:
        await driver.hello()
    finally:
        await driver.close()


# ----------------------------------------------------------------------
# the wire run
# ----------------------------------------------------------------------
@dataclass
class Phase:
    kind: str                 # "latency" | "capacity" | "open"
    rate: int                 # open loop only
    samples: "list[Sample]"
    wall: float = 0.0
    server_cpu: float = 0.0
    driver_cpu: float = 0.0

    @property
    def queries(self) -> "list[Sample]":
        return [s for s in self.samples if not s.push and not s.error]

    def reply_ms(self) -> "list[float]":
        """Due (open loop) or sent (closed loop) → reply received."""
        if self.kind == "open":
            return [(s.received - s.due) * 1e3 for s in self.queries]
        return [(s.received - s.sent) * 1e3 for s in self.queries]

    def verdict_ms(self) -> "list[float]":
        return [(s.done - s.sent) * 1e3 for s in self.queries]


@dataclass
class WireRun:
    phases: "list[Phase]"
    before: object            # MetricsReply after warm-up
    after: object             # MetricsReply after the last phase
    versions: "list[int]"     # descriptor versions announced by pushes
    base_version: int

    def of(self, kind: str, rate: int = 0) -> "list[Phase]":
        return [p for p in self.phases if p.kind == kind and p.rate == rate]

    def load(self) -> "list[Phase]":
        """The phases that model the workload's users under load."""
        return self.of("open", E2E_RATE) or self.of("capacity")


async def drive(plan: Plan, server: ServerProcess, verify_signature) -> WireRun:
    driver = Driver(server.host, server.port, verify_signature)

    async def timed(phase: Phase, loop) -> Phase:
        cpu, own, start = (server.cpu_seconds(), time.process_time(),
                           time.perf_counter())
        await loop
        phase.wall = time.perf_counter() - start
        phase.driver_cpu = time.process_time() - own
        phase.server_cpu = server.cpu_seconds() - cpu
        return phase

    try:
        hello = await driver.hello()
        await driver.closed_loop(plan.warmup, CONNECTIONS)
        before = await driver.metrics()
        phases = []
        for rep in plan.repetitions:
            phases.append(await timed(
                Phase("latency", 0, rep.latency),
                driver.closed_loop(rep.latency, 1, inline=True)))
            phases.append(await timed(
                Phase("capacity", 0, rep.capacity),
                driver.closed_loop(rep.capacity, CONNECTIONS)))
            for rate, samples in rep.open.items():
                phases.append(await timed(Phase("open", rate, samples),
                                          driver.open_loop(samples)))
        after = await driver.metrics()
    finally:
        await driver.close()
    return WireRun(phases, before, after, driver.versions,
                   hello.descriptor_version)


def end_to_end(run: WireRun, setups: "list[Setup]", rss_mb: float) -> dict:
    """The metrics a user of the system would see."""
    latency, capacity, load = run.of("latency"), run.of("capacity"), run.load()
    load_queries = [s for p in load for s in p.queries]
    return {
        "setup_s": median(s.timings["setup_s"] for s in setups),
        "serve_qps": median(len(p.queries) / p.wall for p in capacity),
        "verdict_p50_ms": median(percentile(p.verdict_ms(), 50) for p in latency),
        "reply_p50_ms": median(percentile(p.reply_ms(), 50) for p in load),
        "client_verify_cpu_ms": median(
            1e3 * sum(s.verify_cpu for s in p.queries) / len(p.queries)
            for p in latency),
        "server_cpu_ms_per_query": median(
            1e3 * p.server_cpu / len(p.queries) for p in load),
        "wire_bytes_per_query":
            sum(len(s.reply) for s in load_queries) / len(load_queries),
        "server_rss_mb": rss_mb,
    }


def wire_layers(run: WireRun, plan: Plan) -> dict:
    """Layer metrics only the out-of-process run can give (traced runs)."""
    before, after = run.before, run.after
    lookups = (after.cache_hits - before.cache_hits
               + after.cache_misses - before.cache_misses)
    latency, capacity = run.of("latency"), run.of("capacity")
    pushes = [(s.received - s.sent) * 1e3
              for s in plan.timed() if s.push and not s.error]
    out = {
        "service.cache.hit_rate":
            (after.cache_hits - before.cache_hits) / lookups,
        "service.cache.evictions":
            after.cache_evictions - before.cache_evictions,
        "service.cache.invalidations":
            after.cache_invalidations - before.cache_invalidations,
        "service.metrics.p50_ms": after.p50_ms,
        "service.metrics.p95_ms": after.p95_ms,
        "api.updates.push_p50_ms": percentile(pushes, 50) if pushes else 0.0,
        "driver.cpu_share": median(p.driver_cpu / p.wall for p in capacity),
        # Tail percentiles live here, not in the end-to-end list: on the
        # shared reference box they do not repeat within their bound.
        "driver.verdict_p95_ms":
            median(percentile(p.verdict_ms(), 95) for p in latency),
        "driver.verdict_p99_ms":
            median(percentile(p.verdict_ms(), 99) for p in latency),
        "driver.reply_p95_ms":
            median(percentile(p.reply_ms(), 95) for p in run.load()),
        "driver.reply_p99_ms":
            median(percentile(p.reply_ms(), 99) for p in run.load()),
        "driver.send_lag_p99_ms": 0.0, "driver.queued_share": 0.0,
        "driver.slo_ok_share": 0.0, "driver.max_ok_rate": 0.0,
    }
    for rate in (r for r in RATES if r != E2E_RATE):
        phases = run.of("open", rate)
        out[f"driver.reply_p95_ms.r{rate}"] = \
            median(percentile(p.reply_ms(), 95) for p in phases) \
            if phases else 0.0
    if run.of("open", E2E_RATE):
        arrivals = [s for p in run.phases if p.kind == "open" for s in p.queries]
        # How late the generator itself ran: only arrivals that found a
        # free connection; the others waited for the server, not for us.
        out["driver.send_lag_p99_ms"] = percentile(
            [(s.sent - s.due) * 1e3 for s in arrivals if not s.queued], 99)
        out["driver.queued_share"] = \
            sum(s.queued for s in arrivals) / len(arrivals)
        ok_rates = []
        for rate in RATES:
            sent = [s for p in run.of("open", rate) for s in p.samples]
            ok = sum(1 for s in sent if not s.error
                     and (s.received - s.due) * 1e3 <= SLO_MS)
            # A backlog that grows shows as replies past the limit: a
            # request is timed from its due time, so waiting counts.
            if ok / len(sent) >= 0.99:
                ok_rates.append(rate)
            if rate == E2E_RATE:
                out["driver.slo_ok_share"] = ok / len(sent)
        out["driver.max_ok_rate"] = float(max(ok_rates, default=0))
    return out


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def tamper_rejections(samples: "list[Sample]", verify_signature,
                      seed: int) -> int:
    """Flip one byte in each of a fixed sample of accepted replies and
    count how many the client then rejects (all of them, or the run is
    incorrect).  The flip lands in the second half of the frame — proof
    sections, descriptor, signature — because the reported path cost up
    front is a float the verifier compares with a tolerance by design."""
    from repro.api.client import RemoteClient

    rng = random.Random(seed)
    client = RemoteClient(None, verify_signature)
    rejected = 0
    for sample in _evenly(samples, TAMPER_SAMPLES):
        frame = bytearray(sample.reply)
        frame[rng.randrange(len(frame) // 2, len(frame) - 1)] ^= 0x01
        client.client.min_descriptor_version = sample.floor
        try:
            ok = client.interpret_query_reply(sample.source, sample.target,
                                              bytes(frame)).ok
        except ReproError:
            ok = False
        rejected += not ok
    return rejected


def costs_agree(samples: "list[Sample]", graph, plan: Plan, run: WireRun) -> bool:
    """Reported path costs equal SciPy's on the benchmark's own copy of
    the graph, in the state (number of re-weights applied) that the
    reply's signed descriptor version names."""
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    from repro.core.proofs import QueryResponse

    index = {node: i for i, node in enumerate(graph.node_ids())}
    base = {(index[u], index[v]): w for u, v, w in graph.edges()}
    matrices: dict = {}

    def matrix(applied: int):
        if applied not in matrices:
            weights = dict(base)
            for update in plan.updates[:applied]:
                key = (index[update.u], index[update.v])
                weights[key if key in weights else key[::-1]] = update.weight
            rows, cols = zip(*weights)
            matrices[applied] = csr_matrix(
                (np.fromiter(weights.values(), float), (rows, cols)),
                shape=(len(index), len(index)))
        return matrices[applied]

    for sample in _evenly(samples, COST_SAMPLES):
        response = QueryResponse.decode(
            decode_message(decode_frame(sample.reply)).response_bytes)
        version = response.descriptor.version
        applied = 0 if version == run.base_version \
            else run.versions.index(version) + 1
        expected = dijkstra(matrix(applied), directed=False,
                            indices=index[sample.source])[index[sample.target]]
        if not math.isclose(response.path_cost, expected,
                            rel_tol=1e-9, abs_tol=1e-6):
            return False
    return True


def _evenly(samples: "list[Sample]", count: int) -> "list[Sample]":
    step = max(1, len(samples) // count)
    return samples[::step][:count]


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 *, setup_repetitions: int = SETUP_REPETITIONS) -> dict:
    """Run *workload* once; returns the run record (metrics by name)."""
    started = time.perf_counter()
    graph = workload.graph()
    plan = build_plan(workload, graph, seed, seconds,
                      repetitions=1 if trace else REPETITIONS,
                      rates=RATES if trace else (E2E_RATE,))
    generated = time.perf_counter() - started

    scratch = ROOT / "perfbench" / "out"  # git-ignored, inside the checkout
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    setups: "list[Setup]" = []
    try:
        for _ in range(1 if trace else setup_repetitions):
            if setups:
                setups[-1].server.stop()
            setups.append(provision(workload, graph, seed, workdir))
        setup = setups[-1]
        verify_signature = setup.signer.verifier_for_public_key().verify
        run = asyncio.run(asyncio.wait_for(
            drive(plan, setup.server, verify_signature), DRIVE_TIMEOUT_S))
        rss_mb = setup.server.peak_rss_mb()

        timed = plan.timed()
        verify_deferred([s for p in run.phases if p.kind != "latency"
                         for s in p.samples], verify_signature)
        for sample in plan.warmup:  # untimed, so only checked for shape
            if not sample.error and \
                    decode_frame(sample.reply).msg_type != MSG_QUERY_OK:
                sample.error = "server: error frame"
        errors = [s.error for s in plan.warmup + timed if s.error]
        accepted = [s for s in timed if not s.push and not s.error]
        record = {
            "workload": workload.name, "seed": seed, "seconds": seconds,
            "trace": int(trace), "attempted": len(plan.warmup) + len(timed),
            "failed": len(errors), "errors": sorted(set(errors))[:5],
            "tamper_tried": min(TAMPER_SAMPLES, len(accepted)),
            "tamper_rejected": tamper_rejections(accepted, verify_signature,
                                                 seed),
            "costs_agree": costs_agree(accepted, graph, plan, run),
        }
        record["correct"] = (not errors and record["costs_agree"] and
                             record["tamper_rejected"] == record["tamper_tried"])
        if trace:
            metrics = wire_layers(run, plan)
            metrics["driver.workload_gen_s"] = generated
            metrics.update({name: value for name, value
                            in setup.timings.items() if name != "setup_s"})
            record["spans"] = layers.measure(workload, plan, setup, run,
                                             seconds, metrics)
        else:
            metrics = end_to_end(run, setups, rss_mb)
        record["metrics"] = metrics
        return record
    finally:
        for setup in setups:
            setup.server.stop()
        shutil.rmtree(workdir, ignore_errors=True)
