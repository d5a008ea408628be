"""Load-testing harness for the proof-serving layer.

Replays one workload through a :class:`~repro.service.server.ProofServer`
several times against a single server instance: pass 1 runs against a
cold cache, later passes replay the identical queries against the warm
cache.  Every served response — cached or freshly proved — is verified
by a real client, so a passing load test is also an end-to-end
soundness check of the serving layer.

With ``updates_per_pass`` the harness becomes update-aware: each pass
interleaves that many owner re-weights (seeded, drawn fresh against
the live graph) between equal-sized query chunks, and every chunk is
verified under the descriptor version it was served at — so the run
also exercises incremental re-authentication, versioned cache
invalidation and the client's freshness floor end to end.

With ``run_http_loadtest`` the same workload instead crosses a real
socket: an in-process :class:`~repro.service.aio.AsyncProofHttpServer` is
booted on an ephemeral port and a bytes-only
:class:`~repro.api.client.RemoteClient` drives it, measuring wire-level
QPS and bytes-on-wire against the standalone proof sizes the paper
reports — the framing overhead of the protocol, quantified.

Shared by ``repro-spv loadtest`` and ``benchmarks/test_serving.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.method import SignatureVerifier, VerificationMethod, get_method
from repro.crypto.signer import Signer
from repro.errors import ServiceError
from repro.service.cache import DEFAULT_CAPACITY
from repro.service.metrics import MetricsSnapshot
from repro.service.server import ProofServer
from repro.workload.updates import UPDATE_WEIGHT, generate_update_workload


@dataclass(frozen=True)
class LoadtestPass:
    """One replay of the workload: metrics plus verification outcomes."""

    label: str
    snapshot: MetricsSnapshot
    verified: int
    failures: tuple[str, ...]

    @property
    def all_verified(self) -> bool:
        """Whether the client accepted every served response."""
        return not self.failures


@dataclass(frozen=True)
class LoadtestReport:
    """Cold-versus-warm comparison over all passes."""

    method: str
    num_queries: int
    passes: tuple[LoadtestPass, ...]

    @property
    def cold(self) -> LoadtestPass:
        """The first (cold-cache) pass."""
        return self.passes[0]

    @property
    def warm(self) -> LoadtestPass:
        """The last (fully warm) pass."""
        return self.passes[-1]

    @property
    def speedup(self) -> float:
        """Warm QPS over cold QPS."""
        cold_qps = self.cold.snapshot.qps
        return self.warm.snapshot.qps / cold_qps if cold_qps else 0.0

    @property
    def all_verified(self) -> bool:
        """Whether every pass verified completely."""
        return all(p.all_verified for p in self.passes)

    def table_rows(self) -> "list[list[object]]":
        """Rows for :func:`repro.bench.reporting.format_table`."""
        rows = []
        for p in self.passes:
            s = p.snapshot
            rows.append([
                p.label, s.requests, s.qps, s.p50_ms, s.p95_ms,
                100.0 * s.hit_rate, s.proof_kbytes,
                s.updates, s.update_ms_mean,
                "ok" if p.all_verified else f"{len(p.failures)} FAILED",
            ])
        return rows

    #: Header matching :meth:`table_rows`.
    TABLE_HEADERS = ("pass", "requests", "QPS", "p50 ms", "p95 ms",
                     "hit %", "proof KB", "updates", "upd ms", "verified")


def run_loadtest(
    method: VerificationMethod,
    queries: "list[tuple[int, int]]",
    verify_signature: SignatureVerifier,
    *,
    passes: int = 2,
    cache_size: int = DEFAULT_CAPACITY,
    coalesce: bool = True,
    workers: int = 1,
    updates_per_pass: int = 0,
    update_signer: "Signer | None" = None,
    update_seed: int = 2010,
) -> LoadtestReport:
    """Replay *queries* ``passes`` times through one server.

    ``workers > 1`` serves each pass on a thread pool (which disables
    coalescing — the pool answers queries independently); otherwise
    bursts coalesce through the combined-cover batch path when the
    method supports it.  ``updates_per_pass > 0`` interleaves that many
    owner re-weights through every pass (``update_signer`` required);
    each query chunk is then verified with the descriptor version it
    was served under as the freshness floor, so a stale replay would
    fail the load test.
    """
    if passes < 2:
        raise ServiceError(f"need a cold and a warm pass; got passes={passes}")
    if not queries:
        raise ServiceError("empty load-test workload")
    if updates_per_pass < 0:
        raise ServiceError(f"updates_per_pass must be >= 0, got {updates_per_pass}")
    if updates_per_pass and update_signer is None:
        raise ServiceError("updates_per_pass needs an update_signer to re-sign")
    verifier = get_method(method.name)
    server = ProofServer(method, cache_size=cache_size, max_workers=workers)

    def serve(chunk: "list[tuple[int, int]]"):
        if workers > 1:
            return server.answer_concurrent(chunk)
        return server.answer_many(chunk, coalesce=coalesce)

    results: list[LoadtestPass] = []
    for index in range(passes):
        label = "cold" if index == 0 else f"warm{index}"
        server.reset_metrics()
        failures: list[str] = []
        served_count = 0

        def verify_chunk(chunk, served, min_version) -> None:
            nonlocal served_count
            served_count += len(served)
            for (vs, vt), item in zip(chunk, served):
                if not item.ok:
                    failures.append(f"({vs},{vt}): error {item.error}")
                    continue
                result = verifier.verify(vs, vt, item.response,
                                         verify_signature,
                                         min_version=min_version)
                if not result.ok:
                    failures.append(
                        f"({vs},{vt}): {result.reason} {result.detail}")

        if updates_per_pass:
            updates = list(generate_update_workload(
                method.graph, updates_per_pass,
                seed=update_seed + index, kinds=(UPDATE_WEIGHT,),
            ))
            # updates_per_pass + 1 chunks, updates between them.
            step = -(-len(queries) // (updates_per_pass + 1))
            chunks = [queries[i:i + step]
                      for i in range(0, len(queries), step)]
            for ci, chunk in enumerate(chunks):
                floor = server.descriptor_version
                verify_chunk(chunk, serve(chunk), floor)
                if ci < len(updates):
                    server.apply_updates([updates[ci]], update_signer)
            # Fewer chunks than planned (tiny workloads): apply the rest.
            for update in updates[len(chunks):]:
                server.apply_updates([update], update_signer)
        else:
            verify_chunk(queries, serve(queries), None)

        results.append(LoadtestPass(
            label=label,
            snapshot=server.snapshot(),
            verified=served_count - len(failures),
            failures=tuple(failures),
        ))
    return LoadtestReport(
        method=method.name,
        num_queries=len(queries),
        passes=tuple(results),
    )


# ----------------------------------------------------------------------
# HTTP (wire-level) load testing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HttpLoadtestPass:
    """One workload replay over the wire."""

    label: str
    requests: int
    seconds: float
    wire_bytes: int
    proof_bytes: int
    verified: int
    failures: tuple[str, ...]

    @property
    def qps(self) -> float:
        """Wire-level queries per second (client-observed)."""
        return self.requests / self.seconds if self.seconds > 0 else 0.0

    @property
    def all_verified(self) -> bool:
        """Whether the client accepted every wire response."""
        return not self.failures

    @property
    def overhead_ratio(self) -> float:
        """Bytes-on-wire over standalone proof bytes (>= 1.0)."""
        return self.wire_bytes / self.proof_bytes if self.proof_bytes else 0.0


@dataclass(frozen=True)
class HttpLoadtestReport:
    """Cold-versus-warm wire serving comparison.

    ``server_metrics`` is the service's own ``GET /metrics`` JSON
    snapshot, scraped after the last pass — the server-side view
    (hit rate, cache evictions/occupancy) next to the client-observed
    wire numbers.
    """

    method: str
    num_queries: int
    url: str
    passes: tuple[HttpLoadtestPass, ...]
    server_metrics: "dict | None" = None

    @property
    def cold(self) -> HttpLoadtestPass:
        """The first (cold-cache) pass."""
        return self.passes[0]

    @property
    def warm(self) -> HttpLoadtestPass:
        """The last (fully warm) pass."""
        return self.passes[-1]

    @property
    def speedup(self) -> float:
        """Warm wire QPS over cold wire QPS."""
        return self.warm.qps / self.cold.qps if self.cold.qps else 0.0

    @property
    def all_verified(self) -> bool:
        """Whether every pass verified completely."""
        return all(p.all_verified for p in self.passes)

    @property
    def wire_overhead_ratio(self) -> float:
        """Whole-run bytes-on-wire over standalone proof bytes."""
        wire = sum(p.wire_bytes for p in self.passes)
        proof = sum(p.proof_bytes for p in self.passes)
        return wire / proof if proof else 0.0

    def table_rows(self) -> "list[list[object]]":
        """Rows for :func:`repro.bench.reporting.format_table`."""
        return [
            [p.label, p.requests, p.qps, p.wire_bytes / 1024.0,
             p.proof_bytes / 1024.0, p.overhead_ratio,
             "ok" if p.all_verified else f"{len(p.failures)} FAILED"]
            for p in self.passes
        ]

    #: Header matching :meth:`table_rows`.
    TABLE_HEADERS = ("pass", "requests", "wire QPS", "wire KB",
                     "proof KB", "overhead", "verified")

    def as_dict(self) -> dict:
        """Flat record for JSON results logs."""
        return {
            "method": self.method,
            "num_queries": self.num_queries,
            "cold_qps": self.cold.qps,
            "warm_qps": self.warm.qps,
            "speedup": self.speedup,
            "wire_bytes": sum(p.wire_bytes for p in self.passes),
            "proof_bytes": sum(p.proof_bytes for p in self.passes),
            "wire_overhead_ratio": self.wire_overhead_ratio,
            "all_verified": self.all_verified,
            "server_metrics": self.server_metrics,
        }


def run_http_loadtest(
    method: VerificationMethod,
    queries: "list[tuple[int, int]]",
    verify_signature: SignatureVerifier,
    *,
    passes: int = 2,
    cache_size: int = DEFAULT_CAPACITY,
    updates_per_pass: int = 0,
    update_signer: "Signer | None" = None,
    update_seed: int = 2010,
    batch_size: int = 0,
    async_clients: int = 0,
) -> HttpLoadtestReport:
    """Replay *queries* over real HTTP, verifying every wire response.

    Boots a :class:`~repro.service.aio.AsyncProofHttpServer` on an
    ephemeral localhost port around the method's
    :class:`~repro.service.server.ProofServer`, then drives the full
    workload through a :class:`~repro.api.client.RemoteClient` —
    handshake, descriptor fetch, per-query frames — so the measured
    path includes framing, HTTP and socket costs.  With
    ``updates_per_pass`` the harness pushes that many owner re-weights
    per pass *over the wire* and raises the client's freshness floor
    from each push's reported version, so a stale replay would fail
    the run exactly as it would fail a real client.

    ``batch_size > 0`` replays the workload as multiproof BATCH frames
    of that many queries instead of per-query QUERY frames (every
    recovered response still individually verified).

    ``async_clients > 0`` swaps the single driver for an
    :class:`~repro.bench.aioclient.AsyncClientPool` of that many
    persistent event-loop clients.
    """
    import contextlib

    from repro.api.client import RemoteClient
    from repro.api.transport import HttpTransport
    from repro.bench.aioclient import AsyncClientPool
    from repro.service.aio import AsyncProofHttpServer

    if passes < 2:
        raise ServiceError(f"need a cold and a warm pass; got passes={passes}")
    if not queries:
        raise ServiceError("empty load-test workload")
    if updates_per_pass < 0:
        raise ServiceError(f"updates_per_pass must be >= 0, got {updates_per_pass}")
    if updates_per_pass and update_signer is None:
        raise ServiceError("updates_per_pass needs an update_signer to re-sign")
    if batch_size < 0:
        raise ServiceError(f"batch_size must be >= 0, got {batch_size}")
    if async_clients < 0:
        raise ServiceError(f"async_clients must be >= 0, got {async_clients}")

    server = ProofServer(method, cache_size=cache_size)
    dispatcher = server.dispatcher(update_signer=update_signer)
    results: list[HttpLoadtestPass] = []
    with contextlib.ExitStack() as stack:
        http_server = stack.enter_context(AsyncProofHttpServer(dispatcher))
        if async_clients:
            # Generous per-request timeout: with hundreds of in-flight
            # requests on an oversubscribed box, honest queueing delay
            # can reach tens of seconds without anything being wrong.
            client = stack.enter_context(AsyncClientPool(
                http_server.url, verify_signature, clients=async_clients,
                timeout=120.0))
        else:
            transport = stack.enter_context(HttpTransport(http_server.url))
            client = RemoteClient(transport, verify_signature)
        hello = client.hello()
        if hello.method != method.name:
            raise ServiceError(
                f"handshake says method {hello.method!r}, expected {method.name!r}"
            )

        def run_chunk(chunk) -> "tuple[int, int, list[str]]":
            wire = 0
            proof = 0
            bad: list[str] = []
            if async_clients:
                outcomes = client.run_chunk(chunk, batch_size=batch_size)
            elif batch_size:
                groups = [chunk[i:i + batch_size]
                          for i in range(0, len(chunk), batch_size)]
                outcomes = [r for group in groups
                            for r in client.query_batch(group)]
            else:
                outcomes = [client.query(vs, vt) for vs, vt in chunk]
            for result in outcomes:
                wire += result.wire_bytes
                proof += len(result.response_bytes or b"")
                if not result.ok:
                    bad.append(
                        f"({result.source},{result.target}): "
                        f"{result.verdict.reason} {result.verdict.detail}")
            return wire, proof, bad

        for index in range(passes):
            label = "cold" if index == 0 else f"warm{index}"
            failures: list[str] = []
            wire_bytes = 0
            proof_bytes = 0
            updates = []
            if updates_per_pass:
                updates = list(generate_update_workload(
                    method.graph, updates_per_pass,
                    seed=update_seed + index, kinds=(UPDATE_WEIGHT,),
                ))
            step = (-(-len(queries) // (len(updates) + 1))
                    if updates else len(queries))
            chunks = [queries[i:i + step] for i in range(0, len(queries), step)]
            start = time.perf_counter()
            for ci, chunk in enumerate(chunks):
                wire, proof, bad = run_chunk(chunk)
                wire_bytes += wire
                proof_bytes += proof
                failures.extend(bad)
                if ci < len(updates):
                    report = client.push_updates([updates[ci]])
                    client.require_version(report.version)
            for update in updates[len(chunks):]:
                report = client.push_updates([update])
                client.require_version(report.version)
            results.append(HttpLoadtestPass(
                label=label,
                requests=len(queries),
                seconds=time.perf_counter() - start,
                wire_bytes=wire_bytes,
                proof_bytes=proof_bytes,
                verified=len(queries) - len(failures),
                failures=tuple(failures),
            ))
        url = http_server.url
        server_metrics = fetch_http_metrics(url)
    return HttpLoadtestReport(
        method=method.name,
        num_queries=len(queries),
        url=url,
        passes=tuple(results),
        server_metrics=server_metrics,
    )


def fetch_http_metrics(url: str, *, timeout: float = 5.0) -> "dict | None":
    """Scrape ``GET {url}/metrics``; ``None`` when unavailable."""
    import json
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(f"{url.rstrip('/')}/metrics",
                                    timeout=timeout) as reply:
            return json.loads(reply.read().decode("utf-8"))
    except (urllib.error.URLError, OSError, ValueError):
        return None


# ----------------------------------------------------------------------
# Multi-process (worker pool) load testing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerLoadtestReport:
    """Concurrent wire replay against an ``SO_REUSEPORT`` worker pool.

    ``passes`` reuse :class:`HttpLoadtestPass` (the wire-side view is
    identical — what changes is how many processes answer).
    ``aggregate_metrics`` is the pool's merged final snapshot as a
    dict, including how the requests actually spread across workers
    (``worker_requests``).
    """

    method: str
    num_queries: int
    workers: int
    client_threads: int
    url: str
    passes: tuple[HttpLoadtestPass, ...]
    aggregate_metrics: dict
    worker_requests: tuple[int, ...]

    @property
    def cold(self) -> HttpLoadtestPass:
        """The first (cold-cache) pass."""
        return self.passes[0]

    @property
    def warm(self) -> HttpLoadtestPass:
        """The last (fully warm) pass."""
        return self.passes[-1]

    @property
    def all_verified(self) -> bool:
        """Whether every verified sample passed."""
        return all(p.all_verified for p in self.passes)

    def table_rows(self) -> "list[list[object]]":
        """Rows for :func:`repro.bench.reporting.format_table`."""
        return [
            [p.label, p.requests, p.qps, p.wire_bytes / 1024.0,
             "ok" if p.all_verified else f"{len(p.failures)} FAILED"]
            for p in self.passes
        ]

    #: Header matching :meth:`table_rows`.
    TABLE_HEADERS = ("pass", "requests", "wire QPS", "wire KB", "verified")


def run_worker_loadtest(
    artifact_path: str,
    queries: "list[tuple[int, int]]",
    *,
    workers: int,
    passes: int = 2,
    client_threads: int = 4,
    cache_size: int = DEFAULT_CAPACITY,
    verify_signature: "SignatureVerifier | None" = None,
) -> WorkerLoadtestReport:
    """Replay *queries* concurrently against a pre-forked worker pool.

    Client threads split the workload and fire raw query frames over
    their own HTTP connections — decode on the client side is kept to
    the frame envelope so the measured ceiling is the *server's* proof
    throughput, not the load generator's Python.  One response per pass
    is fully verified through :class:`~repro.api.client.RemoteClient`
    when *verify_signature* is given, preserving the harness invariant
    that a passing load test is also an end-to-end soundness check.
    """
    from concurrent.futures import ThreadPoolExecutor

    from repro.api.client import RemoteClient
    from repro.api.envelope import MSG_QUERY_OK, QueryRequest, decode_frame
    from repro.api.transport import HttpTransport
    from repro.service.workers import WorkerPool

    if passes < 2:
        raise ServiceError(f"need a cold and a warm pass; got passes={passes}")
    if not queries:
        raise ServiceError("empty load-test workload")
    if client_threads < 1:
        raise ServiceError(f"client_threads must be >= 1, got {client_threads}")

    from repro.store.pack import ArtifactReader

    header = ArtifactReader(artifact_path, verify=False)
    method_name = header.method
    header.close()

    frames = [QueryRequest(vs, vt).to_frame() for vs, vt in queries]
    chunks = [frames[i::client_threads] for i in range(client_threads)]

    def drive(chunk: "list[bytes]", transport: HttpTransport) -> tuple[int, int]:
        wire = 0
        bad = 0
        for frame in chunk:
            reply = transport.roundtrip(frame)
            wire += len(reply)
            if decode_frame(reply).msg_type != MSG_QUERY_OK:
                bad += 1
        return wire, bad

    results: list[HttpLoadtestPass] = []
    with WorkerPool(artifact_path, workers=workers,
                    cache_size=cache_size) as pool:
        url = pool.url
        # One persistent connection per driver thread, held across every
        # pass — the pooled persistent-connection client.  (Each chunk is
        # driven by exactly one thread, so plain HttpTransports pinned to
        # their chunk are equivalent to PooledHttpTransport here, with a
        # deterministic thread-to-connection mapping.)
        transports = [HttpTransport(url) for _ in range(client_threads)]
        try:
            with ThreadPoolExecutor(max_workers=client_threads) as executor:
                for index in range(passes):
                    label = "cold" if index == 0 else f"warm{index}"
                    failures: list[str] = []
                    start = time.perf_counter()
                    outcomes = list(executor.map(drive, chunks, transports))
                    seconds = time.perf_counter() - start
                    wire_bytes = sum(wire for wire, _ in outcomes)
                    errors = sum(bad for _, bad in outcomes)
                    if errors:
                        failures.append(f"{errors} wire-level error replies")
                    if verify_signature is not None:
                        vs, vt = queries[0]
                        with HttpTransport(url) as sample_transport:
                            sample = RemoteClient(
                                sample_transport, verify_signature,
                            ).query(vs, vt)
                        if not sample.ok:
                            failures.append(
                                f"sample ({vs},{vt}): {sample.verdict.reason} "
                                f"{sample.verdict.detail}")
                    results.append(HttpLoadtestPass(
                        label=label,
                        requests=len(queries),
                        seconds=seconds,
                        wire_bytes=wire_bytes,
                        proof_bytes=wire_bytes,  # raw drive: framing included
                        verified=len(queries) - errors,
                        failures=tuple(failures),
                    ))
        finally:
            for transport in transports:
                transport.close()
    aggregate = pool.aggregate
    return WorkerLoadtestReport(
        method=method_name,
        num_queries=len(queries),
        workers=workers,
        client_threads=client_threads,
        url=url,
        passes=tuple(results),
        aggregate_metrics=aggregate.as_dict() if aggregate else {},
        worker_requests=tuple(s.requests for s in pool.worker_snapshots),
    )


# ----------------------------------------------------------------------
# Sharded (router) load testing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RouterLoadtestReport:
    """Wire replay against a shard router fronting per-shard workers.

    The pass layout mirrors :class:`WorkerLoadtestReport`; what changes
    is the serving topology: each shard is its own worker *process*
    over its own ``.rspv`` artifact, and the measured endpoint is the
    router that plans, fans out and stitches.  ``cross_shard`` counts
    workload pairs the router answered with a stitched composite.
    ``router_metrics`` is the router's ``GET /metrics`` JSON — per-shard
    windows and the fleet merge included.
    """

    method: str
    num_queries: int
    num_shards: int
    client_threads: int
    url: str
    passes: tuple[HttpLoadtestPass, ...]
    cross_shard: int
    router_metrics: "dict | None" = None

    @property
    def cold(self) -> HttpLoadtestPass:
        """The first (cold-cache) pass."""
        return self.passes[0]

    @property
    def warm(self) -> HttpLoadtestPass:
        """The last (fully warm) pass."""
        return self.passes[-1]

    @property
    def all_verified(self) -> bool:
        """Whether every verified sample passed."""
        return all(p.all_verified for p in self.passes)

    def table_rows(self) -> "list[list[object]]":
        """Rows for :func:`repro.bench.reporting.format_table`."""
        return [
            [p.label, p.requests, p.qps, p.wire_bytes / 1024.0,
             "ok" if p.all_verified else f"{len(p.failures)} FAILED"]
            for p in self.passes
        ]

    #: Header matching :meth:`table_rows`.
    TABLE_HEADERS = ("pass", "requests", "wire QPS", "wire KB", "verified")


def run_router_loadtest(
    graph,
    signer,
    queries: "list[tuple[int, int]]",
    *,
    num_shards: int,
    passes: int = 2,
    client_threads: int = 4,
    cache_size: int = DEFAULT_CAPACITY,
    verify_signature: "SignatureVerifier | None" = None,
    method: str = "DIJ",
    strategy: str = "hilbert",
) -> RouterLoadtestReport:
    """Stand up a k-shard serving fleet and replay *queries* through it.

    Owner-side, the harness partitions *graph* into ``num_shards``
    shards and packs each as its own artifact (plus the signed
    manifest); serving-side, every shard gets its own single-process
    :class:`~repro.service.workers.WorkerPool` and a
    :class:`~repro.service.router.ShardRouter` fronts them over pooled
    HTTP transports behind a real
    :class:`~repro.service.aio.AsyncProofHttpServer`.  Client threads then
    fire raw query frames exactly as :func:`run_worker_loadtest` does,
    so k=1 and k=2 numbers are comparable router-to-router (k=1 pays
    the same proxy hop).  When *verify_signature* is given, one
    response per pass — a cross-shard pair when the workload has one —
    is verified end to end through
    :class:`~repro.api.client.RemoteClient`, stitched composite
    included.
    """
    import contextlib
    import os
    import tempfile
    from concurrent.futures import ThreadPoolExecutor

    from repro.api.client import RemoteClient
    from repro.api.envelope import MSG_QUERY_OK, QueryRequest, decode_frame
    from repro.api.transport import HttpTransport, PooledHttpTransport
    from repro.service.aio import AsyncProofHttpServer
    from repro.service.router import ShardRouter
    from repro.service.workers import WorkerPool
    from repro.shard import build_shards, save_manifest
    from repro.store.artifact import save_method

    if passes < 2:
        raise ServiceError(f"need a cold and a warm pass; got passes={passes}")
    if not queries:
        raise ServiceError("empty load-test workload")
    if client_threads < 1:
        raise ServiceError(f"client_threads must be >= 1, got {client_threads}")

    build = build_shards(graph, signer, num_shards=num_shards,
                         method=method, strategy=strategy)
    plan = build.plan
    cross_shard = sum(
        1 for vs, vt in queries if plan.shard_of(vs) != plan.shard_of(vt))

    frames = [QueryRequest(vs, vt).to_frame() for vs, vt in queries]
    chunks = [frames[i::client_threads] for i in range(client_threads)]
    sample_pair = next(
        ((vs, vt) for vs, vt in queries
         if plan.shard_of(vs) != plan.shard_of(vt)),
        queries[0],
    )

    def drive(chunk: "list[bytes]", transport: HttpTransport) -> tuple[int, int]:
        wire = 0
        bad = 0
        for frame in chunk:
            reply = transport.roundtrip(frame)
            wire += len(reply)
            if decode_frame(reply).msg_type != MSG_QUERY_OK:
                bad += 1
        return wire, bad

    results: list[HttpLoadtestPass] = []
    with tempfile.TemporaryDirectory(prefix="repro-shards-") as workdir, \
            contextlib.ExitStack() as stack:
        manifest_path = os.path.join(workdir, "fleet.rspm")
        save_manifest(build.manifest, manifest_path)
        pools = []
        for shard_id, built in enumerate(build.methods):
            artifact = os.path.join(workdir, f"shard{shard_id}.rspv")
            save_method(built, artifact)
            pools.append(stack.enter_context(
                WorkerPool(artifact, workers=1, cache_size=cache_size)))
        shard_transports = [
            stack.enter_context(PooledHttpTransport(pool.url))
            for pool in pools
        ]
        router = stack.enter_context(
            ShardRouter(build.manifest, shard_transports, graph))
        http_server = stack.enter_context(AsyncProofHttpServer(router))
        url = http_server.url
        transports = [stack.enter_context(HttpTransport(url))
                      for _ in range(client_threads)]
        with ThreadPoolExecutor(max_workers=client_threads) as executor:
            for index in range(passes):
                label = "cold" if index == 0 else f"warm{index}"
                failures: list[str] = []
                start = time.perf_counter()
                outcomes = list(executor.map(drive, chunks, transports))
                seconds = time.perf_counter() - start
                wire_bytes = sum(wire for wire, _ in outcomes)
                errors = sum(bad for _, bad in outcomes)
                if errors:
                    failures.append(f"{errors} wire-level error replies")
                if verify_signature is not None:
                    vs, vt = sample_pair
                    with HttpTransport(url) as sample_transport:
                        sample = RemoteClient(
                            sample_transport, verify_signature,
                        ).query(vs, vt)
                    if not sample.ok:
                        failures.append(
                            f"sample ({vs},{vt}): {sample.verdict.reason} "
                            f"{sample.verdict.detail}")
                results.append(HttpLoadtestPass(
                    label=label,
                    requests=len(queries),
                    seconds=seconds,
                    wire_bytes=wire_bytes,
                    proof_bytes=wire_bytes,  # raw drive: framing included
                    verified=len(queries) - errors,
                    failures=tuple(failures),
                ))
        router_metrics = fetch_http_metrics(url)
    return RouterLoadtestReport(
        method=method,
        num_queries=len(queries),
        num_shards=num_shards,
        client_threads=client_threads,
        url=url,
        passes=tuple(results),
        cross_shard=cross_shard,
        router_metrics=router_metrics,
    )
