"""Command line interface.

Subcommands::

    repro-spv generate  --nodes 800 --seed 7 --out net.txt
    repro-spv info      net.txt            # also accepts .rspv artifacts
    repro-spv workload  net.txt --range 2000 --count 10 --out queries.txt
    repro-spv demo      net.txt --method HYP --queries 3
    repro-spv estimate  net.txt --range 2000
    repro-spv pack      net.txt --method LDM --out de.ldm.rspv --save-key owner.pub
    repro-spv partition net.txt --shards 4 --out-prefix de --save-key owner.pub
    repro-spv serve     net.txt --method DIJ --workload queries.txt
    repro-spv serve     net.txt --method DIJ --http 8350 --save-key owner.pub
    repro-spv serve     --artifact de.ldm.rspv --http 8350 --workers 4
    repro-spv serve     net.txt --router --manifest de.manifest.rspm \\
                        --shards de.shard0.rspv,de.shard1.rspv --http 8350
    repro-spv fetch     http://host:8350 3 9 --out r.bin --descriptor-out d.bin
    repro-spv verify    r.bin --key owner.pub --descriptor d.bin
    repro-spv loadtest  net.txt --method DIJ --range 2000 --passes 3 --updates 2
    repro-spv loadtest  --artifact de.ldm.rspv --workers 2 --key owner.pub
    repro-spv loadtest  --scenario steady-burst --insecure --slo slo.json
    repro-spv loadtest  net.txt --scenario steady --url http://host:8350 \\
                        --key owner.pub

``demo`` runs the full three-party protocol (build, answer, verify) and
prints per-query proof sizes; ``estimate`` prints the predictive sizing
model's ranking without building anything.  ``pack`` builds a method
once and freezes it into a ``.rspv`` artifact — the owner's offline
step; ``partition`` is the sharded variant of that step: it cuts the
graph into k shards, packs each shard as its own ``.rspv`` under its
own signed descriptor, and writes the owner-signed ``.rspm`` shard
manifest binding the partition to those descriptors (``info`` on the
manifest prints the shard map); ``serve --router`` then fronts the
shard fleet — embedded in-process from ``--shards a.rspv,b.rspv``, or
remote workers via ``--shard-urls`` — planning on the full graph,
fanning cross-shard queries out and stitching per-shard proofs into
one composite the client verifies against the manifest;
``loadtest --scenario X --url URL`` soaks such an already-running
router from outside.  ``serve --artifact`` boots from that file
without the graph or the signer, and with ``--http`` plus ``--workers
N`` pre-forks N ``SO_REUSEPORT`` worker processes that share the port
(and the page-cached artifact), printing aggregated metrics on
shutdown.  ``serve`` answers a request stream (workload file, or
interactive ``source target`` lines on stdin) through a cached
:class:`~repro.service.server.ProofServer` — or, with ``--http PORT``,
boots the wire-protocol HTTP frontend and serves until interrupted
(``--save-key`` writes the owner's public key file clients verify
against); ``fetch`` retrieves one response (and optionally the
descriptor) from a running HTTP service as artifact files; ``verify``
checks a serialized response file offline against a public key file —
the exit code is the verdict, so scripts can gate on it;
``loadtest`` drives a traffic trace — a registered ``--scenario`` or a
replay of one workload for ``--passes`` passes (``--updates N`` owner
re-weights per pass) — through ``--clients`` verifying clients against
one topology (the graph built inline, ``--artifact`` behind a
``--workers`` pool, or ``--url``) and prints one per-phase table; every
reply is verified, and ``--slo`` gates the report (exit code 3).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench.reporting import format_table
from repro.bench.serving import (
    DEFAULT_CLIENTS,
    SloReport,
    check_slo,
    load_slo_policy,
    run_loadtest,
)
from repro.core.estimate import ProofSizeModel
from repro.core.framework import Client, DataOwner, ServiceProvider
from repro.core.proofs import QueryResponse
from repro.crypto.signer import NullSigner, RsaSigner, load_public_key, save_public_key
from repro.errors import EncodingError, ReproError, ServiceError
from repro.graph.io import read_graph, read_workload, write_graph, write_workload
from repro.graph.synthetic import road_network
from repro.service.server import ProofServer
from repro.workload.datasets import normalize_weights
from repro.workload.queries import generate_workload
from repro.workload.traffic import generate_traffic, get_scenario, replay_trace


def _cmd_generate(args: argparse.Namespace) -> int:
    graph = road_network(args.nodes, seed=args.seed, canvas=args.canvas)
    graph = normalize_weights(graph, args.diameter)
    write_graph(graph, args.out)
    print(f"wrote {graph.num_nodes} nodes / {graph.num_edges} edges to {args.out}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.shard import is_manifest
    from repro.store import is_artifact

    if is_manifest(args.graph):
        return _cmd_info_manifest(args.graph)
    if is_artifact(args.graph):
        return _cmd_info_artifact(args.graph)
    graph = read_graph(args.graph)
    degrees = [graph.degree(n) for n in graph.node_ids()]
    min_x, min_y, max_x, max_y = graph.bounding_box()
    rows = [
        ["nodes", graph.num_nodes],
        ["edges", graph.num_edges],
        ["edge/node ratio", graph.num_edges / graph.num_nodes],
        ["mean degree", sum(degrees) / len(degrees)],
        ["max degree", max(degrees)],
        ["canvas", f"[{min_x:.0f},{max_x:.0f}] x [{min_y:.0f},{max_y:.0f}]"],
    ]
    print(format_table(["property", "value"], rows, title=args.graph))
    return 0


def _cmd_info_artifact(path: str) -> int:
    """``info`` on a ``.rspv`` artifact: header, roots, section sizes."""
    from repro.store import artifact_info

    info = artifact_info(path)
    rows = [
        ["method", info.method],
        ["descriptor version", info.descriptor_version],
        ["graph version", info.graph_version],
        ["hash", info.hash_name],
        ["provider algorithm", info.algo_sp],
        ["sections", len(info.sections)],
        ["section bytes", f"{info.total_bytes / 1024:.1f} KB"],
        ["content digest", info.content_digest.hex()],
    ]
    for name, root in info.tree_roots:
        rows.append([f"root[{name}]", root.hex()])
    print(format_table(["property", "value"], rows,
                       title=f"{path} (.rspv artifact, sections verified)"))
    section_rows = [
        [s.name, s.kind, "x".join(map(str, s.shape)) or "-",
         f"{s.length / 1024:.1f}"]
        for s in info.sections
    ]
    print()
    print(format_table(["section", "kind", "shape", "KB"], section_rows))
    return 0


def _cmd_info_manifest(path: str) -> int:
    """``info`` on a ``.rspm`` shard manifest: the shard map."""
    from repro.shard import manifest_info

    info = manifest_info(path)
    rows = [
        ["kind", info["kind"]],
        ["method", info["method"]],
        ["graph version", info["version"]],
        ["strategy", info["strategy"]],
        ["shards", info["shards"]],
        ["boundary nodes", info["boundary_nodes"]],
    ]
    print(format_table(["property", "value"], rows,
                       title=f"{path} (.rspm shard manifest)"))
    entry_rows = [
        [entry["shard"], entry["nodes"], entry["boundary_nodes"],
         entry["descriptor_digest"]]
        for entry in info["entries"]
    ]
    print()
    print(format_table(
        ["shard", "core nodes", "boundary", "descriptor digest"], entry_rows))
    return 0


def _cmd_pack(args: argparse.Namespace) -> int:
    """``pack``: build once (owner side) and freeze the serve state."""
    from repro.store import artifact_info, save_method

    owner, method, build_seconds = _published_method(args)
    if args.save_key:
        save_public_key(owner.signer, args.save_key)
        print(f"wrote owner public key to {args.save_key}")
    start = time.perf_counter()
    save_method(method, args.out)
    pack_seconds = time.perf_counter() - start
    info = artifact_info(args.out, verify=False)
    print(f"packed {args.method} (build {build_seconds:.2f}s, "
          f"pack {pack_seconds:.2f}s) into {args.out}: "
          f"{len(info.sections)} sections, "
          f"{info.total_bytes / 1024:.1f} KB, "
          f"descriptor version {info.descriptor_version}")
    print(f"content digest {info.content_digest.hex()}")
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    """``partition``: the owner's sharded publish, frozen to disk.

    Cuts the graph into ``--shards`` shards, builds one method per
    shard (each over its core+halo subgraph, under its own signed
    descriptor), packs each as ``PREFIX.shard<i>.rspv``, and writes the
    owner-signed shard manifest as ``PREFIX.manifest.rspm``.
    """
    import os

    from repro.shard import build_shards, save_manifest
    from repro.store import save_method

    graph = read_graph(args.graph)
    signer = NullSigner() if args.insecure else RsaSigner(bits=1024)
    params = {}
    if args.method == "LDM":
        params = dict(c=args.landmarks)
    elif args.method == "HYP":
        params = dict(num_cells=args.cells)
    start = time.perf_counter()
    build = build_shards(graph, signer, num_shards=args.shards,
                         method=args.method, strategy=args.strategy,
                         **params)
    build_seconds = time.perf_counter() - start
    if args.save_key:
        save_public_key(signer, args.save_key)
        print(f"wrote owner public key to {args.save_key}")
    rows = []
    for shard_id, method in enumerate(build.methods):
        path = f"{args.out_prefix}.shard{shard_id}.rspv"
        save_method(method, path)
        entry = build.manifest.entries[shard_id]
        rows.append([
            shard_id, path, entry.num_nodes,
            method.graph.num_nodes - entry.num_nodes,
            len(entry.boundary),
            os.path.getsize(path) / 1024,
            entry.descriptor_digest.hex()[:16],
        ])
    manifest_path = f"{args.out_prefix}.manifest.rspm"
    manifest_bytes = save_manifest(build.manifest, manifest_path)
    print(format_table(
        ["shard", "artifact", "core", "halo", "boundary", "KB", "digest"],
        rows,
        title=(f"{args.method} partition of {args.graph}: "
               f"{args.shards} shards by {args.strategy}, "
               f"{len(build.plan.cut_edges)} cut edges "
               f"(build {build_seconds:.2f}s)"),
    ))
    print(f"\nwrote signed shard manifest ({manifest_bytes} bytes, "
          f"graph version {build.manifest.version}) to {manifest_path}")
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    graph = read_graph(args.graph)
    workload = generate_workload(graph, args.range, count=args.count,
                                 seed=args.seed, tolerance=1.0)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            write_workload(list(workload), out)
        print(f"wrote {len(workload)} queries to {args.out}")
    else:
        for vs, vt in workload:
            print(vs, vt)
    return 0


def _published_method(args: argparse.Namespace):
    """Build the requested method; returns ``(owner, method, seconds)``."""
    if not args.graph:
        raise ServiceError(
            f"{args.command} needs a graph file (or --artifact where supported)"
        )
    graph = read_graph(args.graph)
    signer = NullSigner() if args.insecure else RsaSigner(bits=1024)
    owner = DataOwner(graph, signer=signer)
    params = {}
    if args.method == "LDM":
        params = dict(c=args.landmarks)
    elif args.method == "HYP":
        params = dict(num_cells=args.cells)
    start = time.perf_counter()
    method = owner.publish(args.method, **params)
    return owner, method, time.perf_counter() - start


def _serving_method(args: argparse.Namespace):
    """Build from a graph file or cold-start from an artifact.

    Returns ``(owner | None, method, seconds)`` — the owner is ``None``
    for artifact-backed serving, which is the point: a serving box
    holds no signer.
    """
    if getattr(args, "artifact", None):
        from repro.store import load_method

        if args.graph:
            raise ServiceError("pass a graph file or --artifact, not both")
        start = time.perf_counter()
        method = load_method(args.artifact)
        return None, method, time.perf_counter() - start
    return _published_method(args)


def _verifier_for(owner, args: argparse.Namespace):
    """The client-side signature check: the owner's key, or --key."""
    if owner is not None:
        return owner.signer.verify
    if getattr(args, "key", None):
        return load_public_key(args.key).verify
    return None


def _cmd_demo(args: argparse.Namespace) -> int:
    owner, method, build_seconds = _published_method(args)
    graph = owner.graph
    provider = ServiceProvider(method)
    client = Client(owner.signer.verify)
    workload = generate_workload(graph, args.range, count=args.queries,
                                 seed=args.seed, tolerance=1.0)
    rows = []
    failures = 0
    for vs, vt in workload:
        response = provider.answer(vs, vt)
        verdict = client.verify(vs, vt, response)
        if not verdict.ok:
            failures += 1
        sizes = response.sizes()
        rows.append([f"{vs}->{vt}", response.path_cost, len(response.path_nodes),
                     sizes.total_kbytes, "ok" if verdict.ok else verdict.reason])
    print(format_table(
        ["query", "distance", "path nodes", "proof KB", "verdict"], rows,
        title=(f"{args.method} on {args.graph} "
               f"(hints {method.construction_seconds:.2f}s, "
               f"build total {build_seconds:.2f}s)"),
    ))
    return 1 if failures else 0


def _read_workload_file(path: str) -> "list[tuple[int, int]]":
    with open(path, "r", encoding="utf-8") as infile:
        return read_workload(infile)


def _read_requests(args: argparse.Namespace) -> "list[tuple[int, int]]":
    """The request stream for ``serve``: workload file, or stdin lines."""
    if args.workload:
        return _read_workload_file(args.workload)
    if sys.stdin.isatty():
        print("reading 'source target' queries from stdin "
              "(one per line, Ctrl-D to finish)", file=sys.stderr)
    return read_workload(sys.stdin)


def _metrics_table(s, title: str = "serving metrics") -> str:
    return format_table(
        ["requests", "QPS", "p50 ms", "p95 ms", "hit %", "proof KB",
         "evictions", "cache"],
        [[s.requests, s.qps, s.p50_ms, s.p95_ms,
          100.0 * s.hit_rate, s.proof_kbytes,
          s.cache_evictions, f"{s.cache_entries}/{s.cache_capacity}"]],
        title=title,
    )


def _cmd_serve_workers(args: argparse.Namespace) -> int:
    """``serve --artifact --http --workers N``: the pre-forked pool."""
    from repro.service.workers import WorkerPool

    pool = WorkerPool(args.artifact, workers=args.workers, host=args.host,
                      port=args.http, cache_size=args.cache_size)
    pool.start()
    print(f"{args.workers} workers serving {args.artifact} on "
          f"{pool.url} (SO_REUSEPORT, cache {args.cache_size} per worker); "
          f"POST frames to {pool.url}/rpc, Ctrl-C to stop", flush=True)
    try:
        while True:
            time.sleep(3600.0)
    except KeyboardInterrupt:
        print("\nshutting down workers")
    finally:
        aggregate = pool.stop()
    print(_metrics_table(aggregate, title="aggregated serving metrics"))
    per_worker = ", ".join(str(s.requests) for s in pool.worker_snapshots)
    print(f"requests per worker: [{per_worker}]")
    return 0


def _cmd_serve_router(args: argparse.Namespace) -> int:
    """``serve --router``: front a shard fleet on one wire endpoint.

    The graph positional is the *full* network — the router plans
    global shortest paths on it, then fans segments out to the shard
    workers.  Workers come from ``--shard-urls`` (already-running
    remote endpoints, one pooled connection each) or ``--shards``
    (per-shard ``.rspv`` artifacts served embedded in this process —
    the single-box demo of the sharded topology).
    """
    import contextlib

    from repro.api.transport import InProcessTransport, PooledHttpTransport
    from repro.service.aio import AsyncProofHttpServer
    from repro.service.router import ShardRouter
    from repro.shard import load_manifest
    from repro.store import load_method

    if args.http is None:
        raise ServiceError(
            "serve --router fronts the wire protocol; add --http PORT")
    if not args.graph:
        raise ServiceError(
            "serve --router needs the full graph file for route planning")
    if args.artifact:
        raise ServiceError(
            "--artifact is the single-box path; a router takes --shards "
            "(artifact list) or --shard-urls")
    if not args.manifest:
        raise ServiceError(
            "serve --router needs --manifest (the signed .rspm file "
            "written by repro-spv partition)")
    if bool(args.shards) == bool(args.shard_urls):
        raise ServiceError(
            "serve --router needs exactly one of --shards (embedded "
            "workers from artifacts) or --shard-urls (remote workers)")
    manifest = load_manifest(args.manifest)
    graph = read_graph(args.graph)
    with contextlib.ExitStack() as stack:
        if args.shard_urls:
            backends = [url.strip() for url in args.shard_urls.split(",")]
            transports = [
                stack.enter_context(PooledHttpTransport(url))
                for url in backends
            ]
            source = f"remote workers {backends}"
        else:
            paths = [path.strip() for path in args.shards.split(",")]
            transports = []
            for path in paths:
                server = ProofServer(load_method(path),
                                     cache_size=args.cache_size)
                transports.append(InProcessTransport(server.dispatcher()))
            source = f"embedded workers from {paths}"
        router = stack.enter_context(
            ShardRouter(manifest, transports, graph))
        http_server = AsyncProofHttpServer(router, host=args.host,
                                           port=args.http)
        print(f"{manifest.method} shard router on {http_server.url}: "
              f"{manifest.num_shards} shards "
              f"({manifest.num_boundary_nodes} boundary nodes, "
              f"manifest {args.manifest}), {source}; "
              f"POST frames to {http_server.url}/rpc, Ctrl-C to stop",
              flush=True)
        try:
            http_server.serve_forever()
        except KeyboardInterrupt:
            print("\nshutting down router")
        finally:
            http_server.close()
        print(_metrics_table(router.metrics.snapshot(),
                             title="router metrics"))
    return 0


def _cmd_serve_http(args: argparse.Namespace) -> int:
    """``serve --http``: the wire-protocol frontend, until interrupted."""
    from repro.service.aio import AsyncProofHttpServer

    if args.workers > 1:
        if not args.artifact:
            raise ServiceError(
                "serve --http --workers N pre-forks worker processes, which "
                "boot from a shared artifact; pack one first "
                "(repro-spv pack) and pass --artifact"
            )
        if args.allow_updates:
            raise ServiceError(
                "worker processes hold no signing key; updates flow through "
                "a new artifact from the owner, not wire pushes"
            )
        return _cmd_serve_workers(args)
    owner, method, build_seconds = _serving_method(args)
    if args.save_key:
        if owner is None:
            raise ServiceError(
                "--save-key needs the building side; artifact-backed "
                "serving holds no key material"
            )
        save_public_key(owner.signer, args.save_key)
        print(f"wrote owner public key to {args.save_key}")
    server = ProofServer(method, cache_size=args.cache_size,
                         max_workers=args.workers)
    # The wire protocol carries no authentication, so honouring update
    # pushes means anyone who can reach the socket can mutate the graph
    # and have this process re-sign it with the owner's key.  That is
    # only acceptable as an explicit opt-in for trusted-network demos;
    # the default endpoint serves proofs and refuses pushes
    # (updates-not-supported), exactly like a provider that holds no
    # signing key.  Artifact-backed serving has no key to begin with.
    if args.allow_updates and owner is None:
        raise ServiceError(
            "an artifact-backed service holds no signing key; it cannot "
            "honour wire update pushes"
        )
    update_signer = owner.signer if args.allow_updates else None
    dispatcher = server.dispatcher(update_signer=update_signer)
    http_server = AsyncProofHttpServer(dispatcher, host=args.host,
                                       port=args.http)
    pushes = ("enabled — trusted networks only" if args.allow_updates
              else "disabled")
    source = f"artifact {args.artifact}" if owner is None else \
        f"build {build_seconds:.2f}s"
    print(f"{method.name} proof service on {http_server.url} "
          f"({source}, cache {args.cache_size}, "
          f"update pushes {pushes}); "
          f"POST frames to {http_server.url}/rpc, Ctrl-C to stop",
          flush=True)
    try:
        http_server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        http_server.close()
    print(_metrics_table(server.snapshot()))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.router:
        return _cmd_serve_router(args)
    if args.manifest or args.shards or args.shard_urls:
        raise ServiceError(
            "--manifest/--shards/--shard-urls configure the shard router; "
            "add --router")
    if args.http is not None:
        return _cmd_serve_http(args)
    owner, method, build_seconds = _serving_method(args)
    if args.save_key:
        if owner is None:
            raise ServiceError(
                "--save-key needs the building side; artifact-backed "
                "serving holds no key material"
            )
        save_public_key(owner.signer, args.save_key)
        print(f"wrote owner public key to {args.save_key}")
    verify_signature = _verifier_for(owner, args)
    client = Client(verify_signature) if verify_signature else None
    server = ProofServer(method, cache_size=args.cache_size,
                         max_workers=args.workers)
    queries = _read_requests(args)
    server.reset_metrics()  # exclude stream reading from the window
    combined = None
    if args.workers > 1:
        served = server.answer_concurrent(queries)
    else:
        burst = server.serve_burst(queries, coalesce=not args.no_coalesce)
        served = burst.served
        combined = burst.combined
    snapshot = server.snapshot()  # freeze before verification/printing
    failures = 0
    rows = []
    for (vs, vt), item in zip(queries, served):
        if not item.ok:
            failures += 1
            rows.append([f"{vs}->{vt}", "-", "-", "-",
                         item.serve_seconds * 1000, f"error: {item.error}"])
            continue
        if client is None:
            verdict_cell = "unchecked (no --key)"
        else:
            verdict = client.verify(vs, vt, item.response)
            if not verdict.ok:
                failures += 1
            verdict_cell = "ok" if verdict.ok else verdict.reason
        rows.append([
            f"{vs}->{vt}", item.response.path_cost,
            item.proof_bytes / 1024, "hit" if item.cached else "miss",
            item.serve_seconds * 1000,
            verdict_cell,
        ])
    source = (f"artifact {args.artifact} (cold start {build_seconds:.2f}s)"
              if owner is None else
              f"{args.graph} (build {build_seconds:.2f}s)")
    print(format_table(
        ["query", "distance", "proof KB", "cache", "serve ms", "verdict"],
        rows,
        title=(f"{method.name} proof server on {source}, "
               f"cache {args.cache_size}"),
    ))
    if combined is not None:
        standalone = sum(item.proof_bytes for item in served
                         if item.ok and not item.cached)
        print(f"\nburst shipped as one combined cover: "
              f"{combined.total_bytes / 1024:.1f} KB "
              f"(standalone responses would total {standalone / 1024:.1f} KB)")
    print()
    print(_metrics_table(snapshot))
    return 1 if failures else 0


def _loadtest_topology(args: argparse.Namespace):
    """``(owner | None, method | None, trace graph, source label)``.

    Inline (a graph file, or the standard synthetic network for a
    scenario) builds the method and keeps the owner, whose signer lands
    the trace's pushes; ``--artifact`` and ``--url`` only need the graph
    the endpoint answers about, to draw the trace from.
    """
    if args.workers > 1 and not args.artifact:
        raise ServiceError(
            "--workers sizes a pre-forked worker pool, which boots from a "
            "shared artifact; pack one first (repro-spv pack) and pass "
            "--artifact")
    if args.artifact:
        from repro.store import load_method

        if args.graph:
            raise ServiceError("pass a graph file or --artifact, not both")
        return (None, None, load_method(args.artifact).graph,
                f"artifact {args.artifact}, {args.workers} workers")
    if args.url:
        if not args.graph:
            raise ServiceError(
                "loadtest --url needs the graph file the endpoint serves "
                "(the workload substrate); the endpoint is not asked for it")
        return None, None, read_graph(args.graph), f"endpoint {args.url}"
    if args.graph or not args.scenario:
        owner, method, _ = _published_method(args)
        return owner, method, owner.graph, args.graph
    graph = normalize_weights(road_network(300, seed=42), 4500.0)
    owner = DataOwner(graph, signer=NullSigner() if args.insecure
                      else RsaSigner(bits=1024))
    return (owner, owner.publish(args.method), graph,
            "synthetic road network (300 nodes)")


def _cmd_loadtest(args: argparse.Namespace) -> int:
    """``loadtest``: build the trace, pick the topology, run, print.

    Exit codes: 1 on any failed verification or untyped garbage
    outcome, 3 on an ``--slo`` policy violation.
    """
    import json

    owner, method, graph, source = _loadtest_topology(args)
    if owner is None and (args.save_key or args.updates):
        raise ServiceError(
            "--save-key and --updates need the owner's signer, which only "
            "the inline topology (a graph file) holds")
    verify_signature = _verifier_for(owner, args)
    if verify_signature is None:
        raise ServiceError(
            "--artifact and --url hold no key material; pass --key (the "
            "owner's public key file) for the clients to verify against")
    if args.save_key:
        save_public_key(owner.signer, args.save_key)
        print(f"wrote owner public key to {args.save_key}")
    if args.scenario:
        scenario = get_scenario(args.scenario)
        if args.events_scale != 1.0:
            scenario = scenario.scaled(args.events_scale)
        trace = generate_traffic(graph, scenario, seed=args.seed)
    else:
        queries = (_read_workload_file(args.workload) if args.workload
                   else generate_workload(graph, args.range, count=args.count,
                                          seed=args.seed, tolerance=1.0))
        trace = replay_trace(graph, queries, passes=args.passes,
                             updates_per_pass=args.updates,
                             batch_size=args.batch_size, seed=args.seed)
    report = run_loadtest(
        trace, verify_signature, method=method,
        update_signer=owner.signer if owner is not None else None,
        artifact_path=args.artifact, workers=args.workers, url=args.url,
        clients=args.clients, cache_size=args.cache_size,
        time_scale=args.time_scale,
    )
    print(format_table(
        list(SloReport.TABLE_HEADERS), report.table_rows(),
        title=(f"{report.method} load test '{trace.scenario}' on {source}: "
               f"{report.clients} clients, seed {args.seed}, "
               f"trace {report.trace_digest}"),
    ))
    print(f"\nsaturation {report.saturation_qps:.1f} QPS, "
          f"{report.total_queries} queries verified end-to-end, "
          f"wire/proof bytes {report.overhead_ratio:.4f}x, "
          f"{report.updates_pushed} update pushes "
          f"(final version {report.final_version}), "
          f"{report.verification_failures} verification failures, "
          f"{report.untyped_garbage} untyped garbage exceptions")
    if report.worker_requests:
        print(f"requests per worker: {list(report.worker_requests)}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump(report.as_dict(), out, indent=2, sort_keys=True)
        print(f"wrote load test report to {args.out}")
    if not report.all_verified or report.untyped_garbage:
        for phase in report.phases:
            for failure in phase.failures:
                print(f"  {phase.name}: {failure}", file=sys.stderr)
        for failure in report.freshness_failures:
            print(f"  freshness: {failure}", file=sys.stderr)
        print("error: the load test is unsound (see failures above)",
              file=sys.stderr)
        return 1
    if args.slo:
        violations = check_slo(report, load_slo_policy(args.slo))
        if violations:
            print(f"\nSLO violations vs {args.slo}:", file=sys.stderr)
            for violation in violations:
                print(f"  {violation}", file=sys.stderr)
            return 3
        print(f"\nwithin SLO policy {args.slo}")
    return 0


def _cmd_fetch(args: argparse.Namespace) -> int:
    """Fetch one response (and the descriptor) from a running service."""
    from repro.api.client import RemoteClient
    from repro.api.transport import HttpTransport

    if args.key:
        verify_signature = load_public_key(args.key).verify
    else:
        # No key, no verdict: the artifact is fetched for later offline
        # verification (``repro-spv verify``), so accept any signature
        # here rather than pretending to check one.
        verify_signature = lambda message, signature: True  # noqa: E731
    client = RemoteClient(HttpTransport(args.url), verify_signature,
                          min_descriptor_version=args.min_version)
    hello = client.hello()
    print(f"service: method {hello.method}, protocol v{hello.version}, "
          f"descriptor version {hello.descriptor_version}")
    if args.descriptor_out:
        _, descriptor_bytes = client.fetch_descriptor()
        with open(args.descriptor_out, "wb") as out:
            out.write(descriptor_bytes)
        print(f"wrote descriptor ({len(descriptor_bytes)} bytes) "
              f"to {args.descriptor_out}")
    result = client.query(args.source, args.target)
    if result.response_bytes is None:
        print(f"error: server refused: {result.verdict.reason} "
              f"{result.verdict.detail}", file=sys.stderr)
        return 1
    with open(args.out, "wb") as out:
        out.write(result.response_bytes)
    print(f"wrote response ({len(result.response_bytes)} bytes, "
          f"{result.wire_bytes} on the wire) to {args.out}")
    if args.key:
        print(f"verdict: {'ok' if result.ok else result.verdict.reason}")
        return 0 if result.ok else 1
    print("verdict: not checked (no --key); verify offline with "
          "`repro-spv verify`")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """Verify a response artifact; the exit code is the verdict."""
    with open(args.response, "rb") as infile:
        data = infile.read()
    client = Client(load_public_key(args.key).verify,
                    min_descriptor_version=args.min_version)
    source, target = args.source, args.target
    decoded: "QueryResponse | None" = None
    if source is None or target is None or args.descriptor:
        # The query pair defaults to the one recorded in the response;
        # passing --source/--target pins the artifact to *your* query,
        # which is the stronger check.
        try:
            decoded = QueryResponse.decode(data)
        except EncodingError as exc:
            print(f"reject: malformed-response — {exc}")
            return 1
        source = source if source is not None else decoded.source
        target = target if target is not None else decoded.target
    if args.descriptor:
        with open(args.descriptor, "rb") as infile:
            trusted = infile.read()
        if decoded.descriptor.encode() != trusted:
            print("reject: descriptor-mismatch — response descriptor differs "
                  f"from the trusted copy in {args.descriptor}")
            return 1
    result = client.verify_bytes(source, target, data)
    if result.ok:
        print(f"ok: {source} -> {target} verified "
              f"({len(data)} response bytes)")
        return 0
    print(f"reject: {result.reason} — {result.detail}")
    return 1


def _cmd_estimate(args: argparse.Namespace) -> int:
    graph = read_graph(args.graph)
    model = ProofSizeModel.for_graph(graph)
    rows = [
        [name, bytes_ / 1024]
        for name, bytes_ in model.rank(args.range)
    ]
    print(format_table(
        ["method", "predicted proof KB"], rows,
        title=f"predicted proof sizes at range {args.range:g} (smallest first)",
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-spv",
        description="Authenticated shortest path verification (ICDE 2010 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic road network")
    gen.add_argument("--nodes", type=int, default=800)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--canvas", type=float, default=10_000.0)
    gen.add_argument("--diameter", type=float, default=9_000.0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(fn=_cmd_generate)

    info = sub.add_parser("info", help="print statistics of a graph file")
    info.add_argument("graph")
    info.set_defaults(fn=_cmd_info)

    wl = sub.add_parser("workload", help="generate a query workload")
    wl.add_argument("graph")
    wl.add_argument("--range", type=float, default=2000.0)
    wl.add_argument("--count", type=int, default=10)
    wl.add_argument("--seed", type=int, default=0)
    wl.add_argument("--out")
    wl.set_defaults(fn=_cmd_workload)

    demo = sub.add_parser("demo", help="run the full three-party protocol")
    demo.add_argument("graph")
    demo.add_argument("--method", choices=["DIJ", "FULL", "LDM", "HYP"],
                      default="HYP")
    demo.add_argument("--range", type=float, default=2000.0)
    demo.add_argument("--queries", type=int, default=3)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--landmarks", type=int, default=50)
    demo.add_argument("--cells", type=int, default=49)
    demo.add_argument("--insecure", action="store_true",
                      help="use the keyed-hash stub signer (fast, no RSA)")
    demo.set_defaults(fn=_cmd_demo)

    est = sub.add_parser("estimate", help="predict proof sizes without building")
    est.add_argument("graph")
    est.add_argument("--range", type=float, default=2000.0)
    est.set_defaults(fn=_cmd_estimate)

    pack = sub.add_parser(
        "pack", help="build a method and freeze it into a .rspv artifact")
    pack.add_argument("graph")
    pack.add_argument("--method", choices=["DIJ", "FULL", "LDM", "HYP"],
                      default="LDM")
    pack.add_argument("--landmarks", type=int, default=50)
    pack.add_argument("--cells", type=int, default=49)
    pack.add_argument("--insecure", action="store_true",
                      help="use the keyed-hash stub signer (fast, no RSA)")
    pack.add_argument("--out", required=True,
                      help="artifact path (conventionally *.rspv)")
    pack.add_argument("--save-key",
                      help="also write the owner's public key file — "
                           "distribute it with the artifact so serving "
                           "boxes never see the private key")
    pack.set_defaults(fn=_cmd_pack)

    part = sub.add_parser(
        "partition",
        help="cut a graph into shards: per-shard .rspv artifacts plus a "
             "signed .rspm shard manifest")
    part.add_argument("graph")
    part.add_argument("--shards", type=int, default=2,
                      help="number of shards to cut the graph into")
    part.add_argument("--strategy", choices=["hilbert", "grid"],
                      default="hilbert",
                      help="spatial ordering behind the balanced cut")
    part.add_argument("--method", choices=["DIJ", "FULL", "LDM", "HYP"],
                      default="DIJ")
    part.add_argument("--landmarks", type=int, default=50)
    part.add_argument("--cells", type=int, default=49)
    part.add_argument("--insecure", action="store_true",
                      help="use the keyed-hash stub signer (fast, no RSA)")
    part.add_argument("--out-prefix", required=True,
                      help="writes PREFIX.shard<i>.rspv and "
                           "PREFIX.manifest.rspm")
    part.add_argument("--save-key",
                      help="also write the owner's public key file — one "
                           "key verifies every shard and the manifest")
    part.set_defaults(fn=_cmd_partition)

    def add_server_args(p: argparse.ArgumentParser,
                        default_method: str) -> None:
        p.add_argument("graph", nargs="?",
                       help="network file (omit when using --artifact)")
        p.add_argument("--artifact",
                       help="cold-start from a packed .rspv artifact "
                            "instead of building (no graph, no signer)")
        p.add_argument("--method", choices=["DIJ", "FULL", "LDM", "HYP"],
                       default=default_method)
        p.add_argument("--landmarks", type=int, default=50)
        p.add_argument("--cells", type=int, default=49)
        p.add_argument("--insecure", action="store_true",
                       help="use the keyed-hash stub signer (fast, no RSA)")
        p.add_argument("--cache-size", type=int, default=1024,
                       help="LRU proof cache capacity")
        p.add_argument("--workers", type=int, default=1,
                       help="with --artifact over the wire: number of "
                            "pre-forked SO_REUSEPORT worker processes; "
                            "serve without --http: thread-pool size (>1 "
                            "disables coalescing)")
        p.add_argument("--save-key",
                       help="write the owner's public key file (for "
                            "`repro-spv verify` / RemoteClient users)")
        p.add_argument("--key",
                       help="owner public key file, to verify served "
                            "responses when running from an artifact")

    serve = sub.add_parser(
        "serve", help="answer a request stream through a cached proof server")
    add_server_args(serve, default_method="DIJ")
    serve.add_argument("--workload",
                       help="query file (default: read stdin lines)")
    serve.add_argument("--no-coalesce", action="store_true",
                       help="answer bursts per query instead of batching")
    serve.add_argument("--http", type=int, metavar="PORT",
                       help="serve the wire protocol over HTTP on PORT "
                            "(0 picks an ephemeral port) until interrupted")
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind with --http (default "
                            "loopback; 0.0.0.0 exposes the service)")
    serve.add_argument("--allow-updates", action="store_true",
                       help="honour wire update pushes by re-signing with "
                            "the owner key (UNAUTHENTICATED — trusted "
                            "networks only; default: refuse pushes)")
    serve.add_argument("--router", action="store_true",
                       help="front a sharded fleet: plan on the full graph, "
                            "fan cross-shard queries out, stitch proofs "
                            "(needs --manifest plus --shards or "
                            "--shard-urls, and --http)")
    serve.add_argument("--manifest",
                       help="signed .rspm shard manifest "
                            "(from repro-spv partition)")
    serve.add_argument("--shards",
                       help="comma-separated per-shard .rspv artifacts, "
                            "served embedded in the router process")
    serve.add_argument("--shard-urls",
                       help="comma-separated base URLs of already-running "
                            "shard workers (one pooled connection each)")
    serve.set_defaults(fn=_cmd_serve)

    fetch = sub.add_parser(
        "fetch", help="fetch one response from a running HTTP service")
    fetch.add_argument("url", help="service base URL, e.g. http://host:8350")
    fetch.add_argument("source", type=int)
    fetch.add_argument("target", type=int)
    fetch.add_argument("--out", required=True,
                       help="write the serialized response here")
    fetch.add_argument("--descriptor-out",
                       help="also save the signed descriptor")
    fetch.add_argument("--key",
                       help="owner public key file: verify before saving")
    fetch.add_argument("--min-version", type=int,
                       help="freshness floor (reject older descriptors)")
    fetch.set_defaults(fn=_cmd_fetch)

    ver = sub.add_parser(
        "verify", help="verify a response artifact; exit code is the verdict")
    ver.add_argument("response", help="serialized QueryResponse file")
    ver.add_argument("--key", required=True,
                     help="owner public key file (see serve --save-key)")
    ver.add_argument("--descriptor",
                     help="trusted descriptor file the response must match")
    ver.add_argument("--min-version", type=int,
                     help="freshness floor (reject older descriptors)")
    ver.add_argument("--source", type=int,
                     help="expected query source (default: from the response)")
    ver.add_argument("--target", type=int,
                     help="expected query target (default: from the response)")
    ver.set_defaults(fn=_cmd_verify)

    lt = sub.add_parser(
        "loadtest",
        help="drive a scenario or a cold-vs-warm replay through verifying "
             "clients and print per-phase metrics")
    add_server_args(lt, default_method="DIJ")
    lt.add_argument("--workload", help="query file (default: generate)")
    lt.add_argument("--batch-size", type=int, default=0,
                    help="replay queries as multiproof BATCH frames of this "
                         "many queries (0 = per-query QUERY frames)")
    lt.add_argument("--range", type=float, default=2000.0)
    lt.add_argument("--count", type=int, default=20)
    lt.add_argument("--seed", type=int, default=0)
    lt.add_argument("--passes", type=int, default=2,
                    help="replay passes; the first is cold, the rest warm")
    lt.add_argument("--updates", type=int, default=0,
                    help="owner re-weights interleaved through every pass "
                         "(exercises incremental re-auth + cache invalidation)")
    lt.add_argument("--scenario",
                    help="drive this registered traffic scenario (e.g. "
                         "steady-burst) instead of a replay; self-provisions "
                         "a synthetic network when no graph is given")
    lt.add_argument("--url",
                    help="drive this already-running endpoint (e.g. a shard "
                         "router) instead of booting a server; needs the "
                         "graph positional (workload substrate) and --key")
    lt.add_argument("--clients", type=int, default=DEFAULT_CLIENTS,
                    help="verifying clients, one persistent connection each")
    lt.add_argument("--time-scale", type=float, default=1.0,
                    help="stretch (>1) or compress (<1) scenario arrival "
                         "timestamps")
    lt.add_argument("--events-scale", type=float, default=1.0,
                    help="scale every scenario phase's event count")
    lt.add_argument("--slo",
                    help="SLO policy JSON to gate the report against "
                         "(exit code 3 on violation)")
    lt.add_argument("--out", help="write the report as a JSON file")
    lt.set_defaults(fn=_cmd_loadtest)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
