"""Command line interface.

Subcommands::

    repro-spv generate  --nodes 800 --seed 7 --out net.txt
    repro-spv info      net.txt            # also accepts .rspv artifacts
    repro-spv workload  net.txt --range 2000 --count 10 --out queries.txt
    repro-spv demo      net.txt --method HYP --queries 3
    repro-spv estimate  net.txt --range 2000
    repro-spv pack      net.txt --method LDM --out de.ldm.rspv --save-key owner.pub
    repro-spv serve     net.txt --method DIJ --workload queries.txt
    repro-spv serve     net.txt --method DIJ --http 8350 --save-key owner.pub
    repro-spv serve     --artifact de.ldm.rspv --http 8350
    repro-spv fetch     http://host:8350 3 9 --out r.bin --descriptor-out d.bin
    repro-spv verify    r.bin --key owner.pub --descriptor d.bin

``demo`` runs the full three-party protocol (build, answer, verify) and
prints per-query proof sizes; ``estimate`` prints the predictive sizing
model's ranking without building anything.  ``pack`` builds a method
once and freezes it into a ``.rspv`` artifact — the owner's offline
step; ``serve --artifact`` boots from that file without the graph or
the signer.  ``serve`` answers a request stream (workload file, or
interactive ``source target`` lines on stdin) through a cached
:class:`~repro.service.server.ProofServer` — or, with ``--http PORT``,
boots the wire-protocol HTTP frontend and serves until interrupted
(``--save-key`` writes the owner's public key file clients verify
against); ``fetch`` retrieves one response (and optionally the
descriptor) from a running HTTP service as artifact files; ``verify``
checks a serialized response file offline against a public key file —
the exit code is the verdict, so scripts can gate on it.  An operator
checks a running deployment with ``fetch`` + ``verify``; its speed is
measured from outside the package, by ``perfbench``.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench.reporting import format_table
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


def _cmd_generate(args: argparse.Namespace) -> int:
    graph = road_network(args.nodes, seed=args.seed, canvas=args.canvas)
    graph = normalize_weights(graph, args.diameter)
    write_graph(graph, args.out)
    print(f"wrote {graph.num_nodes} nodes / {graph.num_edges} edges to {args.out}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.store import is_artifact

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
    if args.artifact:
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
    if args.key:
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


def _read_requests(args: argparse.Namespace) -> "list[tuple[int, int]]":
    """The request stream for ``serve``: workload file, or stdin lines."""
    if args.workload:
        with open(args.workload, "r", encoding="utf-8") as infile:
            return read_workload(infile)
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


def _cmd_serve_http(args: argparse.Namespace) -> int:
    """``serve --http``: the wire-protocol frontend, until interrupted."""
    from repro.service.aio import AsyncProofHttpServer

    owner, method, build_seconds = _serving_method(args)
    if args.save_key:
        if owner is None:
            raise ServiceError(
                "--save-key needs the building side; artifact-backed "
                "serving holds no key material"
            )
        save_public_key(owner.signer, args.save_key)
        print(f"wrote owner public key to {args.save_key}")
    server = ProofServer(method, cache_size=args.cache_size)
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
    server = ProofServer(method, cache_size=args.cache_size)
    queries = _read_requests(args)
    server.reset_metrics()  # exclude stream reading from the window
    served = server.answer_many(queries)
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
    print()
    print(_metrics_table(snapshot))
    return 1 if failures else 0


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
    with HttpTransport(args.url) as transport:
        client = RemoteClient(transport, verify_signature,
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
            print(f"verdict: {result.verdict.reason}")
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
        print(f"{result.reason}: {source} -> {target} verified "
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

    serve = sub.add_parser(
        "serve", help="answer a request stream through a cached proof server")
    serve.add_argument("graph", nargs="?",
                       help="network file (omit when using --artifact)")
    serve.add_argument("--artifact",
                       help="cold-start from a packed .rspv artifact "
                            "instead of building (no graph, no signer)")
    serve.add_argument("--method", choices=["DIJ", "FULL", "LDM", "HYP"],
                       default="DIJ")
    serve.add_argument("--landmarks", type=int, default=50)
    serve.add_argument("--cells", type=int, default=49)
    serve.add_argument("--insecure", action="store_true",
                       help="use the keyed-hash stub signer (fast, no RSA)")
    serve.add_argument("--cache-size", type=int, default=1024,
                       help="LRU proof cache capacity")
    serve.add_argument("--save-key",
                       help="write the owner's public key file (for "
                            "`repro-spv verify` / RemoteClient users)")
    serve.add_argument("--key",
                       help="owner public key file, to verify served "
                            "responses when running from an artifact")
    serve.add_argument("--workload",
                       help="query file (default: read stdin lines)")
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
