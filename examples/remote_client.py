"""Remote verification: the three-party model over a real wire.

The paper's client holds nothing but the owner's public key — so here
the roles actually separate: an HTTP proof service runs the provider
side, and a :class:`RemoteClient` on the other end of a localhost
socket fetches the signed descriptor and proofs as *bytes* and verifies
them against the key alone.

1. the owner builds and signs an LDM method and starts the service;
2. the client handshakes (protocol version, served method), pulls the
   descriptor, and runs verified queries over the wire — every payload
   byte-identical to what an in-process provider would emit;
3. the owner pushes a live re-weight through the wire API; the served
   descriptor version bumps mid-traffic and the client raises its
   freshness floor, after which replaying a pre-update response is
   rejected as `stale-descriptor`;
4. wire accounting shows what the protocol adds on top of the proof
   bytes the paper reports (about one percent).

Run:  python examples/remote_client.py
"""

from repro import DataOwner, ProofServer, RemoteClient
from repro.api.transport import HttpTransport
from repro.bench.reporting import format_table
from repro.graph import road_network
from repro.service.aio import AsyncProofHttpServer
from repro.workload import generate_workload
from repro.workload.datasets import normalize_weights
from repro.workload.updates import UPDATE_WEIGHT, generate_update_workload


def main() -> None:
    print("Owner: building and signing an LDM method ...")
    graph = normalize_weights(road_network(600, seed=23), 9000.0)
    owner = DataOwner(graph)
    method = owner.publish("LDM", c=30)
    print(f"  network: {graph.num_nodes} nodes, {graph.num_edges} edges")

    server = ProofServer(method, cache_size=256)
    dispatcher = server.dispatcher(update_signer=owner.signer)

    with AsyncProofHttpServer(dispatcher) as http_server:
        print(f"Provider: serving frames on {http_server.url}/rpc")
        client = RemoteClient(
            HttpTransport(http_server.url),
            owner.signer.verifier_for_public_key().verify,
        )

        hello = client.hello()
        descriptor, raw = client.fetch_descriptor()
        print(f"Client: protocol v{hello.version}, method {hello.method}, "
              f"descriptor version {descriptor.version} "
              f"({len(raw)} bytes, signature checks out)\n")

        queries = list(generate_workload(graph, 2500.0, count=5, seed=8))
        rows = []
        for vs, vt in queries:
            result = client.query(vs, vt)
            assert result.ok, result.verdict
            rows.append([
                f"{vs}->{vt}",
                result.response.path_cost,
                len(result.response_bytes) / 1024,
                result.wire_bytes / 1024,
                "ok",
            ])
        print(format_table(
            ["query", "distance", "proof KB", "wire KB", "verdict"], rows,
            title="verified over HTTP",
        ))

        # -- a live update crosses the same wire -----------------------
        vs, vt = queries[0]
        stale_bytes = client.query(vs, vt).response_bytes
        update = list(generate_update_workload(
            graph, 1, seed=99, kinds=(UPDATE_WEIGHT,)))[0]
        report = client.push_updates([update])
        client.require_version(report.version)
        print(f"\nOwner: pushed a re-weight over the wire -> "
              f"{report.mode} update, descriptor version {report.version}")

        stale = client.client.verify_bytes(vs, vt, stale_bytes)
        fresh = client.query(vs, vt)
        assert not stale.ok and stale.reason == "stale-descriptor"
        assert fresh.ok
        print(f"Client: pre-update replay rejected ({stale.reason}); "
              f"fresh wire query verifies at version "
              f"{fresh.response.descriptor.version}")

        metrics = client.metrics()
        print(f"\nServer metrics over the wire: {metrics.requests} requests, "
              f"{metrics.proof_bytes / 1024:.1f} proof KB served")


if __name__ == "__main__":
    main()
