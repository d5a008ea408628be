"""Proof server: serve heavy repeated traffic from one built method.

A delivery dispatcher queries the same depot-to-customer routes all
morning.  Instead of re-proving every request, the provider runs a
:class:`~repro.service.server.ProofServer`:

1. the owner builds and signs a DIJ method once;
2. the server answers the first burst against one graph version and
   fills its LRU proof cache;
3. repeat requests are replayed from the cache at memory speed — and
   still verify, because a cached proof is byte-identical to a fresh
   one;
4. serving metrics (QPS, latency percentiles, hit rate) quantify the
   difference.

Run:  python examples/proof_server.py
"""

from repro import Client, DataOwner, ProofServer
from repro.bench.reporting import format_table
from repro.graph import road_network
from repro.workload import generate_workload
from repro.workload.datasets import normalize_weights


def main() -> None:
    print("Owner: generating and signing a road network (DIJ) ...")
    graph = normalize_weights(road_network(800, seed=11), 9000.0)
    owner = DataOwner(graph)
    method = owner.publish("DIJ")
    print(f"  network: {graph.num_nodes} nodes, {graph.num_edges} edges")

    server = ProofServer(method, cache_size=256)
    client = Client(owner.signer.verifier_for_public_key().verify)
    dispatch = list(generate_workload(graph, 2000.0, count=12, seed=3))

    rows = []
    for label in ("cold", "warm", "warm"):
        server.reset_metrics()
        served = server.answer_many(dispatch)  # one gate hold per burst
        s = server.snapshot()  # freeze before client-side verification
        rows.append([label, s.requests, s.qps, s.p50_ms, s.p95_ms,
                     100.0 * s.hit_rate, s.proof_kbytes])
        for (vs, vt), item in zip(dispatch, served):
            assert client.verify(vs, vt, item.response).ok

    print()
    print(format_table(
        ["pass", "requests", "QPS", "p50 ms", "p95 ms", "hit %", "proof KB"],
        rows, title="morning dispatch, replayed three times",
    ))
    stats = server.cache.stats
    print(f"\ncache: {stats.hits} hits / {stats.misses} misses "
          f"({100.0 * stats.hit_rate:.0f}% hit rate), "
          f"all responses verified by the client")


if __name__ == "__main__":
    main()
