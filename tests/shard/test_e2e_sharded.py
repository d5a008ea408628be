"""Acceptance: the full sharded roundtrip over real HTTP.

Shards are saved to disk, loaded back, served by per-shard HTTP
workers; a :class:`ShardRouter` fronts them over pooled transports and
is itself served over HTTP.  A :class:`RemoteClient` holding only the
owner's public key and the manifest verifies every answer — and each
answer matches the single-box result: same total distance, identical
path, and intra-shard replies byte-for-byte equal to the worker's own.
"""

from __future__ import annotations

import contextlib
import random

import pytest

from repro.api.client import RemoteClient
from repro.api.transport import HttpTransport, PooledHttpTransport
from repro.core.framework import distances_close
from repro.service.aio import AsyncProofHttpServer
from repro.service.router import ShardRouter
from repro.service.server import ProofServer
from repro.shard import load_manifest, save_manifest
from repro.shortestpath.kernel import indexed_shortest_path
from repro.store.artifact import load_method, save_method


@pytest.fixture(scope="module")
def stack(road300, build3, signer, tmp_path_factory):
    """Disk roundtrip + two HTTP layers, torn down in reverse order."""
    root = tmp_path_factory.mktemp("sharded")
    manifest_path = root / "net.manifest.rspm"
    save_manifest(build3.manifest, manifest_path)
    shard_paths = []
    for shard_id, method in enumerate(build3.methods):
        path = root / f"net.shard{shard_id}.rspv"
        save_method(method, path)
        shard_paths.append(path)

    with contextlib.ExitStack() as resources:
        workers = []
        for path in shard_paths:
            server = ProofServer(load_method(path), cache_size=64)
            workers.append(resources.enter_context(
                AsyncProofHttpServer(server.dispatcher())))
        transports = [
            resources.enter_context(PooledHttpTransport(worker.url))
            for worker in workers
        ]
        manifest = load_manifest(manifest_path)
        router = resources.enter_context(
            ShardRouter(manifest, transports, road300,
                        manifest_bytes=manifest_path.read_bytes()[4:]))
        front = resources.enter_context(AsyncProofHttpServer(router))
        transport = resources.enter_context(HttpTransport(front.url))
        yield {
            "client": RemoteClient(transport, signer.verify),
            "router": router,
            "workers": workers,
            "graph": road300,
            "manifest": manifest,
        }


class TestShardedRoundtrip:
    def test_many_pairs_verify_and_match_single_box(self, stack):
        graph = stack["graph"]
        index = graph.to_index()
        nodes = sorted(graph.node_ids())
        rng = random.Random(2010)
        client = stack["client"]
        cross = intra = 0
        for _ in range(25):
            source, target = rng.sample(nodes, 2)
            result = client.query(source, target)
            assert result.ok, \
                f"({source},{target}): {result.verdict.reason}: " \
                f"{result.verdict.detail}"
            truth = indexed_shortest_path(index, source, target)
            path_nodes, path_cost = result.path
            assert distances_close(path_cost, truth.cost), (source, target)
            assert path_nodes == truth.nodes, (source, target)
            if result.composite:
                cross += 1
            else:
                intra += 1
        assert cross > 0, "workload never crossed a shard"
        assert intra > 0, "workload never stayed inside a shard"

    def test_intra_shard_reply_is_byte_identical_to_worker(self, stack):
        """The router proxies single-shard answers verbatim."""
        manifest = stack["manifest"]
        shard_id = 0
        entry = manifest.entries[shard_id]
        lo, hi = entry.id_ranges[0]
        router_result = stack["client"].query(lo, hi)
        if router_result.composite:
            pytest.skip("optimal route for this pair leaves the shard")
        with HttpTransport(stack["workers"][shard_id].url) as direct:
            worker_result = RemoteClient(
                direct,
                stack["client"].client.verify_signature).query(lo, hi)
        assert router_result.ok and worker_result.ok
        assert router_result.response_bytes == worker_result.response_bytes

    def test_batch_roundtrip(self, stack):
        nodes = sorted(stack["graph"].node_ids())
        rng = random.Random(7)
        pairs = [tuple(rng.sample(nodes, 2)) for _ in range(10)]
        results = stack["client"].query_batch(pairs)
        assert len(results) == 10
        index = stack["graph"].to_index()
        for (source, target), result in zip(pairs, results):
            assert result.ok, result.verdict.reason
            truth = indexed_shortest_path(index, source, target)
            assert distances_close(result.path[1], truth.cost)

    def test_manifest_fetch_over_http(self, stack):
        manifest, raw = stack["client"].fetch_manifest()
        assert manifest == stack["manifest"]
        assert raw == stack["router"].manifest_bytes
