"""ShardRouter: routing, stitching, fault surfacing, fleet metrics."""

from __future__ import annotations

import pytest

from repro.api import codes
from repro.api.client import RemoteClient
from repro.api.envelope import (
    DescriptorRequest,
    ErrorMessage,
    QueryRequest,
    UpdatePushRequest,
    WireUpdate,
    decode_frame,
    decode_message,
)
from repro.api.transport import InProcessTransport
from repro.core.framework import distances_close
from repro.crypto.signer import NullSigner
from repro.service.router import ShardRouter
from repro.service.server import ProofServer
from repro.shard import build_shards
from repro.shortestpath.kernel import indexed_shortest_path


@pytest.fixture(scope="module")
def fleet(road300):
    """A 3-shard build, its workers, and a live router over them."""
    signer = NullSigner()
    build = build_shards(road300, signer, num_shards=3)
    servers = [ProofServer(m, cache_size=64) for m in build.methods]
    transports = [InProcessTransport(s.dispatcher()) for s in servers]
    with ShardRouter(build.manifest, transports, road300) as router:
        yield {
            "signer": signer,
            "build": build,
            "graph": road300,
            "servers": servers,
            "router": router,
            "client": RemoteClient(InProcessTransport(router),
                                   signer.verify),
        }


def _pairs(fleet_dict):
    """One intra-shard and one cross-shard pair from the router's plan."""
    router = fleet_dict["router"]
    graph = fleet_dict["graph"]
    nodes = sorted(graph.node_ids())
    intra = cross = None
    for source in nodes[:40]:
        for target in nodes[-40:]:
            if source == target:
                continue
            plan = router._plan(source, target)
            if len(plan) == 1 and intra is None:
                intra = (source, target)
            elif len(plan) > 1 and cross is None:
                cross = (source, target)
            if intra and cross:
                return intra, cross
    raise AssertionError("could not find both pair shapes")


class TestHandshake:
    def test_hello_reports_manifest_identity(self, fleet):
        hello = fleet["client"].hello()
        assert hello.method == "DIJ"
        assert hello.descriptor_version == fleet["build"].manifest.version

    def test_fetch_manifest_is_verbatim(self, fleet):
        manifest, raw = fleet["client"].fetch_manifest()
        assert manifest == fleet["build"].manifest
        assert raw == fleet["router"].manifest_bytes


class TestRouting:
    def test_intra_shard_is_proxied_not_composite(self, fleet):
        intra, _ = _pairs(fleet)
        result = fleet["client"].query(*intra)
        assert result.ok, result.verdict.reason
        assert not result.composite
        assert result.response is not None

    def test_cross_shard_is_stitched_and_optimal(self, fleet):
        _, cross = _pairs(fleet)
        result = fleet["client"].query(*cross)
        assert result.ok, f"{result.verdict.reason}: {result.verdict.detail}"
        assert result.composite
        composite = result.composite_response
        truth = indexed_shortest_path(fleet["graph"].to_index(), *cross)
        assert distances_close(composite.path_cost, truth.cost)
        assert composite.path_nodes == truth.nodes
        assert result.path == (truth.nodes, composite.path_cost)

    def test_batch_mixes_proxied_and_composite(self, fleet):
        intra, cross = _pairs(fleet)
        results = fleet["client"].query_batch([intra, cross, intra])
        assert [r.ok for r in results] == [True, True, True]
        assert [r.composite for r in results] == [False, True, False]

    def test_route_cache_marks_warm_plan(self, fleet):
        _, cross = _pairs(fleet)
        first = fleet["client"].query(*cross)
        second = fleet["client"].query(*cross)
        assert first.ok and second.ok
        # Warm pass: every shard answered from its proof cache, so the
        # composite reply is flagged cached.
        assert second.cached


class TestFramedErrors:
    def _ask(self, fleet_dict, message):
        reply_frame = fleet_dict["router"].dispatch(message.to_frame())
        return decode_message(decode_frame(reply_frame))

    def test_descriptor_request_is_refused(self, fleet):
        reply = self._ask(fleet, DescriptorRequest())
        assert isinstance(reply, ErrorMessage)
        assert reply.code == codes.E_BAD_REQUEST
        assert "manifest" in reply.detail

    def test_updates_are_refused(self, fleet):
        push = UpdatePushRequest((WireUpdate("update-weight", 3, 9, 17.25),))
        reply = self._ask(fleet, push)
        assert isinstance(reply, ErrorMessage)
        assert reply.code == codes.E_UPDATES_DISABLED

    def test_nonsense_frame(self, fleet):
        reply_frame = fleet["router"].dispatch(b"nonsense")
        reply = decode_message(decode_frame(reply_frame))
        assert isinstance(reply, ErrorMessage)
        assert reply.code == codes.E_MALFORMED_FRAME

    def test_unknown_node_is_query_failed(self, fleet):
        reply = self._ask(fleet, QueryRequest(10 ** 9, 0))
        assert isinstance(reply, ErrorMessage)
        assert reply.code == codes.E_QUERY_FAILED

    def test_error_code_follows_the_type_not_the_wording(self, fleet,
                                                         monkeypatch):
        from repro.errors import ProtocolError, UnknownMessageError
        from repro.service import router as module

        for raised, code in (
                (UnknownMessageError("never heard of it"),
                 codes.E_UNKNOWN_MESSAGE),
                (ProtocolError("payload mentions unknown message type"),
                 codes.E_MALFORMED_FRAME)):
            def refuse(frame, raised=raised):
                raise raised

            monkeypatch.setattr(module, "decode_message", refuse)
            assert self._ask(fleet, QueryRequest(1, 2)).code == code


class DeadTransport:
    def roundtrip(self, frame: bytes) -> bytes:
        raise OSError("connection refused")


class TestShardFaults:
    def test_dead_worker_surfaces_as_unavailable(self, road300):
        signer = NullSigner()
        build = build_shards(road300, signer, num_shards=2)
        live = ProofServer(build.methods[0], cache_size=16)
        transports = [InProcessTransport(live.dispatcher()), DeadTransport()]
        with ShardRouter(build.manifest, transports, road300) as router:
            # A pair owned entirely by the dead shard.
            members = build.plan.members[1]
            frame = QueryRequest(members[0], members[-1]).to_frame()
            reply = decode_message(decode_frame(router.dispatch(frame)))
        assert isinstance(reply, ErrorMessage)
        assert reply.code == codes.E_SHARD_UNAVAILABLE

    def test_transport_count_must_match_manifest(self, road300):
        signer = NullSigner()
        build = build_shards(road300, signer, num_shards=2)
        from repro.errors import ServiceError
        with pytest.raises(ServiceError, match="2 shards"):
            ShardRouter(build.manifest, [DeadTransport()], road300)


class TestFleetMetrics:
    def test_metrics_json_has_shard_labels_and_fleet_merge(self, fleet):
        intra, cross = _pairs(fleet)
        fleet["client"].query(*intra)
        fleet["client"].query(*cross)
        record = fleet["router"].metrics_json()
        assert record["requests"] >= 2
        labels = [s["phase"] for s in record["shards"] if s is not None]
        assert labels == ["shard0", "shard1", "shard2"]
        fleet_total = record["fleet"]["requests"]
        assert fleet_total == sum(s["requests"] for s in record["shards"]
                                  if s is not None)
        assert "phases" in record

    def test_dead_worker_scrapes_as_null(self, road300):
        signer = NullSigner()
        build = build_shards(road300, signer, num_shards=2)
        live = ProofServer(build.methods[0], cache_size=16)
        transports = [InProcessTransport(live.dispatcher()), DeadTransport()]
        with ShardRouter(build.manifest, transports, road300) as router:
            snapshots = router.shard_snapshots()
            record = router.metrics_json()
        assert snapshots[1] is None
        assert record["shards"][1] is None
        assert record["fleet"]["requests"] == snapshots[0].requests
