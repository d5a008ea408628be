"""ProofServer integration tests: caching, bursts, concurrency.

Every path asserts the serving-layer invariant: a served response —
fresh, cached, or served inside a burst — verifies against a fresh
client holding only the owner's public key.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api.envelope import (
    BatchQueryReply,
    BatchQueryRequest,
    decode_frame,
    decode_message,
)
from repro.core.dij import DijMethod
from repro.core.full import FullMethod
from repro.core.hyp import HypMethod
from repro.core.ldm import LdmMethod
from repro.core.framework import Client
from repro.crypto.signer import NullSigner
from repro.service.server import (
    ProofRequest,
    ProofServer,
    ServedResponse,
    UpdateRequest,
)


def fresh_client(signer):
    return Client(signer.verify)


class TestSingleQueryPath:
    def test_miss_then_hit(self, dij, signer, workload):
        server = ProofServer(dij)
        vs, vt = workload[0]
        first = server.answer(vs, vt)
        second = server.answer(vs, vt)
        assert not first.cached
        assert second.cached
        assert second.response is first.response
        assert server.cache.stats.hits == 1
        assert server.cache.stats.misses == 1

    def test_cached_response_verifies(self, dij, signer, workload):
        server = ProofServer(dij)
        client = fresh_client(signer)
        for vs, vt in workload:
            server.answer(vs, vt)
        for vs, vt in workload:  # all cache hits now
            served = server.answer(vs, vt)
            assert served.cached
            assert client.verify(vs, vt, served.response).ok

    def test_proof_bytes_is_wire_size(self, dij, workload):
        server = ProofServer(dij)
        vs, vt = workload[0]
        served = server.answer(vs, vt)
        assert served.proof_bytes == len(served.response.encode())

    def test_handle_request(self, dij, workload):
        server = ProofServer(dij)
        vs, vt = workload[0]
        served = server.handle(ProofRequest(vs, vt))
        assert isinstance(served, ServedResponse)
        assert served.response.source == vs
        assert served.response.target == vt

    def test_metrics_track_requests(self, dij, workload):
        server = ProofServer(dij)
        vs, vt = workload[0]
        server.answer(vs, vt)
        server.answer(vs, vt)
        snap = server.snapshot()
        assert snap.requests == 2
        assert snap.cache_hits == 1
        assert snap.proof_bytes == 2 * server.answer(vs, vt).proof_bytes
        assert snap.p50_ms <= snap.p95_ms


class TestBursts:
    def test_batch_responses_all_verify(self, dij, signer, workload):
        server = ProofServer(dij)
        client = fresh_client(signer)
        served = server.answer_many(workload, )
        assert len(served) == len(workload)
        for (vs, vt), item in zip(workload, served):
            assert not item.cached
            assert client.verify(vs, vt, item.response).ok

    def test_second_burst_is_all_hits(self, dij, workload):
        server = ProofServer(dij)
        server.answer_many(workload)
        served = server.answer_many(workload)
        assert all(item.cached for item in served)

    def test_burst_entries_serve_single_queries(self, dij, signer, workload):
        """A proof cached by the batch path is replayed for a solo query."""
        server = ProofServer(dij)
        server.answer_many(workload)
        vs, vt = workload[0]
        served = server.answer(vs, vt)
        assert served.cached
        assert fresh_client(signer).verify(vs, vt, served.response).ok

    def test_single_miss_skips_batch_path(self, dij, workload):
        server = ProofServer(dij)
        vs, vt = workload[0]
        served = server.answer_many([(vs, vt)])
        assert len(served) == 1
        assert not served[0].cached

    def test_full_burst_verifies(self, full, signer, workload):
        server = ProofServer(full)
        client = fresh_client(signer)
        served = server.answer_many(workload, )
        for (vs, vt), item in zip(workload, served):
            assert client.verify(vs, vt, item.response).ok

    @pytest.mark.parametrize("name", ["dij", "ldm"])
    def test_cold_burst_meters_what_ships(self, request, workload, name):
        """A burst bills each miss its own encoding, as single queries do."""
        server = ProofServer(request.getfixturevalue(name))
        queries = list(dict.fromkeys(workload))[:4]
        served = server.answer_many(queries)
        assert len(served) >= 2 and not any(item.cached for item in served)
        assert server.snapshot().proof_bytes == \
            sum(len(item.encoded) for item in served)

    def test_duplicate_queries_computed_once(self, dij, workload):
        server = ProofServer(dij)
        vs, vt = workload[0]
        (s1, t1) = workload[1]
        served = server.answer_many([(vs, vt), (s1, t1), (vs, vt)])
        assert len(served) == 3
        assert served[0].response is served[2].response
        assert not served[0].cached
        assert served[2].cached  # the repeat replays the just-cached entry
        assert server.snapshot().requests == 3  # every request is metered


def answer_on_threads(server, queries, workers=4):
    """``server.answer`` for every query, called from a thread pool."""
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda q: server.answer(*q), queries))


class TestConcurrency:
    def test_concurrent_answers_verify(self, dij, signer, workload):
        server = ProofServer(dij)
        client = fresh_client(signer)
        served = answer_on_threads(server, workload)
        assert len(served) == len(workload)
        for (vs, vt), item in zip(workload, served):
            assert item.response.source == vs
            assert item.response.target == vt
            assert client.verify(vs, vt, item.response).ok

    def test_warm_concurrent_pass_hits_cache(self, dij, workload):
        server = ProofServer(dij)
        answer_on_threads(server, workload)
        served = answer_on_threads(server, workload)
        assert all(item.cached for item in served)


class TestErrorResponses:
    """Per-query failures are error envelopes, not stream-killers."""

    def test_unknown_node_yields_error_response(self, dij):
        server = ProofServer(dij)
        served = server.answer(999_999, 3)
        assert not served.ok
        assert served.response is None
        assert "999999" in served.error
        assert server.snapshot().requests == 1

    def test_errors_are_not_cached(self, dij):
        server = ProofServer(dij)
        server.answer(999_999, 3)
        assert len(server.cache) == 0

    def test_burst_survives_one_bad_query(self, dij, signer, workload):
        server = ProofServer(dij)
        client = fresh_client(signer)
        queries = [workload[0], (999_999, 3), workload[1]]
        served = server.answer_many(queries, )
        assert len(served) == 3
        assert served[0].ok and served[2].ok
        assert not served[1].ok
        for (vs, vt), item in zip(queries, served):
            if item.ok:
                assert client.verify(vs, vt, item.response).ok

    def test_concurrent_stream_survives_one_bad_query(self, dij, workload):
        server = ProofServer(dij)
        queries = [workload[0], (999_999, 3), workload[1]]
        served = answer_on_threads(server, queries, workers=3)
        assert len(served) == 3
        assert [item.ok for item in served] == [True, False, True]

    def test_repeated_failed_query_is_metered_per_request(self, dij, workload):
        server = ProofServer(dij)
        queries = [(999_999, 3), workload[0], (999_999, 3)]
        served = server.answer_many(queries, )
        assert [item.ok for item in served] == [False, True, False]
        assert server.snapshot().requests == 3


class TestInvalidation:
    def test_graph_mutation_invalidates_and_reverifies(self, road300):
        """An owner edge update drops the cache; fresh proofs verify."""
        signer = NullSigner()
        graph = road300.copy()
        method = DijMethod.build(graph, signer)
        server = ProofServer(method)
        client = fresh_client(signer)

        u, w = sorted(graph.neighbors(graph.node_ids()[0]).items())[0]
        vs = graph.node_ids()[5]
        vt = graph.node_ids()[-5]
        first = server.answer(vs, vt)
        assert server.answer(vs, vt).cached

        method.update_edge_weight(graph.node_ids()[0], u, w * 2, signer)
        served = server.answer(vs, vt)
        assert not served.cached  # version bump dropped the entry
        assert server.cache.stats.invalidations == 1
        assert client.verify(vs, vt, served.response).ok
        # The pre-update response carries the superseded descriptor root.
        assert first.response.descriptor.encode() != served.response.descriptor.encode()


class TestOneBurstOneVersion:
    """A push queued mid-burst lands after the whole burst, every method."""

    BUILDERS = {
        "DIJ": lambda graph, signer: DijMethod.build(graph, signer),
        "FULL": lambda graph, signer: FullMethod.build(graph, signer),
        "LDM": lambda graph, signer: LdmMethod.build(graph, signer, c=20),
        "HYP": lambda graph, signer: HypMethod.build(graph, signer,
                                                    num_cells=16),
    }

    def racing_server(self, road300, name):
        """A server whose first proof queues a writer on the update gate.

        The wrapped ``answer`` starts ``apply_updates`` on a thread and
        returns only once that writer waits on the gate, so any query
        that re-acquires the gate after the first one sees the push.
        """
        signer = NullSigner()
        graph = road300.copy()
        method = self.BUILDERS[name](graph, signer)
        server = ProofServer(method)
        u, v, w = next(iter(graph.edges()))
        push = UpdateRequest("update-weight", u, v, w * 2)
        writers = []
        answer = method.answer

        def answer_then_queue_writer(source, target):
            response = answer(source, target)
            if not writers:
                writer = threading.Thread(target=server.apply_updates,
                                          args=([push], signer))
                writers.append(writer)
                writer.start()
                deadline = time.monotonic() + 10
                while not server._update_gate._writers_waiting:
                    assert time.monotonic() < deadline, "writer never queued"
                    time.sleep(0.001)
            return response

        method.answer = answer_then_queue_writer
        return server, writers

    def finish(self, server, writers, base_version):
        (writer,) = writers
        writer.join(timeout=30)
        assert not writer.is_alive()
        assert server.descriptor_version > base_version

    @pytest.mark.parametrize("name", ["DIJ", "FULL", "LDM", "HYP"])
    def test_burst_responses_share_one_version(self, road300, workload,
                                               name):
        server, writers = self.racing_server(road300, name)
        base = server.descriptor_version
        served = server.answer_many(workload[:4])
        self.finish(server, writers, base)
        versions = {item.response.descriptor.version
                    for item in served if item.ok}
        assert versions == {base}

    @pytest.mark.parametrize("name", ["DIJ", "FULL", "LDM", "HYP"])
    def test_dispatcher_ships_the_shared_layout(self, road300, workload,
                                                name):
        server, writers = self.racing_server(road300, name)
        base = server.descriptor_version
        request = BatchQueryRequest(tuple(workload[:4]), multiproof=True)
        reply = decode_message(decode_frame(
            server.dispatcher().dispatch(request.to_frame())))
        self.finish(server, writers, base)
        assert isinstance(reply, BatchQueryReply)
        assert reply.shared
        assert all(item.response_bytes == b"" for item in reply.items)
