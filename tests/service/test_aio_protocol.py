"""What a buffered parser and loop-side cache hits can newly get wrong.

``test_aio.py`` is the frontend's contract; this file aims at the two
mechanisms behind it.  The **parser** keeps bytes in a buffer and parses
a request once it is complete, so the cuts between ``recv`` calls must
not matter: one request split at every offset, sent a byte at a time, or
glued to its neighbours gives the same replies in the same order.  The
**fast path** answers cache hits on the event loop, so it must neither
wait for the update gate (the loop would stall for every peer), nor
replay a pre-update proof, nor count a request twice, nor ship bytes
other than ``response.encode()``; and a peer that never reads its
replies must stall only itself.  Pacing sleeps below only separate two
writes into two segments — nothing asserts on elapsed time.
"""

from __future__ import annotations

import socket
import time

import pytest

from repro.api.envelope import (
    HelloReply,
    HelloRequest,
    QueryReply,
    QueryRequest,
    UpdatePushRequest,
    WireUpdate,
    decode_frame,
    decode_message,
)
from repro.core.dij import DijMethod
from repro.core.proofs import QueryResponse
from repro.service.aio import AsyncProofHttpServer
from repro.service.server import ProofServer, UpdateRequest
from repro.workload.queries import generate_workload
from repro.workload.updates import UPDATE_WEIGHT, generate_update_workload
from tests.service.test_aio import ResponseReader, connect, http_post, serve

SEGMENT_GAP_S = 0.002


def rpc(sock: socket.socket, reader: ResponseReader, frame: bytes) -> bytes:
    sock.sendall(http_post(frame))
    return reader.response()[1]


# ----------------------------------------------------------------------
# (a) the cuts between segments do not matter
# ----------------------------------------------------------------------
class TestSegmentation:
    def test_one_request_cut_at_every_offset(self, dij, workload):
        request = http_post(QueryRequest(*workload[0]).to_frame())
        with serve(dij) as server, connect(server) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            reader = ResponseReader(sock)
            sock.sendall(request)
            reader.response()                      # the miss fills the cache
            sock.sendall(request)
            expected = reader.response()[1]        # every later reply: a hit
            # The default keep-alive budget would close mid-sweep.
            assert len(request) < server.max_keepalive_requests - 3
            for cut in range(1, len(request)):
                sock.sendall(request[:cut])
                time.sleep(SEGMENT_GAP_S)
                sock.sendall(request[cut:])
                assert reader.response()[1] == expected, cut
            for offset in range(len(request)):     # one byte per segment
                sock.sendall(request[offset:offset + 1])
                time.sleep(SEGMENT_GAP_S / 4)
            assert reader.response()[1] == expected

    @pytest.mark.parametrize("count", [2, 3])
    @pytest.mark.parametrize("between", [b"", b"\r\n", b"\r\n\r\n\n"])
    def test_glued_requests_answered_in_order(self, dij, workload, count,
                                              between):
        frames = [QueryRequest(*pair).to_frame() for pair in workload[:count]]
        with serve(dij) as server, connect(server) as sock:
            reader = ResponseReader(sock)
            for frame in frames:                   # fill the cache
                rpc(sock, reader, frame)
            expected = [rpc(sock, reader, frame) for frame in frames]
            assert len(set(expected)) == count
            sock.sendall(between.join(http_post(frame) for frame in frames))
            assert [reader.response()[1] for _ in frames] == expected
            # A mix of loop-side replies and executor replies keeps order
            # too: HELLO is ready at once, the uncached query is not.
            cold = QueryRequest(*workload[-1]).to_frame()
            sock.sendall(http_post(cold) + between
                         + http_post(HelloRequest().to_frame()))
            first = decode_message(decode_frame(reader.response()[1]))
            second = decode_message(decode_frame(reader.response()[1]))
            assert isinstance(first, QueryReply) and not first.cached
            assert isinstance(second, HelloReply)


# ----------------------------------------------------------------------
# (b) a held update gate blocks the asking peer, never the loop
# ----------------------------------------------------------------------
def test_held_gate_never_blocks_the_loop_nor_replays_a_stale_proof(
        road300, signer, workload):
    graph = road300.copy()
    method = DijMethod.build(graph, signer)
    proofs = ProofServer(method, cache_size=64)
    update = list(generate_update_workload(
        graph, 1, seed=5, kinds=(UPDATE_WEIGHT,)))[0]
    query = QueryRequest(*workload[0]).to_frame()
    with AsyncProofHttpServer(proofs.dispatcher()) as server, \
            connect(server) as peer_a, connect(server) as peer_b:
        reader_a, reader_b = ResponseReader(peer_a), ResponseReader(peer_b)
        rpc(peer_a, reader_a, query)
        before = decode_message(decode_frame(rpc(peer_a, reader_a, query)))
        assert before.cached
        old_version = method.descriptor.version

        # The test is the update: it holds the write side exactly as
        # ``apply_updates`` does, for as long as it likes.
        proofs._update_gate.acquire_write()
        try:
            peer_a.sendall(http_post(query))       # cached — but gated
            for _ in range(3):                     # the loop is still alive
                hello = decode_message(decode_frame(
                    rpc(peer_b, reader_b, HelloRequest().to_frame())))
                assert hello.descriptor_version == old_version
            peer_a.settimeout(0.2)
            with pytest.raises(socket.timeout):
                peer_a.recv(1)                     # A has not been answered
            peer_a.settimeout(10.0)
            update.apply(graph)
            method.apply_update(signer)
        finally:
            proofs._update_gate.release_write()
        after = decode_message(decode_frame(reader_a.response()[1]))
    assert method.descriptor.version > old_version
    assert not after.cached
    assert after.response_bytes != before.response_bytes
    assert QueryResponse.decode(after.response_bytes).descriptor.version \
        == method.descriptor.version


# ----------------------------------------------------------------------
# (c) every request is counted once, wherever it was answered
# ----------------------------------------------------------------------
def test_counters_match_the_in_process_server(road300, signer, workload):
    # Repeats (hits), more distinct pairs than the cache holds
    # (evictions), and one push in the middle (an invalidation).
    a, b, c, d = workload[:4]
    sequence = [a, a, b, c, a, d, b, b, "push", a, a, c, d, d, b, a]
    wire, local = (ProofServer(DijMethod.build(road300.copy(), signer),
                               cache_size=3) for _ in range(2))
    update = list(generate_update_workload(
        road300.copy(), 1, seed=9, kinds=(UPDATE_WEIGHT,)))[0]
    push = UpdatePushRequest(
        (WireUpdate(update.kind, update.u, update.v, update.weight),)
    ).to_frame()

    for step in sequence:
        if step == "push":
            local.apply_updates(
                [UpdateRequest(update.kind, update.u, update.v, update.weight)],
                signer)
        else:
            assert local.answer(*step).ok
    with AsyncProofHttpServer(wire.dispatcher(update_signer=signer)) as http, \
            connect(http) as sock:
        reader = ResponseReader(sock)
        for step in sequence:
            rpc(sock, reader, push if step == "push"
                else QueryRequest(*step).to_frame())

    assert wire.cache.stats == local.cache.stats
    assert local.cache.stats.evictions and local.cache.stats.invalidations
    assert local.cache.stats.hits and local.cache.stats.misses
    wire_window, local_window = wire.snapshot(), local.snapshot()
    assert wire_window.requests == local_window.requests == len(sequence) - 1
    assert wire_window.cache_hits == local_window.cache_hits
    assert wire_window.cache_misses == local_window.cache_misses
    assert wire_window.proof_bytes == local_window.proof_bytes


def test_probes_racing_updates_lose_no_count_and_serve_nothing_stale(
        road300, signer, workload):
    """More threads than cores through ``dispatch`` — the loop-side
    probe, then the counting path — while an owner pushes updates."""
    import sys
    from concurrent.futures import ThreadPoolExecutor

    graph = road300.copy()
    method = DijMethod.build(graph, signer)
    proofs = ProofServer(method, cache_size=4)
    dispatcher = proofs.dispatcher(update_signer=signer)
    updates = list(generate_update_workload(
        graph, 6, seed=3, kinds=(UPDATE_WEIGHT,)))
    rounds, threads = 60, 6

    def reader(offset: int) -> int:
        for step in range(rounds):
            pair = workload[(offset + step) % len(workload)]
            floor = method.descriptor.version   # signed before we asked
            reply = decode_message(decode_frame(
                dispatcher.dispatch(QueryRequest(*pair).to_frame())))
            served = QueryResponse.decode(reply.response_bytes)
            assert served.descriptor.version >= floor, "a stale replay"
        return rounds

    def owner() -> None:
        for update in updates:
            proofs.apply_updates(
                [UpdateRequest(update.kind, update.u, update.v, update.weight)],
                signer)
            time.sleep(0.01)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=threads + 1) as pool:
            pushing = pool.submit(owner)
            asked = sum(pool.map(reader, range(threads), timeout=120))
            pushing.result(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    stats, window = proofs.cache.stats, proofs.snapshot()
    assert asked == threads * rounds == window.requests == stats.lookups
    assert (window.cache_hits, window.cache_misses) == (stats.hits, stats.misses)
    assert window.updates == len(updates)


# ----------------------------------------------------------------------
# (d) a peer that never reads stalls only itself
# ----------------------------------------------------------------------
def test_unread_pipeline_is_bounded_and_starves_nobody(road300, dij):
    pairs = list(generate_workload(road300, 4000.0, count=8, seed=77))
    frames = [QueryRequest(*pairs[i % len(pairs)]).to_frame()
              for i in range(200)]
    server = serve(dij)
    # Small kernel buffers on both ends, so the unread replies back up
    # into the transport's own write buffer instead of the kernel's.
    server._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    greedy = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    greedy.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    with server, greedy, connect(server) as polite:
        greedy.settimeout(30.0)
        greedy.connect((server.host, server.port))
        reader = ResponseReader(polite)
        largest = max(len(rpc(polite, reader, frame))
                      for frame in frames[:len(pairs)]) + 256  # + HTTP head
        greedy.sendall(b"".join(http_post(frame) for frame in frames))

        deepest = 0
        for frame in frames[:40]:                  # the second peer is served
            reply = decode_message(decode_frame(rpc(polite, reader, frame)))
            assert isinstance(reply, QueryReply)
            deepest = max([deepest] + [
                conn.transport.get_write_buffer_size()
                for conn in list(server._connections)])
        high_water = 64 * 1024                     # asyncio's default
        assert 0 < deepest <= high_water + largest

        # Once the peer does read, every reply arrives, in request order.
        greedy_reader = ResponseReader(greedy)
        for index, frame in enumerate(frames):
            reply = decode_message(decode_frame(greedy_reader.response()[1]))
            response = QueryResponse.decode(reply.response_bytes)
            assert (response.source, response.target) == \
                pairs[index % len(pairs)], index


# ----------------------------------------------------------------------
# (e) the bytes shipped are response.encode(), made once
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fixture", ["dij", "full", "ldm", "hyp"])
def test_shipped_bytes_equal_the_response_encoding(fixture, request, workload):
    method = request.getfixturevalue(fixture)
    dispatcher = ProofServer(method, cache_size=8).dispatcher()
    reference = ProofServer(method, cache_size=8)
    for vs, vt in workload[:3]:
        frame = QueryRequest(vs, vt).to_frame()
        replies = [decode_message(decode_frame(dispatcher.dispatch(frame)))
                   for _ in range(3)]             # miss, first hit, second hit
        assert [reply.cached for reply in replies] == [False, True, True]
        for served in (reference.answer(vs, vt), reference.answer(vs, vt)):
            expected = served.response.encode()
            assert served.encoded == expected
            assert [reply.response_bytes for reply in replies] == [expected] * 3
