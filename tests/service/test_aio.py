"""The HTTP frontend, end to end and under hostile peers.

Every test boots an :class:`AsyncProofHttpServer` on an ephemeral
localhost port.  Three obligations anchor the battery.  First, the
**wire contract**: all four methods served through
:class:`RemoteClient` + :class:`HttpTransport` — frames over POST,
strict decoding, bytes-only verification against the owner's key — and
reply bytes equal to what the dispatcher returns in process (the
frontend is a pure transport).  Second, the **long-lived-connection
defences**: a connection is not request-scoped, so a peer that stalls
mid-body (slow-loris), under-delivers a promised body, sends garbage or
simply never hangs up must be answered with a typed frame and/or
dropped — ``E_REQUEST_TIMEOUT``, ``E_MALFORMED_FRAME``, shedding with
``Connection: close``, the keep-alive request budget.  Third, the
**lifecycle**: connectable URLs for wildcard/IPv6 binds, typed bind
failures, and a ``close()`` that drains in-flight replies but never
waits on idle peers.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
import urllib.request

import pytest

from repro.api import codes
from repro.api.client import RemoteClient
from repro.api.envelope import (
    BatchQueryRequest,
    ErrorMessage,
    HelloRequest,
    QueryReply,
    QueryRequest,
    UpdatePushRequest,
    UpdateReply,
    WireUpdate,
    decode_frame,
    decode_message,
)
from repro.api.transport import AsyncTransport, HttpTransport, InProcessTransport
from repro.core.dij import DijMethod
from repro.errors import ProtocolError, ServiceError
from repro.service.aio import (
    _MAX_HEADER_BYTES,
    MAX_REQUEST_BYTES,
    AsyncProofHttpServer,
    connectable_host,
    format_netloc,
)
from repro.service.server import ProofServer
from repro.workload.updates import UPDATE_WEIGHT, generate_update_workload


@pytest.fixture()
def dispatcher(dij):
    return ProofServer(dij, cache_size=64).dispatcher()


def serve(method, *, update_signer=None):
    """Context-managed HTTP server over a fresh ProofServer."""
    server = ProofServer(method, cache_size=64)
    return AsyncProofHttpServer(server.dispatcher(update_signer=update_signer))


def connect(server) -> socket.socket:
    return socket.create_connection((server.host, server.port), timeout=10.0)


def http_post(frame: bytes, *, content_length: "int | None" = None) -> bytes:
    """One POST /rpc request as raw bytes (the length may be a lie)."""
    length = len(frame) if content_length is None else content_length
    return (b"POST /rpc HTTP/1.1\r\nHost: test\r\n"
            b"Content-Type: application/octet-stream\r\n"
            + f"Content-Length: {length}\r\n\r\n".encode() + frame)


class ResponseReader:
    """Reads HTTP responses off a raw socket, one at a time.

    Bytes received past the end of one response — the start of the next
    pipelined reply — stay buffered for the next call.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._buffer = b""

    def _fill(self) -> bool:
        chunk = self._sock.recv(65536)
        self._buffer += chunk
        return bool(chunk)

    def response(self) -> "tuple[dict, bytes]":
        """The next response: (lowercased headers + ``_status``, body)."""
        while b"\r\n\r\n" not in self._buffer:
            if not self._fill():
                raise ConnectionError("peer closed before headers completed")
        head, self._buffer = self._buffer.split(b"\r\n\r\n", 1)
        lines = head.split(b"\r\n")
        headers = {"_status": lines[0].decode("latin-1")}
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            headers[name.strip().decode().lower()] = value.strip().decode()
        length = int(headers["content-length"])
        while len(self._buffer) < length:
            if not self._fill():
                raise ConnectionError("peer closed mid-body")
        body, self._buffer = self._buffer[:length], self._buffer[length:]
        return headers, body

    def at_eof(self) -> bool:
        """Whether the peer has closed with nothing left unread."""
        return not self._buffer and not self._fill()


def error_code_of(body: bytes) -> str:
    """The wire error code carried by a reply body."""
    message = decode_message(decode_frame(body))
    assert isinstance(message, ErrorMessage)
    return message.code


# ----------------------------------------------------------------------
# The wire contract
# ----------------------------------------------------------------------
class TestAllMethodsOverHttp:
    @pytest.mark.parametrize("fixture", ["dij", "full", "ldm", "hyp"])
    def test_remote_client_verifies_byte_identical_payloads(
            self, fixture, request, signer, workload):
        method = request.getfixturevalue(fixture)
        with serve(method) as http_server:
            client = RemoteClient(HttpTransport(http_server.url),
                                  signer.verify)
            hello = client.hello()
            assert hello.method == method.name
            descriptor, raw = client.fetch_descriptor()
            assert raw == method.descriptor.encode()
            for vs, vt in workload[:4]:
                result = client.query(vs, vt)
                assert result.ok, (method.name, result.verdict.reason,
                                   result.verdict.detail)
                # The acceptance bar: wire payloads byte-identical to
                # the in-process provider's output.
                assert result.response_bytes == method.answer(vs, vt).encode()

    @pytest.mark.parametrize("fixture", ["dij", "ldm"])
    def test_batch_over_http(self, fixture, request, signer, workload):
        method = request.getfixturevalue(fixture)
        with serve(method) as http_server:
            client = RemoteClient(HttpTransport(http_server.url),
                                  signer.verify)
            results = client.query_batch(workload[:4])
            for (vs, vt), result in zip(workload[:4], results):
                alone = client.query(vs, vt)
                assert (result.ok, result.path) == (alone.ok, alone.path)
            assert all(result.ok for result in results)

    def test_wire_replies_equal_in_process_replies(
            self, dij, full, ldm, hyp, workload):
        """Same frames, fresh caches → the frontend adds and drops nothing."""
        frames = [HelloRequest().to_frame()]
        frames += [QueryRequest(vs, vt).to_frame() for vs, vt in workload[:4]]
        frames += [QueryRequest(*workload[0]).to_frame()]  # a cached repeat
        for method in (dij, full, ldm, hyp):
            local = InProcessTransport(
                ProofServer(method, cache_size=64).dispatcher())
            expected = [local.roundtrip(frame) for frame in frames]
            with serve(method) as server, connect(server) as sock:
                reader = ResponseReader(sock)
                wire = []
                for frame in frames:
                    sock.sendall(http_post(frame))
                    wire.append(reader.response()[1])
            assert wire == expected, method.name

    def test_pipelined_requests_one_write(self, dispatcher, workload):
        """Two requests in one segment come back as two in-order replies."""
        first = QueryRequest(*workload[0]).to_frame()
        second = QueryRequest(*workload[1]).to_frame()
        with AsyncProofHttpServer(dispatcher) as server, \
                connect(server) as sock:
            reader = ResponseReader(sock)
            sock.sendall(http_post(first) + http_post(second))
            _h1, body1 = reader.response()
            _h2, body2 = reader.response()
        assert decode_frame(body1).msg_type == decode_frame(body2).msg_type
        # In-order: each reply must answer its own query's frame.
        one = decode_message(decode_frame(body1))
        two = decode_message(decode_frame(body2))
        assert one.response_bytes != two.response_bytes


class TestHttpEndpoints:
    def test_healthz_and_unknown_paths(self, dij):
        with serve(dij) as http_server:
            with urllib.request.urlopen(f"{http_server.url}/healthz") as reply:
                assert reply.read() == b"ok"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{http_server.url}/nope")
            assert excinfo.value.code == 404

    def test_metrics_endpoint_serves_json(self, dij, signer, workload):
        import json

        with serve(dij) as http_server:
            client = RemoteClient(HttpTransport(http_server.url),
                                  signer.verify)
            for vs, vt in workload[:2]:
                assert client.query(vs, vt).ok
            assert client.query(*workload[0]).cached
            with urllib.request.urlopen(f"{http_server.url}/metrics") as reply:
                assert reply.status == 200
                assert reply.headers["Content-Type"] == "application/json"
                record = json.loads(reply.read())
        assert record["requests"] == 3
        assert record["cache_hits"] == 1
        assert record["cache_entries"] == 2
        assert record["cache_capacity"] > 0
        # The HTTP snapshot and the wire METRICS frame are the same view.
        assert set(record) >= {"cache_evictions", "cache_invalidations",
                               "qps", "hit_rate"}

    def test_metrics_wire_frame_carries_cache_counters(self, dij, signer,
                                                       workload):
        with serve(dij) as http_server:
            client = RemoteClient(HttpTransport(http_server.url),
                                  signer.verify)
            assert client.query(*workload[0]).ok
            reply = client.metrics()
        assert reply.requests == 1
        assert reply.cache_entries == 1
        assert reply.cache_capacity > 0
        assert reply.cache_evictions == 0

    def test_post_to_wrong_path_is_404(self, dij):
        with serve(dij) as http_server:
            request = urllib.request.Request(
                f"{http_server.url}/other", data=b"x", method="POST")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 404

    def test_unknown_verb_is_501(self, dispatcher):
        with AsyncProofHttpServer(dispatcher) as server, \
                connect(server) as sock:
            sock.sendall(b"PUT /rpc HTTP/1.1\r\nHost: t\r\n"
                         b"Content-Length: 0\r\n\r\n")
            headers, _body = ResponseReader(sock).response()
        assert "501" in headers["_status"]

    def test_oversized_body_rejected_413(self, dispatcher):
        with AsyncProofHttpServer(dispatcher) as server, \
                connect(server) as sock:
            sock.sendall(http_post(b"", content_length=MAX_REQUEST_BYTES + 1))
            headers, _body = ResponseReader(sock).response()
        assert "413" in headers["_status"]

    def test_missing_length_rejected_411(self, dispatcher):
        with AsyncProofHttpServer(dispatcher) as server, \
                connect(server) as sock:
            sock.sendall(b"POST /rpc HTTP/1.1\r\nHost: t\r\n\r\n")
            headers, _body = ResponseReader(sock).response()
        assert "411" in headers["_status"]

    def test_garbage_body_yields_error_frame_not_500(self, dij):
        with serve(dij) as http_server:
            request = urllib.request.Request(
                f"{http_server.url}/rpc", data=b"complete garbage",
                method="POST")
            with urllib.request.urlopen(request) as reply:
                assert reply.status == 200
                assert error_code_of(reply.read()) == codes.E_MALFORMED_FRAME

    def test_unreachable_server_raises_protocol_error(self, signer):
        client = RemoteClient(HttpTransport("http://127.0.0.1:9",
                                            timeout=0.5), signer.verify)
        with pytest.raises(ProtocolError):
            client.hello()

    def test_concurrent_wire_clients(self, dij, signer, workload):
        from concurrent.futures import ThreadPoolExecutor

        with serve(dij) as http_server:
            def one_client(pair):
                client = RemoteClient(HttpTransport(http_server.url),
                                      signer.verify)
                return client.query(*pair).ok

            with ThreadPoolExecutor(max_workers=4) as pool:
                outcomes = list(pool.map(one_client, workload[:4] * 3))
            assert all(outcomes)


class TestLiveUpdatesOverHttp:
    def test_update_push_bumps_version_mid_traffic(self, road300, signer,
                                                   workload):
        graph = road300.copy()
        method = DijMethod.build(graph, signer)
        with serve(method, update_signer=signer) as http_server:
            client = RemoteClient(HttpTransport(http_server.url),
                                  signer.verify)
            base_version = client.hello().descriptor_version

            # Traffic before the update...
            first = client.query(*workload[0])
            assert first.ok
            stale_bytes = first.response_bytes

            # ...the owner pushes a re-weight over the wire...
            update = list(generate_update_workload(
                graph, 1, seed=5, kinds=(UPDATE_WEIGHT,)))[0]
            report = client.push_updates([update])
            assert report.version > base_version
            client.require_version(report.version)

            # ...and the served version has moved for everyone.
            assert client.hello().descriptor_version == report.version
            fresh = client.query(*workload[0])
            assert fresh.ok
            assert fresh.response.descriptor.version == report.version

            # The pre-update response, replayed now, is caught as stale.
            stale = client.client.verify_bytes(
                workload[0][0], workload[0][1], stale_bytes)
            assert not stale.ok
            assert stale.reason == codes.STALE_DESCRIPTOR

    def test_stale_descriptor_replay_rejected_over_the_wire(
            self, road300, signer, workload):
        """A replaying proxy between client and an updated server loses."""
        graph = road300.copy()
        method = DijMethod.build(graph, signer)
        vs, vt = workload[1]
        with serve(method, update_signer=signer) as http_server:
            transport = HttpTransport(http_server.url)
            honest = RemoteClient(transport, signer.verify)
            recorded = transport.roundtrip(QueryRequest(vs, vt).to_frame())

            update = list(generate_update_workload(
                graph, 1, seed=6, kinds=(UPDATE_WEIGHT,)))[0]
            report = honest.push_updates([update])

            class ReplayingProxy:
                def roundtrip(self, frame):
                    return recorded  # always serve the pre-update reply

            victim = RemoteClient(ReplayingProxy(), signer.verify,
                                  min_descriptor_version=report.version)
            result = victim.query(vs, vt)
            assert not result.ok
            assert result.verdict.reason == codes.STALE_DESCRIPTOR

    def test_push_refused_without_signer_over_http(self, dij, signer):
        with serve(dij) as http_server:  # provider-only: no signer
            client = RemoteClient(HttpTransport(http_server.url),
                                  signer.verify)
            with pytest.raises(ProtocolError,
                               match=codes.E_UPDATES_DISABLED):
                client.push_updates([WireUpdate(UPDATE_WEIGHT, 1, 2, 3.0)])


# ----------------------------------------------------------------------
# Long-lived-connection defences
# ----------------------------------------------------------------------
class TestDefences:
    def test_short_body_gets_typed_error_frame(self, dispatcher, workload):
        frame = QueryRequest(*workload[0]).to_frame()
        with AsyncProofHttpServer(dispatcher) as server, \
                connect(server) as sock:
            sock.sendall(http_post(frame[:3], content_length=len(frame)))
            # FIN the write side: the promised body will never arrive.
            sock.shutdown(socket.SHUT_WR)
            _headers, body = ResponseReader(sock).response()
        assert error_code_of(body) == codes.E_REQUEST_TIMEOUT

    def test_slow_loris_body_times_out_typed(self, dispatcher, workload):
        frame = QueryRequest(*workload[0]).to_frame()
        with AsyncProofHttpServer(dispatcher, handler_timeout=0.5) as server, \
                connect(server) as sock:
            # Two bytes of the promised body ...and then nothing, forever.
            sock.sendall(http_post(frame[:2], content_length=len(frame)))
            start = time.monotonic()
            headers, body = ResponseReader(sock).response()
            elapsed = time.monotonic() - start
        assert error_code_of(body) == codes.E_REQUEST_TIMEOUT
        assert headers.get("connection") == "close"
        assert elapsed < 8.0  # the 0.5s window, not a default-long stall

    def test_slow_loris_headers_time_out_typed(self, dispatcher):
        with AsyncProofHttpServer(dispatcher, handler_timeout=0.5) as server, \
                connect(server) as sock:
            sock.sendall(b"POST /rpc HTTP/1.1\r\nHost: t\r\n")  # stalls
            _headers, body = ResponseReader(sock).response()
        assert error_code_of(body) == codes.E_REQUEST_TIMEOUT

    def test_oversized_request_line_typed_then_close(self, dispatcher):
        with AsyncProofHttpServer(dispatcher) as server, \
                connect(server) as sock:
            reader = ResponseReader(sock)
            sock.sendall(b"POST /" + b"a" * (_MAX_HEADER_BYTES + 1024))
            headers, body = reader.response()
            assert error_code_of(body) == codes.E_MALFORMED_FRAME
            assert headers.get("connection") == "close"
            assert reader.at_eof()

    def test_oversized_header_block_typed_then_close(self, dispatcher):
        with AsyncProofHttpServer(dispatcher) as server, \
                connect(server) as sock:
            reader = ResponseReader(sock)
            sock.sendall(b"POST /rpc HTTP/1.1\r\nX-Pad: "
                         + b"y" * (_MAX_HEADER_BYTES + 1024) + b"\r\n")
            _headers, body = reader.response()
            assert error_code_of(body) == codes.E_MALFORMED_FRAME
            assert reader.at_eof()

    def test_header_line_without_colon_typed_then_close(self, dispatcher):
        with AsyncProofHttpServer(dispatcher) as server, \
                connect(server) as sock:
            reader = ResponseReader(sock)
            sock.sendall(b"POST /rpc HTTP/1.1\r\nno colon here\r\n\r\n")
            _headers, body = reader.response()
            assert error_code_of(body) == codes.E_MALFORMED_FRAME
            assert reader.at_eof()

    def test_non_numeric_length_is_411(self, dispatcher):
        with AsyncProofHttpServer(dispatcher) as server, \
                connect(server) as sock:
            sock.sendall(b"POST /rpc HTTP/1.1\r\nContent-Length: ten\r\n\r\n")
            headers, _body = ResponseReader(sock).response()
        assert "411" in headers["_status"]

    def test_slow_dispatch_is_not_a_stalled_peer(self, dispatcher, signer,
                                                 workload):
        """The deadline bounds what the *peer* owes, not the provider:
        a request the server is still answering past it is answered."""
        slow = _SlowDispatcher(dispatcher, delay=1.0)
        with AsyncProofHttpServer(slow, handler_timeout=0.25) as server, \
                HttpTransport(server.url) as transport:
            assert RemoteClient(transport, signer.verify).query(
                *workload[0]).ok

    def test_pipelining_far_ahead_is_paused_then_answered_in_order(
            self, dij, workload):
        gated = _GatedDispatcher(ProofServer(dij, cache_size=64).dispatcher())
        frame = QueryRequest(*workload[0]).to_frame()
        flood = b"\xff" * (2 * _MAX_HEADER_BYTES)  # past the read limit
        with AsyncProofHttpServer(gated) as server, connect(server) as sock:
            reader = ResponseReader(sock)
            sock.sendall(http_post(frame))
            assert gated.started.wait(10.0)
            sock.sendall(http_post(flood))
            time.sleep(0.2)  # the flood lands while request 1 is held
            gated.release.set()
            _headers, first = reader.response()
            _headers, second = reader.response()
        assert isinstance(decode_message(decode_frame(first)), QueryReply)
        assert error_code_of(second) == codes.E_MALFORMED_FRAME

    def test_dispatcher_that_raises_costs_one_connection(self, dispatcher,
                                                         workload):
        crashing = _CrashOnceDispatcher(dispatcher)
        frame = QueryRequest(*workload[0]).to_frame()
        with AsyncProofHttpServer(crashing) as server:
            with connect(server) as sock:
                sock.sendall(http_post(frame))
                try:
                    assert sock.recv(1024) == b""  # dropped, no reply
                except ConnectionResetError:
                    pass
            with connect(server) as sock:
                sock.sendall(http_post(frame))
                _headers, body = ResponseReader(sock).response()
        assert isinstance(decode_message(decode_frame(body)), QueryReply)

    def test_healthy_request_on_same_config_still_serves(self, dispatcher,
                                                         signer, workload):
        with AsyncProofHttpServer(dispatcher, handler_timeout=0.5) as server:
            with HttpTransport(server.url) as transport:
                client = RemoteClient(transport, signer.verify)
                vs, vt = workload[0]
                assert client.query(vs, vt).ok

    def test_idle_keepalive_closed_silently(self, dispatcher, workload):
        """An idle peer is dropped without a frame — it asked nothing."""
        frame = QueryRequest(*workload[0]).to_frame()
        with AsyncProofHttpServer(dispatcher, handler_timeout=0.5) as server, \
                connect(server) as sock:
            reader = ResponseReader(sock)
            sock.sendall(http_post(frame))
            reader.response()  # request 1 is served
            assert reader.at_eof()  # then idle → clean EOF

    def test_garbage_on_kept_alive_socket_typed_then_close(
            self, dispatcher, workload):
        """Non-HTTP bytes after a valid request: typed frame, then EOF."""
        frame = QueryRequest(*workload[0]).to_frame()
        with AsyncProofHttpServer(dispatcher) as server, \
                connect(server) as sock:
            reader = ResponseReader(sock)
            sock.sendall(http_post(frame))
            _headers, body = reader.response()
            assert decode_message(decode_frame(body))  # served fine
            sock.sendall(b"\x00\xff RSPV garbage not an http request\r\n")
            headers, body = reader.response()
            assert error_code_of(body) == codes.E_MALFORMED_FRAME
            assert headers.get("connection") == "close"
            assert reader.at_eof()

    def test_over_budget_connections_shed(self, dispatcher, workload):
        """Beyond max_connections: full service, but Connection: close."""
        frame = QueryRequest(*workload[0]).to_frame()
        with AsyncProofHttpServer(dispatcher, max_connections=2) as server:
            holders = [connect(server) for _ in range(2)]
            try:
                for held in holders:  # make sure both are accepted + served
                    held.sendall(http_post(frame))
                    headers, _body = ResponseReader(held).response()
                    assert "connection" not in headers
                with connect(server) as shed:
                    reader = ResponseReader(shed)
                    shed.sendall(http_post(frame))
                    headers, body = reader.response()
                    assert headers.get("connection") == "close"
                    # Shed ≠ refused: the reply is a full valid answer.
                    assert not isinstance(
                        decode_message(decode_frame(body)), ErrorMessage)
                    assert reader.at_eof()
            finally:
                for held in holders:
                    held.close()


class TestKeepAliveBudget:
    def test_budget_closes_after_n_requests(self, dispatcher, workload):
        frame = QueryRequest(*workload[0]).to_frame()
        with AsyncProofHttpServer(dispatcher,
                                  max_keepalive_requests=3) as server, \
                connect(server) as sock:
            reader = ResponseReader(sock)
            for index in range(3):
                sock.sendall(http_post(frame))
                headers, _body = reader.response()
                # Announced on the last budgeted reply, not before.
                assert ("connection" in headers) == (index == 2)
            assert headers["connection"] == "close"
            assert reader.at_eof()

    def test_client_rides_through_budget(self, dispatcher, signer, workload):
        with AsyncProofHttpServer(dispatcher,
                                  max_keepalive_requests=3) as server:
            with HttpTransport(server.url) as transport:
                client = RemoteClient(transport, signer.verify)
                for _ in range(3):
                    for vs, vt in workload:
                        assert client.query(vs, vt).ok

    def test_zero_budget_disables_the_bound(self, dispatcher, signer,
                                            workload):
        with AsyncProofHttpServer(dispatcher,
                                  max_keepalive_requests=0) as server:
            with HttpTransport(server.url) as transport:
                client = RemoteClient(transport, signer.verify)
                for vs, vt in workload:
                    assert client.query(vs, vt).ok


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
class TestConnectableUrls:
    def test_wildcard_bind_advertises_loopback(self, dispatcher, signer,
                                               workload):
        with AsyncProofHttpServer(dispatcher, host="0.0.0.0") as server:
            assert server.bound_host == "0.0.0.0"
            assert server.host == "127.0.0.1"
            assert server.url == f"http://127.0.0.1:{server.port}"
            with HttpTransport(server.url) as transport:
                client = RemoteClient(transport, signer.verify)
                vs, vt = workload[0]
                assert client.query(vs, vt).ok

    def test_empty_bind_advertises_loopback(self, dispatcher):
        with AsyncProofHttpServer(dispatcher, host="") as server:
            assert server.host == "127.0.0.1"

    def test_connectable_host_mapping(self):
        assert connectable_host("0.0.0.0") == "127.0.0.1"
        assert connectable_host("") == "127.0.0.1"
        assert connectable_host("::") == "::1"
        assert connectable_host("0:0:0:0:0:0:0:0") == "::1"
        assert connectable_host("10.1.2.3") == "10.1.2.3"
        assert connectable_host("example.test") == "example.test"

    def test_format_netloc_brackets_ipv6(self):
        assert format_netloc("127.0.0.1", 80) == "127.0.0.1:80"
        assert format_netloc("::1", 8080) == "[::1]:8080"
        assert format_netloc("fe80::1", 1) == "[fe80::1]:1"


class TestLifecycle:
    def test_constructor_validation(self, dispatcher):
        with pytest.raises(ServiceError):
            AsyncProofHttpServer(object())
        for kwargs in ({"handler_timeout": 0.0},
                       {"handler_timeout": -1.0},
                       {"max_keepalive_requests": -1},
                       {"max_connections": 0},
                       {"dispatch_workers": 0},
                       {"drain_timeout": -1.0}):
            with pytest.raises(ServiceError):
                AsyncProofHttpServer(dispatcher, **kwargs).close()

    def test_port_resolves_before_start(self, dispatcher):
        server = AsyncProofHttpServer(dispatcher)
        try:
            assert server.port > 0
            assert server.url == f"http://127.0.0.1:{server.port}"
        finally:
            server.close()  # never started: must still release the socket

    def test_double_start_rejected(self, dispatcher):
        with AsyncProofHttpServer(dispatcher) as server:
            with pytest.raises(ServiceError):
                server.start()

    def test_close_idempotent(self, dispatcher):
        server = AsyncProofHttpServer(dispatcher).start()
        server.close()
        server.close()

    def test_port_collision_is_typed(self, dispatcher):
        with AsyncProofHttpServer(dispatcher) as server:
            with pytest.raises(ServiceError, match="cannot bind"):
                AsyncProofHttpServer(dispatcher, port=server.port)

    def test_serve_forever_returns_once_closed(self, dispatcher):
        server = AsyncProofHttpServer(dispatcher)
        runner = threading.Thread(target=server.serve_forever, daemon=True)
        runner.start()
        for _ in range(100):
            try:
                with urllib.request.urlopen(f"{server.url}/healthz") as reply:
                    assert reply.read() == b"ok"
                break
            except OSError:
                time.sleep(0.05)
        server.close()
        runner.join(10.0)
        assert not runner.is_alive()

    def test_close_drops_idle_connections_fast(self, dispatcher, workload):
        """Shutdown must not wait drain_timeout for merely-open peers."""
        frame = QueryRequest(*workload[0]).to_frame()
        server = AsyncProofHttpServer(dispatcher, drain_timeout=30.0).start()
        with connect(server) as idle:
            idle.sendall(http_post(frame))
            ResponseReader(idle).response()  # established + served, now idle
            start = time.monotonic()
            server.close()
            assert time.monotonic() - start < 10.0


class _SlowDispatcher:
    """Delegates to a real dispatcher after a fixed delay."""

    def __init__(self, inner, delay: float) -> None:
        self.inner, self.delay = inner, delay

    def dispatch(self, frame: bytes) -> bytes:
        time.sleep(self.delay)
        return self.inner.dispatch(frame)


class _CrashOnceDispatcher:
    """Raises on its first frame (a dispatcher bug), then delegates."""

    def __init__(self, inner) -> None:
        self.inner, self.crashed = inner, False

    def dispatch(self, frame: bytes) -> bytes:
        if not self.crashed:
            self.crashed = True
            raise RuntimeError("dispatcher bug")
        return self.inner.dispatch(frame)


class _GatedDispatcher:
    """Delegates to a real dispatcher, but holds each request at a gate.

    ``started`` fires once an executor thread has entered dispatch —
    i.e. the request is *in flight*; ``release`` lets it finish.
    """

    def __init__(self, inner):
        self.inner = inner
        self.started = threading.Event()
        self.release = threading.Event()

    def dispatch(self, frame: bytes) -> bytes:
        self.started.set()
        self.release.wait(30.0)
        return self.inner.dispatch(frame)


class TestShutdownDrain:
    """close() must not guillotine requests already being computed.

    The loop thread is daemonic (a *stuck* dispatch must never pin the
    process), so a close that returned while a request was mid-dispatch
    would let process exit silently drop its reply.  close waits —
    bounded by ``drain_timeout`` — for in-flight responses to go out
    the socket.
    """

    def _issue(self, server, frame, box):
        try:
            with socket.create_connection((server.host, server.port),
                                          timeout=30.0) as sock:
                sock.sendall(http_post(frame))
                sock.shutdown(socket.SHUT_WR)  # one request, then EOF
                box["reply"] = ResponseReader(sock).response()
        except OSError as exc:
            box["error"] = exc

    def test_inflight_request_survives_close(self, dij, workload):
        gated = _GatedDispatcher(ProofServer(dij, cache_size=64).dispatcher())
        server = AsyncProofHttpServer(gated, drain_timeout=20.0).start()
        frame = QueryRequest(*workload[0]).to_frame()
        box: dict = {}
        requester = threading.Thread(
            target=self._issue, args=(server, frame, box), daemon=True)
        requester.start()
        assert gated.started.wait(10.0), "request never reached dispatch"
        closer = threading.Thread(target=server.close, daemon=True)
        closer.start()
        time.sleep(0.3)  # close() is now inside its drain wait
        assert closer.is_alive(), "close returned while a request was live"
        gated.release.set()
        closer.join(30.0)
        requester.join(30.0)
        assert not closer.is_alive() and not requester.is_alive()
        assert "reply" in box, f"in-flight reply was dropped: {box.get('error')}"
        headers, body = box["reply"]
        assert "200" in headers["_status"]
        assert not isinstance(decode_message(decode_frame(body)), ErrorMessage)

    def test_drain_wait_is_bounded(self, dij, workload):
        gated = _GatedDispatcher(ProofServer(dij, cache_size=64).dispatcher())
        # Never release: the dispatch wedges for 30s, the drain gives up
        # after 0.5s and close() returns anyway.
        server = AsyncProofHttpServer(gated, drain_timeout=0.5).start()
        frame = QueryRequest(*workload[0]).to_frame()
        box: dict = {}
        requester = threading.Thread(
            target=self._issue, args=(server, frame, box), daemon=True)
        requester.start()
        assert gated.started.wait(10.0)
        start = time.monotonic()
        server.close()
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"close took {elapsed:.1f}s despite the bound"
        gated.release.set()  # unwedge the executor thread before teardown
        requester.join(10.0)
        assert not requester.is_alive()


# ----------------------------------------------------------------------
# Verifying clients on one event loop
# ----------------------------------------------------------------------
class TestAsyncClients:
    CLIENTS = 4
    BATCH = 3

    @staticmethod
    async def _round(url, clients, workload, batch):
        """Every client, concurrently on this loop: one QUERY frame per
        workload pair (each client starting at its own offset) and one
        multiproof BATCH frame, each reply verified from its bytes."""

        async def one(client, offset):
            transport = AsyncTransport(url)
            results = []
            try:
                for vs, vt in workload[offset:] + workload[:offset]:
                    reply = await transport.roundtrip(
                        QueryRequest(vs, vt).to_frame())
                    results.append(
                        client.interpret_query_reply(vs, vt, reply))
                reply = await transport.roundtrip(BatchQueryRequest(
                    tuple(batch), multiproof=True).to_frame())
                results += client.interpret_batch_reply(batch, reply)
            finally:
                await transport.close()
            return results

        rounds = await asyncio.gather(*(one(client, index) for index, client
                                        in enumerate(clients)))
        return [result for results in rounds for result in results]

    def test_clients_verify_queries_and_batches_across_a_push(
            self, road300, signer, workload):
        graph = road300.copy()
        method = DijMethod.build(graph, signer)
        update = list(generate_update_workload(
            graph, 1, seed=7, kinds=(UPDATE_WEIGHT,)))[0]
        batch = workload[:self.BATCH]
        clients = [RemoteClient(None, signer.verify)
                   for _ in range(self.CLIENTS)]

        async def drive(url):
            before = await self._round(url, clients, workload, batch)
            owner = AsyncTransport(url)
            try:
                reply = RemoteClient.interpret_exchange(
                    await owner.roundtrip(UpdatePushRequest(
                        (WireUpdate(update.kind, update.u, update.v,
                                    update.weight),)).to_frame()),
                    UpdateReply)
            finally:
                await owner.close()
            for client in clients:
                client.require_version(reply.version)
            after = await self._round(url, clients, workload, batch)
            return before, reply.version, after

        with serve(method, update_signer=signer) as server:
            before, version, after = asyncio.run(drive(server.url))
        per_round = self.CLIENTS * (len(workload) + self.BATCH)
        assert len(before) == len(after) == per_round
        bad = [(r.source, r.target, r.verdict.reason) for r in before + after
               if not r.ok]
        assert bad == []
        assert any(r.cached for r in before)
        # QUERY slots carry their reply; BATCH slots passed the raised
        # freshness floor above, so they too were signed at *version*.
        (old,) = {r.response.descriptor.version for r in before
                  if r.response_bytes}
        assert old < version
        assert {r.response.descriptor.version for r in after
                if r.response_bytes} == {version}
