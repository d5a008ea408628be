"""HTTP transport behaviour: persistence, reconnect, the async variant.

These tests count *server-side accepted connections* — the ground truth
for connection reuse — through the server's ``connections_accepted``.  The
defect this layer fixes was precisely a client that redialed per frame
while believing it was load-testing the server, so the assertions here
are about how many TCP connections the workload costs, not just whether
it succeeds.
"""

from __future__ import annotations

import asyncio
import socket
import threading

import pytest

from repro.api.client import RemoteClient
from repro.api.envelope import (
    HelloRequest,
    QueryRequest,
    decode_frame,
    decode_message,
)
from repro.api.transport import AsyncTransport, HttpTransport
from repro.errors import ProtocolError, ServiceError
from repro.service.aio import AsyncProofHttpServer
from repro.service.server import ProofServer


class ScriptedPeer:
    """A localhost TCP peer playing one step per accepted connection:
    ``"answer"`` replies ``200`` with a body to one request and then
    hangs up; ``"hangup"`` closes without reading.  Connections past
    the script are hung up on."""

    def __init__(self, *script: str) -> None:
        self.script = list(script)
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.url = f"http://127.0.0.1:{self.listener.getsockname()[1]}"
        self.accepted = 0
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            step = self.script.pop(0) if self.script else "hangup"
            self.accepted += 1
            with conn:
                if step == "answer":
                    head = b""
                    while b"\r\n\r\n" not in head:
                        head += conn.recv(4096)
                    conn.sendall(b"HTTP/1.1 200 OK\r\n"
                                 b"Content-Length: 4\r\n\r\nRSPV")

    def close(self) -> None:
        try:
            self.listener.shutdown(socket.SHUT_RDWR)  # wakes accept()
        except OSError:
            pass
        self.listener.close()
        self._thread.join(5.0)

    def __enter__(self) -> "ScriptedPeer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TestPersistentConnection:
    def test_many_queries_one_connection(self, dispatcher, signer, workload):
        server = AsyncProofHttpServer(dispatcher)
        with server, HttpTransport(server.url) as transport:
            client = RemoteClient(transport, signer.verify)
            client.hello()
            for vs, vt in workload:
                assert client.query(vs, vt).ok
        assert server.connections_accepted == 1

    def test_closed_transport_redials_and_stays_usable(
            self, dispatcher, signer, workload):
        server = AsyncProofHttpServer(dispatcher)
        vs, vt = workload[0]
        with server:
            transport = HttpTransport(server.url)
            client = RemoteClient(transport, signer.verify)
            assert client.query(vs, vt).ok
            transport.close()
            assert client.query(vs, vt).ok
            transport.close()
        assert server.connections_accepted == 2

    def test_reconnects_after_server_restart(self, server, signer, workload):
        vs, vt = workload[0]
        dispatcher = server.dispatcher()
        first = AsyncProofHttpServer(dispatcher).start()
        port = first.port
        transport = HttpTransport(first.url)
        client = RemoteClient(transport, signer.verify)
        assert client.query(vs, vt).ok
        first.close()
        second = AsyncProofHttpServer(dispatcher, port=port).start()
        try:
            # The held connection is now stale; the transport must
            # retry once on a fresh dial, invisibly to the caller.
            assert client.query(vs, vt).ok
        finally:
            transport.close()
            second.close()

    def test_fresh_dial_failure_is_not_retried(self, dispatcher, signer):
        server = AsyncProofHttpServer(dispatcher).start()
        url = server.url
        server.close()
        transport = HttpTransport(url, timeout=2.0)
        with pytest.raises(ProtocolError) as excinfo:
            transport.roundtrip(b"RSPV")
        assert "after reconnect" not in str(excinfo.value)

    def test_keepalive_budget_redials_transparently(self, dispatcher, signer,
                                                    workload):
        server = AsyncProofHttpServer(dispatcher, max_keepalive_requests=2)
        with server, HttpTransport(server.url) as transport:
            client = RemoteClient(transport, signer.verify)
            client.hello()
            for _ in range(2):
                for vs, vt in workload:
                    assert client.query(vs, vt).ok
        # hello + descriptor + 2 x len(workload) queries, two per
        # connection, no failed/wasted dials.
        requests = 2 + 2 * len(workload)
        assert server.connections_accepted == (requests + 1) // 2

    def test_bad_base_url_rejected(self):
        for url in ("https://x:1", "ftp://x", "not-a-url", "http://"):
            with pytest.raises(ProtocolError):
                HttpTransport(url)

    def test_non_200_status_is_a_protocol_error(self, dispatcher):
        with AsyncProofHttpServer(dispatcher) as server, \
                HttpTransport(f"{server.url}/elsewhere") as transport:
            with pytest.raises(ProtocolError, match="HTTP 404"):
                transport.roundtrip(HelloRequest().to_frame())

    def test_hangup_on_a_fresh_dial_is_not_retried(self):
        with ScriptedPeer("hangup") as peer, \
                HttpTransport(peer.url, timeout=5.0) as transport:
            with pytest.raises(ProtocolError) as excinfo:
                transport.roundtrip(b"RSPV")
        assert "transport failure" in str(excinfo.value)
        assert "after reconnect" not in str(excinfo.value)
        assert peer.accepted == 1

    def test_stale_connection_is_retried_exactly_once(self):
        with ScriptedPeer("answer", "hangup") as peer, \
                HttpTransport(peer.url, timeout=5.0) as transport:
            assert transport.roundtrip(b"RSPV") == b"RSPV"
            with pytest.raises(ProtocolError, match="after reconnect"):
                transport.roundtrip(b"RSPV")
        assert peer.accepted == 2


class TestAsyncTransport:
    """The event-loop transport keeps :class:`HttpTransport`'s discipline."""

    @staticmethod
    def frames(workload):
        return [HelloRequest().to_frame()] + \
            [QueryRequest(vs, vt).to_frame() for vs, vt in workload] * 2

    def test_replies_ride_one_connection_and_redial_on_budget(
            self, server, dispatcher, workload):
        frames = self.frames(workload)
        local = ProofServer(server.method, cache_size=64).dispatcher()
        expected = [local.dispatch(frame) for frame in frames]

        async def drive(url):
            async with AsyncTransport(url) as transport:
                return [await transport.roundtrip(frame) for frame in frames]

        with AsyncProofHttpServer(dispatcher) as http:
            assert asyncio.run(drive(http.url)) == expected
            assert http.connections_accepted == 1
        budgeted = AsyncProofHttpServer(
            ProofServer(server.method, cache_size=64).dispatcher(),
            max_keepalive_requests=2)
        with budgeted:
            # ``Connection: close`` is honoured: no stale-retry dials.
            assert asyncio.run(drive(budgeted.url)) == expected
            assert budgeted.connections_accepted == (len(frames) + 1) // 2

    def test_stale_connection_is_retried_once(self, dispatcher, workload):
        frame = QueryRequest(*workload[0]).to_frame()
        first = AsyncProofHttpServer(dispatcher).start()
        port = first.port

        async def drive():
            async with AsyncTransport(first.url, timeout=5.0) as transport:
                before = await transport.roundtrip(frame)
                first.close()
                second = AsyncProofHttpServer(dispatcher, port=port).start()
                try:
                    return before, await transport.roundtrip(frame), second
                finally:
                    second.close()

        before, after, second = asyncio.run(drive())
        assert decode_frame(before).msg_type == decode_frame(after).msg_type
        assert second.connections_accepted == 1

    def test_bad_base_url_rejected(self):
        for url in ("https://x:1", "ftp://x", "not-a-url", "http://"):
            with pytest.raises(ProtocolError):
                AsyncTransport(url)

    def test_unreachable_endpoint_is_a_protocol_error(self, dispatcher):
        server = AsyncProofHttpServer(dispatcher).start()
        url = server.url
        server.close()

        async def drive():
            async with AsyncTransport(url, timeout=2.0) as transport:
                await transport.roundtrip(b"RSPV")

        with pytest.raises(ProtocolError, match="cannot reach"):
            asyncio.run(drive())

    def test_stale_connection_is_retried_exactly_once(self):
        async def drive(url):
            async with AsyncTransport(url, timeout=5.0) as transport:
                first = await transport.roundtrip(b"RSPV")
                with pytest.raises(ProtocolError, match="after reconnect"):
                    await transport.roundtrip(b"RSPV")
                return first

        with ScriptedPeer("answer", "hangup") as peer:
            assert asyncio.run(drive(peer.url)) == b"RSPV"
        assert peer.accepted == 2

    def test_ipv6_literal_endpoint(self, dispatcher, dij, workload):
        try:
            server = AsyncProofHttpServer(dispatcher, host="::1")
        except ServiceError:
            pytest.skip("no IPv6 loopback on this host")
        frame = QueryRequest(*workload[0]).to_frame()

        async def drive(url):
            async with AsyncTransport(url) as transport:
                return await transport.roundtrip(frame)

        with server:
            assert server.url.startswith("http://[::1]:")
            reply = decode_message(decode_frame(asyncio.run(
                drive(server.url))))
        assert reply.response_bytes == dij.answer(*workload[0]).encode()

    @pytest.mark.parametrize("reply", [
        b"RSPV is not HTTP\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nno colon here\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nServer: x\r\n\r\n",           # no Content-Length
        b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort",
        b"HTTP/1.1 200 OK\r\n" + b"X: " + b"y" * (1 << 17),  # endless head
        b"HTTP/1.1 503 Busy\r\nContent-Length: 0\r\n\r\n",
    ])
    def test_bad_replies_are_typed(self, reply):
        async def drive():
            async def answer(reader, writer):
                await reader.readuntil(b"\r\n\r\n")
                writer.write(reply)
                await writer.drain()
                writer.close()

            listener = await asyncio.start_server(answer, "127.0.0.1", 0)
            port = listener.sockets[0].getsockname()[1]
            async with listener, \
                    AsyncTransport(f"http://127.0.0.1:{port}",
                                   timeout=5.0) as transport:
                with pytest.raises(ProtocolError):
                    await transport.roundtrip(b"RSPV")

        asyncio.run(drive())
