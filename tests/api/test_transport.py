"""HTTP transport behaviour: persistence, reconnect, pooling.

These tests count *server-side accepted connections* — the ground truth
for connection reuse — by wrapping the server's connection handler.  The
defect this layer fixes was precisely a client that redialed per frame
while believing it was load-testing the server, so the assertions here
are about how many TCP connections the workload costs, not just whether
it succeeds.
"""

from __future__ import annotations

import threading

import pytest

from repro.api.client import RemoteClient
from repro.api.transport import HttpTransport, PooledHttpTransport
from repro.errors import ProtocolError
from repro.service.aio import AsyncProofHttpServer


def counting_server(dispatcher, **kwargs):
    """A server (not yet started) that records every accepted connection."""
    server = AsyncProofHttpServer(dispatcher, **kwargs)
    accepted = []
    original = server._handle_connection

    async def handle_connection(reader, writer):
        accepted.append(writer.get_extra_info("peername"))
        await original(reader, writer)

    server._handle_connection = handle_connection
    return server, accepted


class TestPersistentConnection:
    def test_many_queries_one_connection(self, dispatcher, signer, workload):
        server, accepted = counting_server(dispatcher)
        with server, HttpTransport(server.url) as transport:
            client = RemoteClient(transport, signer.verify)
            client.hello()
            for vs, vt in workload:
                assert client.query(vs, vt).ok
        assert len(accepted) == 1

    def test_closed_transport_redials_and_stays_usable(
            self, dispatcher, signer, workload):
        server, accepted = counting_server(dispatcher)
        vs, vt = workload[0]
        with server:
            transport = HttpTransport(server.url)
            client = RemoteClient(transport, signer.verify)
            assert client.query(vs, vt).ok
            transport.close()
            assert client.query(vs, vt).ok
            transport.close()
        assert len(accepted) == 2

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
        server, accepted = counting_server(dispatcher,
                                           max_keepalive_requests=2)
        with server, HttpTransport(server.url) as transport:
            client = RemoteClient(transport, signer.verify)
            client.hello()
            for _ in range(2):
                for vs, vt in workload:
                    assert client.query(vs, vt).ok
        # hello + descriptor + 2 x len(workload) queries, two per
        # connection, no failed/wasted dials.
        requests = 2 + 2 * len(workload)
        assert len(accepted) == (requests + 1) // 2

    def test_bad_base_url_rejected(self):
        for url in ("https://x:1", "ftp://x", "not-a-url", "http://"):
            with pytest.raises(ProtocolError):
                HttpTransport(url)


class TestPooledTransport:
    def test_one_connection_per_thread(self, dispatcher, signer, workload):
        server, accepted = counting_server(dispatcher)
        threads = 4
        with server, PooledHttpTransport(server.url) as pooled:
            barrier = threading.Barrier(threads)
            failures = []

            def worker():
                barrier.wait()
                client = RemoteClient(pooled, signer.verify)
                for vs, vt in workload:
                    if not client.query(vs, vt).ok:
                        failures.append((vs, vt))

            pool = [threading.Thread(target=worker) for _ in range(threads)]
            for t in pool:
                t.start()
            for t in pool:
                t.join()
            assert not failures
            assert len(accepted) == threads

    def test_close_drops_all_then_redials(self, dispatcher, signer, workload):
        server, accepted = counting_server(dispatcher)
        vs, vt = workload[0]
        with server:
            pooled = PooledHttpTransport(server.url)
            client = RemoteClient(pooled, signer.verify)
            assert client.query(vs, vt).ok
            pooled.close()
            assert client.query(vs, vt).ok
            pooled.close()
        assert len(accepted) == 2
