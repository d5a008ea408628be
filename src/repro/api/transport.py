"""Transports: how a request frame reaches a dispatcher.

A transport is anything with ``roundtrip(frame: bytes) -> bytes``.  The
protocol layer never looks inside one, so the same
:class:`~repro.api.client.RemoteClient` runs over:

* :class:`InProcessTransport` — the trivial transport: hands the frame
  straight to a local :class:`~repro.api.dispatcher.Dispatcher`.  This
  is what "three parties in one Python process" becomes under the wire
  API: the same bytes cross the same boundary, minus the socket.
* :class:`HttpTransport` — POSTs frames to an
  :class:`~repro.service.aio.AsyncProofHttpServer` (or anything speaking
  the same one-endpoint contract) using only the standard library.
  The connection is **persistent**: frames after the first reuse the
  established HTTP/1.1 keep-alive connection, which is what the server
  side has always advertised — reconnecting per frame buries proof
  serving time under TCP setup.
* :class:`AsyncTransport` — the event-loop variant: the same persistent
  one-endpoint contract, but ``roundtrip`` is a coroutine, so one
  thread can hold hundreds of these (one per simulated client) and
  multiplex them on a single loop.  This is the demand side of the
  async serving core.
"""

from __future__ import annotations

import asyncio
import http.client
import socket
from urllib.parse import urlsplit

from repro.errors import ProtocolError


class Transport:
    """Abstract frame carrier (duck-typed; subclassing is optional)."""

    def roundtrip(self, frame: bytes) -> bytes:
        """Deliver a request frame, return the reply frame."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any held connections (default: nothing to do)."""

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class InProcessTransport(Transport):
    """The trivial transport: frames go straight to a dispatcher.

    ``wire_log``, when enabled, records ``(request, reply)`` sizes so
    in-process tests can account bytes-on-wire exactly like a network
    frontend would.
    """

    def __init__(self, dispatcher, *, log_frames: bool = False) -> None:
        self.dispatcher = dispatcher
        self.wire_log: "list[tuple[int, int]]" = []
        self._log_frames = log_frames

    def roundtrip(self, frame: bytes) -> bytes:
        reply = self.dispatcher.dispatch(frame)
        if self._log_frames:
            self.wire_log.append((len(frame), len(reply)))
        return reply


class HttpTransport(Transport):
    """Frames over a persistent HTTP connection, stdlib-only.

    The contract is one endpoint: ``POST {base_url}/rpc`` with the
    request frame as an ``application/octet-stream`` body; the reply
    frame comes back as the response body with status 200 (protocol
    errors ride *inside* the frame, keeping HTTP itself boring).

    Connection handling:

    * the first ``roundtrip`` dials; later ones reuse the connection
      (HTTP/1.1 keep-alive);
    * a transport failure on a **reused** connection — the server
      restarted, idled us out, or exhausted its keep-alive budget — is
      retried exactly once on a fresh connection.  A failure on a
      connection dialed for this very call is reported immediately:
      retrying a dead endpoint only doubles the timeout;
    * ``close()`` drops the held connection; the next call redials, so
      a closed transport remains usable.

    Not thread-safe: one connection means one in-flight request; give
    each thread its own transport.
    """

    def __init__(self, base_url: str, *, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        split = urlsplit(self.base_url)
        if split.scheme != "http" or split.hostname is None:
            raise ProtocolError(
                f"base_url must look like http://host:port, got {base_url!r}"
            )
        self._host = split.hostname
        self._port = split.port if split.port is not None else 80
        self._path_prefix = split.path
        self.timeout = timeout
        self._conn: "http.client.HTTPConnection | None" = None

    @property
    def endpoint(self) -> str:
        """The rpc URL frames are POSTed to."""
        return f"{self.base_url}/rpc"

    # ------------------------------------------------------------------
    def _connect(self) -> "http.client.HTTPConnection":
        conn = http.client.HTTPConnection(self._host, self._port,
                                          timeout=self.timeout)
        try:
            conn.connect()
            # http.client writes headers and body as separate segments;
            # without TCP_NODELAY, Nagle holds the second one until the
            # first is ACKed, which on a long-lived connection (past the
            # kernel's initial quickack window) costs a delayed-ACK
            # round trip (~40ms) per request — slower than redialing.
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError as exc:
            conn.close()
            raise ProtocolError(
                f"cannot reach {self.endpoint}: {exc}"
            ) from exc
        return conn

    def _request(self, conn: "http.client.HTTPConnection",
                 frame: bytes) -> bytes:
        conn.request(
            "POST", f"{self._path_prefix}/rpc", body=frame,
            headers={"Content-Type": "application/octet-stream"},
        )
        response = conn.getresponse()
        body = response.read()
        if response.will_close:
            # The server announced this connection is done (keep-alive
            # budget exhausted, shutdown): drop it now so the next call
            # redials instead of tripping the stale-retry path.
            conn.close()
            if conn is self._conn:
                self._conn = None
        if response.status != 200:
            raise ProtocolError(
                f"HTTP {response.status} from {self.endpoint}"
            )
        return body

    def roundtrip(self, frame: bytes) -> bytes:
        frame = bytes(frame)
        fresh = self._conn is None
        if fresh:
            self._conn = self._connect()
        try:
            return self._request(self._conn, frame)
        except (http.client.HTTPException, OSError) as exc:
            self.close()
            if fresh:
                raise ProtocolError(
                    f"transport failure against {self.endpoint}: {exc}"
                ) from exc
        # Stale reused connection: one retry on a fresh dial.
        self._conn = self._connect()
        try:
            return self._request(self._conn, frame)
        except (http.client.HTTPException, OSError) as exc:
            self.close()
            raise ProtocolError(
                f"transport failure against {self.endpoint} "
                f"(after reconnect): {exc}"
            ) from exc

    def close(self) -> None:
        """Drop the held connection (the next call redials)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None


class AsyncTransport:
    """Frames over a persistent connection, awaited on an event loop.

    Same one-endpoint contract as :class:`HttpTransport` — ``POST
    {base_url}/rpc``, frame in, frame out, status 200 or bust — and the
    same connection discipline: the first ``roundtrip`` dials, later
    ones reuse the connection, a failure on a *reused* connection is
    retried once on a fresh dial, ``Connection: close`` from the server
    drops the connection so the next call redials.

    The difference is concurrency shape: this class is **not** for
    threads at all.  One event loop holds C of these (one per simulated
    client), and each carries at most one in-flight request — so a
    single driver thread sustains hundreds to thousands of persistent
    keep-alive connections.

    Must be used from the event loop that first dialed it; the HTTP
    response is parsed by hand (status line, headers, sized body)
    because ``http.client`` is blocking.
    """

    def __init__(self, base_url: str, *, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        split = urlsplit(self.base_url)
        if split.scheme != "http" or split.hostname is None:
            raise ProtocolError(
                f"base_url must look like http://host:port, got {base_url!r}"
            )
        self._host = split.hostname
        self._port = split.port if split.port is not None else 80
        self._path_prefix = split.path
        host_header = split.hostname
        if ":" in host_header:  # bare IPv6 literal → bracket for Host:
            host_header = f"[{host_header}]"
        self._netloc = f"{host_header}:{self._port}"
        self.timeout = timeout
        self._reader: "asyncio.StreamReader | None" = None
        self._writer: "asyncio.StreamWriter | None" = None

    @property
    def endpoint(self) -> str:
        """The rpc URL frames are POSTed to."""
        return f"{self.base_url}/rpc"

    # ------------------------------------------------------------------
    async def _connect(self) -> None:
        try:
            self._reader, self._writer = await asyncio.wait_for(
                asyncio.open_connection(self._host, self._port),
                self.timeout,
            )
        except (OSError, asyncio.TimeoutError, TimeoutError) as exc:
            self._reader = self._writer = None
            raise ProtocolError(
                f"cannot reach {self.endpoint}: {exc}"
            ) from exc
        sock = self._writer.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass

    async def _drop(self) -> None:
        writer, self._writer = self._writer, None
        self._reader = None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _request(self, frame: bytes) -> bytes:
        reader, writer = self._reader, self._writer
        # Single write: request line, headers and body leave together.
        writer.write(
            (f"POST {self._path_prefix}/rpc HTTP/1.1\r\n"
             f"Host: {self._netloc}\r\n"
             f"Content-Type: application/octet-stream\r\n"
             f"Content-Length: {len(frame)}\r\n\r\n").encode("latin-1")
            + frame
        )
        await writer.drain()
        # One deadline for the whole reply: a wait per header line costs
        # more than parsing it.
        status, will_close, body = await asyncio.wait_for(
            self._read_reply(reader), self.timeout)
        if will_close:
            # Keep-alive budget exhausted or shutdown: redial next call
            # instead of tripping the stale-retry path.
            await self._drop()
        if status != 200:
            raise ProtocolError(f"HTTP {status} from {self.endpoint}")
        return body

    @staticmethod
    async def _read_reply(reader) -> "tuple[int, bool, bytes]":
        """``(status, server will close, body)`` of the next reply."""
        head = await reader.readuntil(b"\r\n\r\n")
        status_line, *lines = head[:-4].split(b"\r\n")
        parts = status_line.split(None, 2)
        if len(parts) < 2 or not parts[0].startswith(b"HTTP/"):
            raise ConnectionError(f"not an HTTP reply: {status_line[:40]!r}")
        length = None
        will_close = parts[0] == b"HTTP/1.0"
        for line in lines:
            name, sep, value = line.partition(b":")
            if not sep:
                raise ConnectionError(f"malformed header: {line[:40]!r}")
            name = name.strip().lower()
            if name == b"content-length":
                length = int(value.strip())
            elif name == b"connection":
                will_close = value.strip().lower() == b"close"
        if length is None:
            raise ConnectionError("reply without Content-Length")
        return int(parts[1]), will_close, await reader.readexactly(length)

    async def roundtrip(self, frame: bytes) -> bytes:
        """Deliver a request frame, return the reply frame."""
        frame = bytes(frame)
        fresh = self._writer is None
        if fresh:
            await self._connect()
        try:
            return await self._request(frame)
        except ProtocolError:
            raise
        except (OSError, EOFError, ValueError, asyncio.TimeoutError,
                asyncio.LimitOverrunError) as exc:
            await self._drop()
            if fresh:
                raise ProtocolError(
                    f"transport failure against {self.endpoint}: {exc}"
                ) from exc
        # Stale reused connection: one retry on a fresh dial.
        await self._connect()
        try:
            return await self._request(frame)
        except ProtocolError:
            raise
        except (OSError, EOFError, ValueError, asyncio.TimeoutError,
                asyncio.LimitOverrunError) as exc:
            await self._drop()
            raise ProtocolError(
                f"transport failure against {self.endpoint} "
                f"(after reconnect): {exc}"
            ) from exc

    async def close(self) -> None:
        """Drop the held connection (the next call redials)."""
        await self._drop()

    async def __aenter__(self) -> "AsyncTransport":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()
