"""The HTTP frontend: protocol frames over POST, one event loop.

The wire contract is deliberately minimal so that any HTTP stack can
implement it:

* ``POST /rpc`` — body is one request frame, response body is one
  reply frame (``application/octet-stream``, status 200 even for
  protocol-level errors: those ride *inside* the frame, typed by
  :mod:`repro.api.codes`);
* ``GET /healthz`` — liveness probe, returns ``ok``;
* ``GET /metrics`` — the current metrics window as a JSON object
  (served when the dispatcher offers ``metrics_json()``; same keys as
  the METRICS wire frame, for scrapers that speak HTTP but not RSPV).

:class:`AsyncProofHttpServer` serves that contract from a single event
loop multiplexing every connection:

* **keep-alive with pipelined frames** — a client may write several
  requests back to back without waiting for replies; responses come
  back in order on the same connection;
* **typed timeouts** — a connection that stalls mid-request (slow-loris
  body, short body) is answered with an
  :data:`~repro.api.codes.E_REQUEST_TIMEOUT` error frame and closed;
  an *idle* keep-alive peer is silently closed after
  ``handler_timeout``;
* **bounded connection budget** — beyond ``max_connections`` concurrent
  peers, new connections are still answered but shed with
  ``Connection: close``, so a flood degrades to one-shot service
  instead of unbounded per-connection state;
* **offloaded proof work** — ``dispatcher.dispatch`` runs on a sized
  :class:`~concurrent.futures.ThreadPoolExecutor` via
  ``run_in_executor``, so the (numpy/hashlib, GIL-releasing) proof
  computation overlaps socket I/O for thousands of idle-ish peers
  instead of serializing behind the loop.

Why an event loop: a thread per connection (stack, scheduler churn)
caps realistic concurrency at a few hundred keep-alive peers.  Here
per-connection state is one coroutine, so C=1000+ held connections are
routine — the regime the paper's untrusted-but-scalable provider is
meant for.

The server binds ``port=0`` to an ephemeral port, which is what the
tests, the load tester and the CI smoke job use to avoid port
collisions.  This module imports nothing of the serving stack (only the
error layer and the envelope's typed error frames): it serves whatever
object offers ``dispatch(bytes) -> bytes``, keeping the frontend a pure
transport.
"""

from __future__ import annotations

import asyncio
import os
import socket
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.api import codes
from repro.api.envelope import error_frame
from repro.errors import ServiceError

#: Largest request body the frontend will read, in bytes.  Frames are
#: tiny (requests are a few dozen bytes; update batches a few KB), so
#: anything huge is garbage or abuse — reject before allocating.
MAX_REQUEST_BYTES = 4 * 1024 * 1024

#: The longest a connection may wait for the next request line, the
#: rest of a header block or the rest of a body.  Long-lived keep-alive
#: clients send within milliseconds; anything slower is idle or a
#: slow-loris.
DEFAULT_HANDLER_TIMEOUT = 30.0

#: Requests served per connection before the server closes it
#: (``Connection: close``).  Bounding keep-alive bounds how long any
#: one client can hold a connection slot; well-behaved clients
#: (:class:`~repro.api.transport.HttpTransport`) redial transparently.
DEFAULT_MAX_KEEPALIVE_REQUESTS = 1000

#: How long :meth:`AsyncProofHttpServer.close` waits for requests that
#: are already being handled to finish before giving up on them.  Idle
#: keep-alive connections are *not* waited for — only connections whose
#: request line has arrived and whose response is still being produced
#: or written.
DEFAULT_DRAIN_TIMEOUT = 5.0

#: Concurrent connections served with keep-alive before new peers are
#: shed with ``Connection: close``.  The loop can *hold* far more, but
#: an unbounded budget lets one misbehaving fleet pin every fd.
DEFAULT_MAX_CONNECTIONS = 4096

#: Listen backlog: connection storms (a thousand clients dialing at
#: once) must queue in the kernel instead of seeing ECONNREFUSED.
DEFAULT_BACKLOG = 1024

#: Upper bound on one header line / the stream reader's buffer chunk.
_READ_LIMIT = 64 * 1024

#: Upper bound on the total header block of one request.
_MAX_HEADER_BYTES = 64 * 1024

_REASONS = {200: "OK", 404: "Not Found", 411: "Length Required",
            413: "Payload Too Large", 501: "Not Implemented"}


def connectable_host(bound_host: str) -> str:
    """A host clients can dial, given the interface the server bound.

    Binding the wildcard address (``0.0.0.0``, ``::``) listens on every
    interface, but *connecting* to the wildcard is at best
    platform-dependent and at worst a refused connection — an URL built
    from it is unusable.  Loopback is the one address guaranteed to
    reach a wildcard listener, so that is what client-facing accessors
    advertise.
    """
    if bound_host in ("", "0.0.0.0"):
        return "127.0.0.1"
    if bound_host in ("::", "0:0:0:0:0:0:0:0"):
        return "::1"
    return bound_host


def format_netloc(host: str, port: int) -> str:
    """``host:port`` with IPv6 literals bracketed, as URLs require."""
    if ":" in host:
        return f"[{host}]:{port}"
    return f"{host}:{port}"


def _default_dispatch_workers() -> int:
    """Executor size: enough to overlap proof work, not a thread swarm."""
    return max(2, min(8, os.cpu_count() or 1))


class _Garbage(Exception):
    """The connection's byte stream is not HTTP; answer typed, close."""

    def __init__(self, detail: str) -> None:
        super().__init__(detail)
        self.detail = detail


class AsyncProofHttpServer:
    """The asyncio HTTP frontend around a frame dispatcher.

    >>> server = AsyncProofHttpServer(dispatcher, port=0)  # doctest: +SKIP
    >>> with server:                                       # doctest: +SKIP
    ...     client = RemoteClient(HttpTransport(server.url), pk.verify)
    ...     client.query(3, 9).ok

    ``start()`` runs the event loop on a background daemon thread (the
    embedded mode tests and load drivers use); :meth:`serve_forever`
    blocks the caller until :meth:`close` (the CLI mode).  The listening
    socket is bound in the constructor, so ``port`` is resolved (and
    ``url`` usable) before the loop ever runs.  ``reuse_port=True``
    joins an ``SO_REUSEPORT`` group so sibling worker processes can
    share the port.

    Long-lived connections are bounded on three axes:
    ``handler_timeout`` caps how long one connection may stall (between
    requests or mid-request), ``max_keepalive_requests`` caps how many
    requests one connection may issue before being closed (``0``
    disables the bound), and ``max_connections`` caps how many peers
    are served with keep-alive at once.
    """

    def __init__(self, dispatcher, *, host: str = "127.0.0.1",
                 port: int = 0, reuse_port: bool = False,
                 handler_timeout: float = DEFAULT_HANDLER_TIMEOUT,
                 max_keepalive_requests: int = DEFAULT_MAX_KEEPALIVE_REQUESTS,
                 max_connections: int = DEFAULT_MAX_CONNECTIONS,
                 dispatch_workers: "int | None" = None,
                 drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
                 backlog: int = DEFAULT_BACKLOG) -> None:
        if not hasattr(dispatcher, "dispatch"):
            raise ServiceError(
                f"dispatcher must offer dispatch(bytes) -> bytes, "
                f"got {type(dispatcher).__name__}"
            )
        if handler_timeout <= 0:
            raise ServiceError(
                f"handler_timeout must be positive, got {handler_timeout}"
            )
        if max_keepalive_requests < 0:
            raise ServiceError(
                f"max_keepalive_requests must be >= 0, got "
                f"{max_keepalive_requests}"
            )
        if max_connections < 1:
            raise ServiceError(
                f"max_connections must be >= 1, got {max_connections}"
            )
        if dispatch_workers is not None and dispatch_workers < 1:
            raise ServiceError(
                f"dispatch_workers must be >= 1, got {dispatch_workers}"
            )
        if drain_timeout < 0:
            raise ServiceError(
                f"drain_timeout must be >= 0, got {drain_timeout}"
            )
        self.dispatcher = dispatcher
        self.handler_timeout = handler_timeout
        self.max_keepalive_requests = max_keepalive_requests
        self.max_connections = max_connections
        self.drain_timeout = drain_timeout
        self._backlog = backlog
        self._sock = self._bind(host, port, reuse_port)
        self._executor = ThreadPoolExecutor(
            max_workers=dispatch_workers or _default_dispatch_workers(),
            thread_name_prefix=f"repro-aio-dispatch-{self.port}",
        )
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._thread: "threading.Thread | None" = None
        self._stop: "asyncio.Event | None" = None
        self._ready = threading.Event()
        self._startup_error: "BaseException | None" = None
        self._tasks: "set[asyncio.Task]" = set()
        self._busy: "set[asyncio.Task]" = set()
        self._open_connections = 0
        self._closed = False

    @staticmethod
    def _bind(host: str, port: int, reuse_port: bool) -> socket.socket:
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        sock = socket.socket(family, socket.SOCK_STREAM)
        try:
            # A restarted server must be able to rebind its port while
            # the previous run's connections sit in TIME_WAIT.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            if reuse_port:
                if not hasattr(socket, "SO_REUSEPORT"):
                    raise ServiceError(
                        "this platform has no SO_REUSEPORT; multi-worker "
                        "serving needs one listening socket per process on "
                        "a shared port"
                    )
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((host, port))
        except OSError as exc:
            sock.close()
            raise ServiceError(f"cannot bind {host}:{port}: {exc}") from exc
        except Exception:
            sock.close()
            raise
        sock.setblocking(False)
        return sock

    # ------------------------------------------------------------------
    @property
    def bound_host(self) -> str:
        """The interface actually bound (may be a wildcard)."""
        return self._sock.getsockname()[0]

    @property
    def host(self) -> str:
        """A host clients can dial (wildcard binds resolve to loopback)."""
        return connectable_host(self.bound_host)

    @property
    def port(self) -> int:
        """The bound port (resolved even when constructed with 0)."""
        return self._sock.getsockname()[1]

    @property
    def url(self) -> str:
        """Base URL for :class:`~repro.api.transport.HttpTransport`.

        Always connectable: wildcard binds advertise loopback and IPv6
        hosts are bracketed, so the value can be pasted into a client
        (or a browser) verbatim.
        """
        return f"http://{format_netloc(self.host, self.port)}"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "AsyncProofHttpServer":
        """Run the event loop on a background daemon thread."""
        if self._thread is not None or self._closed:
            raise ServiceError("server already started")
        self._thread = threading.Thread(
            target=self._run_loop,
            name=f"repro-aio-{self.port}",
            daemon=True,
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._startup_error is not None:
            error, self._startup_error = self._startup_error, None
            self.close()
            raise ServiceError(f"async frontend failed to start: {error}")
        return self

    def serve_forever(self) -> None:
        """Serve until :meth:`close` (CLI mode).

        The loop still runs on its helper thread; the calling thread
        blocks, so Ctrl-C lands here and the CLI's ``finally: close()``
        performs the orderly shutdown.
        """
        self.start()
        thread = self._thread
        while thread is not None and thread.is_alive():
            thread.join(timeout=1.0)
            thread = self._thread

    def close(self) -> None:
        """Stop serving and release the listening socket.

        Requests whose handling has already begun are *drained*: close
        waits (up to ``drain_timeout``) until their responses have been
        flushed, so a client that was mid-exchange on a pipelined
        connection gets its reply instead of an aborted socket.  Idle
        keep-alive connections are not waited for.
        """
        self._closed = True
        thread, self._thread = self._thread, None
        loop, stop = self._loop, self._stop
        if thread is not None and loop is not None and stop is not None:
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:
                pass  # the loop already exited on its own
        if thread is not None:
            thread.join(timeout=self.drain_timeout + 10.0)
        if self._loop is None:
            # Never started: the constructor's socket is still ours.
            self._sock.close()
        self._executor.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "AsyncProofHttpServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Event-loop side
    # ------------------------------------------------------------------
    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        except BaseException as exc:  # noqa: BLE001 — surfaced via start()
            if not self._ready.is_set():
                self._startup_error = exc
                self._ready.set()
        finally:
            try:
                loop.run_until_complete(loop.shutdown_asyncgens())
            except Exception:  # noqa: BLE001 — best-effort loop teardown
                pass
            asyncio.set_event_loop(None)
            loop.close()

    async def _main(self) -> None:
        self._stop = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._handle_connection, sock=self._sock,
                limit=_READ_LIMIT, backlog=self._backlog,
            )
        except BaseException as exc:  # noqa: BLE001 — surfaced via start()
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            await self._drain_tasks()

    async def _drain_tasks(self) -> None:
        """Connection shutdown: cancel idle peers, drain busy ones.

        A response already being produced gets up to ``drain_timeout``
        to reach its client; a connection merely held open is dropped
        immediately.
        """
        for task in list(self._tasks):
            if task not in self._busy and not task.done():
                task.cancel()
        busy = [task for task in list(self._tasks) if not task.done()]
        if busy:
            _done, pending = await asyncio.wait(busy,
                                                timeout=self.drain_timeout)
            for task in pending:
                task.cancel()
        if self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._tasks.add(task)
        self._open_connections += 1
        # Budget check happens once, at accept: a shed connection gets
        # full service for its first request, then ``Connection: close``
        # tells a well-behaved client to back off and redial later.
        shed = self._open_connections > self.max_connections
        state = {"served": 0, "close": False}
        sock = writer.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass

        async def send(status: int, body: bytes,
                       content_type: str = "application/octet-stream",
                       *, force_close: bool = False) -> None:
            state["served"] += 1
            budget = self.max_keepalive_requests
            close = (force_close or shed or self._stop.is_set()
                     or bool(budget and state["served"] >= budget))
            head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                    f"Server: repro-spv-aio/1\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(body)}\r\n")
            if close:
                head += "Connection: close\r\n"
            # One write per response: headers and body leave in a single
            # segment, so no Nagle/delayed-ACK interaction to disable
            # beyond TCP_NODELAY above.
            writer.write(head.encode("latin-1") + b"\r\n" + body)
            await writer.drain()
            state["close"] = close

        try:
            while not self._stop.is_set():
                try:
                    line = await asyncio.wait_for(reader.readline(),
                                                  self.handler_timeout)
                except (asyncio.TimeoutError, TimeoutError):
                    break  # idle keep-alive peer (or header slow-loris)
                except (ValueError, asyncio.LimitOverrunError):
                    await self._send_garbage(send, "oversized request line")
                    break
                if not line:
                    break  # peer hung up between requests
                if line.strip() == b"":
                    continue  # stray CRLF between pipelined requests
                self._busy.add(task)
                try:
                    await self._serve_request(reader, send, line)
                finally:
                    self._busy.discard(task)
                if state["close"]:
                    break
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass  # the peer vanished, or shutdown cancelled an idle wait
        except _Garbage:
            pass  # typed reply already attempted; stream is desynced
        finally:
            self._open_connections -= 1
            self._tasks.discard(task)
            self._busy.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_request(self, reader, send, request_line: bytes) -> None:
        """Parse and answer one request; raises ``_Garbage`` on non-HTTP."""
        parts = request_line.strip().split()
        if len(parts) != 3 or not parts[2].upper().startswith(b"HTTP/"):
            await self._send_garbage(
                send, f"unparseable request line ({len(request_line)} bytes)")
            raise _Garbage("request line")
        verb, path, version = (parts[0].decode("latin-1"),
                               parts[1].decode("latin-1"),
                               parts[2].decode("latin-1"))
        headers = await self._read_headers(reader, send)
        if not version.endswith("1.1") or \
                headers.get("connection", "").lower() == "close":
            # HTTP/1.0 peers get one-shot service; an announced close is
            # honoured after this response.
            await self._answer(reader, send, verb, path, headers,
                               force_close=True)
        else:
            await self._answer(reader, send, verb, path, headers,
                               force_close=False)

    async def _read_headers(self, reader, send) -> "dict[str, str]":
        headers: "dict[str, str]" = {}
        total = 0
        while True:
            try:
                line = await asyncio.wait_for(reader.readline(),
                                              self.handler_timeout)
            except (asyncio.TimeoutError, TimeoutError):
                # The request line arrived but the header block stalled:
                # this is a slow-loris, not an idle peer — answer typed.
                await self._send_timeout(send, "request headers stalled")
                raise _Garbage("header stall") from None
            except (ValueError, asyncio.LimitOverrunError):
                await self._send_garbage(send, "oversized header line")
                raise _Garbage("header line") from None
            if line in (b"\r\n", b"\n"):
                return headers
            if not line:
                raise ConnectionError("peer closed mid-headers")
            total += len(line)
            if total > _MAX_HEADER_BYTES:
                await self._send_garbage(send, "header block too large")
                raise _Garbage("header block")
            name, sep, value = line.partition(b":")
            if not sep:
                await self._send_garbage(send, "malformed header line")
                raise _Garbage("header syntax")
            headers[name.strip().decode("latin-1").lower()] = \
                value.strip().decode("latin-1")

    async def _answer(self, reader, send, verb: str, path: str,
                      headers: "dict[str, str]", *, force_close: bool) -> None:
        if verb == "GET":
            await self._do_get(send, path, force_close=force_close)
            return
        if verb != "POST":
            await send(501, b"unsupported method", "text/plain",
                       force_close=True)
            return
        if path != "/rpc":
            await send(404, b"not found", "text/plain",
                       force_close=force_close)
            return
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            await send(411, b"length required", "text/plain",
                       force_close=force_close)
            return
        if length <= 0:
            await send(411, b"length required", "text/plain",
                       force_close=force_close)
            return
        if length > MAX_REQUEST_BYTES:
            await send(413, b"request too large", "text/plain",
                       force_close=True)
            return
        try:
            frame = await asyncio.wait_for(reader.readexactly(length),
                                           self.handler_timeout)
        except (asyncio.TimeoutError, TimeoutError):
            # The client advertised more body than it sent within the
            # window (slow-loris or a died peer): typed frame, then the
            # connection is dropped — its byte stream is desynced.
            await self._send_timeout(
                send, f"request body stalled: {length} bytes promised")
            raise _Garbage("body stall") from None
        except asyncio.IncompleteReadError as exc:
            await self._send_timeout(
                send, f"short request body: {len(exc.partial)} of "
                      f"{length} bytes")
            raise _Garbage("short body") from None
        # The dispatcher never raises — but it may compute for a while,
        # so it runs on the executor and the loop keeps serving others.
        loop = asyncio.get_running_loop()
        reply = await loop.run_in_executor(
            self._executor, self.dispatcher.dispatch, frame)
        await send(200, reply, force_close=force_close)

    async def _do_get(self, send, path: str, *, force_close: bool) -> None:
        if path == "/healthz":
            await send(200, b"ok", "text/plain", force_close=force_close)
        elif path == "/metrics":
            metrics_json = getattr(self.dispatcher, "metrics_json", None)
            if metrics_json is None:
                await send(404, b"not found", "text/plain",
                           force_close=force_close)
                return
            import json

            body = json.dumps(metrics_json(), sort_keys=True).encode("utf-8")
            await send(200, body, "application/json", force_close=force_close)
        else:
            await send(404, b"not found", "text/plain",
                       force_close=force_close)

    @staticmethod
    async def _send_timeout(send, detail: str) -> None:
        try:
            await send(200, error_frame(codes.E_REQUEST_TIMEOUT, detail),
                       force_close=True)
        except (ConnectionError, OSError):
            pass  # the peer that starved us is often also gone

    @staticmethod
    async def _send_garbage(send, detail: str) -> None:
        """Non-HTTP bytes on the socket: a typed error frame, then close.

        The reply is the protocol's own
        :data:`~repro.api.codes.E_MALFORMED_FRAME` error frame, not an
        HTML 400 — a kept-alive RSPV client that desyncs its stream
        gets a typed diagnosis it can actually decode.
        """
        try:
            await send(200, error_frame(codes.E_MALFORMED_FRAME, detail),
                       force_close=True)
        except (ConnectionError, OSError):
            pass
