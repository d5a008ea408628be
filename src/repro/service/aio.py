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
loop.  Each connection is a buffered :class:`asyncio.Protocol` — a byte
buffer, a parser state, one deadline; no coroutine, task or per-read
timer — so C=1000+ held peers are routine (the regime the paper's
untrusted-but-scalable provider is meant for):

* **one parse per request** — the request line is validated when its
  own line ends, the head parsed in one pass when its blank line is in,
  the body sliced out when ``Content-Length`` bytes are buffered.
  Pipelined requests are answered in order; a peer that pipelines far
  ahead, or does not read its replies, is paused, not buffered for;
* **typed timeouts** — a connection that stalls mid-request (slow-loris
  head or body, short body) is answered with an
  :data:`~repro.api.codes.E_REQUEST_TIMEOUT` error frame and closed; an
  *idle* peer is silently closed after ``handler_timeout``; non-HTTP
  bytes get an :data:`~repro.api.codes.E_MALFORMED_FRAME` frame;
* **bounded connection budget** — beyond ``max_connections`` concurrent
  peers, new connections are still answered but shed with
  ``Connection: close``, so a flood degrades to one-shot service
  instead of unbounded per-connection state;
* **replies where they land** — a dispatcher offering ``begin(frame)``
  answers on the loop what needs no waiting (``HELLO``, a cached
  ``QUERY``, a bad frame); the rest, and every frame of a dispatcher
  offering only ``dispatch``, runs on a sized
  :class:`~concurrent.futures.ThreadPoolExecutor`, so the
  (numpy/hashlib, GIL-releasing) proof work overlaps socket I/O.

The server binds ``port=0`` to an ephemeral port, which is what the
tests and perfbench use to avoid port collisions.  This module imports
nothing of the serving stack (only the error layer and the envelope's
typed error frames): it serves whatever object offers
``dispatch(bytes) -> bytes``, keeping the frontend a pure transport.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial

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

#: Upper bound on one request line, and on what a peer may pipeline
#: behind a running request before its reads are paused.
_READ_LIMIT = 64 * 1024

#: Upper bound on the total header block of one request.
_MAX_HEADER_BYTES = 64 * 1024

_REASONS = {200: b"OK", 404: b"Not Found", 411: b"Length Required",
            413: b"Payload Too Large", 501: b"Not Implemented"}


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


#: Connection states.  Below ``_ANSWERING`` the parser owns the buffer;
#: from it on, bytes that arrive only accumulate.
_IDLE, _HEAD, _BODY, _ANSWERING, _CLOSING = range(5)

#: The blank line that ends a request head (bare LFs tolerated).
_HEAD_END = re.compile(rb"\n\r?\n")


class _Connection(asyncio.Protocol):
    """One peer: a byte buffer, a parser state and one deadline.

    *idle* — no request line yet; *head* — a valid request line, headers
    incomplete; *body* — head parsed, body short; *answering* — the
    executor holds the request, or the peer is not reading its replies;
    *closing* — the last reply is flushing.  The deadline restarts when
    the state changes (never on mere bytes, so a slow-loris cannot feed
    it); its one timer re-arms itself when it fires early instead of
    being cancelled and re-created per request.
    """

    def __init__(self, server: "AsyncProofHttpServer", loop) -> None:
        self.server = server
        self.loop = loop
        self.transport = None
        self.buffer = bytearray()
        self.state = _IDLE
        self.served = 0
        self._scan = 0            # buffer offset the next search resumes at
        self._eof = False
        self._close_after = False  # this request asked for one-shot service
        self._write_paused = False
        self._pending = None      # the executor future of a running request

    # -- transport callbacks -------------------------------------------
    def connection_made(self, transport) -> None:
        server = self.server
        self.transport = transport
        server._connections.add(self)
        server._accepted += 1
        # Budget check happens once, at accept: a shed connection gets
        # full service for its first request, then ``Connection: close``
        # tells a well-behaved client to back off and redial later.
        self.shed = len(server._connections) > server.max_connections
        self._enter(_IDLE)
        self._timer = self.loop.call_at(self._expires, self._on_deadline)

    def connection_lost(self, exc) -> None:
        server = self.server
        self.state = _CLOSING
        self._timer.cancel()
        if self._pending is not None:
            self._pending.cancel()
        server._connections.discard(self)
        if not server._connections and server._drained is not None \
                and not server._drained.done():
            server._drained.set_result(None)

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        if self.state < _ANSWERING:
            self._pump()
        elif len(self.buffer) > _READ_LIMIT:
            # Pipelined far ahead of a running request: stop reading.
            self.transport.pause_reading()

    def eof_received(self) -> bool:
        self._eof = True
        if self.state < _ANSWERING:
            self._pump()
        return True  # half-open: replies still owed can be written

    def pause_writing(self) -> None:
        self._write_paused = True

    def resume_writing(self) -> None:
        self._write_paused = False
        if self.state is _ANSWERING and self._pending is None:
            self._resume()

    # -- the deadline ---------------------------------------------------
    def _enter(self, state: int) -> None:
        self.state = state
        self._expires = self.loop.time() + self.server.handler_timeout

    def _on_deadline(self) -> None:
        now, state = self.loop.time(), self.state
        if state is _ANSWERING:
            self._expires = now + self.server.handler_timeout
        if now < self._expires:
            self._timer = self.loop.call_at(self._expires, self._on_deadline)
        elif state is _IDLE:
            self.transport.close()  # an idle peer asked nothing: no frame
        elif state is _HEAD:  # a slow-loris, not an idle peer: typed
            self._fail(codes.E_REQUEST_TIMEOUT, "request headers stalled")
        elif state is _BODY:
            self._fail(codes.E_REQUEST_TIMEOUT,
                       f"request body stalled: {self._need - self._body_at} "
                       f"bytes promised")

    # -- parsing --------------------------------------------------------
    def _pump(self) -> None:
        """Answer every complete request in the buffer, in order."""
        buffer = self.buffer
        while self.state < _ANSWERING:
            if self.state is _IDLE:
                end = buffer.find(b"\n", self._scan) + 1
                if (end or len(buffer)) > _READ_LIMIT:
                    return self._fail(codes.E_MALFORMED_FRAME,
                                      "oversized request line")
                if not end:
                    self._scan = len(buffer)
                    break
                parts = bytes(buffer[:end]).split()
                if not parts:  # stray CRLF between pipelined requests
                    del buffer[:end]
                    self._scan = 0
                    continue
                if len(parts) != 3 or not parts[2].upper().startswith(b"HTTP/"):
                    return self._fail(
                        codes.E_MALFORMED_FRAME,
                        f"unparseable request line ({end} bytes)")
                self._parts, self._line_end, self._scan = parts, end, end - 1
                self._enter(_HEAD)
            if self.state is _HEAD:
                match = _HEAD_END.search(buffer, self._scan)
                block = (match.start() if match else len(buffer)) \
                    - self._line_end
                if block > _MAX_HEADER_BYTES:
                    return self._fail(codes.E_MALFORMED_FRAME,
                                      "header block too large")
                if match is None:
                    self._scan = max(self._scan, len(buffer) - 2)
                    break
                if not self._route(match):
                    continue
            if len(buffer) < self._need:
                break
            frame = bytes(buffer[self._body_at:self._need])
            del buffer[:self._need]
            begin = self.server._begin
            ready = begin(frame) if begin is not None \
                else partial(self.server.dispatcher.dispatch, frame)
            if isinstance(ready, bytes):  # answered where it landed
                self._send(200, ready)
            else:
                # Proof work, or a held update gate: a thread's to wait for.
                self.state = _ANSWERING
                self._pending = self.loop.run_in_executor(
                    self.server._executor, ready)
                self._pending.add_done_callback(self._on_reply)
        if self._eof and self.state < _ANSWERING:
            if self.state is _BODY:
                self._fail(codes.E_REQUEST_TIMEOUT,
                           f"short request body: "
                           f"{len(buffer) - self._body_at} of "
                           f"{self._need - self._body_at} bytes")
            else:
                self.transport.close()  # hung up between requests

    def _route(self, match) -> bool:
        """Parse the complete head; ``True`` if a ``/rpc`` body follows
        (anything else is answered here and consumed from the buffer)."""
        buffer, length, close = self.buffer, b"0", False
        if match.start() > self._line_end:
            for line in bytes(buffer[self._line_end:match.start()]).split(b"\n"):
                name, sep, value = line.partition(b":")
                if not sep:
                    self._fail(codes.E_MALFORMED_FRAME, "malformed header line")
                    return False
                name = name.strip().lower()
                if name == b"content-length":
                    length = value.strip()
                elif name == b"connection":
                    close = value.strip().lower() == b"close"
        verb, path, version = self._parts
        # HTTP/1.0 peers get one-shot service; an announced close is
        # honoured after this response.
        self._close_after = close or not version.endswith(b"1.1")
        if verb == b"POST" and path == b"/rpc":
            try:
                size = int(length)
            except ValueError:
                size = 0
            if 0 < size <= MAX_REQUEST_BYTES:
                self._body_at = match.end()
                self._need = self._body_at + size
                self._enter(_BODY)
                return True
        del buffer[:match.end()]
        metrics_json = getattr(self.server.dispatcher, "metrics_json", None)
        if verb == b"GET" and path == b"/healthz":
            self._send(200, b"ok", b"text/plain")
        elif verb == b"GET" and path == b"/metrics" and metrics_json:
            self._send(200, json.dumps(metrics_json(),
                                       sort_keys=True).encode("utf-8"),
                       b"application/json")
        elif verb == b"GET" or (verb == b"POST" and path != b"/rpc"):
            self._send(404, b"not found", b"text/plain")
        elif verb != b"POST":
            self._send(501, b"unsupported method", b"text/plain", close=True)
        elif size <= 0:
            self._send(411, b"length required", b"text/plain")
        else:
            self._send(413, b"request too large", b"text/plain", close=True)
        return False

    # -- replies --------------------------------------------------------
    def _on_reply(self, future) -> None:
        self._pending = None
        if future.cancelled() or self.state is _CLOSING:
            return  # the connection was lost while the executor worked
        try:
            reply = future.result()
        except Exception:
            self.transport.abort()  # a dispatcher must not raise
            raise
        self._send(200, reply)
        if self.state is _IDLE:
            self._resume()

    def _resume(self) -> None:
        """Leave *answering*: read again, parse what piled up meanwhile."""
        self._enter(_IDLE)
        self.transport.resume_reading()  # a no-op unless paused
        self._pump()

    def _send(self, status: int, body: bytes,
              content_type: bytes = b"application/octet-stream",
              *, close: bool = False) -> None:
        server = self.server
        self.served += 1
        budget = server.max_keepalive_requests
        close = (close or self._close_after or self.shed
                 or server._stop.is_set()
                 or bool(budget and self.served >= budget))
        # One write per response: headers and body leave in a single
        # segment (asyncio sets TCP_NODELAY on every stream socket).
        self.transport.write(
            b"HTTP/1.1 %d %s\r\nServer: repro-spv-aio/1\r\n"
            b"Content-Type: %s\r\nContent-Length: %d\r\n%s\r\n"
            % (status, _REASONS[status], content_type, len(body),
               b"Connection: close\r\n" if close else b"") + body)
        self._scan = 0
        if close:
            self.state = _CLOSING
            self.transport.close()  # flushes what was just written first
        elif self._write_paused:
            self.state = _ANSWERING  # until the peer reads: resume_writing
        else:
            self._enter(_IDLE)

    def _fail(self, code: str, detail: str) -> None:
        """A typed error frame (not an HTML 400: an RSPV client can
        decode it), then close — the byte stream is desynced."""
        self._send(200, error_frame(code, detail), close=True)

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
    ``url`` usable) before the loop ever runs.

    Long-lived connections are bounded on three axes:
    ``handler_timeout`` caps how long one connection may stall (between
    requests or mid-request), ``max_keepalive_requests`` caps how many
    requests one connection may issue before being closed (``0``
    disables the bound), and ``max_connections`` caps how many peers
    are served with keep-alive at once.
    """

    def __init__(self, dispatcher, *, host: str = "127.0.0.1",
                 port: int = 0,
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
        self._sock = self._bind(host, port)
        self._executor = ThreadPoolExecutor(
            max_workers=dispatch_workers or _default_dispatch_workers(),
            thread_name_prefix=f"repro-aio-dispatch-{self.port}",
        )
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._thread: "threading.Thread | None" = None
        self._stop: "asyncio.Event | None" = None
        self._ready = threading.Event()
        self._startup_error: "BaseException | None" = None
        #: The dispatcher's non-blocking first half, when it offers one.
        self._begin = getattr(dispatcher, "begin", None)
        self._connections: "set[_Connection]" = set()
        self._drained: "asyncio.Future | None" = None
        self._accepted = 0
        self._closed = False

    @staticmethod
    def _bind(host: str, port: int) -> socket.socket:
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        sock = socket.socket(family, socket.SOCK_STREAM)
        try:
            # A restarted server must be able to rebind its port while
            # the previous run's connections sit in TIME_WAIT.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
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
    def connections_accepted(self) -> int:
        """Connections accepted so far (how tests count redials)."""
        return self._accepted

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
        loop = asyncio.get_running_loop()
        try:
            server = await loop.create_server(
                lambda: _Connection(self, loop), sock=self._sock,
                backlog=self._backlog,
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
            await self._drain_connections()
            await server.wait_closed()

    async def _drain_connections(self) -> None:
        """Connection shutdown: drop idle peers; a request that has begun
        (request line in, reply not yet flushed) gets ``drain_timeout``
        to finish, its reply carrying ``Connection: close``."""
        for conn in list(self._connections):
            if conn.state is _IDLE:
                conn.transport.close()
        if self._connections:
            self._drained = asyncio.get_running_loop().create_future()
            try:
                await asyncio.wait_for(self._drained, self.drain_timeout)
            except (asyncio.TimeoutError, TimeoutError):
                for conn in list(self._connections):
                    conn.transport.abort()
                await asyncio.sleep(0)  # let the aborts release their sockets
