"""Load generator: frames over keep-alive HTTP/1.1, closed and open loops.

The socket code is the benchmark's own (``POST /rpc``, sized body in,
sized body out) so that deleting a transport or a frontend from ``repro``
cannot break the instrument.  Verification goes through
``RemoteClient.interpret_query_reply`` — exactly what a real client runs —
either inline (latency phases) or after the timed window (load phases),
so that the server, not the driver's verify, is what saturates.
"""

from __future__ import annotations

import asyncio
import socket
import time
from dataclasses import dataclass

from repro.api.client import RemoteClient
from repro.api.envelope import (
    ErrorMessage,
    HelloReply,
    HelloRequest,
    MetricsReply,
    MetricsRequest,
    UpdateReply,
)
from repro.errors import ReproError

#: Keep-alive connections the driver holds; the box has two cores, one
#: for the server and one for this process.
CONNECTIONS = 2


class WireError(Exception):
    """The peer did not answer ``200`` with a sized body."""


@dataclass(slots=True)
class Sample:
    """One request and everything observed about its reply."""

    frame: bytes
    source: int = -1
    target: int = -1
    push: bool = False          # a PUSH_UPDATES frame, not a query
    due: float = 0.0            # open loop: offset from phase start, then absolute
    floor: "int | None" = None  # freshness floor in force when sent
    queued: bool = False        # open loop: no connection was free at the due time
    sent: float = 0.0
    received: float = 0.0
    done: float = 0.0           # verdict reached (inline verification only)
    reply: bytes = b""
    verify_cpu: float = 0.0     # driver CPU seconds inside the client check
    error: str = ""


class Conn:
    """One keep-alive connection; redials after ``Connection: close``."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self._head = (f"POST /rpc HTTP/1.1\r\nHost: {host}:{port}\r\n"
                      f"Content-Type: application/octet-stream\r\n"
                      f"Content-Length: ").encode("latin-1")
        self._reader = self._writer = None

    async def roundtrip(self, frame: bytes) -> bytes:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port)
            self._writer.get_extra_info("socket").setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        reader = self._reader
        self._writer.write(self._head + b"%d\r\n\r\n" % len(frame) + frame)
        status = await reader.readline()
        if not status.startswith(b"HTTP/1.1 200"):
            raise WireError(f"bad status line {status[:40]!r}")
        length, close = -1, False
        while (line := await reader.readline()) not in (b"\r\n", b"\n"):
            if not line:
                raise WireError("peer closed mid-headers")
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                length = int(value)
            elif name == b"connection":
                close = value.strip().lower() == b"close"
        if length < 0:
            raise WireError("reply without Content-Length")
        body = await reader.readexactly(length)
        if close:  # the server's keep-alive budget ran out: redial next time
            await self.close()
        return body

    async def close(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass


class Driver:
    """The single driver process's client state: connections, floor, tallies."""

    def __init__(self, host: str, port: int, verify_signature) -> None:
        self.client = RemoteClient(None, verify_signature)
        self.conns = [Conn(host, port) for _ in range(CONNECTIONS)]
        #: Descriptor versions announced by ``UpdateReply``, in push order.
        self.versions: "list[int]" = []

    async def close(self) -> None:
        for conn in self.conns:
            await conn.close()

    # -- one request ---------------------------------------------------
    async def _exchange(self, conn: Conn, sample: Sample, inline: bool) -> None:
        sample.floor = self.client.min_descriptor_version
        sample.sent = time.perf_counter()
        try:
            sample.reply = await conn.roundtrip(sample.frame)
        except (WireError, OSError, EOFError, ValueError) as exc:
            sample.error = f"transport: {exc!r}"
            await conn.close()
        sample.received = time.perf_counter()
        if not sample.error:
            if sample.push:
                self._absorb_push(sample)
            elif inline:
                verify(sample, self.client)
        sample.done = time.perf_counter()

    def _absorb_push(self, sample: Sample) -> None:
        """Raise the freshness floor to the version the owner just signed."""
        try:
            reply = RemoteClient.interpret_exchange(sample.reply, UpdateReply)
        except ReproError as exc:
            sample.error = f"protocol: {exc}"
            return
        if isinstance(reply, ErrorMessage):
            sample.error = f"server: {reply.code}: {reply.detail}"
            return
        self.client.require_version(reply.version)
        self.versions.append(reply.version)

    # -- loops ---------------------------------------------------------
    async def closed_loop(self, samples: "list[Sample]", connections: int,
                          *, inline: bool = False) -> None:
        """Each connection sends its next request when its reply is in."""
        pending = iter(samples)

        async def worker(conn: Conn) -> None:
            for sample in pending:
                await self._exchange(conn, sample, inline)

        await asyncio.gather(*(worker(c) for c in self.conns[:connections]))

    async def open_loop(self, samples: "list[Sample]") -> None:
        """Send on the schedule in ``sample.due`` whatever the server does.

        A request whose due time passes while both connections are busy
        leaves late; it is still timed from ``due``, so the wait a stall
        imposes on later arrivals counts.
        """
        start = time.perf_counter()
        pending = iter(samples)

        async def worker(conn: Conn) -> None:
            for sample in pending:
                sample.due += start
                delay = sample.due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                else:
                    sample.queued = True
                await self._exchange(conn, sample, False)

        await asyncio.gather(*(worker(c) for c in self.conns))

    # -- control frames ------------------------------------------------
    async def _control(self, request, reply_cls):
        reply = RemoteClient.interpret_exchange(
            await self.conns[0].roundtrip(request.to_frame()), reply_cls)
        if isinstance(reply, ErrorMessage):
            raise WireError(f"server error {reply.code}: {reply.detail}")
        return reply

    async def hello(self) -> HelloReply:
        return await self._control(HelloRequest(), HelloReply)

    async def metrics(self) -> MetricsReply:
        return await self._control(MetricsRequest(), MetricsReply)


def verify(sample: Sample, client: RemoteClient) -> None:
    """Run the client's full check on one reply, exactly as a client would."""
    cpu = time.process_time()
    try:
        result = client.interpret_query_reply(sample.source, sample.target,
                                              sample.reply)
        if not result.ok:
            sample.error = f"rejected: {result.verdict.reason}"
    except ReproError as exc:
        sample.error = f"protocol: {exc}"
    sample.verify_cpu = time.process_time() - cpu


def verify_deferred(samples: "list[Sample]", verify_signature) -> None:
    """Verify replies kept from a load phase, each under the freshness
    floor that was in force when its request was sent.

    Every reply is checked.  The check is a pure function of (query,
    reply bytes, floor), so a reply byte-identical to one already judged
    — a cache hit for a popular pair — shares that verdict instead of
    costing the driver another full verification.
    """
    client = RemoteClient(None, verify_signature)
    verdicts: "dict[tuple, str]" = {}
    for sample in samples:
        if sample.error or sample.push:
            continue
        key = (sample.source, sample.target, sample.floor, sample.reply)
        if key not in verdicts:
            client.client.min_descriptor_version = sample.floor
            verify(sample, client)
            verdicts[key] = sample.error
        sample.error = verdicts[key]
