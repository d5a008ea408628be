"""Pre-forked multi-process serving over one shared artifact.

CPython's GIL caps a single process at roughly one core of proof
computation no matter how many threads the HTTP frontend runs.  The
classic escape is the pre-fork model: N worker *processes*, each with
its own interpreter, all listening on the **same** TCP port via
``SO_REUSEPORT`` so the kernel load-balances connections across them —
no proxy in front, no port map to distribute.

This is exactly what the persistent-artifact split enables: workers do
not build anything and hold no signer — each one maps the same
read-only ``.rspv`` file (:func:`repro.store.load_method`), so the big
sections (distance matrices, Merkle levels, landmark vectors) are
shared through the page cache rather than duplicated per process.

Lifecycle: the parent reserves the port (so ``port=0`` resolves once),
spawns workers, and waits for each to report readiness.  On
:meth:`WorkerPool.stop` each worker receives ``SIGTERM``, shuts its
listener down, and ships its final
:class:`~repro.service.metrics.MetricsSnapshot` back over a queue; the
parent aggregates them (:func:`~repro.service.metrics.merge_snapshots`)
into the fleet view the CLI prints.

Workers are ``spawn``-started, not forked: the parent may be running
arbitrary threads (pytest, a load generator), and forking a threaded
CPython process is a deadlock lottery.  Spawn costs a fresh interpreter
per worker — which the artifact cold-start was built to make cheap.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import signal
import socket
import threading
import time

from repro.errors import ServiceError
from repro.service.cache import DEFAULT_CAPACITY
from repro.service.metrics import MetricsSnapshot, merge_snapshots

#: How long one worker may take to map the artifact and start listening.
DEFAULT_START_TIMEOUT = 60.0

#: Grace period for workers to flush final metrics after SIGTERM.
DEFAULT_STOP_TIMEOUT = 10.0


def _worker_main(index: int, artifact_path: str, host: str, port: int,
                 cache_size: int, events) -> None:
    """One worker process: map the artifact, serve until SIGTERM."""
    from repro.service.aio import AsyncProofHttpServer
    from repro.service.server import ProofServer

    # The parent owns Ctrl-C; workers exit on the explicit SIGTERM so a
    # terminal interrupt cannot drop a worker before its final metrics.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    try:
        server = ProofServer.from_artifact(artifact_path,
                                           cache_size=cache_size)
        http_server = AsyncProofHttpServer(server.dispatcher(), host=host,
                                           port=port, reuse_port=True)
    except Exception as exc:  # noqa: BLE001 — report, don't stack-trace
        events.put(("error", index, f"{type(exc).__name__}: {exc}"))
        return
    http_server.start()
    events.put(("ready", index, os.getpid()))
    stop.wait()
    http_server.close()
    events.put(("metrics", index, server.snapshot()))


class WorkerPool:
    """N ``SO_REUSEPORT`` HTTP workers serving one artifact.

    >>> with WorkerPool("de.ldm.rspv", workers=4) as pool:  # doctest: +SKIP
    ...     print(pool.url)        # one URL, kernel-balanced across 4
    ...                            # processes
    >>> pool.aggregate.qps         # doctest: +SKIP
    """

    def __init__(self, artifact_path: str, *, workers: int,
                 host: str = "127.0.0.1", port: int = 0,
                 cache_size: int = DEFAULT_CAPACITY,
                 start_timeout: float = DEFAULT_START_TIMEOUT) -> None:
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        if not hasattr(socket, "SO_REUSEPORT"):
            raise ServiceError(
                "this platform has no SO_REUSEPORT; run a single worker"
            )
        from repro.store import is_artifact

        if not is_artifact(artifact_path):
            raise ServiceError(
                f"{artifact_path!r} is not a .rspv artifact; workers load "
                f"their state from a packed artifact (see repro-spv pack)"
            )
        self.artifact_path = artifact_path
        self.workers = workers
        self.host = host
        self.port = port
        self.cache_size = cache_size
        self.start_timeout = start_timeout
        self._processes: list = []
        self._events = None
        self._reservation: "socket.socket | None" = None
        #: Per-worker final snapshots, filled by :meth:`stop`.
        self.worker_snapshots: list[MetricsSnapshot] = []
        #: Fleet-wide aggregate, filled by :meth:`stop`.
        self.aggregate: "MetricsSnapshot | None" = None

    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        """Base URL of the shared listener group (always connectable:
        wildcard binds advertise loopback, IPv6 hosts are bracketed)."""
        from repro.service.aio import connectable_host, format_netloc

        return f"http://{format_netloc(connectable_host(self.host), self.port)}"

    def _reserve_port(self) -> None:
        """Resolve ``port=0`` once so every worker binds the same port.

        The reservation socket joins the REUSEPORT group without
        listening (a non-listening member receives no connections), and
        is closed after the workers are up.
        """
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        try:
            sock.bind((self.host, self.port))
        except OSError as exc:
            sock.close()
            raise ServiceError(
                f"cannot bind {self.host}:{self.port}: {exc}"
            ) from exc
        self.port = sock.getsockname()[1]
        self._reservation = sock

    def start(self) -> "WorkerPool":
        """Spawn the workers and wait until every one is listening."""
        if self._processes:
            raise ServiceError("worker pool already started")
        self._reserve_port()
        context = multiprocessing.get_context("spawn")
        self._events = context.Queue()
        for index in range(self.workers):
            process = context.Process(
                target=_worker_main,
                args=(index, self.artifact_path, self.host, self.port,
                      self.cache_size, self._events),
                name=f"repro-worker-{index}",
                daemon=True,
            )
            process.start()
            self._processes.append(process)
        try:
            self._await_ready()
        except Exception:
            self.stop()
            raise
        finally:
            if self._reservation is not None:
                self._reservation.close()
                self._reservation = None
        return self

    def _await_ready(self) -> None:
        deadline = time.monotonic() + self.start_timeout
        ready = 0
        reported: set[int] = set()
        while ready < self.workers:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceError(
                    f"only {ready}/{self.workers} workers became ready "
                    f"within {self.start_timeout:.0f}s"
                )
            try:
                kind, index, payload = self._events.get(
                    timeout=min(0.25, remaining))
            except queue.Empty:
                # A worker that died during interpreter bootstrap never
                # reaches the event queue — fail fast instead of
                # sitting out the whole timeout.
                for position, process in enumerate(self._processes):
                    if position not in reported and not process.is_alive():
                        raise ServiceError(
                            f"worker {position} exited with code "
                            f"{process.exitcode} before becoming ready"
                        )
                continue
            if kind == "error":
                raise ServiceError(f"worker {index} failed to start: {payload}")
            if kind == "ready":
                ready += 1
                reported.add(index)

    # ------------------------------------------------------------------
    def stop(self, *, timeout: float = DEFAULT_STOP_TIMEOUT) -> MetricsSnapshot:
        """Terminate the workers and aggregate their final metrics.

        Idempotent, and a no-op (empty aggregate) when the pool never
        started.
        """
        if self._events is None:
            self.aggregate = merge_snapshots(self.worker_snapshots)
            return self.aggregate
        expected = sum(1 for p in self._processes if p.is_alive())
        for process in self._processes:
            if process.is_alive():
                process.terminate()  # SIGTERM — the workers' shutdown signal
        snapshots: list[MetricsSnapshot] = []
        deadline = time.monotonic() + timeout
        while len(snapshots) < expected and time.monotonic() < deadline:
            try:
                kind, _index, payload = self._events.get(
                    timeout=max(0.05, deadline - time.monotonic()))
            except queue.Empty:
                break
            if kind == "metrics":
                snapshots.append(payload)
        while True:  # non-blocking sweep for any stragglers already queued
            try:
                kind, _index, payload = self._events.get_nowait()
            except queue.Empty:
                break
            if kind == "metrics":
                snapshots.append(payload)
        for process in self._processes:
            process.join(timeout=max(0.1, deadline - time.monotonic()))
            if process.is_alive():
                process.kill()
                process.join(timeout=1.0)
        self._processes = []
        self.worker_snapshots = snapshots
        self.aggregate = merge_snapshots(snapshots)
        return self.aggregate

    # ------------------------------------------------------------------
    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
