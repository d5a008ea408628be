"""Reader/writer lock for interleaving queries with live updates.

Proof computation is a pure read of the authenticated structures, so
any number of worker threads may answer queries concurrently.  An
owner update, by contrast, mutates the graph, the hint state and the
Merkle levels in many steps — a query racing through the middle of one
would assemble a proof mixing old and new digests.  The server
therefore serves queries under the shared side of this lock and
applies updates under the exclusive side.

The lock is writer-preferring: once an update is waiting, new readers
queue behind it, so a steady query stream cannot starve the update.
Neither side is reentrant — the server never nests acquisitions.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager


class ReadWriteLock:
    """Many concurrent readers, one exclusive writer, writer-preferring."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    @contextmanager
    def read(self):
        """Shared acquisition (query path)."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write(self):
        """Exclusive acquisition (update path)."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def try_acquire_read(self) -> bool:
        """Shared acquisition, refused (not awaited) while a writer is
        active or waiting — for callers that must not block (the loop)."""
        with self._cond:
            if self._writer_active or self._writers_waiting:
                return False
            self._readers += 1
            return True

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True

    def release_write(self) -> None:
        with self._cond:
            self._writer_active = False
            self._cond.notify_all()
