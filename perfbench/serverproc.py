"""The server under test, in a process of its own.

``python -m perfbench.serverproc`` is the child: it loads the packed
artifact and serves it exactly as a deployment would — ``load_method`` →
``ProofServer`` → dispatcher → HTTP frontend — so the driver's
verification never shares an interpreter lock with the server.
``ServerProcess`` is the parent's handle: boot, ``/proc`` readings, stop.

The child is a plain ``subprocess`` of the driver, not a
``multiprocessing`` one: ``multiprocessing`` also starts a resource
tracker that ends only *after* its parent has, and a benchmark run must
leave no process behind.  Parent → child is one pickle on the child's
stdin (then end-of-file as the stop word); child → parent one JSON line.
"""

from __future__ import annotations

import json
import os
import pickle
import select
import subprocess
import sys

BOOT_TIMEOUT_S = 120.0
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def serve(inbox, outbox) -> None:
    """Child: load, serve, report the address, wait for end-of-file."""
    artifact, cache_size, frontend, update_keypair = pickle.load(inbox)

    def tell(message: dict) -> None:
        outbox.write(json.dumps(message) + "\n")
        outbox.flush()

    from repro.crypto.signer import RsaSigner
    from repro.service import ProofServer
    from repro.store import load_method

    try:
        if frontend == "aio":
            from repro.service import AsyncProofHttpServer as frontend_cls
        else:
            from repro.service import ProofHttpServer as frontend_cls
    except ImportError as exc:
        tell({"missing": str(exc)})
        return
    server = ProofServer(load_method(artifact), cache_size=cache_size)
    # Only the update workload hands the server the owner's signing key.
    signer = RsaSigner(update_keypair) if update_keypair is not None else None
    with frontend_cls(server.dispatcher(update_signer=signer), port=0) as http:
        tell({"ready": [http.host, http.port]})
        inbox.read()  # returns when the parent closes the pipe, or dies


class ServerProcess:
    """One server process; always ``stop()`` it (or use ``with``)."""

    def __init__(self, artifact: str, cache_size: int, *,
                 frontend: str = "aio", update_keypair=None) -> None:
        # The child imports what this process can: hand it our path.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            os.path.abspath(entry) for entry in sys.path))
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.serverproc"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
        try:
            pickle.dump((artifact, cache_size, frontend, update_keypair),
                        self._proc.stdin)
            self._proc.stdin.flush()
            ready, _, _ = select.select([self._proc.stdout], [], [],
                                        BOOT_TIMEOUT_S)
            message = json.loads(self._proc.stdout.readline()) if ready else {}
        except (OSError, ValueError):
            message = {}
        #: ``False`` when this checkout no longer has the asked-for frontend.
        self.available = "ready" in message
        if self.available:
            self.host, self.port = message["ready"]
        else:
            self.stop()
            if "missing" not in message:
                raise RuntimeError("server process failed to boot")

    @property
    def pid(self) -> int:
        return self._proc.pid

    def cpu_seconds(self) -> float:
        """utime + stime of the server process so far."""
        with open(f"/proc/{self.pid}/stat") as handle:
            # Fields after the parenthesised command name; utime and
            # stime are the 14th and 15th of the whole line.
            fields = handle.read().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process."""
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Ask the child to exit, then make sure it has (and reap it)."""
        try:
            self._proc.stdin.close()
        except OSError:
            pass
        for ask in (None, self._proc.terminate, self._proc.kill):
            if ask is not None:
                ask()
            try:
                self._proc.wait(10.0)
                break
            except subprocess.TimeoutExpired:
                continue
        self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


if __name__ == "__main__":
    serve(sys.stdin.buffer, sys.stdout)
