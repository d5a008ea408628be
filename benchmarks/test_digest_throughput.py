"""Digest throughput: the construction-time cost of the hash primitive.

Index construction is digest-bound — the authenticated structures hash
millions of short rows (Merkle leaves/internal nodes, MB-tree entries)
at build and re-hash subtrees on every owner update.  This benchmark
measures each supported :class:`~repro.crypto.hashing.HashFunction` on
exactly that shape of work: many small messages through the bound
``factory`` constructor (the hot-loop idiom) plus a streaming pass for
context, recording digests/second and MB/second per primitive.

blake3 is the optional fast path (satellite of the async-serving PR):
when the wheel is present its numbers land in the same table and it
must at least keep pace with sha256; when absent, the run records the
primitive as unavailable and asserts the *typed* refusal instead —
never a skip that hides a broken optional path.

Correctness rides along: every measured primitive is pinned to a known
test vector first, so a wheel that returned wrong digests fast would
fail before it could post a throughput number.
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks.conftest import emit
from repro.crypto.hashing import HashFunction
from repro.errors import CryptoError

#: Known-answer vectors: digest of b"abc" per primitive.
PINNED = {
    "sha1": "a9993e364706816aba3e25717850c26c9cd0d89d",
    "sha256":
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
    "blake3":
        "6437b3ac38465133ffb63b75273a8db548c558465d79db03fd359c6cd5bd9d85",
}

#: Merkle-node-sized messages (two digests + a little framing).
SMALL_MESSAGE = b"\xa5" * 72
SMALL_ROUNDS = 50_000

#: One streaming pass for MB/s context (artifact-section sized chunks).
STREAM_CHUNK = b"\x5a" * 65536
STREAM_CHUNKS = 256


def _blake3_available() -> bool:
    try:
        import blake3  # noqa: F401
    except ImportError:
        return False
    return True


def _measure(h: HashFunction) -> "tuple[float, float]":
    """(small digests/s, streaming MB/s) for one primitive."""
    factory = h.factory  # the hot-loop binding construction uses
    start = time.perf_counter()
    for _ in range(SMALL_ROUNDS):
        factory(SMALL_MESSAGE).digest()
    small_elapsed = time.perf_counter() - start
    hasher = factory()
    start = time.perf_counter()
    for _ in range(STREAM_CHUNKS):
        hasher.update(STREAM_CHUNK)
    hasher.digest()
    stream_elapsed = time.perf_counter() - start
    digests_per_s = SMALL_ROUNDS / small_elapsed if small_elapsed else 0.0
    mb = STREAM_CHUNKS * len(STREAM_CHUNK) / (1024.0 * 1024.0)
    mb_per_s = mb / stream_elapsed if stream_elapsed else 0.0
    return digests_per_s, mb_per_s


@pytest.mark.perf
def test_digest_throughput(results):
    have_blake3 = _blake3_available()
    rows = []
    measured: dict[str, tuple[float, float]] = {}
    for name in ("sha1", "sha256", "blake3"):
        if name == "blake3" and not have_blake3:
            # The absence itself is the asserted behaviour: a typed
            # CryptoError naming the wheel, not an ImportError.
            try:
                HashFunction("blake3")
            except CryptoError as exc:
                assert "blake3" in str(exc)
            else:
                raise AssertionError(
                    "blake3 without the wheel must raise CryptoError")
            rows.append([name, "-", "-", "unavailable (no wheel)"])
            results.add("digest_throughput", hash=name, available=False,
                        cpu_count=os.cpu_count())
            continue
        h = HashFunction(name)
        assert h.digest(b"abc").hex() == PINNED[name], name
        digests_per_s, mb_per_s = _measure(h)
        measured[name] = (digests_per_s, mb_per_s)
        rows.append([name, digests_per_s, mb_per_s, "ok"])
        results.add(
            "digest_throughput", hash=name, available=True,
            digest_size=h.digest_size, small_message_bytes=len(SMALL_MESSAGE),
            small_digests_per_s=digests_per_s, stream_mb_per_s=mb_per_s,
            cpu_count=os.cpu_count(),
        )
    emit(
        f"Digest throughput ({SMALL_ROUNDS} x {len(SMALL_MESSAGE)}-byte "
        f"Merkle-node messages; {STREAM_CHUNKS} x 64 KB stream; "
        f"{os.cpu_count()} CPUs)",
        ["hash", "small digests/s", "stream MB/s", "status"],
        rows,
    )
    # Sanity floor, not a race: hashlib on any supported machine clears
    # this by orders of magnitude; 0 would mean a broken timer.
    for name, (digests_per_s, _mb) in measured.items():
        assert digests_per_s > 1000, (name, digests_per_s)
    if have_blake3:
        # The whole point of carrying the optional wheel: it must not
        # be slower than the portable fallback with the same digest
        # size on the construction-shaped workload.
        assert measured["blake3"][0] >= measured["sha256"][0], measured
