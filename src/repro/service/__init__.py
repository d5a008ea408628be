"""Proof-serving layer: a long-lived provider for heavy traffic.

The paper's three-party model assumes a provider that answers many
clients for a long time; this package is that provider as a subsystem.
:class:`ProofServer` wraps any built
:class:`~repro.core.method.VerificationMethod` behind a request/response
API with an LRU proof cache (:class:`ProofCache`), bursts served under
one update-gate hold (shipped by the wire layer as one Merkle
multiproof), thread-safe answering for the HTTP frontend's dispatch
pool, and serving metrics (:class:`ServerMetrics`).

Typical use::

    from repro import DataOwner, ProofServer

    owner = DataOwner(graph)
    server = ProofServer(owner.publish("DIJ"), cache_size=4096)
    served = server.answer(vs, vt)
    print(server.snapshot().qps)
"""

from repro.service.aio import AsyncProofHttpServer
from repro.service.cache import CacheEntry, CacheStats, ProofCache
from repro.service.metrics import (
    MetricsSnapshot,
    ServerMetrics,
    percentile,
)
from repro.service.server import (
    ProofRequest,
    ProofServer,
    ServedResponse,
    UpdateRequest,
)
from repro.service.sync import ReadWriteLock

__all__ = [
    "ProofServer",
    "AsyncProofHttpServer",
    "ProofRequest",
    "UpdateRequest",
    "ServedResponse",
    "ReadWriteLock",
    "ProofCache",
    "CacheEntry",
    "CacheStats",
    "ServerMetrics",
    "MetricsSnapshot",
    "percentile",
]
