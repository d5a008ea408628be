"""Versioned LRU proof cache.

Proofs are deterministic for a fixed graph: DIJ/FULL/LDM/HYP all derive
their disclosure sets from the query and the (signed) authenticated
structures, so a response computed once for ``(method, source, target)``
can be replayed to every later client verbatim.  The cache therefore
stores fully-assembled :class:`~repro.core.proofs.QueryResponse` objects
keyed by that triple.

Staleness is handled through the graph's mutation counter
(:attr:`~repro.graph.graph.SpatialGraph.version`): every lookup and
insert carries the version the caller observed, and the first operation
that arrives with a different version drops the whole cache.  Per-entry
invalidation would buy nothing: however incrementally the owner patched
the hints (:meth:`~repro.core.method.VerificationMethod.apply_update`),
the re-signed descriptor supersedes every cached proof at once — each
one carries the old root and the old version.

The cache is thread-safe; :class:`~repro.service.server.ProofServer`
shares one instance across its worker threads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.core.proofs import QueryResponse
from repro.errors import ServiceError

#: Default number of cached responses (a few MB of proofs on the paper's
#: default workload sizes).
DEFAULT_CAPACITY = 1024

#: Cache key: ``(method name, source node, target node)``.
CacheKey = tuple[str, int, int]


@dataclass
class CacheStats:
    """Hit/miss bookkeeping, exposed via :attr:`ProofCache.stats`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        """Total ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when the cache was never queried)."""
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class CacheEntry:
    """A cached response, its wire size and, once replayed, its wire bytes.

    Memoised by the first hit, not at insert: a response shares its
    tuple payloads with the method's bundle, its encoding shares
    nothing, and most entries of a cold workload are never hit.
    """

    response: QueryResponse
    proof_bytes: int
    _encoded: "bytes | None" = None

    def encoded(self) -> bytes:
        """``response.encode()``, computed on the first call only."""
        if self._encoded is None:
            self._encoded = self.response.encode()
        return self._encoded


@dataclass
class _State:
    """Entries plus the graph version they were computed against."""

    version: "int | None" = None
    entries: "OrderedDict[CacheKey, CacheEntry]" = field(default_factory=OrderedDict)


class ProofCache:
    """LRU cache of query responses, invalidated by graph version.

    >>> cache = ProofCache(capacity=2)
    >>> cache.get(("DIJ", 1, 2), version=0) is None
    True
    >>> cache.stats.misses
    1
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ServiceError(f"cache capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._state = _State()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    @property
    def capacity(self) -> int:
        """Maximum number of cached responses."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._state.entries)

    # ------------------------------------------------------------------
    def _sync_version(self, version: int) -> None:
        """Drop everything if the observed graph version moved (locked)."""
        state = self._state
        if state.version != version:
            if state.entries:
                self.stats.invalidations += 1
                state.entries.clear()
            state.version = version

    def get(self, key: CacheKey, version: int, *,
            count_miss: bool = True) -> "CacheEntry | None":
        """Look up *key*; ``None`` on miss.  Hits refresh LRU recency.

        ``count_miss=False`` is for a probe whose miss falls through to
        a counting ``get``, so each request is counted exactly once.
        """
        with self._lock:
            self._sync_version(version)
            entry = self._state.entries.get(key)
            if entry is None:
                if count_miss:
                    self.stats.misses += 1
                return None
            self._state.entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def put(self, key: CacheKey, version: int,
            response: QueryResponse, proof_bytes: int) -> CacheEntry:
        """Insert a response computed against graph *version*."""
        with self._lock:
            self._sync_version(version)
            entries = self._state.entries
            entry = CacheEntry(response, proof_bytes)
            entries[key] = entry
            entries.move_to_end(key)
            while len(entries) > self._capacity:
                entries.popitem(last=False)
                self.stats.evictions += 1
            return entry

    def clear(self) -> None:
        """Drop all entries (stats are kept; use a new cache to reset them)."""
        with self._lock:
            self._state.entries.clear()
            self._state.version = None
