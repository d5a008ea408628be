"""Serving metrics: QPS, latency percentiles, hit rate, bytes served.

:class:`ServerMetrics` is the running (thread-safe) accumulator owned by
a :class:`~repro.service.server.ProofServer`; :class:`MetricsSnapshot`
is the immutable read the CLI and benchmarks consume.  ``reset()``
starts a fresh measurement window, which is how one server reports
separate cold-cache and warm-cache numbers.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass

#: Latency samples a window keeps for its percentiles (the most recent
#: ones; the request, hit, miss and byte counters stay exact).
LATENCY_WINDOW = 65536


def percentile(values: "list[float]", q: float) -> float:
    """The *q*-quantile (0 <= q <= 1) by the nearest-rank method.

    Nearest-rank keeps the result an actually-observed value, which is
    the honest choice for the small request counts of a test workload.
    Returns 0.0 for an empty list.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


@dataclass(frozen=True)
class MetricsSnapshot:
    """One measurement window, frozen at :meth:`ServerMetrics.snapshot`.

    The ``cache_*`` counters mirror the proof cache's lifetime
    :class:`~repro.service.cache.CacheStats` (evictions under memory
    pressure, whole-cache invalidations after updates) plus its current
    occupancy — the capacity-tuning signals, surfaced here so the CLI,
    the METRICS wire frame and ``GET /metrics`` all report them without
    reaching into the cache object.
    """

    requests: int
    elapsed_seconds: float
    cache_hits: int
    cache_misses: int
    proof_bytes: int
    p50_ms: float
    p95_ms: float
    updates: int = 0
    update_seconds: float = 0.0
    cache_evictions: int = 0
    cache_invalidations: int = 0
    cache_entries: int = 0
    cache_capacity: int = 0
    p99_ms: float = 0.0

    @property
    def qps(self) -> float:
        """Requests per second over the window."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.requests / self.elapsed_seconds

    @property
    def hit_rate(self) -> float:
        """Served-from-cache fraction (0.0 with no requests)."""
        return self.cache_hits / self.requests if self.requests else 0.0

    @property
    def proof_kbytes(self) -> float:
        """Total proof payload served, in KBytes."""
        return self.proof_bytes / 1024.0

    def as_dict(self) -> dict:
        """Flat record for JSON results logs."""
        return {
            "requests": self.requests,
            "elapsed_seconds": self.elapsed_seconds,
            "qps": self.qps,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "hit_rate": self.hit_rate,
            "proof_bytes": self.proof_bytes,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "updates": self.updates,
            "update_seconds": self.update_seconds,
            "cache_evictions": self.cache_evictions,
            "cache_invalidations": self.cache_invalidations,
            "cache_entries": self.cache_entries,
            "cache_capacity": self.cache_capacity,
            "p99_ms": self.p99_ms,
        }


class ServerMetrics:
    """Thread-safe accumulator of per-request serving measurements."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Start a new measurement window."""
        with self._lock:
            self._started = time.perf_counter()
            self._latencies: "deque[float]" = deque(maxlen=LATENCY_WINDOW)
            self._hits = 0
            self._misses = 0
            self._bytes = 0
            self._updates = 0
            self._update_seconds = 0.0

    def record(self, latency_seconds: float, proof_bytes: int,
               *, cached: bool) -> None:
        """Record one served request."""
        with self._lock:
            self._latencies.append(latency_seconds)
            if cached:
                self._hits += 1
            else:
                self._misses += 1
            self._bytes += proof_bytes

    def record_update(self, seconds: float) -> None:
        """Record one applied owner update (re-auth latency included)."""
        with self._lock:
            self._updates += 1
            self._update_seconds += seconds

    def _freeze(self) -> MetricsSnapshot:
        with self._lock:
            latencies = sorted(self._latencies)
            return MetricsSnapshot(
                requests=self._hits + self._misses,
                elapsed_seconds=time.perf_counter() - self._started,
                cache_hits=self._hits,
                cache_misses=self._misses,
                proof_bytes=self._bytes,
                p50_ms=percentile(latencies, 0.50) * 1000.0,
                p95_ms=percentile(latencies, 0.95) * 1000.0,
                updates=self._updates,
                update_seconds=self._update_seconds,
                p99_ms=percentile(latencies, 0.99) * 1000.0,
            )

    def snapshot(self, *, cache=None) -> MetricsSnapshot:
        """Freeze the current window (the window keeps accumulating).

        Pass the server's :class:`~repro.service.cache.ProofCache` to
        fold its lifetime eviction/invalidation counters and current
        occupancy into the snapshot (what
        :meth:`~repro.service.server.ProofServer.snapshot` does).
        """
        snapshot = self._freeze()
        if cache is not None:
            from dataclasses import replace

            snapshot = replace(
                snapshot,
                cache_evictions=cache.stats.evictions,
                cache_invalidations=cache.stats.invalidations,
                cache_entries=len(cache),
                cache_capacity=cache.capacity,
            )
        return snapshot

