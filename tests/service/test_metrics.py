"""Serving metrics unit tests."""

import pytest

from repro.service.metrics import ServerMetrics, percentile


class TestPercentile:
    def test_empty(self):
        assert percentile([], 0.5) == 0.0

    def test_single_value(self):
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([7.0], 0.95) == 7.0

    def test_median_and_tail(self):
        values = [float(i) for i in range(1, 101)]  # 1..100
        assert percentile(values, 0.50) == 50.0
        assert percentile(values, 0.95) == 95.0
        assert percentile(values, 1.0) == 100.0

    def test_unsorted_input(self):
        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0


class TestServerMetrics:
    def test_snapshot_aggregates(self):
        metrics = ServerMetrics()
        metrics.record(0.010, 1000, cached=False)
        metrics.record(0.002, 500, cached=True)
        metrics.record(0.004, 500, cached=True)
        snap = metrics.snapshot()
        assert snap.requests == 3
        assert snap.cache_hits == 2
        assert snap.cache_misses == 1
        assert snap.hit_rate == pytest.approx(2 / 3)
        assert snap.proof_bytes == 2000
        assert snap.proof_kbytes == pytest.approx(2000 / 1024)
        assert snap.p50_ms == pytest.approx(4.0)
        assert snap.p95_ms == pytest.approx(10.0)
        assert snap.elapsed_seconds > 0
        assert snap.qps > 0

    def test_latency_window_is_bounded_counters_stay_exact(self, monkeypatch):
        from repro.service import metrics as module

        monkeypatch.setattr(module, "LATENCY_WINDOW", 10)
        metrics = ServerMetrics()
        for i in range(1, 101):  # 1..100 ms; the ring keeps 91..100
            metrics.record(i / 1000.0, 10, cached=bool(i % 2))
        snap = metrics.snapshot()
        assert (snap.requests, snap.cache_hits, snap.cache_misses) == \
            (100, 50, 50)
        assert snap.proof_bytes == 1000
        assert len(metrics._latencies) == 10
        assert snap.p50_ms == pytest.approx(95.0)
        assert snap.p99_ms == pytest.approx(100.0)

    def test_empty_window(self):
        snap = ServerMetrics().snapshot()
        assert snap.requests == 0
        assert snap.qps == 0.0
        assert snap.hit_rate == 0.0
        assert snap.p50_ms == 0.0

    def test_reset_starts_fresh_window(self):
        metrics = ServerMetrics()
        metrics.record(0.5, 100, cached=False)
        metrics.reset()
        snap = metrics.snapshot()
        assert snap.requests == 0
        assert snap.proof_bytes == 0

    def test_as_dict_round_trip(self):
        metrics = ServerMetrics()
        metrics.record(0.001, 10, cached=False)
        record = metrics.snapshot().as_dict()
        for field in ("requests", "qps", "hit_rate", "p50_ms", "p95_ms",
                      "proof_bytes", "elapsed_seconds", "cache_evictions",
                      "cache_invalidations", "cache_entries",
                      "cache_capacity"):
            assert field in record
        assert record["requests"] == 1

    def test_p99_in_snapshot_and_dict(self):
        metrics = ServerMetrics()
        for ms in range(1, 101):
            metrics.record(ms / 1000.0, 10, cached=False)
        snap = metrics.snapshot()
        assert snap.p99_ms == pytest.approx(99.0)
        record = snap.as_dict()
        assert record["p99_ms"] == pytest.approx(99.0)


class TestCacheCounters:
    def test_snapshot_folds_in_cache_stats(self):
        from repro.core.proofs import QueryResponse
        from repro.service.cache import ProofCache

        cache = ProofCache(capacity=2)
        response = QueryResponse.__new__(QueryResponse)  # opaque payload
        cache.put(("DIJ", 1, 2), 0, response, 10)
        cache.put(("DIJ", 1, 3), 0, response, 10)
        cache.put(("DIJ", 1, 4), 0, response, 10)  # evicts the oldest
        cache.get(("DIJ", 9, 9), 1)                # version move invalidates
        snap = ServerMetrics().snapshot(cache=cache)
        assert snap.cache_evictions == 1
        assert snap.cache_invalidations == 1
        assert snap.cache_entries == 0
        assert snap.cache_capacity == 2

    def test_server_snapshot_reports_evictions(self):
        from repro.core.dij import DijMethod
        from repro.crypto.signer import NullSigner
        from repro.graph.synthetic import grid_network
        from repro.service.server import ProofServer

        graph = grid_network(4, 4)
        server = ProofServer(DijMethod.build(graph, NullSigner()),
                             cache_size=1)
        ids = graph.node_ids()
        server.answer(ids[0], ids[5])
        server.answer(ids[0], ids[6])  # second distinct key evicts the first
        snap = server.snapshot()
        assert snap.cache_evictions == 1
        assert snap.cache_entries == 1
        assert snap.cache_capacity == 1
