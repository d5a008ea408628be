"""Proof cache unit tests: accounting, LRU eviction, invalidation."""

import pytest

from repro.errors import ServiceError
from repro.service.cache import CacheStats, ProofCache


def _fill(cache: ProofCache, keys, version=0):
    for i, key in enumerate(keys):
        cache.put(key, version, response=f"resp-{key}", proof_bytes=100 + i)


def key(i: int):
    return ("DIJ", i, i + 1)


class TestAccounting:
    def test_miss_then_hit(self):
        cache = ProofCache(capacity=4)
        assert cache.get(key(1), version=0) is None
        cache.put(key(1), 0, "resp", 128)
        entry = cache.get(key(1), version=0)
        assert entry is not None
        assert entry.response == "resp"
        assert entry.proof_bytes == 128
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.lookups == 2
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_probe_counts_hits_but_never_misses(self):
        cache = ProofCache(capacity=4)
        assert cache.get(key(1), version=0, count_miss=False) is None
        assert cache.stats.lookups == 0
        cache.put(key(1), 0, "resp", 128)
        assert cache.get(key(1), version=0, count_miss=False) is not None
        assert (cache.stats.hits, cache.stats.misses) == (1, 0)

    def test_entry_encodes_on_first_use_only(self):
        class Response:
            encodes = 0

            def encode(self):
                self.encodes += 1
                return b"bytes"

        response = Response()
        entry = ProofCache(capacity=4).put(key(1), 0, response, 5)
        assert response.encodes == 0  # nothing is kept at insert
        assert entry.encoded() == entry.encoded() == b"bytes"
        assert response.encodes == 1

    def test_distinct_keys_do_not_collide(self):
        cache = ProofCache(capacity=8)
        cache.put(("DIJ", 1, 2), 0, "a", 1)
        cache.put(("LDM", 1, 2), 0, "b", 2)
        cache.put(("DIJ", 2, 1), 0, "c", 3)
        assert cache.get(("DIJ", 1, 2), 0).response == "a"
        assert cache.get(("LDM", 1, 2), 0).response == "b"
        assert cache.get(("DIJ", 2, 1), 0).response == "c"

    def test_empty_stats(self):
        stats = CacheStats()
        assert stats.hit_rate == 0.0
        assert stats.lookups == 0


class TestLru:
    def test_eviction_at_capacity(self):
        cache = ProofCache(capacity=3)
        _fill(cache, [key(i) for i in range(3)])
        assert len(cache) == 3
        cache.put(key(3), 0, "new", 1)
        assert len(cache) == 3
        assert cache.stats.evictions == 1
        assert cache.get(key(0), 0) is None  # oldest went first
        assert cache.get(key(3), 0) is not None

    def test_get_refreshes_recency(self):
        cache = ProofCache(capacity=2)
        _fill(cache, [key(0), key(1)])
        assert cache.get(key(0), 0) is not None  # 0 is now most recent
        cache.put(key(2), 0, "new", 1)
        assert cache.get(key(1), 0) is None  # 1 was least recent
        assert cache.get(key(0), 0) is not None

    def test_reput_same_key_does_not_evict(self):
        cache = ProofCache(capacity=2)
        _fill(cache, [key(0), key(1)])
        cache.put(key(0), 0, "updated", 9)
        assert len(cache) == 2
        assert cache.stats.evictions == 0
        assert cache.get(key(0), 0).response == "updated"

    def test_capacity_must_be_positive(self):
        with pytest.raises(ServiceError):
            ProofCache(capacity=0)


class TestInvalidation:
    def test_version_bump_drops_entries(self):
        cache = ProofCache(capacity=4)
        _fill(cache, [key(0), key(1)], version=0)
        assert cache.get(key(0), version=1) is None
        assert len(cache) == 0
        assert cache.stats.invalidations == 1

    def test_put_with_new_version_also_invalidates(self):
        cache = ProofCache(capacity=4)
        _fill(cache, [key(0), key(1)], version=0)
        cache.put(key(2), 1, "fresh", 1)
        assert len(cache) == 1
        assert cache.get(key(0), 1) is None
        assert cache.get(key(2), 1) is not None

    def test_invalidating_empty_cache_is_not_counted(self):
        cache = ProofCache(capacity=4)
        assert cache.get(key(0), version=0) is None
        assert cache.get(key(0), version=1) is None
        assert cache.stats.invalidations == 0

    def test_clear(self):
        cache = ProofCache(capacity=4)
        _fill(cache, [key(0)])
        cache.clear()
        assert len(cache) == 0
        assert cache.get(key(0), 0) is None
