"""Interleaved update/query serving: invalidation, freshness, races.

The live-update contract of :class:`ProofServer`: queries and owner
updates may interleave freely — concurrently, from many threads — and (1) no response ever mixes pre- and post-update state, (2) after an
update returns, no request is served a stale cached proof, and (3) the
whole arrangement never deadlocks.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.dij import DijMethod
from repro.core.framework import Client
from repro.core.method import get_method
from repro.crypto.signer import NullSigner
from repro.errors import ServiceError
from repro.service.server import ProofServer, UpdateRequest
from repro.service.sync import ReadWriteLock
from repro.workload.updates import generate_update_workload, interleave


def build_server(road300):
    signer = NullSigner()
    graph = road300.copy()
    method = DijMethod.build(graph, signer)
    return ProofServer(method), signer, graph


class TestApplyUpdates:
    def test_update_bumps_version_and_drops_cache(self, road300, workload):
        server, signer, graph = build_server(road300)
        vs, vt = workload[0]
        first = server.answer(vs, vt)
        assert server.answer(vs, vt).cached
        before = server.descriptor_version

        u, v, w = next(iter(graph.edges()))
        report = server.update_edge_weight(u, v, w * 2, signer)
        assert report.mode == "incremental"
        assert server.descriptor_version == graph.version > before

        served = server.answer(vs, vt)
        assert not served.cached
        assert served.response.descriptor.version == graph.version
        assert first.response.descriptor.version < graph.version
        assert server.snapshot().updates == 1
        assert server.snapshot().update_seconds > 0.0

    def test_client_freshness_floor_end_to_end(self, road300, workload):
        server, signer, graph = build_server(road300)
        vs, vt = workload[0]
        stale = server.answer(vs, vt).response

        u, v, w = next(iter(graph.edges()))
        server.update_edge_weight(u, v, w * 2, signer)

        client = Client(signer.verify,
                        min_descriptor_version=server.descriptor_version)
        assert not client.verify(vs, vt, stale).ok
        assert client.verify(vs, vt, stale).reason == "stale-descriptor"
        assert client.verify(vs, vt, server.answer(vs, vt).response).ok

    def test_batch_updates_apply_in_order(self, road300):
        server, signer, graph = build_server(road300)
        u, v, w = next(iter(graph.edges()))
        report = server.apply_updates(
            [UpdateRequest("update-weight", u, v, w * 2),
             UpdateRequest("remove-edge", u, v),
             UpdateRequest("add-edge", u, v, w * 3)],
            signer,
        )
        assert report.mutations == 3
        assert graph.weight(u, v) == w * 3

    def test_empty_batch_rejected(self, road300):
        server, signer, _ = build_server(road300)
        with pytest.raises(ServiceError):
            server.apply_updates([], signer)

    def test_unknown_update_kind_rejected(self, road300):
        from repro.errors import ReproError

        server, signer, graph = build_server(road300)
        u, v, _ = next(iter(graph.edges()))
        version = graph.version
        with pytest.raises(ReproError):
            server.apply_updates([UpdateRequest("teleport", u, v)], signer)
        assert graph.version == version  # nothing was applied

    @pytest.mark.parametrize("name,params", [
        ("FULL", {}),
        ("HYP", dict(num_cells=25)),
    ])
    def test_failed_batch_rolls_back_and_keeps_serving(self, road300,
                                                       workload, name,
                                                       params):
        """A batch whose re-authentication fails must leave the server
        consistent: the graph reverts to the signed state, the method
        commits none of its partial work, and every later response
        still verifies (FULL and HYP both require connectivity, so a
        bridge removal is rejected mid-update)."""
        from repro.errors import GraphError

        signer = NullSigner()
        graph = road300.copy()
        method = get_method(name).build(graph, signer, **params)
        server = ProofServer(method)
        verifier = get_method(name)
        vs, vt = workload[0]
        assert verifier.verify(vs, vt, server.answer(vs, vt).response,
                               signer.verify).ok

        # Find a bridge whose removal the method must reject: FULL needs
        # the whole graph connected; HYP only needs every *border* pair
        # connected (a borderless pocket may legally detach), so there
        # the cut must strand a border node.
        from repro.graph.components import connected_components, is_connected

        def rejected_by_method(g) -> bool:
            if name == "FULL":
                return not is_connected(g)
            borders = set(method._partition.all_borders())
            components = connected_components(g)
            return sum(1 for comp in components if borders & set(comp)) > 1

        bridge = None
        for u, v, w in graph.edges():
            graph.remove_edge(u, v)
            qualifies = rejected_by_method(graph)
            graph.add_edge(u, v, w)
            if qualifies:
                bridge = (u, v)
                break
        if bridge is None:
            pytest.skip("graph has no qualifying bridge edge")
        edges_before = graph.num_edges
        weight_before = graph.weight(*bridge)
        with pytest.raises(GraphError):
            server.apply_updates(
                [UpdateRequest("update-weight", bridge[0], bridge[1],
                               weight_before * 2),
                 UpdateRequest("remove-edge", bridge[0], bridge[1])],
                signer,
            )
        # Rolled back: the edge is back at its signed weight ...
        assert graph.num_edges == edges_before
        assert graph.weight(*bridge) == weight_before
        # ... and the server still serves verifiable proofs — for every
        # workload query, not just the warmed one (a HYP partition
        # committed against the rejected graph fails exactly here).
        for qs, qt in workload:
            served = server.answer(qs, qt)
            assert served.ok
            result = verifier.verify(qs, qt, served.response, signer.verify)
            assert result.ok, (result.reason, result.detail)

    def test_changelog_stays_bounded_across_batches(self, road300):
        server, signer, graph = build_server(road300)
        u, v, w = next(iter(graph.edges()))
        for i in range(10):
            server.update_edge_weight(u, v, w * (1 + 0.01 * (i + 1)), signer)
            # Only the latest batch is retained after each trim.
            assert len(graph.changelog) <= 1
        untrimmed_server, signer2, graph2 = build_server(road300)
        untrimmed_server.trim_changelog = False
        u2, v2, w2 = next(iter(graph2.edges()))
        retained = len(graph2.changelog)
        for i in range(5):
            untrimmed_server.update_edge_weight(u2, v2, w2 + i + 1, signer2)
        assert len(graph2.changelog) == retained + 5


class TestInterleavedTraffic:
    def test_mixed_trace_serves_fresh_proofs_throughout(self, road300,
                                                        workload):
        """Replay a seeded mixed read/write trace; every response must
        carry the descriptor version current at its serve time and
        verify under it."""
        server, signer, graph = build_server(road300)
        verifier = get_method("DIJ")
        updates = generate_update_workload(graph, 4, seed=9,
                                           kinds=("update-weight",))
        trace = interleave(list(workload) * 2, updates, seed=13)
        for kind, item in trace:
            if kind == "update":
                server.apply_updates([item], signer)
                continue
            vs, vt = item
            floor = server.descriptor_version
            served = server.answer(vs, vt)
            assert served.ok
            assert served.response.descriptor.version == floor
            result = verifier.verify(vs, vt, served.response, signer.verify,
                                     min_version=floor)
            assert result.ok, (result.reason, result.detail)
        snapshot = server.snapshot()
        assert snapshot.updates == len(updates)
        # Each update invalidated the cache exactly once overall.
        assert server.cache.stats.invalidations <= len(updates)

    def test_cache_invalidation_counts_under_interleaving(self, road300,
                                                          workload):
        server, signer, graph = build_server(road300)
        queries = list(workload)[:4]
        for round_no in range(3):
            for vs, vt in queries:
                server.answer(vs, vt)
            warm = [server.answer(vs, vt).cached for vs, vt in queries]
            assert all(warm)
            u, v, w = next(iter(graph.edges()))
            server.update_edge_weight(u, v, w * 1.5, signer)
            cold = server.answer(*queries[0])
            assert not cold.cached
        assert server.cache.stats.invalidations == 3


class TestConcurrentRaces:
    TIMEOUT = 60.0

    def test_answer_concurrent_racing_updates(self, road300, workload):
        """Queries answered on thread pools race owner updates: no
        deadlock, no torn proofs, and no stale service after the final
        update."""
        server, signer, graph = build_server(road300)
        verifier = get_method("DIJ")
        queries = list(workload)
        errors: list[str] = []
        done = threading.Event()

        def query_loop():
            try:
                with ThreadPoolExecutor(max_workers=4) as pool:
                    while not done.is_set():
                        check(pool.map(lambda q: server.answer(*q), queries))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(repr(exc))

        def check(batch):
            for served in batch:
                if not served.ok:
                    errors.append(served.error)
                    continue
                result = verifier.verify(
                    served.response.source, served.response.target,
                    served.response, signer.verify)
                if not result.ok:
                    errors.append(f"{result.reason}: {result.detail}")

        workers = [threading.Thread(target=query_loop) for _ in range(2)]
        for worker in workers:
            worker.start()
        try:
            edges = list(graph.edges())
            for i in range(5):
                u, v, w = edges[i]
                server.update_edge_weight(u, v, w * 1.25, signer)
        finally:
            done.set()
            for worker in workers:
                worker.join(timeout=self.TIMEOUT)
        assert not any(worker.is_alive() for worker in workers), \
            "query workers did not finish: probable deadlock"
        assert not errors, errors[:5]

        # After the last update returned, nothing stale may be served.
        final = graph.version
        assert server.descriptor_version == final
        for vs, vt in queries:
            served = server.answer(vs, vt)
            assert served.response.descriptor.version == final

    def test_no_stale_hit_after_update_returns(self, road300, workload):
        """Deterministic race: a query computed *during* the update must
        not be replayed after the update completes."""
        server, signer, graph = build_server(road300)
        vs, vt = workload[0]
        server.answer(vs, vt)  # warm the cache pre-update

        with ThreadPoolExecutor(max_workers=1) as pool:
            u, v, w = next(iter(graph.edges()))
            future = pool.submit(server.update_edge_weight, u, v, w * 2,
                                 signer)
            future.result(timeout=self.TIMEOUT)
        served = server.answer(vs, vt)
        assert not served.cached
        assert served.response.descriptor.version == graph.version


class TestReadWriteLock:
    def test_readers_share_writers_exclude(self):
        lock = ReadWriteLock()
        active = []
        with lock.read():
            with lock.read():  # two concurrent readers (nested scopes)
                active.append("r2")
        assert active == ["r2"]
        with lock.write():
            active.append("w")
        assert active[-1] == "w"

    def test_try_acquire_read_never_waits_for_a_writer(self):
        lock = ReadWriteLock()
        assert lock.try_acquire_read()       # free: shared with others
        assert lock.try_acquire_read()
        writer = threading.Thread(target=lambda: (lock.acquire_write(),
                                                  lock.release_write()))
        writer.start()
        for _ in range(1000):
            if lock._writers_waiting:
                break
            threading.Event().wait(0.001)
        assert not lock.try_acquire_read()   # a writer is waiting
        lock.release_read()
        lock.release_read()
        writer.join(timeout=10)
        assert not writer.is_alive()
        with lock.write():
            assert not lock.try_acquire_read()   # a writer is active
        assert lock.try_acquire_read()
        lock.release_read()

    def test_writer_blocks_until_readers_drain(self):
        lock = ReadWriteLock()
        order: list[str] = []
        reader_in = threading.Event()
        release_reader = threading.Event()

        def reader():
            with lock.read():
                reader_in.set()
                release_reader.wait(10)
                order.append("reader-out")

        def writer():
            reader_in.wait(10)
            with lock.write():
                order.append("writer-in")

        threads = [threading.Thread(target=reader),
                   threading.Thread(target=writer)]
        for t in threads:
            t.start()
        reader_in.wait(10)
        release_reader.set()
        for t in threads:
            t.join(timeout=10)
        assert order == ["reader-out", "writer-in"]

    def test_waiting_writer_blocks_new_readers(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        acquired = threading.Event()

        def writer():
            lock.acquire_write()
            acquired.set()
            lock.release_write()

        t = threading.Thread(target=writer)
        t.start()
        # Give the writer a moment to start waiting, then a new reader
        # must queue behind it (writer preference) until we release.
        for _ in range(1000):
            if lock._writers_waiting:
                break
            threading.Event().wait(0.001)
        got_read = threading.Event()

        def late_reader():
            with lock.read():
                got_read.set()

        r = threading.Thread(target=late_reader)
        r.start()
        assert not got_read.wait(0.05), "late reader jumped a waiting writer"
        lock.release_read()
        t.join(timeout=10)
        r.join(timeout=10)
        assert acquired.is_set() and got_read.is_set()
