"""Artifact-loaded methods must be indistinguishable from built ones.

The acceptance bar for the persistence layer: byte-identical
``SignedDescriptor`` and ``QueryResponse`` payloads versus the freshly
built method, for all four methods — before and after live updates —
plus full serving-stack compatibility (ProofServer, wire dispatcher).
"""

from __future__ import annotations

import pytest

from repro.core.method import get_method
from repro.service.server import ProofServer, UpdateRequest
from repro.store import load_method, save_method

METHOD_NAMES = ("DIJ", "FULL", "LDM", "HYP")


@pytest.mark.parametrize("name", METHOD_NAMES)
class TestByteIdentical:
    def test_descriptor_bytes(self, built_methods, artifact_paths, name):
        loaded = load_method(artifact_paths[name])
        assert loaded.descriptor.encode() == \
            built_methods[name].descriptor.encode()

    def test_responses(self, built_methods, artifact_paths, workload, name):
        loaded = load_method(artifact_paths[name])
        built = built_methods[name]
        for vs, vt in workload:
            assert loaded.answer(vs, vt).encode() == \
                built.answer(vs, vt).encode()

    def test_responses_verify(self, artifact_paths, workload, signer, name):
        loaded = load_method(artifact_paths[name])
        verifier = get_method(name)
        for vs, vt in workload:
            result = verifier.verify(vs, vt, loaded.answer(vs, vt),
                                     signer.verify)
            assert result.ok, (result.reason, result.detail)

    def test_eager_load_matches_mmap_load(self, artifact_paths, workload,
                                          name):
        mapped = load_method(artifact_paths[name], mmap=True)
        eager = load_method(artifact_paths[name], mmap=False)
        vs, vt = workload[0]
        assert mapped.answer(vs, vt).encode() == eager.answer(vs, vt).encode()

    def test_load_without_graph_or_signer(self, artifact_paths, name):
        """The artifact is self-contained: no graph file, no signer."""
        loaded = load_method(artifact_paths[name])
        assert loaded.graph.num_nodes > 0
        assert loaded.descriptor.version == loaded.graph.version

    def test_expect_method_guard(self, artifact_paths, name):
        from repro.errors import ArtifactError

        other = "FULL" if name != "FULL" else "DIJ"
        with pytest.raises(ArtifactError):
            load_method(artifact_paths[name], expect_method=other)


@pytest.mark.parametrize("name", METHOD_NAMES)
class TestUpdateComposition:
    """Updates compose with the PR-3 pipeline on artifact-backed methods."""

    def test_update_stays_byte_identical(self, artifact_paths, workload,
                                         signer, tmp_path, name):
        first = load_method(artifact_paths[name])
        second = load_method(artifact_paths[name])
        u, v, w = next(iter(first.graph.edges()))
        report_a = first.update_edge_weight(u, v, w * 1.25, signer)
        report_b = second.update_edge_weight(u, v, w * 1.25, signer)
        assert report_a.mode == report_b.mode
        assert first.descriptor.encode() == second.descriptor.encode()
        assert first.descriptor.version > 0
        for vs, vt in workload:
            assert first.answer(vs, vt).encode() == \
                second.answer(vs, vt).encode()

    def test_repack_after_update_bumps_version(self, artifact_paths, signer,
                                               tmp_path, name):
        """The owner flow: load, absorb updates, re-pack a new version."""
        method = load_method(artifact_paths[name])
        old_version = method.descriptor.version
        u, v, w = next(iter(method.graph.edges()))
        method.update_edge_weight(u, v, w * 1.5, signer)
        repacked = str(tmp_path / "next.rspv")
        save_method(method, repacked)
        fresh = load_method(repacked)
        assert fresh.descriptor.version > old_version
        assert fresh.descriptor.encode() == method.descriptor.encode()


def test_ldm_packed_between_rebases(road300, signer, workload, tmp_path):
    """An LDM artifact packed while Δ > 0 loads to the same answers, and
    its next pushes (one slack, one rebase) go the same way."""
    from repro.core.ldm import LdmParams

    graph = road300.copy()
    method = get_method("LDM").build(graph, signer, c=12)
    edges = sorted(graph.edges())
    for u, v, w in edges[:3]:
        graph.update_edge_weight(u, v, w - 3.0)
    assert method.apply_update(signer).mode == "incremental"
    assert LdmParams.decode(method.descriptor.params).slack == 9.0
    path = str(tmp_path / "drift.rspv")
    save_method(method, path)
    loaded = load_method(path)

    def assert_same():
        assert loaded.descriptor.encode() == method.descriptor.encode()
        for vs, vt in workload:
            assert loaded.answer(vs, vt).encode() == \
                method.answer(vs, vt).encode()

    assert_same()
    for (u, v, w), delta, mode in ((edges[3], -4.0, "incremental"),
                                   (edges[4], -40.0, "rebase")):
        reports = [m.update_edge_weight(u, v, w + delta, signer)
                   for m in (method, loaded)]
        assert [(r.mode, r.leaves_patched) for r in reports] == \
            [(mode, reports[0].leaves_patched)] * 2
        assert_same()


@pytest.mark.parametrize("name", METHOD_NAMES)
class TestServingStack:
    def test_proof_server_from_artifact(self, artifact_paths, workload,
                                        signer, name):
        server = ProofServer.from_artifact(artifact_paths[name])
        verifier = get_method(name)
        vs, vt = workload[0]
        cold = server.answer(vs, vt)
        warm = server.answer(vs, vt)
        assert cold.ok and warm.ok and warm.cached
        assert verifier.verify(vs, vt, warm.response, signer.verify).ok
        snapshot = server.snapshot()
        assert snapshot.requests == 2
        assert snapshot.cache_entries == 1

    def test_server_updates_invalidate_cache(self, artifact_paths, workload,
                                             signer, name):
        server = ProofServer.from_artifact(artifact_paths[name])
        vs, vt = workload[0]
        before = server.answer(vs, vt)
        u, v, w = next(iter(server.method.graph.edges()))
        server.apply_updates(
            [UpdateRequest("update-weight", u, v, w * 1.1)], signer)
        after = server.answer(vs, vt)
        assert not after.cached
        assert after.response.descriptor.version > \
            before.response.descriptor.version

    def test_dispatcher_over_artifact(self, artifact_paths, workload, name):
        from repro.api.client import RemoteClient
        from repro.api.transport import InProcessTransport

        server = ProofServer.from_artifact(artifact_paths[name])
        # A serving box holds no key: a wire update push must be refused.
        dispatcher = server.dispatcher()
        transport = InProcessTransport(dispatcher)

        def accept_any(message, signature):  # trust anchor is out of scope
            return True

        client = RemoteClient(transport, accept_any)
        hello = client.hello()
        assert hello.method == name
        vs, vt = workload[0]
        assert client.query(vs, vt).response_bytes is not None
