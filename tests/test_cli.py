"""Tests for the command line interface."""

import pytest

from repro.cli import main


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "net.txt"
    code = main(["generate", "--nodes", "200", "--seed", "3",
                 "--out", str(path)])
    assert code == 0
    return path


class TestGenerateInfo:
    def test_generate_writes_file(self, tmp_path, capsys):
        path = tmp_path / "fresh.txt"
        assert main(["generate", "--nodes", "150", "--seed", "1",
                     "--out", str(path)]) == 0
        assert path.exists()
        assert "wrote" in capsys.readouterr().out

    def test_info(self, graph_file, capsys):
        assert main(["info", str(graph_file)]) == 0
        out = capsys.readouterr().out
        assert "nodes" in out and "edge/node ratio" in out


class TestWorkload:
    def test_to_stdout(self, graph_file, capsys):
        assert main(["workload", str(graph_file), "--range", "1000",
                     "--count", "4"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 4
        for line in lines:
            vs, vt = line.split()
            assert vs != vt

    def test_to_file(self, graph_file, tmp_path, capsys):
        out = tmp_path / "w.txt"
        assert main(["workload", str(graph_file), "--range", "1000",
                     "--count", "3", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3


class TestDemo:
    @pytest.mark.parametrize("method", ["DIJ", "FULL", "LDM", "HYP"])
    def test_all_methods_verify(self, graph_file, capsys, method):
        code = main(["demo", str(graph_file), "--method", method,
                     "--queries", "2", "--range", "1000", "--insecure"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert out.count(" ok") >= 2
        assert method in out


class TestEstimate:
    def test_ranking_printed(self, graph_file, capsys):
        assert main(["estimate", str(graph_file), "--range", "1500"]) == 0
        out = capsys.readouterr().out
        for name in ("DIJ", "FULL", "LDM", "HYP"):
            assert name in out


class TestServe:
    @pytest.fixture()
    def workload_file(self, graph_file, tmp_path):
        path = tmp_path / "q.txt"
        assert main(["workload", str(graph_file), "--range", "1000",
                     "--count", "5", "--out", str(path)]) == 0
        return path

    def test_serves_workload_file(self, graph_file, workload_file, capsys):
        code = main(["serve", str(graph_file), "--method", "DIJ",
                     "--workload", str(workload_file), "--insecure"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "serving metrics" in out
        assert out.count(" ok") >= 5

    def test_reads_stdin(self, graph_file, workload_file, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", workload_file.open())
        code = main(["serve", str(graph_file), "--method", "DIJ", "--insecure"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "serving metrics" in out

    def test_concurrent_workers(self, graph_file, workload_file, capsys):
        code = main(["serve", str(graph_file), "--method", "DIJ",
                     "--workload", str(workload_file), "--insecure",
                     "--workers", "3"])
        assert code == 0, capsys.readouterr().out

    def test_bad_query_gets_error_row_not_abort(self, graph_file, tmp_path,
                                                capsys):
        path = tmp_path / "q.txt"
        path.write_text("999999 3\n1 2\n")
        code = main(["serve", str(graph_file), "--method", "DIJ",
                     "--workload", str(path), "--insecure"])
        out = capsys.readouterr().out
        assert code == 1, out
        assert "error: unknown source node 999999" in out
        assert "serving metrics" in out  # the stream kept going


class TestLoadtest:
    def test_cold_vs_warm(self, graph_file, capsys):
        code = main(["loadtest", str(graph_file), "--method", "DIJ",
                     "--range", "1000", "--count", "5", "--passes", "2",
                     "--insecure"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "cold" in out and "warm1" in out
        assert "saturation" in out and "wire/proof bytes" in out
        assert "0 verification failures" in out

    def test_loadtest_from_workload_file(self, graph_file, tmp_path, capsys):
        path = tmp_path / "q.txt"
        assert main(["workload", str(graph_file), "--range", "1000",
                     "--count", "4", "--out", str(path)]) == 0
        code = main(["loadtest", str(graph_file), "--method", "DIJ",
                     "--workload", str(path), "--insecure"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "cold" in out

    def test_rejects_single_pass(self, graph_file, capsys):
        code = main(["loadtest", str(graph_file), "--method", "DIJ",
                     "--range", "1000", "--count", "4", "--passes", "1",
                     "--insecure"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--batch-size", "3"]],
                             ids=["query", "batch3"])
    def test_replay_with_updates(self, graph_file, capsys, extra):
        code = main(["loadtest", str(graph_file), "--method", "DIJ",
                     "--range", "1000", "--count", "4", "--passes", "2",
                     "--insecure", "--updates", "1", "--clients", "3",
                     *extra])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "2 update pushes" in out

    def test_workers_need_an_artifact(self, graph_file, capsys):
        code = main(["loadtest", str(graph_file), "--insecure",
                     "--workers", "2"])
        assert code == 2
        assert "--artifact" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--http", "--no-coalesce"])
    def test_serve_only_flags_are_not_loadtest_flags(self, graph_file,
                                                     capsys, flag):
        # loadtest always crosses the wire; coalescing is serve's knob.
        with pytest.raises(SystemExit) as excinfo:
            main(["loadtest", str(graph_file), "--insecure", flag])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    def test_bench_is_not_a_subcommand(self, graph_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", str(graph_file)])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestScenarioLoadtest:
    ARGS = ["loadtest", "--scenario", "steady-burst", "--insecure",
            "--clients", "2", "--events-scale", "0.1",
            "--time-scale", "0.05", "--seed", "7"]

    def test_soak_reports_phases_and_slo_metrics(self, graph_file, tmp_path,
                                                 capsys):
        out_path = tmp_path / "soak.json"
        code = main([*self.ARGS, str(graph_file), "--method", "DIJ",
                     "--out", str(out_path)])
        out = capsys.readouterr().out
        assert code == 0, out
        for column in ("phase", "p50 ms", "p95 ms", "p99 ms", "B/query",
                       "hit %", "updates", "verified"):
            assert column in out
        for phase in ("warmup", "steady", "burst", "update-storm"):
            assert phase in out
        assert "saturation" in out and "trace" in out
        assert "0 verification failures" in out
        import json as _json
        record = _json.loads(out_path.read_text())
        assert record["scenario"] == "steady-burst"
        assert len(record["phases"]) == 4
        assert record["verification_failures"] == 0

    def test_same_seed_same_trace_digest(self, graph_file, capsys):
        digests = []
        for _ in range(2):
            assert main([*self.ARGS, str(graph_file), "--method", "DIJ"]) == 0
            out = capsys.readouterr().out
            digests.append(out.split("trace ")[1].split()[0])
        assert digests[0] == digests[1]

    def test_slo_gate_failure_exits_3(self, graph_file, tmp_path, capsys):
        policy = tmp_path / "slo.json"
        policy.write_text('{"min_saturation_qps": 10000000.0}')
        code = main([*self.ARGS, str(graph_file), "--method", "DIJ",
                     "--slo", str(policy)])
        capsys.readouterr()
        assert code == 3

    def test_unknown_scenario_is_a_typed_error(self, graph_file, capsys):
        code = main(["loadtest", "--scenario", "nope", "--insecure",
                     str(graph_file), "--method", "DIJ"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "steady-burst" in err


class TestServeHttp:
    def test_prints_url_and_shuts_down(self, graph_file, capsys, monkeypatch):
        from repro.service.aio import AsyncProofHttpServer

        def immediate_interrupt(self):
            raise KeyboardInterrupt

        monkeypatch.setattr(AsyncProofHttpServer, "serve_forever",
                            immediate_interrupt)
        code = main(["serve", str(graph_file), "--method", "DIJ",
                     "--insecure", "--http", "0"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "http://127.0.0.1:" in out
        assert "serving metrics" in out

    def test_update_pushes_disabled_by_default(self, graph_file, capsys,
                                               monkeypatch):
        from repro.service.aio import AsyncProofHttpServer

        captured = {}

        def grab_dispatcher(self):
            captured["signer"] = self.dispatcher.update_signer
            raise KeyboardInterrupt

        monkeypatch.setattr(AsyncProofHttpServer, "serve_forever",
                            grab_dispatcher)
        code = main(["serve", str(graph_file), "--method", "DIJ",
                     "--insecure", "--http", "0"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "update pushes disabled" in out
        assert captured["signer"] is None

        code = main(["serve", str(graph_file), "--method", "DIJ",
                     "--insecure", "--http", "0", "--allow-updates"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "trusted networks only" in out
        assert captured["signer"] is not None

    def test_save_key_writes_public_key(self, graph_file, tmp_path, capsys,
                                        monkeypatch):
        from repro.crypto.signer import NullSigner, load_public_key
        from repro.service.aio import AsyncProofHttpServer

        monkeypatch.setattr(AsyncProofHttpServer, "serve_forever",
                            lambda self: (_ for _ in ()).throw(KeyboardInterrupt))
        key_path = tmp_path / "owner.pub"
        code = main(["serve", str(graph_file), "--method", "DIJ",
                     "--insecure", "--http", "0",
                     "--save-key", str(key_path)])
        assert code == 0, capsys.readouterr().out
        loaded = load_public_key(str(key_path))
        probe = NullSigner()  # --insecure uses the default stub key
        assert loaded.verify(b"msg", probe.sign(b"msg"))


class TestVerifyArtifacts:
    @pytest.fixture()
    def artifacts(self, tmp_path):
        """Response, descriptor and key files from an in-process build."""
        from repro.core.dij import DijMethod
        from repro.crypto.signer import NullSigner, save_public_key
        from repro.graph.synthetic import road_network
        from repro.workload.datasets import normalize_weights
        from repro.workload.queries import generate_workload

        graph = normalize_weights(road_network(120, seed=5), 4000.0)
        signer = NullSigner()
        method = DijMethod.build(graph, signer)
        vs, vt = list(generate_workload(graph, 1200.0, count=1, seed=2))[0]
        response = tmp_path / "response.bin"
        response.write_bytes(method.answer(vs, vt).encode())
        descriptor = tmp_path / "descriptor.bin"
        descriptor.write_bytes(method.descriptor.encode())
        key = tmp_path / "owner.pub"
        save_public_key(signer, str(key))
        return dict(response=response, descriptor=descriptor, key=key,
                    source=vs, target=vt,
                    version=method.descriptor.version)

    def test_accepts_honest_artifact(self, artifacts, capsys):
        code = main(["verify", str(artifacts["response"]),
                     "--key", str(artifacts["key"]),
                     "--descriptor", str(artifacts["descriptor"])])
        out = capsys.readouterr().out
        assert code == 0, out
        assert out.startswith("ok:")

    def test_explicit_query_pins(self, artifacts, capsys):
        code = main(["verify", str(artifacts["response"]),
                     "--key", str(artifacts["key"]),
                     "--source", str(artifacts["source"]),
                     "--target", str(artifacts["target"])])
        assert code == 0, capsys.readouterr().out

    def test_wrong_query_is_rejected(self, artifacts, capsys):
        code = main(["verify", str(artifacts["response"]),
                     "--key", str(artifacts["key"]),
                     "--source", str(artifacts["source"] + 1)])
        out = capsys.readouterr().out
        assert code == 1
        assert "reject:" in out

    def test_min_version_gates_freshness(self, artifacts, capsys):
        code = main(["verify", str(artifacts["response"]),
                     "--key", str(artifacts["key"]),
                     "--min-version", str(artifacts["version"] + 1)])
        out = capsys.readouterr().out
        assert code == 1
        assert "stale-descriptor" in out

    def test_truncated_artifact_is_malformed(self, artifacts, tmp_path,
                                             capsys):
        broken = tmp_path / "broken.bin"
        broken.write_bytes(artifacts["response"].read_bytes()[:50])
        code = main(["verify", str(broken), "--key", str(artifacts["key"])])
        out = capsys.readouterr().out
        assert code == 1
        assert "malformed-response" in out

    def test_descriptor_mismatch(self, artifacts, tmp_path, capsys):
        other = tmp_path / "other.bin"
        other.write_bytes(b"not the descriptor")
        code = main(["verify", str(artifacts["response"]),
                     "--key", str(artifacts["key"]),
                     "--descriptor", str(other)])
        out = capsys.readouterr().out
        assert code == 1
        assert "descriptor-mismatch" in out

    def test_wrong_key_is_bad_signature(self, artifacts, tmp_path, capsys):
        from repro.crypto.signer import NullSigner, save_public_key

        wrong = tmp_path / "wrong.pub"
        save_public_key(NullSigner(key=b"different"), str(wrong))
        code = main(["verify", str(artifacts["response"]),
                     "--key", str(wrong)])
        out = capsys.readouterr().out
        assert code == 1
        assert "bad-signature" in out


class TestFetch:
    def test_fetch_then_verify_offline(self, graph_file, tmp_path, capsys):
        from repro.core.dij import DijMethod
        from repro.crypto.signer import NullSigner, save_public_key
        from repro.graph.io import read_graph
        from repro.service.aio import AsyncProofHttpServer
        from repro.service.server import ProofServer
        from repro.workload.queries import generate_workload

        graph = read_graph(str(graph_file))
        signer = NullSigner()
        method = DijMethod.build(graph, signer)
        vs, vt = list(generate_workload(graph, 1000.0, count=1, seed=4))[0]
        key = tmp_path / "owner.pub"
        save_public_key(signer, str(key))
        server = ProofServer(method)
        with AsyncProofHttpServer(server.dispatcher()) as http_server:
            code = main(["fetch", http_server.url, str(vs), str(vt),
                         "--out", str(tmp_path / "r.bin"),
                         "--descriptor-out", str(tmp_path / "d.bin"),
                         "--key", str(key)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "verdict: ok" in out
        code = main(["verify", str(tmp_path / "r.bin"),
                     "--key", str(key),
                     "--descriptor", str(tmp_path / "d.bin")])
        assert code == 0, capsys.readouterr().out

    def test_fetch_without_key_defers_verification(self, graph_file, tmp_path,
                                                   capsys):
        from repro.core.dij import DijMethod
        from repro.crypto.signer import NullSigner
        from repro.graph.io import read_graph
        from repro.service.aio import AsyncProofHttpServer
        from repro.service.server import ProofServer
        from repro.workload.queries import generate_workload

        graph = read_graph(str(graph_file))
        method = DijMethod.build(graph, NullSigner())
        vs, vt = list(generate_workload(graph, 1000.0, count=1, seed=4))[0]
        server = ProofServer(method)
        with AsyncProofHttpServer(server.dispatcher()) as http_server:
            code = main(["fetch", http_server.url, str(vs), str(vt),
                         "--out", str(tmp_path / "r.bin")])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "not checked" in out
        assert (tmp_path / "r.bin").exists()


class TestPackAndArtifactServe:
    @pytest.fixture()
    def packed(self, graph_file, tmp_path):
        artifact = tmp_path / "net.ldm.rspv"
        key = tmp_path / "owner.pub"
        code = main(["pack", str(graph_file), "--method", "LDM",
                     "--landmarks", "8", "--insecure",
                     "--out", str(artifact), "--save-key", str(key)])
        assert code == 0
        return artifact, key

    @pytest.fixture()
    def workload_file(self, graph_file, tmp_path):
        path = tmp_path / "q.txt"
        assert main(["workload", str(graph_file), "--range", "1000",
                     "--count", "4", "--out", str(path)]) == 0
        return path

    def test_pack_reports_digest(self, graph_file, tmp_path, capsys):
        code = main(["pack", str(graph_file), "--method", "DIJ", "--insecure",
                     "--out", str(tmp_path / "d.rspv")])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "content digest" in out
        assert "sections" in out

    def test_pack_is_deterministic(self, graph_file, tmp_path, capsys):
        from repro.store.pack import file_digest

        a = tmp_path / "a.rspv"
        b = tmp_path / "b.rspv"
        for path in (a, b):
            assert main(["pack", str(graph_file), "--method", "DIJ",
                         "--insecure", "--out", str(path)]) == 0
        assert file_digest(str(a)) == file_digest(str(b))

    def test_info_recognizes_artifact(self, packed, capsys):
        artifact, _ = packed
        capsys.readouterr()
        assert main(["info", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert ".rspv artifact" in out
        assert "descriptor version" in out
        assert "content digest" in out
        assert "root[network]" in out
        assert "ldm/vectors" in out  # the section table, with sizes

    def test_info_rejects_tampered_artifact(self, packed, tmp_path, capsys):
        artifact, _ = packed
        data = bytearray(artifact.read_bytes())
        data[len(data) // 2] ^= 0x40
        bad = tmp_path / "bad.rspv"
        bad.write_bytes(bytes(data))
        assert main(["info", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_from_artifact_verifies_with_key(self, packed,
                                                   workload_file, capsys):
        artifact, key = packed
        code = main(["serve", "--artifact", str(artifact),
                     "--workload", str(workload_file), "--key", str(key)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "artifact" in out
        assert out.count(" ok") >= 4

    def test_serve_from_artifact_without_key_is_unchecked(self, packed,
                                                          workload_file,
                                                          capsys):
        artifact, _ = packed
        code = main(["serve", "--artifact", str(artifact),
                     "--workload", str(workload_file)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "unchecked" in out

    def test_serve_needs_graph_or_artifact(self, capsys):
        assert main(["serve", "--method", "DIJ"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_rejects_graph_plus_artifact(self, graph_file, packed,
                                               capsys):
        artifact, _ = packed
        assert main(["serve", str(graph_file), "--artifact",
                     str(artifact)]) == 2
        assert "not both" in capsys.readouterr().err

    def test_http_workers_require_artifact(self, graph_file, capsys):
        code = main(["serve", str(graph_file), "--insecure",
                     "--http", "0", "--workers", "2"])
        assert code == 2
        assert "artifact" in capsys.readouterr().err

    def test_loadtest_artifact_requires_key(self, packed, capsys):
        artifact, _ = packed
        assert main(["loadtest", "--artifact", str(artifact)]) == 2
        assert "--key" in capsys.readouterr().err

    def test_loadtest_against_a_worker_pool(self, packed, capsys):
        artifact, key = packed
        code = main(["loadtest", "--artifact", str(artifact), "--workers",
                     "2", "--key", str(key), "--range", "1000", "--count",
                     "4"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "requests per worker" in out


class TestErrors:
    def test_missing_file_is_clean_error(self, capsys):
        assert main(["info", "/nonexistent/net.txt"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestPartition:
    def test_partition_writes_shards_and_manifest(self, graph_file, tmp_path,
                                                  capsys):
        prefix = tmp_path / "de"
        key = tmp_path / "owner.pub"
        code = main(["partition", str(graph_file), "--shards", "2",
                     "--insecure", "--out-prefix", str(prefix),
                     "--save-key", str(key)])
        assert code == 0
        out = capsys.readouterr().out
        assert "shard manifest" in out
        assert key.exists()
        assert (tmp_path / "de.shard0.rspv").exists()
        assert (tmp_path / "de.shard1.rspv").exists()
        assert (tmp_path / "de.manifest.rspm").exists()

    def test_info_recognizes_manifest(self, graph_file, tmp_path, capsys):
        prefix = tmp_path / "de"
        assert main(["partition", str(graph_file), "--shards", "2",
                     "--insecure", "--out-prefix", str(prefix)]) == 0
        capsys.readouterr()
        assert main(["info", str(tmp_path / "de.manifest.rspm")]) == 0
        out = capsys.readouterr().out
        assert "shard manifest" in out
        assert "boundary" in out
        assert "descriptor digest" in out


class TestRouterValidation:
    def test_router_requires_manifest(self, graph_file, capsys):
        code = main(["serve", str(graph_file), "--router", "--http", "0",
                     "--shards", "a.rspv,b.rspv"])
        assert code == 2
        assert "--manifest" in capsys.readouterr().err

    def test_router_requires_exactly_one_worker_source(self, graph_file,
                                                       tmp_path, capsys):
        manifest = tmp_path / "m.rspm"
        manifest.write_bytes(b"RSPM")
        code = main(["serve", str(graph_file), "--router", "--http", "0",
                     "--manifest", str(manifest)])
        assert code == 2
        assert "exactly one" in capsys.readouterr().err
        code = main(["serve", str(graph_file), "--router", "--http", "0",
                     "--manifest", str(manifest),
                     "--shards", "a.rspv", "--shard-urls", "http://x"])
        assert code == 2
        assert "exactly one" in capsys.readouterr().err

    def test_router_flags_without_router(self, graph_file, tmp_path, capsys):
        manifest = tmp_path / "m.rspm"
        manifest.write_bytes(b"RSPM")
        code = main(["serve", str(graph_file), "--insecure",
                     "--manifest", str(manifest)])
        assert code == 2
        assert "--router" in capsys.readouterr().err

    def test_loadtest_url_requires_key(self, graph_file, capsys):
        code = main(["loadtest", str(graph_file),
                     "--url", "http://127.0.0.1:1"])
        assert code == 2
        assert "--key" in capsys.readouterr().err
