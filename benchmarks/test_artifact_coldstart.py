"""Artifact cold-start vs rebuild-from-graph — the pack's raison d'être.

The paper's owner builds once, offline; every serving process after
that should pay only I/O, not reconstruction.  This benchmark packs
each hint-bearing method on the DE dataset, then measures

* **rebuild** — what a naive serving box pays at boot: parse the graph
  file, then ``build`` with the user-facing publish parameters
  (landmark selection, all-pairs materialization, hyper-edge
  Dijkstras, Merkle hashing), and
* **cold start** — ``load_method`` from the ``.rspv`` file, including
  full section-digest verification and graph rehydration.

Both sides start from a file on disk — the deployment question is
"what does bringing up one more serving process cost", and a process
has neither a parsed graph nor built hints until it pays for them.
The load side reports the minimum of three runs (the standard
noise-free estimate for a cheap repeatable operation); the rebuild
side runs once, since seconds-long builds self-average.

Gate: cold start is at least 10x faster than rebuild for FULL / LDM /
HYP (DIJ precomputes nothing, so its rebuild is just the network tree;
it is reported but not gated).  Loaded methods must answer
byte-identically, which the gate run re-checks on a workload sample.
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks.conftest import DEFAULT_DATASET, DEFAULT_SCALE, emit
from repro.core.method import get_method
from repro.store import load_method, save_method
from repro.store.pack import file_digest

#: Methods whose construction cost the artifact amortizes (the gate);
#: DIJ rides along for the report.
GATED_METHODS = ("FULL", "LDM", "HYP")
METHODS = ("DIJ",) + GATED_METHODS

#: Required cold-start advantage over rebuild-from-graph.
MIN_SPEEDUP = 10.0


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("coldstart")


def _measure(ctx, name: str, artifact_dir, graph_file: str) -> dict:
    from repro.graph.io import read_graph

    method = ctx.method(name)
    path = os.path.join(str(artifact_dir), f"{name.lower()}.rspv")

    start = time.perf_counter()
    save_method(method, path)
    pack_seconds = time.perf_counter() - start

    # Rebuild: the boot path of a serving box without artifacts —
    # parse the network file, then publish with the user-facing
    # parameters (LDM re-selects its landmarks exactly like a fresh
    # `DataOwner.publish` would).
    start = time.perf_counter()
    rebuilt = get_method(name).build(read_graph(graph_file), ctx.signer,
                                     **method._publish_params)
    rebuild_seconds = time.perf_counter() - start

    load_seconds = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        loaded = load_method(path)
        load_seconds = min(load_seconds, time.perf_counter() - start)

    queries = list(ctx.workload())[:5]
    for vs, vt in queries:
        assert loaded.answer(vs, vt).encode() == \
            method.answer(vs, vt).encode(), (name, vs, vt)
    assert loaded.descriptor.encode() == method.descriptor.encode()
    # The rebuild is an independent build of the same deterministic
    # state: its descriptor must agree too (sanity for the comparison).
    assert rebuilt.descriptor.encode() == method.descriptor.encode()

    return dict(
        method=name,
        artifact_bytes=os.path.getsize(path),
        artifact_digest=file_digest(path).hex(),
        pack_seconds=pack_seconds,
        rebuild_seconds=rebuild_seconds,
        load_seconds=load_seconds,
        speedup=rebuild_seconds / load_seconds if load_seconds else 0.0,
    )


@pytest.mark.perf
def test_artifact_coldstart(ctx, results, artifact_dir):
    from repro.graph.io import write_graph

    graph = ctx.dataset()
    graph_file = os.path.join(str(artifact_dir), "network.txt")
    write_graph(graph, graph_file)
    rows = []
    measurements = {}
    for name in METHODS:
        record = _measure(ctx, name, artifact_dir, graph_file)
        measurements[name] = record
        rows.append([
            name, record["artifact_bytes"] / 1024.0,
            record["pack_seconds"], record["rebuild_seconds"],
            1000.0 * record["load_seconds"], record["speedup"],
        ])
        results.add(
            "artifact_coldstart", dataset=DEFAULT_DATASET,
            scale=DEFAULT_SCALE, nodes=graph.num_nodes,
            gated=name in GATED_METHODS, min_speedup=MIN_SPEEDUP,
            **record,
        )
    emit(
        f"Artifact cold-start vs rebuild ({DEFAULT_DATASET}-like, "
        f"|V|={graph.num_nodes})",
        ["method", "artifact KB", "pack s", "rebuild s", "load ms",
         "speedup"],
        rows,
    )
    for name in GATED_METHODS:
        assert measurements[name]["speedup"] >= MIN_SPEEDUP, (
            f"{name}: cold start {measurements[name]['load_seconds']:.3f}s "
            f"is less than {MIN_SPEEDUP:g}x faster than rebuild "
            f"{measurements[name]['rebuild_seconds']:.3f}s"
        )


def test_artifact_determinism_at_scale(ctx, results, artifact_dir):
    """Same graph + build params + seed => byte-identical artifact.

    The second pack comes from an *independent* build (same seeded
    publish parameters), so the digest equality certifies the whole
    pipeline — landmark selection, quantization, compression scan,
    Merkle construction, pack layout — is reproducible end to end.
    """
    method = ctx.method("LDM")
    rebuilt = get_method("LDM").build(ctx.dataset(), ctx.signer,
                                      **method._publish_params)
    path_a = os.path.join(str(artifact_dir), "det_a.rspv")
    path_b = os.path.join(str(artifact_dir), "det_b.rspv")
    save_method(method, path_a)
    save_method(rebuilt, path_b)
    digest_a = file_digest(path_a).hex()
    assert digest_a == file_digest(path_b).hex()
    results.add("artifact_determinism", method="LDM",
                dataset=DEFAULT_DATASET, scale=DEFAULT_SCALE,
                digest=digest_a)
