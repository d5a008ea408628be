"""Ablations beyond the paper's figures.

The paper fixes ξ=50 and b=12 and writes: *"Due to lack of space, the
effect of ξ and b on the performance of LDM is not studied here."*
These benchmarks supply that study, plus three design ablations the
reproduction surfaced:

* landmark selection strategy (random vs farthest);
* the cost of HYP's cell-directory ADS (our soundness fix);
* the leaf order of HYP's hyper-edge tree (Fig. 10's question, asked of
  the distance tree instead of the network tree);
* the real RSA signer vs the keyed-hash stub (crypto cost isolation);
* accuracy of the proof-size estimation model (the paper's future work).
"""

import time

import pytest

from benchmarks.conftest import DEFAULT_FANOUT, DEFAULT_RANGE, emit
from repro.bench.harness import run_workload
from repro.core.estimate import ProofSizeModel
from repro.core.ldm import LdmMethod
from repro.core.proofs import DIRECTORY_TREE


BITS_SWEEP = [4, 8, 12, 16]
XI_SWEEP = [0.0, 50.0, 200.0, 800.0]


def test_ablation_quantization_bits(ctx, results, benchmark):
    """Fewer bits -> smaller vectors but looser bounds -> bigger cones."""
    graph = ctx.dataset()
    workload = ctx.workload()
    rows = []
    runs = {}
    for bits in BITS_SWEEP:
        method = LdmMethod.build(graph, ctx.signer, c=100, bits=bits, xi=50.0)
        run = run_workload(method, workload, ctx.signer.verify)
        runs[bits] = run
        rows.append([bits, run.total_kb, round(run.s_items)])
        results.add("ablation-bits", bits=bits, total_kb=run.total_kb,
                    s_items=run.s_items)
    emit("Ablation — LDM quantization bits b (c=100, ξ=50)",
         ["b", "total KB", "S-items"], rows)

    # Coarser codes can only enlarge the disclosed cone.
    assert runs[4].s_items >= runs[16].s_items
    # All variants still verify (run_workload raises otherwise).

    vs, vt = workload.queries[0]
    method = LdmMethod.build(graph, ctx.signer, c=100, bits=4, xi=50.0)
    benchmark(method.answer, vs, vt)


def test_ablation_compression_threshold(ctx, results, benchmark):
    """Larger ξ compresses more vectors but loosens the Lemma-4 bound."""
    graph = ctx.dataset()
    workload = ctx.workload()
    rows = []
    runs = {}
    for xi in XI_SWEEP:
        method = LdmMethod.build(graph, ctx.signer, c=100, bits=12, xi=xi)
        run = run_workload(method, workload, ctx.signer.verify)
        compressed = method._compressed.num_compressed
        runs[xi] = (run, compressed)
        rows.append([xi, compressed, run.total_kb, round(run.s_items)])
        results.add("ablation-xi", xi=xi, compressed_nodes=compressed,
                    total_kb=run.total_kb, s_items=run.s_items)
    emit("Ablation — LDM compression threshold ξ (c=100, b=12)",
         ["ξ", "compressed nodes", "total KB", "S-items"], rows)

    # Monotone compression count; looser bound can only grow the cone.
    counts = [runs[xi][1] for xi in XI_SWEEP]
    assert counts == sorted(counts)
    assert runs[800.0][0].s_items >= runs[0.0][0].s_items

    vs, vt = workload.queries[0]
    method = LdmMethod.build(graph, ctx.signer, c=100, bits=12, xi=800.0)
    benchmark(method.answer, vs, vt)


def test_ablation_landmark_selection(ctx, results, benchmark):
    """Farthest landmarks give bounds at least as tight as random ones."""
    graph = ctx.dataset()
    workload = ctx.workload()
    rows = []
    items = {}
    for strategy in ("random", "farthest"):
        method = LdmMethod.build(graph, ctx.signer, c=50,
                                 landmark_strategy=strategy)
        run = run_workload(method, workload, ctx.signer.verify)
        items[strategy] = run.s_items
        rows.append([strategy, run.total_kb, round(run.s_items)])
        results.add("ablation-selection", strategy=strategy,
                    total_kb=run.total_kb, s_items=run.s_items)
    emit("Ablation — LDM landmark selection (c=50)",
         ["strategy", "total KB", "S-items"], rows)
    assert items["farthest"] <= items["random"] * 1.1

    vs, vt = workload.queries[0]
    method = LdmMethod.build(graph, ctx.signer, c=50,
                             landmark_strategy="random")
    benchmark(method.answer, vs, vt)


def test_ablation_directory_overhead(ctx, results, benchmark):
    """The HYP cell directory (our soundness fix) must cost ~nothing."""
    workload = ctx.workload()
    method = ctx.method("HYP")
    directory_bytes = []
    total_bytes = []
    for vs, vt in workload:
        response = method.answer(vs, vt)
        section = response.section(DIRECTORY_TREE)
        directory_bytes.append(section.s_prf_bytes() + section.t_prf_bytes())
        total_bytes.append(response.sizes().total_bytes)
    share = sum(directory_bytes) / sum(total_bytes)
    emit("Ablation — HYP cell-directory overhead",
         ["mean directory bytes", "mean total bytes", "share %"],
         [[sum(directory_bytes) / len(workload),
           sum(total_bytes) / len(workload), 100 * share]])
    results.add("ablation-directory", share=share)
    assert share < 0.15, "directory ADS should be a minor fraction of the proof"

    vs, vt = workload.queries[0]
    benchmark(method.answer, vs, vt)


def test_ablation_hyperedge_leaf_order(results):
    """Cover digests per query under three orders of the same leaves.

    ``id`` is the upper triangle over borders by node id, ``cell-major``
    the same triangle over borders sorted ``(cell, id)``, ``tiled`` the
    cell-pair tiles HYP uses.  Pure tree-shape arithmetic over the
    ``steady-hyp`` perfbench pool (DE 1/4, 100 cells, 512 pairs): the
    gate is on digests, so it cannot flake on a loaded box.
    """
    import numpy as np

    from perfbench.workloads import POOL_SEED, WORKLOADS, distinct_pairs
    from repro.hiti.hyperedges import TileLayout, triangle_size
    from repro.hiti.partition import GridPartition
    from repro.merkle.multiproof import cover_indices

    workload = WORKLOADS["steady-hyp"]
    graph = workload.graph()
    partition = GridPartition(graph, workload.build["num_cells"])
    borders = partition.all_borders()
    border_cells = [partition.cell(b) for b in borders]
    n = len(borders)
    num_leaves = triangle_size(n)
    fanout = DEFAULT_FANOUT

    def triangle(i, j):
        i, j = np.minimum(i, j), np.maximum(i, j)
        return i * n - i * (i + 1) // 2 + (j - i - 1)

    by_id = np.arange(n)
    by_cell = np.empty(n, dtype=np.int64)
    by_cell[np.lexsort((borders, border_cells))] = by_id
    layout = TileLayout(border_cells)
    orders = {
        "id": triangle,
        "cell-major": lambda i, j: triangle(by_cell[i], by_cell[j]),
        "tiled": lambda i, j: layout.leaf(np.minimum(i, j), np.maximum(i, j)),
    }
    position_of = {b: k for k, b in enumerate(borders)}
    digests = {name: [] for name in orders}
    for source, target in distinct_pairs(graph, workload.pool, POOL_SEED):
        cell_s, cell_t = partition.cell(source), partition.cell(target)
        rows = [position_of[b] for b in partition.borders_of(cell_s)]
        cols = [position_of[b] for b in partition.borders_of(cell_t)]
        if cell_s == cell_t:
            i, j = np.triu_indices(len(rows), 1)
            i, j = np.take(rows, i), np.take(rows, j)
        else:
            i, j = (axis.ravel() for axis in np.meshgrid(rows, cols))
        if not i.size:
            continue
        for name, leaf in orders.items():
            leaves = leaf(i, j).tolist()
            digests[name].append(len(cover_indices(num_leaves, fanout, leaves)))
    mean = {name: sum(counts) / len(counts) for name, counts in digests.items()}
    emit(f"Ablation — HYP hyper-edge leaf order ({n} borders, "
         f"{num_leaves} leaves, {len(digests['id'])} queries)",
         ["leaf order", "mean cover digests / query"],
         [[name, mean[name]] for name in orders])
    for name in orders:
        results.add("ablation-hyperedge-order", order=name,
                    mean_cover_digests=mean[name])
    assert mean["tiled"] <= mean["cell-major"] <= mean["id"]
    assert mean["tiled"] <= mean["id"] / 4
    assert mean["tiled"] <= 25


def test_ablation_signer_cost(ctx, results, benchmark):
    """RSA signing is one-off (owner side); verification adds ~ms."""
    from repro.crypto.signer import RsaSigner

    graph = ctx.dataset(scale=1 / 64)
    rsa = RsaSigner(bits=1024, seed=77)
    start = time.perf_counter()
    method = LdmMethod.build(graph, rsa, c=20)
    rsa_build = time.perf_counter() - start

    workload_graph = ctx.workload("DE", 1 / 64, DEFAULT_RANGE)
    vs, vt = workload_graph.queries[0]
    response = method.answer(vs, vt)

    from repro.core.method import get_method

    start = time.perf_counter()
    for _ in range(20):
        assert get_method("LDM").verify(vs, vt, response, rsa.verify).ok
    rsa_verify_ms = (time.perf_counter() - start) / 20 * 1000

    emit("Ablation — signature scheme cost",
         ["scheme", "owner build s", "client verify ms"],
         [["RSA-1024 (FDH)", rsa_build, rsa_verify_ms]])
    results.add("ablation-signer", rsa_build=rsa_build,
                rsa_verify_ms=rsa_verify_ms)
    assert rsa_verify_ms < 100.0

    benchmark(rsa.verify, response.descriptor.message(),
              response.descriptor.signature)


def test_estimator_accuracy(ctx, results, benchmark):
    """The sizing model predicts measured proof sizes within ~2.5x."""
    graph = ctx.dataset()
    model = ProofSizeModel.for_graph(graph)
    rows = []
    worst = 0.0
    for name in ("DIJ", "FULL", "LDM", "HYP"):
        _, run = ctx.measure(name)
        predicted_kb = model.predict(name, DEFAULT_RANGE) / 1024
        ratio = max(predicted_kb / run.total_kb, run.total_kb / predicted_kb)
        worst = max(worst, ratio)
        rows.append([name, run.total_kb, predicted_kb, ratio])
        results.add("estimator", method=name, actual_kb=run.total_kb,
                    predicted_kb=predicted_kb, off_by=ratio)
    emit("Future work — proof-size estimation model accuracy",
         ["method", "actual KB", "predicted KB", "off-by x"], rows)
    assert worst < 2.5

    benchmark(model.predict, "HYP", DEFAULT_RANGE)
