"""Figure 8 — performance comparison under the default setting.

Paper: DE dataset, query range 2,000, Hilbert ordering, fanout 2,
c=100 landmarks, p=100 cells.

* Fig. 8a — communication overhead (KBytes), split into S-prf / T-prf;
* Fig. 8b — number of items in ΓS and ΓT;
* Fig. 8c — offline construction time of the authenticated hints
  (DIJ omitted: it pre-computes none).

Expected shape: DIJ ≫ LDM > HYP > FULL in proof size; FULL ≫ HYP >
LDM in construction time.

DIJ's bar is the paper's accounting, the one Lemma-1 ball B_s(D), sized
test-side; the two half-balls DIJ serves instead are reported beside it
(``DIJ served``).  The other paper figures (9-11) do the same.
"""

import pytest

from benchmarks.conftest import (
    DEFAULT_DATASET,
    DEFAULT_RANGE,
    DEFAULT_SCALE,
    SERVED_DIJ,
    emit,
)

METHODS = ["DIJ", "FULL", "LDM", "HYP"]


@pytest.fixture(scope="module")
def fig8_runs(ctx):
    runs = {name: ctx.measure(name, paper=True)[1] for name in METHODS}
    runs[SERVED_DIJ] = ctx.measure("DIJ")[1]
    return runs


def test_fig8a_communication_overhead(ctx, fig8_runs, results, benchmark):
    graph = ctx.dataset()
    rows = []
    for name in METHODS + [SERVED_DIJ]:
        run = fig8_runs[name]
        rows.append([name, run.s_prf_kb, run.t_prf_kb, run.total_kb])
        results.add(
            "fig8a", method=name, dataset=DEFAULT_DATASET, scale=DEFAULT_SCALE,
            nodes=graph.num_nodes, query_range=DEFAULT_RANGE,
            s_prf_kb=run.s_prf_kb, t_prf_kb=run.t_prf_kb, total_kb=run.total_kb,
        )
    emit(
        f"Fig 8a — communication overhead [KB] "
        f"({DEFAULT_DATASET}-like, |V|={graph.num_nodes}, range={DEFAULT_RANGE:g})",
        ["method", "S-prf KB", "T-prf KB", "total KB"],
        rows,
    )
    # Robust paper claims at this scale: DIJ is by far the largest and
    # FULL the smallest.  The LDM-vs-HYP gap is a graph-size effect (the
    # LDM cone grows with |V| while HYP's two cells do not) and is only
    # weakly separated at 1/16 scale; the table reports both.
    totals = {name: run.total_kb for name, run in fig8_runs.items()}
    assert totals["DIJ"] > totals["LDM"] > totals["FULL"]
    assert totals["DIJ"] > totals["HYP"] > totals["FULL"]

    # Representative per-query op for the timing harness.
    method = ctx.method("LDM")
    vs, vt = ctx.workload().queries[0]
    benchmark(method.answer, vs, vt)


def test_fig8b_item_counts(ctx, fig8_runs, results, benchmark):
    rows = []
    for name in METHODS + [SERVED_DIJ]:
        run = fig8_runs[name]
        rows.append([name, round(run.s_items), round(run.t_items)])
        results.add("fig8b", method=name, s_items=run.s_items, t_items=run.t_items)
    emit("Fig 8b — number of items in the proofs",
         ["method", "S-prf items", "T-prf items"], rows)
    assert fig8_runs["DIJ"].s_items > fig8_runs["LDM"].s_items
    assert fig8_runs["LDM"].s_items > fig8_runs["FULL"].s_items

    method = ctx.method("DIJ")
    vs, vt = ctx.workload().queries[0]
    benchmark(method.answer, vs, vt)


def test_fig8c_construction_time(ctx, fig8_runs, results, benchmark):
    rows = []
    for name in ("FULL", "LDM", "HYP"):
        run = fig8_runs[name]
        rows.append([name, run.construction_seconds])
        results.add("fig8c", method=name,
                    construction_seconds=run.construction_seconds)
    emit("Fig 8c — offline hint construction time [s] (DIJ: none)",
         ["method", "construction s"], rows)
    assert (fig8_runs["FULL"].construction_seconds
            > fig8_runs["HYP"].construction_seconds)
    assert (fig8_runs["FULL"].construction_seconds
            > 5 * fig8_runs["LDM"].construction_seconds)

    # Benchmark a cheap owner-side build (LDM hints on a small dataset).
    from repro.core.ldm import LdmMethod

    small = ctx.dataset(scale=DEFAULT_SCALE / 8)
    benchmark.pedantic(
        lambda: LdmMethod.build(small, ctx.signer, c=20), rounds=1, iterations=1
    )


def test_verification_wall_times(ctx, fig8_runs, results, benchmark):
    """§VI text: client verification cost per method (DIJ slowest)."""
    rows = []
    for name in METHODS:
        run = fig8_runs[name]
        rows.append([name, run.prove_ms, run.verify_ms])
        results.add("verify-time", method=name,
                    prove_ms=run.prove_ms, verify_ms=run.verify_ms)
    emit("§VI — proof generation / client verification wall time [ms]",
         ["method", "prove ms", "verify ms"], rows)
    assert fig8_runs["DIJ"].verify_ms > fig8_runs["FULL"].verify_ms

    from repro.core.method import get_method

    method = ctx.method("FULL")
    vs, vt = ctx.workload().queries[0]
    response = method.answer(vs, vt)
    benchmark(get_method("FULL").verify, vs, vt, response, ctx.signer.verify)
