"""Figure 10 — effect of the graph-node ordering on proof size.

Paper: five orderings (bfs, dfs, hbt, kd, rand) under otherwise default
settings.  Expected shape: ``rand`` is the worst, ``bfs`` second worst;
``hbt``/``kd``/``dfs`` are similar and the best because they preserve
network proximity, so proof items share sibling digests.
"""

import statistics

import pytest

from benchmarks.conftest import SERVED_DIJ, emit

ORDERINGS = ["bfs", "dfs", "hbt", "kd", "rand"]
METHODS = ["DIJ", "FULL", "LDM", "HYP"]


@pytest.fixture(scope="module")
def fig10_runs(ctx):
    runs = {
        (ordering, name): ctx.measure(name, ordering=ordering, paper=True)[1]
        for ordering in ORDERINGS
        for name in METHODS
    }
    for ordering in ORDERINGS:
        runs[(ordering, SERVED_DIJ)] = ctx.measure("DIJ", ordering=ordering)[1]
    return runs


def test_fig10_ordering_effect(ctx, fig10_runs, results, benchmark):
    rows = []
    for ordering in ORDERINGS:
        for name in METHODS + [SERVED_DIJ]:
            run = fig10_runs[(ordering, name)]
            rows.append([ordering, name, run.s_prf_kb, run.t_prf_kb, run.total_kb])
            results.add("fig10", ordering=ordering, method=name,
                        s_prf_kb=run.s_prf_kb, t_prf_kb=run.t_prf_kb,
                        total_kb=run.total_kb)
    emit("Fig 10 — communication overhead by node ordering [KB]",
         ["ordering", "method", "S-prf KB", "T-prf KB", "total KB"], rows)

    # The ordering only moves the integrity proof ΓT (ΓS content is the
    # same set of tuples), so compare T-prf sizes summed over methods.
    def t_total(ordering):
        return sum(fig10_runs[(ordering, name)].t_prf_kb for name in METHODS)

    t_sizes = {ordering: t_total(ordering) for ordering in ORDERINGS}
    locality = [t_sizes["hbt"], t_sizes["kd"], t_sizes["dfs"]]
    assert t_sizes["rand"] == max(t_sizes.values())
    assert t_sizes["rand"] > 1.5 * min(locality)
    assert t_sizes["bfs"] > min(locality)
    # hbt / kd / dfs are "similar" per the paper: within ~2x of each other.
    assert max(locality) < 2.0 * min(locality) + 0.5

    method = ctx.method("DIJ", ordering="rand")
    vs, vt = ctx.workload().queries[0]
    benchmark(method.answer, vs, vt)
