"""Figure 11 — effect of the Merkle tree fanout and of the query range.

* Fig. 11a — proof size grows with fanout (more sibling digests per
  level); every method is best at fanout 2; relative order stable.
* Fig. 11b — proof size grows with query range for every method; the
  HYP/FULL gap narrows as range grows while LDM/FULL widens; DIJ
  explodes towards whole-graph disclosure.
"""

import pytest

from benchmarks.conftest import SERVED_DIJ, emit

FANOUTS = [2, 4, 8, 16, 32]
RANGES = [250.0, 500.0, 1000.0, 2000.0, 4000.0, 8000.0]
METHODS = ["DIJ", "FULL", "LDM", "HYP"]


@pytest.fixture(scope="module")
def fanout_runs(ctx):
    runs = {
        (fanout, name): ctx.measure(name, fanout=fanout, paper=True)[1]
        for fanout in FANOUTS
        for name in METHODS
    }
    for fanout in FANOUTS:
        runs[(fanout, SERVED_DIJ)] = ctx.measure("DIJ", fanout=fanout)[1]
    return runs


def test_fig11a_fanout(ctx, fanout_runs, results, benchmark):
    rows = []
    for fanout in FANOUTS:
        for name in METHODS + [SERVED_DIJ]:
            run = fanout_runs[(fanout, name)]
            rows.append([fanout, name, run.t_prf_kb, run.total_kb])
            results.add("fig11a", fanout=fanout, method=name,
                        t_prf_kb=run.t_prf_kb, total_kb=run.total_kb)
    emit("Fig 11a — communication overhead by Merkle fanout [KB]",
         ["fanout", "method", "T-prf KB", "total KB"], rows)

    for name in METHODS:
        # Fanout 2 is optimal, and the largest fanout is clearly worse.
        assert (fanout_runs[(2, name)].t_prf_kb
                <= min(fanout_runs[(f, name)].t_prf_kb for f in FANOUTS) + 1e-9)
        assert (fanout_runs[(32, name)].t_prf_kb
                > fanout_runs[(2, name)].t_prf_kb)
    for fanout in FANOUTS:
        assert (fanout_runs[(fanout, "DIJ")].total_kb
                > fanout_runs[(fanout, "FULL")].total_kb)

    method = ctx.method("FULL", fanout=32)
    vs, vt = ctx.workload().queries[0]
    benchmark(method.answer, vs, vt)


@pytest.fixture(scope="module")
def range_runs(ctx):
    runs = {
        (query_range, name): ctx.measure(name, query_range=query_range,
                                              paper=True)[1]
        for query_range in RANGES
        for name in METHODS
    }
    for query_range in RANGES:
        runs[(query_range, SERVED_DIJ)] = ctx.measure(
            "DIJ", query_range=query_range)[1]
    return runs


def test_fig11b_query_range(ctx, range_runs, results, benchmark):
    rows = []
    for query_range in RANGES:
        for name in METHODS + [SERVED_DIJ]:
            run = range_runs[(query_range, name)]
            rows.append([int(query_range), name, run.total_kb])
            results.add("fig11b", query_range=query_range, method=name,
                        total_kb=run.total_kb)
    emit("Fig 11b — communication overhead by query range [KB]",
         ["range", "method", "total KB"], rows)

    for name in METHODS:
        small = range_runs[(250.0, name)].total_kb
        large = range_runs[(8000.0, name)].total_kb
        assert large > small, f"{name} proof did not grow with range"
    # DIJ grows much faster than FULL.
    dij_growth = (range_runs[(8000.0, "DIJ")].total_kb
                  / range_runs[(250.0, "DIJ")].total_kb)
    full_growth = (range_runs[(8000.0, "FULL")].total_kb
                   / range_runs[(250.0, "FULL")].total_kb)
    assert dij_growth > 3 * full_growth
    # Paper: the LDM/FULL ratio widens as the range grows.
    ldm_ratio_small = (range_runs[(1000.0, "LDM")].total_kb
                       / range_runs[(1000.0, "FULL")].total_kb)
    ldm_ratio_large = (range_runs[(8000.0, "LDM")].total_kb
                       / range_runs[(8000.0, "FULL")].total_kb)
    assert ldm_ratio_large > ldm_ratio_small

    method = ctx.method("DIJ")
    vs, vt = ctx.workload(query_range=8000.0).queries[0]
    benchmark(method.answer, vs, vt)
