"""Soundness of LDM's signed slack Δ across live updates.

Between rebases an LDM push leaves the landmark codes as they were on
the graph G₀ of the last rebase and signs Δ = Σ max(0, w₀ − w) over the
edges re-weighted since, and both parties subtract Δ from the Lemma-4
bound.  That is sound only if no distance shrank by more than Δ, so
after every push of a random sequence of re-weights (both directions),
insertions and removals this suite checks, against SciPy distances on
its own copy of the graph:

* ``LB(v, t) − Δ ≤ dist_G(v, t)`` from every node to every landmark,
  the targets where the bound is tightest;
* every answer verifies and costs what SciPy says;
* ``UpdateReport.mode`` names the path the push took (``incremental``:
  endpoint patch under slack, ``rebase``: codes repaired, Δ back to 0),
  and a slack push patches at most 4 leaves.

An owner that under-counts Δ is the one way this goes unsound;
``test_an_undercounted_slack_is_caught`` shows the bound check finds it.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, find, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from repro.core import ldm as ldm_module
from repro.core.ldm import LdmMethod, LdmParams
from repro.crypto.signer import NullSigner

SIGNER = NullSigner()
XI = 50.0
TOL = 1e-6

OPS = st.lists(
    st.tuples(st.sampled_from(["up", "down", "down", "add", "remove"]),
              st.integers(0, 10**6), st.floats(0.01, 0.9)),
    min_size=1, max_size=8)

SETTINGS = settings(derandomize=True, max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _matrix(graph):
    """The graph as a SciPy matrix in ascending id order, built here
    from the edge list (not from the method's index)."""
    ids = graph.node_ids()
    at = {node: i for i, node in enumerate(ids)}
    rows, cols, weights = [], [], []
    for u, v, w in graph.edges():
        rows += [at[u], at[v]]
        cols += [at[v], at[u]]
        weights += [w, w]
    return csr_matrix((weights, (rows, cols)), shape=(len(ids), len(ids)))


def _mutate(graph, kind, pick, frac):
    """Apply one op to *graph*; the mutation kind, or None if skipped."""
    edges = sorted(graph.edges())
    u, v, w = edges[pick % len(edges)]
    if kind == "up":
        graph.update_edge_weight(u, v, w * (1.0 + frac))
    elif kind == "down":
        graph.update_edge_weight(u, v, w * (1.0 - frac))
    elif kind == "add":
        far = next((x for y in sorted(graph.neighbors(v))
                    for x in sorted(graph.neighbors(y))
                    if x != u and not graph.has_edge(u, x)), None)
        if far is None:
            return None
        # A new road three hops round: a shortcut or a detour.
        graph.add_edge(u, far, w * (0.5 + 2 * frac))
    else:
        for k in range(len(edges)):
            a, b, weight = edges[(pick + k) % len(edges)]
            graph.remove_edge(a, b)
            if connected_components(_matrix(graph), directed=False)[0] == 1:
                break
            graph.add_edge(a, b, weight)
        else:
            return None
    return kind


def _violations(method, graph):
    """Pairs (v, landmark) whose signed bound exceeds the true distance."""
    params = LdmParams.decode(method.descriptor.params)
    at = {node: i for i, node in enumerate(graph.node_ids())}
    targets = [at[node] for node in params.landmarks]
    dist = dijkstra(_matrix(graph), directed=True, indices=targets)
    codes = method._eff_codes.astype(np.int64)
    eps = method._eff_eps.astype(np.int64)
    bad = []
    for row, t in enumerate(targets):
        units = np.abs(codes - codes[t]).max(axis=1)
        loose = np.maximum(0.0, params.lam * (units - 1))
        bound = np.maximum(0.0, loose - params.lam * (eps + eps[t]))
        over = bound - params.slack > dist[row] + TOL
        bad += [(int(v), t) for v in np.flatnonzero(over)]
    return bad


def _pushes(road300, ops):
    """Build on a copy, push each op alone; yield after every push."""
    graph = road300.copy()
    method = LdmMethod.build(graph, SIGNER, c=12, xi=XI)
    mirror = road300.copy()
    for kind, pick, frac in ops:
        before = dict(((u, v), w) for u, v, w in mirror.edges())
        if _mutate(mirror, kind, pick, frac) is None:
            continue
        _mutate(graph, kind, pick, frac)
        yield method, mirror, kind, before, method.apply_update(SIGNER)


@SETTINGS
@given(ops=OPS)
def test_slack_bound_stays_admissible(road300, ops):
    drift: "dict[tuple[int, int], float]" = {}
    modes = set()
    for method, mirror, kind, before, report in _pushes(road300, ops):
        # The spec, restated: Δ sums the weight lost since the last
        # rebase; a re-weight that keeps it within ½ξ is a slack push.
        slack = 0.0
        if kind in ("up", "down"):
            for (u, v), w in before.items():
                if not mirror.has_edge(u, v) or mirror.weight(u, v) != w:
                    drift.setdefault((u, v), w)
            drift = {e: w0 for e, w0 in drift.items()
                     if mirror.weight(*e) != w0}
            slack = math.fsum(max(0.0, w0 - mirror.weight(*e))
                              for e, w0 in drift.items())
        if kind in ("up", "down") and slack <= XI / 2:
            assert report.mode == "incremental"
            assert report.leaves_patched <= 4
        else:
            assert report.mode == "rebase"
            drift, slack = {}, 0.0
        modes.add(report.mode)
        assert LdmParams.decode(method.descriptor.params).slack == slack

        assert _violations(method, mirror) == []
        ids = mirror.node_ids()
        n = len(ids)
        dist = dijkstra(_matrix(mirror), directed=True, indices=[0, n // 2])
        for row, source in enumerate((ids[0], ids[n // 2])):
            for col in (n - 1, n // 4, 3 * n // 4):
                response = method.answer(source, ids[col])
                verdict = LdmMethod.verify(source, ids[col], response,
                                           SIGNER.verify,
                                           min_version=method.graph.version)
                assert verdict.ok, (verdict.reason, verdict.detail)
                assert response.path_cost == pytest.approx(
                    dist[row, col], rel=1e-9, abs=1e-6)


def test_an_undercounted_slack_is_caught(road300, monkeypatch):
    """Teeth: an owner that signs half of Δ breaks the bound on some
    draw, and the check above is what sees it."""
    honest = ldm_module._slack
    monkeypatch.setattr(ldm_module, "_slack",
                        lambda graph, drift: 0.5 * honest(graph, drift))
    found = find(OPS, lambda ops: any(
        _violations(method, mirror)
        for method, mirror, *_ in _pushes(road300, ops)),
        settings=settings(derandomize=True, max_examples=200,
                          deadline=None, database=None))
    assert found
