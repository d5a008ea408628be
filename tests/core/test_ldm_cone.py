"""Property tests for LDM's disclosure rule, the provider's A* cone.

The provider discloses what a bounded A* under the signed landmark
bound expands, plus neighbors and representatives.  On every sampled
pair of several graphs and parameter extremes that disclosure must

* verify when honest;
* stay inside the older rule — every node of the ``D + margin`` ball
  with ``d(s, v) + LB(v, t) <= D + margin``, its neighbors and
  representatives — computed here from the dict Dijkstra and
  ``CompressedVectors.lower_bound``;
* around a suboptimal path, fail only as ``not-optimal``: a client
  must find the better route inside the disclosure, never run off its
  edge.
"""

from __future__ import annotations

import random

import pytest

from repro.api import codes
from repro.core.adversary import suboptimal_path
from repro.core.ldm import LdmMethod
from repro.core.proofs import NETWORK_TREE
from repro.errors import MethodError
from repro.graph.synthetic import grid_network
from repro.graph.tuples import LdmTuple
from repro.workload.queries import generate_workload
from tests.shortestpath.test_kernel_equivalence import _legacy_ldm_answer


def _tie_grid():
    """9x9 lattice with integer weights (exact ties everywhere) and a
    sprinkling of zero-weight edges."""
    graph = grid_network(9, 9)
    for k, (u, v, _) in enumerate(sorted(graph.edges())):
        if k % 5 == 0:
            graph.update_edge_weight(u, v, 0.0)
        elif k % 7 == 0:
            graph.update_edge_weight(u, v, 2.0)
    return graph


CASES = {
    "road300": dict(c=24),
    "c=1": dict(c=1),
    "bits=1": dict(c=8, bits=1),
    "huge-xi": dict(c=16, xi=10_000.0),
    "tie-grid": dict(c=6),
}


@pytest.fixture(scope="module")
def cases(road300, signer, workload):
    """``{case: (graph, method, pairs)}``, built once per module."""
    out = {}
    road_pairs = list(dict.fromkeys(
        workload.queries
        + generate_workload(road300, 1500.0, count=24, seed=2010).queries))
    for name, params in CASES.items():
        graph = _tie_grid() if name == "tie-grid" else road300
        pairs = road_pairs
        if name == "tie-grid":
            rng = random.Random(9)
            pairs = [tuple(rng.sample(graph.node_ids(), 2)) for _ in range(30)]
        out[name] = (graph, LdmMethod.build(graph, signer, **params), pairs)
    return out


def _disclosed(response) -> "set[int]":
    return {LdmTuple.decode(p).node_id
            for p in response.sections[NETWORK_TREE].payloads}


@pytest.mark.parametrize("case", CASES)
def test_honest_replies_verify(cases, signer, case):
    _, method, pairs = cases[case]
    for vs, vt in pairs:
        result = LdmMethod.verify(vs, vt, method.answer(vs, vt),
                                  signer.verify)
        assert result.ok, (case, vs, vt, result.reason, result.detail)


@pytest.mark.parametrize("case", CASES)
def test_disclosure_within_the_filter_rule(cases, case):
    _, method, pairs = cases[case]
    for vs, vt in pairs:
        cone = _disclosed(method.answer(vs, vt))
        legacy = _disclosed(_legacy_ldm_answer(method, vs, vt))
        assert cone <= legacy, (case, vs, vt, sorted(cone - legacy))


@pytest.mark.parametrize("case", CASES)
def test_suboptimal_path_is_caught_as_not_optimal(cases, signer, case):
    graph, method, pairs = cases[case]
    checked = 0
    for vs, vt in pairs:
        try:
            response = suboptimal_path(method, graph, vs, vt)
        except MethodError:
            continue  # no strictly longer detour between this pair
        result = LdmMethod.verify(vs, vt, response, signer.verify)
        assert result.reason == codes.NOT_OPTIMAL, (
            case, vs, vt, result.reason, result.detail)
        checked += 1
    assert checked >= len(pairs) // 2
