"""DIJ's provider search is its proof: one search from both ends.

``DijMethod.answer`` makes one kernel call, which expands exactly the
two half-balls B_s(r) and B_t(r), ``r = D / 2 + provider_margin(D)``,
that the reply discloses, and nothing else.  It must answer as the two
one-sided searches it replaced did
(:func:`tests.shortestpath.reference.dij_two_searches`): the same ``D``
bits, the same disclosed set and the same path, an s→t walk whose
left-fold cost is ``D``, even where ties and near-ties offer others.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.dij
from repro.core.dij import DijMethod
from repro.core.framework import provider_margin
from repro.core.proofs import NETWORK_TREE
from repro.crypto.signer import NullSigner
from repro.errors import GraphError, NoPathError
from repro.graph.graph import SpatialGraph
from repro.shortestpath.path import Path
from repro.workload.queries import generate_workload
from tests.shortestpath.reference import dijkstra, dij_two_searches


def _counting(monkeypatch):
    """Hook DIJ's kernel entry point; returns the list of its runs."""
    runs = []
    real = repro.core.dij.search

    def counting_search(*args, **kwargs):
        run = real(*args, **kwargs)
        runs.append(run)
        return run

    monkeypatch.setattr(repro.core.dij, "search", counting_search)
    return runs


def _assert_exact_work(graph, method, pairs, monkeypatch):
    runs = _counting(monkeypatch)
    index = graph.to_index()
    ids, n = index.ids, index.num_nodes
    for vs, vt in pairs:
        runs.clear()
        reply = method.answer(vs, vt)
        assert len(runs) == 1, (vs, vt)
        order = runs[0].order
        radius = reply.path_cost / 2 + provider_margin(reply.path_cost)
        ball_s = set(dijkstra(graph, vs, radius=radius).dist)
        ball_t = set(dijkstra(graph, vt, radius=radius).dist)
        assert {ids[r] for r in order if r < n} == ball_s, (vs, vt)
        assert {ids[r - n] for r in order if r >= n} == ball_t, (vs, vt)
        assert len(order) == len(ball_s) + len(ball_t), (vs, vt)


class TestExactWork:
    """The provider pops each half-ball's rows once, in one search."""

    def test_golden_pairs(self, road300, monkeypatch):
        method = DijMethod.build(road300, NullSigner())
        pairs = list(generate_workload(road300, 1500.0, count=8, seed=99))
        _assert_exact_work(road300, method, pairs, monkeypatch)

    def test_road700_pairs(self, road700, monkeypatch):
        method = DijMethod.build(road700, NullSigner())
        pairs = list(generate_workload(road700, 1500.0, count=12, seed=5))
        _assert_exact_work(road700, method, pairs, monkeypatch)

    def test_forced_path_searches_both_halves_once(self, road300, monkeypatch):
        method = DijMethod.build(road300, NullSigner())
        vs, vt = generate_workload(road300, 1500.0, count=1, seed=99).queries[0]
        honest = method.answer(vs, vt)
        runs = _counting(monkeypatch)
        method.answer(vs, vt, forced_path=Path(honest.path_nodes,
                                               0.8 * honest.path_cost))
        assert len(runs) == 1


# ----------------------------------------------------------------------
# Equivalence with the two searches the one search replaced
# ----------------------------------------------------------------------

#: Integer weights (zero included) force ties; tenths add in other
#: orders to other bits (0.1 + 0.2 != 0.3), so routes of one cost fold
#: to near-ties: 5-1 at 0.9 against 5-0-2-1 at 0.5 + 0.1 + 0.3.
INTS = st.integers(0, 4).map(float)
TENTHS = st.integers(1, 9).map(lambda k: k / 10)


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 9))
    graph = SpatialGraph()
    for v in range(n):
        graph.add_node(v, float(v % 3), float(v // 3))
    pick = draw(st.sampled_from([INTS, TENTHS, st.one_of(INTS, TENTHS)]))
    if n > 1:
        edges = draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), pick),
            max_size=3 * n))
        for u, v, w in edges:
            if u != v:
                graph.add_edge(u, v, w)
    return graph


def _assert_walk(graph, path, vs, vt):
    assert path.nodes[0] == vs and path.nodes[-1] == vt
    cost = 0.0
    for u, v in zip(path.nodes, path.nodes[1:]):
        cost += graph.weight(u, v)  # raises for a non-edge
    assert cost.hex() == float(path.cost).hex()


def _assert_same_answer(graph, vs, vt, forced=None):
    method = DijMethod.build(graph, NullSigner())
    index = graph.to_index()
    try:
        want_path, want_ids = dij_two_searches(index, vs, vt, forced)
    except (GraphError, NoPathError) as exc:
        with pytest.raises(type(exc)):
            method.answer(vs, vt, forced_path=forced)
        return
    reply = method.answer(vs, vt, forced_path=forced)
    assert float(reply.path_cost).hex() == float(want_path.cost).hex()
    assert reply.sections[NETWORK_TREE].positions == \
        method._bundle.section_for(want_ids).positions
    if forced is None:
        _assert_walk(graph, Path(reply.path_nodes, reply.path_cost), vs, vt)
    # Ties too break as the one-sided search broke them.
    assert reply.path_nodes == want_path.nodes


class TestSameAnswerAsTwoSearches:
    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(graphs(), st.data())
    def test_random_graphs(self, graph, data):
        nodes = graph.node_ids()
        vs = data.draw(st.sampled_from(nodes))
        vt = data.draw(st.sampled_from(nodes))
        _assert_same_answer(graph, vs, vt)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(graphs(), st.data())
    def test_forced_paths(self, graph, data):
        nodes = graph.node_ids()
        vs = data.draw(st.sampled_from(nodes))
        vt = data.draw(st.sampled_from(nodes))
        cost = data.draw(st.integers(0, 40).map(lambda k: k / 4))
        _assert_same_answer(graph, vs, vt, Path((vs, vt), cost))

    @pytest.mark.parametrize("offset", [-1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0])
    def test_near_ties_at_half(self, offset):
        # s-a-t costs 2.0 and b sits at 1.0 + rim from s, a and t, rim
        # a multiple of half the provider's margin.  With rim < 0 the
        # route through b is shorter and b its midpoint; with rim >= 0
        # b lies inside the half-balls, on their rim (offset 2.0) or
        # just outside (3.0).
        graph = SpatialGraph()
        for v in range(4):
            graph.add_node(v, float(v), 0.0)
        d = 2.0
        rim = offset * provider_margin(d) / 2
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(1, 2, 1.0)
        graph.add_edge(1, 3, d / 2 + rim)
        graph.add_edge(0, 3, d / 2 + rim)
        graph.add_edge(2, 3, d / 2 + rim)
        _assert_same_answer(graph, 0, 2)

    def test_near_tie_routes(self):
        # 5-1 costs 0.9; 5-0-2-1 folds to 0.8999999999999999 from 5 but
        # to 0.9 from either end's halves.  The one-sided search reports
        # the three-edge route and its bits, and so must the two-sided.
        graph = SpatialGraph()
        for v in range(6):
            graph.add_node(v, float(v % 3), float(v // 3))
        for u, v, w in [(0, 2, 0.1), (0, 5, 0.5), (1, 2, 0.3), (1, 5, 0.9)]:
            graph.add_edge(u, v, w)
        _assert_same_answer(graph, 5, 1)
        assert DijMethod.build(graph, NullSigner()).answer(5, 1) \
            .path_nodes == (5, 0, 2, 1)

    def test_same_node(self, road300):
        _assert_same_answer(road300, road300.node_ids()[7], road300.node_ids()[7])

    def test_adjacent_nodes(self, road300):
        u = road300.node_ids()[11]
        _assert_same_answer(road300, u, min(road300.neighbors(u)))

    def test_unreachable_target(self):
        graph = SpatialGraph()
        for v in range(4):
            graph.add_node(v, float(v), 0.0)
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(2, 3, 1.0)
        with pytest.raises(NoPathError):
            DijMethod.build(graph, NullSigner()).answer(0, 3)
        _assert_same_answer(graph, 0, 3)

    @pytest.mark.parametrize("pair", [(999999, 3), (3, 999999)])
    def test_unknown_node(self, road300, pair):
        method = DijMethod.build(road300, NullSigner())
        role = "source" if pair[0] == 999999 else "target"
        with pytest.raises(GraphError, match=f"unknown {role} node 999999"):
            method.answer(*pair)
