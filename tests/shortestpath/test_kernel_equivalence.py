"""Array kernel vs dict kernel equivalence (tentpole acceptance).

The indexed kernel must be a behavior-preserving replacement for the
dict kernel on every provider path: same settled distances, same
radius-ball membership, same ``NoPathError`` behavior — and the proof
methods routed through it must produce byte-identical responses and
identical verification results.
"""

import random
from collections import deque
from math import inf

import numpy as np
import pytest

from repro.core.framework import ABS_TOL, REL_TOL, Client, DataOwner, ServiceProvider
from repro.crypto.signer import NullSigner
from repro.errors import GraphError, NoPathError
from repro.graph.graph import SpatialGraph
from repro.graph.synthetic import road_network
from repro.landmarks.selection import farthest_landmarks
from repro.landmarks.vectors import LandmarkVectors
from repro.graph.tuples import BaseTuple
from repro.shortestpath.bulk import multi_source_distances
from repro.shortestpath.kernel import indexed_dijkstra, indexed_search
from tests.shortestpath.reference import dijkstra, indexed_multi_source


def random_graphs():
    """A spread of synthetic graphs: sizes, densities, disconnection."""
    graphs = []
    for seed in (0, 1, 2):
        graphs.append(road_network(60 + 70 * seed, seed=seed))
    # A disconnected graph: two components, cross queries raise.
    g = road_network(40, seed=9)
    base = max(g.node_ids()) + 1
    g.add_node(base, 0.0, 0.0)
    g.add_node(base + 1, 1.0, 1.0)
    g.add_edge(base, base + 1, 1.0)
    graphs.append(g)
    return graphs


class TestSearchEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_full_expansion_distances_match(self, seed):
        graph = random_graphs()[seed]
        rng = random.Random(seed)
        index = graph.to_index()
        for source in rng.sample(graph.node_ids(), 5):
            want = dijkstra(graph, source)
            got = indexed_dijkstra(index, source)
            assert got.distances() == want.dist

    @pytest.mark.parametrize("seed", range(4))
    def test_radius_ball_membership_matches(self, seed):
        graph = random_graphs()[seed]
        rng = random.Random(100 + seed)
        index = graph.to_index()
        for _ in range(5):
            source = rng.choice(graph.node_ids())
            radius = rng.uniform(0.0, 4000.0)
            want = dijkstra(graph, source, radius=radius)
            got = indexed_dijkstra(index, source, radius=radius)
            assert got.distances() == want.dist

    @pytest.mark.parametrize("seed", range(4))
    def test_target_mode_paths_match(self, seed):
        graph = random_graphs()[seed]
        rng = random.Random(200 + seed)
        index = graph.to_index()
        ids = graph.node_ids()
        for _ in range(8):
            source, target = rng.sample(ids, 2)
            try:
                want = dijkstra(graph, source, target=target).path_to(target)
            except NoPathError:
                with pytest.raises(NoPathError):
                    indexed_dijkstra(index, source, target=target).path_to(target)
                continue
            got = indexed_dijkstra(index, source, target=target).path_to(target)
            assert got == want

    def test_fused_ball_equals_two_runs(self):
        graph = road_network(150, seed=4)
        index = graph.to_index()
        rng = random.Random(7)
        for _ in range(10):
            source, target = rng.sample(graph.node_ids(), 2)
            path = dijkstra(graph, source, target=target).path_to(target)
            ball = dijkstra(graph, source, radius=path.cost)
            fused = indexed_search(index, source, target, margin=lambda d: 0.0)
            assert fused.path_to(target) == path
            assert fused.distances() == ball.dist

    def test_unknown_nodes_raise_grapherror(self):
        graph = road_network(30, seed=0)
        index = graph.to_index()
        known = graph.node_ids()[0]
        with pytest.raises(GraphError):
            indexed_dijkstra(index, 10**9)
        with pytest.raises(GraphError):
            indexed_dijkstra(index, known, target=10**9)
        with pytest.raises(GraphError):
            indexed_search(index, 10**9, known, margin=lambda d: 0.0)
        with pytest.raises(GraphError):
            indexed_multi_source(index, [10**9])

    def test_multi_source_matches_scipy_backend(self):
        graph = road_network(120, seed=5)
        sources = graph.node_ids()[::17]
        via_bulk = multi_source_distances(graph, sources)
        via_kernel = indexed_multi_source(graph.to_index(), sources)
        assert np.allclose(via_bulk, via_kernel, rtol=1e-12, atol=1e-9)

    def test_multi_source_unreachable_is_inf(self):
        g = road_network(25, seed=3)
        base = max(g.node_ids()) + 1
        g.add_node(base, 0.0, 0.0)
        g.add_node(base + 1, 2.0, 0.0)
        g.add_edge(base, base + 1, 1.0)
        dist = indexed_multi_source(g.to_index(), [base])
        index_of = g.to_index().index_of
        assert dist[0][index_of[base + 1]] == 1.0
        assert np.isinf(dist[0][index_of[g.node_ids()[0]]])


def _margin(d):
    return 2 * (REL_TOL * d + ABS_TOL)


def _reference_cone(graph, source, target, bound, margin=_margin,
                    radius=None):
    """Dict reference for the bounded :func:`indexed_search`: ``{node: distance}``
    over every node a search under *bound* can expand.

    No heap and no pop order: a FIFO label-correcting pass re-opens a
    node whenever its distance improves and admits a label only while
    its key ``g + bound`` stays within the limit, until nothing
    improves.  The limit is *radius*, or else ``d + margin(d)`` for the
    dict Dijkstra's target distance ``d`` (the whole component when the
    target is unreachable).
    """
    if radius is None:
        d = dijkstra(graph, source, target=target).dist.get(target)
        radius = inf if d is None else d + margin(d)
    best = {source: 0.0} if bound[source] <= radius else {}
    queue = deque(best)
    while queue:
        u = queue.popleft()
        g = best[u]
        for v, w in graph.neighbors(u).items():
            nd = g + w
            if nd + bound[v] <= radius and nd < best.get(v, inf):
                best[v] = nd
                queue.append(v)
    return best


def _tangled_graph(seed, n=60, m=150):
    """A random spanning tree plus random chords, weights in [1, 10]:
    unlike the near-tree road generator it has many competing routes,
    so an inconsistent bound really re-opens nodes."""
    rng = random.Random(seed)
    graph = SpatialGraph()
    for i in range(n):
        graph.add_node(i, 0.0, 0.0)
    for i in range(1, n):
        graph.add_edge(i, rng.randrange(i), rng.uniform(1.0, 10.0))
    while graph.num_edges < m:
        u, v = rng.sample(range(n), 2)
        if not graph.has_edge(u, v):
            graph.add_edge(u, v, rng.uniform(1.0, 10.0))
    return graph


def _inconsistent_bound(graph, target, rng):
    """An admissible, deliberately inconsistent bound by node id: each
    node's true distance to *target* scaled by its own random factor
    (some exact, some zero)."""
    exact = dijkstra(graph, target).dist
    factors = (0.0, 1.0, rng.random(), rng.random())
    return {v: exact.get(v, 0.0) * rng.choice(factors)
            for v in graph.node_ids()}


def _by_index(graph, bound):
    """*bound* (by node id) as the kernel's callable by node index."""
    return [bound[v] for v in graph.node_ids()].__getitem__


def _zero(i):
    return 0.0


def _walked_cost(graph, nodes):
    """Sequential float sum of the edge weights along *nodes*."""
    cost = 0.0
    for u, v in zip(nodes, nodes[1:]):
        cost += graph.weight(u, v)
    return cost


class TestConeSearch:
    """The provider's bounded A* against the dict reference."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("tangled", [False, True])
    @pytest.mark.parametrize("margin", [_margin, lambda d: d / 4],
                             ids=["lemma2", "quarter"])
    def test_inconsistent_bounds_match_reference(self, seed, tangled, margin):
        graph = _tangled_graph(seed) if tangled else random_graphs()[seed]
        index = graph.to_index()
        rng = random.Random(300 + seed)
        for _ in range(6):
            source, target = rng.sample(graph.node_ids(), 2)
            bound = _inconsistent_bound(graph, target, rng)
            cone = indexed_search(index, source, target,
                                  bound=_by_index(graph, bound), margin=margin)
            want = _reference_cone(graph, source, target, bound, margin)
            assert cone.distances() == want
            reached = dijkstra(graph, source, target=target).dist
            if target not in reached:
                with pytest.raises(NoPathError):
                    cone.path_to(target)
                continue
            path = cone.path_to(target)
            assert path.cost == reached[target]
            assert _walked_cost(graph, path.nodes) == path.cost

    @pytest.mark.parametrize("seed", range(3))
    def test_radius_mode_matches_reference(self, seed):
        graph = _tangled_graph(seed)
        index = graph.to_index()
        rng = random.Random(400 + seed)
        for _ in range(5):
            source, target = rng.sample(graph.node_ids(), 2)
            bound = _inconsistent_bound(graph, target, rng)
            radius = rng.uniform(0.0, 40.0)
            cone = indexed_search(index, source,
                                  bound=_by_index(graph, bound),
                                  limit=radius)
            assert cone.distances() == _reference_cone(
                graph, source, target, bound, radius=radius)

    def test_reopens_a_node_expanded_too_early(self):
        # s=0, a=1, b=2, c=3, t=4.  The bound is exact at a and zero
        # elsewhere, so c first expands via b at 4; a then finds it at
        # 2, and only re-opening c gets t its true distance 12.
        graph = SpatialGraph()
        for node in range(5):
            graph.add_node(node, float(node), 0.0)
        for u, v, w in ((0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 3.0),
                        (3, 4, 10.0)):
            graph.add_edge(u, v, w)
        cone = indexed_search(graph.to_index(), 0, 4,
                              bound=[0.0, 11.0, 0.0, 0.0, 0.0].__getitem__,
                              margin=_margin)
        assert cone.distances() == {0: 0.0, 1: 1.0, 2: 1.0, 3: 2.0, 4: 12.0}
        assert cone.path_to(4).nodes == (0, 1, 3, 4)

    def test_zero_bound_is_the_lemma1_ball(self):
        graph = road_network(150, seed=4)
        index = graph.to_index()
        rng = random.Random(8)
        for _ in range(8):
            source, target = rng.sample(graph.node_ids(), 2)
            path = indexed_dijkstra(index, source,
                                    target=target).path_to(target)
            ball = indexed_dijkstra(index, source,
                                    radius=path.cost + _margin(path.cost))
            cone = indexed_search(index, source, target, bound=_zero, margin=_margin)
            assert cone.distances() == ball.distances()
            assert cone.path_to(target) == path

    def test_consistent_bounds_are_optimal_and_prune(self):
        graph = road_network(240, seed=4)
        index = graph.to_index()
        vectors = LandmarkVectors(graph, farthest_landmarks(graph, 8, seed=1))
        ids = graph.node_ids()
        for source, target in ((ids[0], ids[-1]), (ids[3], ids[120]),
                               (ids[10], ids[-7])):
            want = dijkstra(graph, source, target=target).path_to(target)
            ball = indexed_dijkstra(index, source,
                                    radius=want.cost + _margin(want.cost))
            for bound in ([graph.euclidean(v, target) for v in ids],
                          [vectors.lower_bound(v, target) for v in ids]):
                cone = indexed_search(index, source, target,
                                      bound=bound.__getitem__, margin=_margin)
                assert cone.path_to(target).cost == pytest.approx(want.cost)
                assert set(cone.settled_order) <= set(ball.settled_order)
            assert len(cone.settled_order) < len(ball.settled_order)

    @staticmethod
    def _asked_cone(graph, source, target, bound):
        """Run the cone with *bound* (by node id); return the result and
        the node indices the kernel asked the bound for, in order."""
        ids = graph.node_ids()
        asked = []

        def counting(i):
            asked.append(i)
            return bound[ids[i]]

        cone = indexed_search(graph.to_index(), source, target,
                              bound=counting, margin=_margin)
        return cone, asked

    @pytest.mark.parametrize("seed", range(4))
    def test_bound_taken_once_per_reached_node(self, seed):
        # The bound is the expensive part of the provider's search: it
        # is asked once for each node the search reaches, however often
        # that node's distance improves, and never for any other node.
        # Reached-but-unexpanded frontier nodes report no distance.
        graph = _tangled_graph(seed)
        index = graph.to_index()
        rng = random.Random(500 + seed)
        for _ in range(6):
            source, target = rng.sample(graph.node_ids(), 2)
            bound = _inconsistent_bound(graph, target, rng)
            cone, asked = self._asked_cone(graph, source, target, bound)
            assert len(asked) == len(set(asked))
            expanded = set(cone.settled_order)
            reached = {index.index_of[source]} | {
                index.neighbors[k] for u in expanded
                for k in range(index.indptr[u], index.indptr[u + 1])}
            assert set(asked) == reached
            for i in reached - expanded:
                assert cone.dist[i] == inf
                assert cone.dist_of(index.ids[i]) is None

    def test_short_query_asks_a_small_share_of_the_graph(self):
        graph = road_network(600, seed=2)
        source = graph.node_ids()[0]
        target = min(graph.neighbors(source))
        exact = dijkstra(graph, target).dist
        _, asked = self._asked_cone(graph, source, target, exact)
        assert len(asked) < graph.num_nodes // 10

    def test_source_equals_target(self):
        graph = road_network(60, seed=1)
        node = graph.node_ids()[0]
        cone = indexed_search(graph.to_index(), node, node, bound=_zero,
                              margin=_margin)
        path = cone.path_to(node)
        assert path.nodes == (node,) and path.cost == 0.0

    def test_unreachable_and_unknown(self):
        graph = SpatialGraph()
        graph.add_node(1)
        graph.add_node(2)
        index = graph.to_index()
        cone = indexed_search(index, 1, 2, bound=_zero, margin=_margin)
        assert cone.settled_ids() == [1]
        with pytest.raises(NoPathError):
            cone.path_to(2)
        for source, target in ((10**9, 1), (1, 10**9)):
            with pytest.raises(GraphError):
                indexed_search(index, source, target, bound=_zero,
                               margin=_margin)


def _legacy_dij_answer(method, source, target):
    """DIJ response exactly as the dict-kernel provider assembled it."""
    from repro.core.proofs import NETWORK_TREE, QueryResponse

    path = dijkstra(method.graph, source, target=target).path_to(target)
    half = path.cost / 2
    section = method._bundle.section_for(
        [v for end in (source, target)
         for v in dijkstra(method.graph, end, radius=half).dist])
    return QueryResponse(
        method=method.name, source=source, target=target,
        path_nodes=path.nodes, path_cost=path.cost,
        sections={NETWORK_TREE: section}, descriptor=method.descriptor,
    )


def _legacy_ldm_answer(method, source, target):
    """LDM response exactly as the dict-kernel provider assembled it."""
    from repro.core.proofs import NETWORK_TREE, QueryResponse

    graph = method.graph
    path = dijkstra(graph, source, target=target).path_to(target)
    distance = path.cost
    margin = 2 * (REL_TOL * distance + ABS_TOL)
    ball = dijkstra(graph, source, radius=distance + margin)
    lb = method._compressed.lower_bound
    qualifying = [
        v for v, d in ball.dist.items() if d + lb(v, target) <= distance + margin
    ]
    include = set(qualifying) | {source, target}
    for v in qualifying:
        include.update(graph.neighbors(v).keys())
    for v in list(include):
        ref = method._compressed.ref_of.get(v)
        if ref is not None:
            include.add(ref[0])
    section = method._bundle.section_for(include)
    return QueryResponse(
        method=method.name, source=source, target=target,
        path_nodes=path.nodes, path_cost=path.cost,
        sections={NETWORK_TREE: section}, descriptor=method.descriptor,
    )


class TestProofEquivalence:
    """New-kernel responses are byte-identical to dict-kernel responses."""

    @pytest.fixture(scope="class")
    def owner(self):
        return DataOwner(road_network(220, seed=11), signer=NullSigner())

    def _queries(self, graph, count=6, seed=31):
        rng = random.Random(seed)
        ids = graph.node_ids()
        out = []
        while len(out) < count:
            vs, vt = rng.sample(ids, 2)
            try:
                dijkstra(graph, vs, target=vt).path_to(vt)
            except NoPathError:
                continue
            out.append((vs, vt))
        return out

    @pytest.mark.parametrize("name", ["DIJ", "LDM", "FULL", "HYP"])
    def test_byte_identical_responses_and_verdicts(self, owner, name):
        params = {"LDM": dict(c=20), "HYP": dict(num_cells=16)}.get(name, {})
        method = owner.publish(name, **params)
        provider = ServiceProvider(method)
        client = Client(owner.signer.verify)
        legacy = {"DIJ": _legacy_dij_answer, "LDM": _legacy_ldm_answer}.get(name)
        for vs, vt in self._queries(owner.graph):
            response = provider.answer(vs, vt)
            if legacy is not None:
                want = legacy(method, vs, vt)
                assert response.encode() == want.encode()
            else:
                # FULL / HYP differ from DIJ/LDM only in the path search:
                # the reported path must match the dict kernel's.
                want = dijkstra(owner.graph, vs, target=vt).path_to(vt)
                assert response.path_nodes == want.nodes
                assert response.path_cost == want.cost
            verdict = client.verify(vs, vt, response)
            assert verdict.ok, (name, verdict.reason, verdict.detail)

    def test_full_unknown_node_raises_grapherror(self, owner):
        # The matrix-walk fast path must keep the search kernel's error
        # contract: a ReproError the serving layer can convert into an
        # error response, never a bare KeyError.
        method = owner.publish("FULL")
        known = owner.graph.node_ids()[0]
        with pytest.raises(GraphError):
            method.answer(known, 10**9)
        with pytest.raises(GraphError):
            method.answer(10**9, known)


class TestTupleEquivalence:
    """Extended tuples built from the index match the dict adjacency."""

    def test_base_tuple_adjacency_canonical(self):
        graph = road_network(80, seed=2)
        index = graph.to_index()
        for node_id in graph.node_ids():
            tup = BaseTuple.from_graph(graph, node_id)
            i = index.index_of[node_id]
            from_index = tuple(
                (index.ids[index.neighbors[k]], index.weights[k])
                for k in range(index.indptr[i], index.indptr[i + 1])
            )
            assert tup.adjacency == from_index
