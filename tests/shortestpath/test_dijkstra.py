"""Tests for Dijkstra against a networkx reference."""

import networkx as nx
import pytest

from repro.errors import GraphError, NoPathError
from repro.graph.synthetic import grid_network, road_network
from tests.shortestpath.reference import dijkstra, shortest_path


def to_networkx(graph):
    g = nx.Graph()
    for u, v, w in graph.edges():
        g.add_edge(u, v, weight=w)
    g.add_nodes_from(graph.node_ids())
    return g


@pytest.fixture(scope="module", params=[1, 2, 3])
def road(request):
    return road_network(220, seed=request.param)


class TestAgainstNetworkx:
    def test_single_source_distances(self, road):
        source = road.node_ids()[0]
        ours = dijkstra(road, source).dist
        reference = nx.single_source_dijkstra_path_length(to_networkx(road), source)
        assert set(ours) == set(reference)
        for node, dist in reference.items():
            assert ours[node] == pytest.approx(dist)

    def test_point_to_point(self, road):
        ids = road.node_ids()
        ref_graph = to_networkx(road)
        for target in ids[:: max(1, len(ids) // 15)]:
            source = ids[0]
            if source == target:
                continue
            ref = nx.dijkstra_path_length(ref_graph, source, target)
            path = shortest_path(road, source, target)
            assert path.cost == pytest.approx(ref)


class TestPathReconstruction:
    def test_path_is_walkable(self, road):
        ids = road.node_ids()
        path = shortest_path(road, ids[0], ids[-1])
        assert path.source == ids[0]
        assert path.target == ids[-1]
        total = sum(road.weight(u, v) for u, v in path.edges())
        assert total == pytest.approx(path.cost)

    def test_trivial_path(self, grid5):
        path = shortest_path(grid5, 7, 7)
        assert path.nodes == (7,)
        assert path.cost == 0.0


class TestStoppingModes:
    def test_target_stops_early(self, grid5):
        result = dijkstra(grid5, 0, target=1)
        assert 24 not in result.dist  # far corner never settled

    def test_radius_semantics(self, grid5):
        result = dijkstra(grid5, 0, radius=2.0)
        # Exactly the nodes with Manhattan distance <= 2 are settled.
        expected = {
            n for n in grid5.node_ids() if sum(divmod(n, 5)) <= 2
        }
        assert set(result.dist) == expected

    def test_radius_inclusive(self, grid5):
        result = dijkstra(grid5, 0, radius=1.0)
        assert result.dist[1] == 1.0 and result.dist[5] == 1.0

    def test_zero_radius(self, grid5):
        result = dijkstra(grid5, 12, radius=0.0)
        assert set(result.dist) == {12}

    def test_no_stop_settles_component(self, road):
        result = dijkstra(road, road.node_ids()[0])
        assert len(result.dist) == road.num_nodes


class TestErrors:
    def test_unknown_source(self, grid5):
        with pytest.raises(GraphError):
            dijkstra(grid5, 999)

    def test_unknown_target(self, grid5):
        with pytest.raises(GraphError):
            dijkstra(grid5, 0, target=999)

    def test_no_path(self):
        from repro.graph.graph import SpatialGraph

        g = SpatialGraph()
        g.add_node(1)
        g.add_node(2)
        with pytest.raises(NoPathError) as err:
            shortest_path(g, 1, 2)
        assert err.value.source == 1 and err.value.target == 2
