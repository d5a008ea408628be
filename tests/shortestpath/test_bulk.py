"""Tests for bulk distance computation (pure FW vs SciPy vs Dijkstra)."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.synthetic import grid_network, road_network
from repro.shortestpath.bulk import all_pairs_distances, multi_source_distances
from tests.shortestpath.reference import dijkstra
from tests.shortestpath.reference import floyd_warshall


@pytest.fixture(scope="module")
def road():
    return road_network(150, seed=13)


class TestFloydWarshall:
    def test_matches_dijkstra(self, road):
        matrix, ids = floyd_warshall(road)
        index_of = {node_id: i for i, node_id in enumerate(ids)}
        for source in ids[::30]:
            result = dijkstra(road, source)
            for node, dist in result.dist.items():
                assert matrix[index_of[source]][index_of[node]] == pytest.approx(dist)

    def test_symmetric_zero_diagonal(self, road):
        matrix, ids = floyd_warshall(road)
        n = len(ids)
        for i in range(0, n, 17):
            assert matrix[i][i] == 0.0
            for j in range(0, n, 23):
                assert matrix[i][j] == pytest.approx(matrix[j][i])

    def test_disconnected_inf(self):
        from repro.graph.graph import SpatialGraph

        g = SpatialGraph()
        g.add_node(1)
        g.add_node(2)
        matrix, ids = floyd_warshall(g)
        assert matrix[0][1] == float("inf")


class TestScipyBackends:
    def test_all_pairs_matches_pure(self, road):
        pure, ids = floyd_warshall(road)
        fast = all_pairs_distances(road)
        assert np.allclose(fast, np.array(pure))

    def test_floyd_warshall_method(self, road):
        auto = all_pairs_distances(road, method="auto")
        fw = all_pairs_distances(road, method="floyd-warshall")
        assert np.allclose(auto, fw)

    def test_unknown_method_rejected(self, road):
        with pytest.raises(GraphError):
            all_pairs_distances(road, method="bogus")

    def test_multi_source(self, road):
        ids = road.node_ids()
        sources = ids[:3]
        matrix = multi_source_distances(road, sources)
        assert matrix.shape == (3, len(ids))
        for row, source in enumerate(sources):
            reference = dijkstra(road, source).dist
            index_of = {node_id: i for i, node_id in enumerate(ids)}
            for node, dist in reference.items():
                assert matrix[row, index_of[node]] == pytest.approx(dist)

    def test_multi_source_unknown_node(self, road):
        with pytest.raises(GraphError):
            multi_source_distances(road, [10**9])

    def test_empty_sources(self, road):
        assert multi_source_distances(road, []).shape == (0, road.num_nodes)

    def test_grid_exact_distances(self):
        grid = grid_network(6, 6)
        matrix = all_pairs_distances(grid)
        # Distance on the unit grid is the Manhattan distance.
        for a in (0, 7, 35):
            ra, ca = divmod(a, 6)
            for b in (5, 17, 30):
                rb, cb = divmod(b, 6)
                assert matrix[a, b] == abs(ra - rb) + abs(ca - cb)
