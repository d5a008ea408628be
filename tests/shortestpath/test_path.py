"""Tests for the :class:`Path` value object."""

import pytest

from repro.graph.synthetic import road_network
from tests.shortestpath.reference import shortest_path


@pytest.fixture(scope="module")
def road():
    return road_network(240, seed=4)


class TestPathObject:
    def test_from_nodes_validates(self, road):
        ids = road.node_ids()
        path = shortest_path(road, ids[0], ids[-1])
        from repro.shortestpath.path import Path

        rebuilt = Path.from_nodes(road, path.nodes)
        assert rebuilt.cost == pytest.approx(path.cost)
        assert rebuilt.num_edges == len(path) - 1

    def test_from_nodes_rejects_phantom_edge(self, road):
        from repro.errors import GraphError
        from repro.shortestpath.path import Path

        ids = road.node_ids()
        far = [ids[0], ids[-1]]
        if not road.has_edge(*far):
            with pytest.raises(GraphError):
                Path.from_nodes(road, far)

    def test_empty_rejected(self, road):
        from repro.errors import GraphError
        from repro.shortestpath.path import Path

        with pytest.raises(GraphError):
            Path.from_nodes(road, [])
