"""Tests for graph-node orderings."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph.synthetic import grid_network, road_network
from repro.order import (
    ORDERINGS,
    bfs_order,
    dfs_order,
    hilbert_index,
    hilbert_order,
    kd_order,
    order_nodes,
    random_order,
)


@pytest.fixture(scope="module")
def road():
    return road_network(250, seed=77)


class TestAllOrderings:
    @pytest.mark.parametrize("name", sorted(ORDERINGS))
    def test_is_permutation(self, road, name):
        order = order_nodes(road, name)
        assert sorted(order) == road.node_ids()

    @pytest.mark.parametrize("name", sorted(ORDERINGS))
    def test_deterministic(self, road, name):
        assert order_nodes(road, name) == order_nodes(road, name)

    def test_unknown_name_rejected(self, road):
        with pytest.raises(GraphError):
            order_nodes(road, "zorder")

    def test_orderings_differ(self, road):
        orders = {name: tuple(order_nodes(road, name)) for name in ORDERINGS}
        assert len(set(orders.values())) == len(orders)


class TestRandomOrder:
    def test_seed_controls_shuffle(self, road):
        assert random_order(road, seed=1) != random_order(road, seed=2)
        assert random_order(road, seed=1) == random_order(road, seed=1)


class TestBfsDfs:
    def test_bfs_level_structure(self, grid5):
        order = bfs_order(grid5, start=0)
        position = {n: i for i, n in enumerate(order)}
        # On the unit grid, BFS from corner 0 visits nodes in Manhattan
        # distance order.
        for node in grid5.node_ids():
            r, c = divmod(node, 5)
            for other in grid5.node_ids():
                r2, c2 = divmod(other, 5)
                if r + c < r2 + c2:
                    assert position[node] < position[other]

    def test_dfs_parent_adjacency(self, grid5):
        order = dfs_order(grid5, start=0)
        seen = set()
        for node in order:
            if seen:
                # Preorder DFS: every new node neighbors something visited.
                assert any(nbr in seen for nbr in grid5.neighbors(node))
            seen.add(node)

    def test_disconnected_graphs_covered(self):
        from repro.graph.graph import SpatialGraph

        g = SpatialGraph()
        for i in range(4):
            g.add_node(i)
        g.add_edge(0, 1, 1.0)
        assert sorted(bfs_order(g)) == [0, 1, 2, 3]
        assert sorted(dfs_order(g)) == [0, 1, 2, 3]


class TestHilbert:
    def test_first_order_curve(self):
        # The order-1 Hilbert curve visits (0,0),(0,1),(1,1),(1,0).
        visits = sorted(
            ((x, y) for x in range(2) for y in range(2)),
            key=lambda p: hilbert_index(p[0], p[1], 1),
        )
        assert visits == [(0, 0), (0, 1), (1, 1), (1, 0)]

    @given(st.integers(min_value=1, max_value=6))
    @settings(max_examples=10)
    def test_bijective_on_grid(self, order):
        side = 1 << order
        indices = {
            hilbert_index(x, y, order) for x in range(side) for y in range(side)
        }
        assert indices == set(range(side * side))

    @given(st.integers(min_value=2, max_value=8))
    # The property is the curve's continuity, not the clock.
    @settings(max_examples=10, deadline=None)
    def test_curve_is_continuous(self, order):
        # Consecutive indices map to 4-adjacent cells.
        side = 1 << order
        position = {}
        for x in range(side):
            for y in range(side):
                position[hilbert_index(x, y, order)] = (x, y)
        for d in range(side * side - 1):
            (x1, y1), (x2, y2) = position[d], position[d + 1]
            assert abs(x1 - x2) + abs(y1 - y2) == 1

    def test_locality_beats_random(self, road):
        # Average |position difference| between graph-adjacent nodes should
        # be far smaller under Hilbert than under random ordering.
        def adjacency_span(order):
            pos = {n: i for i, n in enumerate(order)}
            spans = [abs(pos[u] - pos[v]) for u, v, _ in road.edges()]
            return sum(spans) / len(spans)

        assert adjacency_span(hilbert_order(road)) < 0.5 * adjacency_span(
            random_order(road, seed=0)
        )


class TestKd:
    def test_left_half_before_right_half(self, grid5):
        order = kd_order(grid5)
        position = {n: i for i, n in enumerate(order)}
        left = [n for n in grid5.node_ids() if grid5.node(n).x < 2]
        right = [n for n in grid5.node_ids() if grid5.node(n).x > 2]
        assert max(position[n] for n in left) < min(position[n] for n in right)

    def test_handles_duplicate_coordinates(self):
        from repro.graph.graph import SpatialGraph

        g = SpatialGraph()
        for i in range(10):
            g.add_node(i, 1.0, 1.0)
        assert sorted(kd_order(g)) == list(range(10))
