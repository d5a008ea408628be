"""Tests for hyper-edge materialization and the tile layout."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.synthetic import road_network
from repro.hiti.hyperedges import (
    HyperEdgeSet,
    TileLayout,
    compute_hyperedges,
    triangle_index,
    triangle_size,
)
from repro.hiti.partition import GridPartition
from tests.shortestpath.reference import dijkstra


@pytest.fixture(scope="module")
def road():
    return road_network(260, seed=23)


@pytest.fixture(scope="module")
def partition(road):
    return GridPartition(road, 16)


@pytest.fixture(scope="module")
def hyper(road, partition):
    return compute_hyperedges(road, partition.all_borders())


class TestTriangleIndexing:
    def test_bijective(self):
        n = 9
        seen = {triangle_index(i, j, n) for i in range(n) for j in range(i + 1, n)}
        assert seen == set(range(triangle_size(n)))

    def test_order_is_row_major(self):
        assert triangle_index(0, 1, 5) == 0
        assert triangle_index(0, 4, 5) == 3
        assert triangle_index(1, 2, 5) == 4
        assert triangle_index(3, 4, 5) == 9

    def test_invalid_pairs_rejected(self):
        with pytest.raises(GraphError):
            triangle_index(2, 2, 5)
        with pytest.raises(GraphError):
            triangle_index(3, 1, 5)
        with pytest.raises(GraphError):
            triangle_index(0, 5, 5)


def tile_walk(border_cells):
    """Border-position pairs ``(i, j)``, ``i < j``, in documented leaf order.

    The loop form of the layout: tiles in ``(ci, cj)`` order, row-major
    inside an off-diagonal tile, upper triangle inside a diagonal one.
    """
    members = {}
    for position, cell in enumerate(border_cells):
        members.setdefault(cell, []).append(position)
    cells = sorted(members)
    for k, ci in enumerate(cells):
        for cj in cells[k:]:
            for row, i in enumerate(members[ci]):
                columns = members[cj] if ci != cj else members[ci][row + 1:]
                for j in columns:
                    yield min(i, j), max(i, j)


def grid_cells(num_nodes, num_cells, seed):
    graph = road_network(num_nodes, seed=seed)
    partition = GridPartition(graph, num_cells)
    return [partition.cell(b) for b in partition.all_borders()]


class TestTileLayout:
    CASES = {
        # cell 1 of 0..3 is empty, cell 2 holds exactly one border node
        "empty-and-singleton": [3, 0, 2, 0, 3, 3, 0],
        "one-cell": [5, 5, 5, 5],
        "all-singletons": [4, 1, 3, 0],
        "two-borders": [1, 0],
        "grid-2x2": grid_cells(120, 4, seed=5),
        "grid-5x5": grid_cells(260, 25, seed=23),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_leaf_is_the_tile_walk(self, name):
        border_cells = self.CASES[name]
        layout = TileLayout(border_cells)
        walk = list(tile_walk(border_cells))
        assert len(walk) == triangle_size(len(border_cells))
        rows, cols = (np.array(axis) for axis in zip(*walk))
        # Bijection onto range(num_pairs), in exactly the walk's order.
        assert layout.leaf(rows, cols).tolist() == list(range(len(walk)))

    def test_tile_start_is_symmetric_and_skips_borderless_cells(self):
        border_cells = self.CASES["empty-and-singleton"]
        layout = TileLayout(border_cells)
        assert sorted(layout.rank_of) == [0, 2, 3]
        walk = list(tile_walk(border_cells))
        first = walk.index((0, 2))  # cells 2 x 3: border 2 with border 0
        assert layout.tile_start_of(2, 3) == first
        assert layout.tile_start_of(3, 2) == first

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_permute_moves_triangle_order_to_tile_order(self, name):
        border_cells = self.CASES[name]
        n = len(border_cells)
        width = 3
        digest_of = {
            (i, j): bytes([i, j, 0xAA]) for i in range(n) for j in range(i + 1, n)
        }
        triangle = b"".join(digest_of[i, j] for i in range(n)
                            for j in range(i + 1, n))
        tiled = TileLayout(border_cells).permute(triangle, width)
        assert tiled == b"".join(digest_of[pair]
                                 for pair in tile_walk(border_cells))


class TestHyperEdges:
    def test_weights_are_exact_distances(self, road, hyper):
        borders = hyper.borders
        for a in borders[::10]:
            dist = dijkstra(road, a).dist
            for b in borders[::7]:
                assert hyper.weight(a, b) == pytest.approx(dist[b])

    def test_symmetry(self, hyper):
        a, b = hyper.borders[0], hyper.borders[-1]
        assert hyper.weight(a, b) == hyper.weight(b, a)

    def test_num_pairs(self, hyper):
        assert hyper.num_pairs == triangle_size(hyper.num_borders)

    def test_non_border_rejected(self, road, hyper):
        inner = next(n for n in road.node_ids() if n not in hyper.position_of)
        with pytest.raises(GraphError):
            hyper.weight(inner, hyper.borders[0])

    def test_empty_borders_rejected(self, road):
        with pytest.raises(GraphError):
            compute_hyperedges(road, [])

    def test_shape_validation(self):
        with pytest.raises(GraphError):
            HyperEdgeSet([1, 2], np.zeros((3, 3)))
