"""Theorem 2 on the oracle's coarse graph (``reference_verifier``).

Moved from ``tests/hiti`` with ``build_coarse_graph`` when HYP's
client stopped building a ``SpatialGraph``; the production coarse
search is held to this one by ``test_verifier_oracle.py``.
"""

import pytest
from reference_verifier import build_coarse_graph

from repro.graph.synthetic import road_network
from repro.graph.tuples import HypTuple
from repro.hiti.hyperedges import compute_hyperedges
from repro.hiti.partition import GridPartition
from tests.shortestpath.reference import dijkstra
from repro.workload.queries import generate_workload


@pytest.fixture(scope="module")
def road():
    return road_network(260, seed=23)


@pytest.fixture(scope="module")
def partition(road):
    return GridPartition(road, 16)


@pytest.fixture(scope="module")
def hyper(road, partition):
    return compute_hyperedges(road, partition.all_borders())


class TestTheorem2CoarseGraph:
    """The coarse graph distance equals the true distance (Theorem 2)."""

    def make_coarse(self, road, partition, hyper, vs, vt):
        cell_s, cell_t = partition.cell(vs), partition.cell(vt)
        members = set(partition.members_of(cell_s)) | set(partition.members_of(cell_t))
        tuples = {}
        for node in members:
            n = road.node(node)
            adjacency = tuple(sorted(
                (int(v), float(w)) for v, w in road.neighbors(node).items()
            ))
            tuples[node] = HypTuple(n.id, n.x, n.y, adjacency,
                                    cell_id=partition.cell(node),
                                    is_border=partition.is_border(node))
        borders_s = partition.borders_of(cell_s)
        borders_t = partition.borders_of(cell_t)
        if cell_s == cell_t:
            pairs = [(a, b) for i, a in enumerate(borders_s)
                     for b in borders_s[i + 1:]]
        else:
            pairs = [(a, b) for a in borders_s for b in borders_t]
        edges = [(a, b, hyper.weight(a, b)) for a, b in pairs if a != b]
        return build_coarse_graph(tuples, edges)

    def test_coarse_distance_equals_true_distance(self, road, partition, hyper):
        workload = generate_workload(road, 3000.0, count=12, seed=9)
        for vs, vt in workload:
            coarse = self.make_coarse(road, partition, hyper, vs, vt)
            expected = dijkstra(road, vs, target=vt).dist[vt]
            got = dijkstra(coarse, vs, target=vt).dist[vt]
            assert got == pytest.approx(expected)

    def test_same_cell_query(self, road, partition, hyper):
        # Pick two nodes of one cell; the coarse graph must still be exact
        # even if the best route leaves the cell and comes back.
        cell = max(partition.occupied_cells,
                   key=lambda c: len(partition.members_of(c)))
        members = partition.members_of(cell)
        vs, vt = members[0], members[-1]
        coarse = self.make_coarse(road, partition, hyper, vs, vt)
        expected = dijkstra(road, vs, target=vt).dist[vt]
        assert dijkstra(coarse, vs, target=vt).dist[vt] == pytest.approx(expected)

    def test_coarse_graph_never_underestimates(self, road, partition, hyper):
        # Any coarse graph built from real edges + exact hyper-edge weights
        # cannot produce a shorter-than-true distance.
        workload = generate_workload(road, 2000.0, count=6, seed=10)
        for vs, vt in workload:
            coarse = self.make_coarse(road, partition, hyper, vs, vt)
            true = dijkstra(road, vs, target=vt).dist[vt]
            got = dijkstra(coarse, vs, target=vt).dist.get(vt)
            assert got is not None and got >= true - 1e-9


class TestCoarseBuilder:
    def test_parallel_edge_takes_minimum(self):
        tuples = {
            1: HypTuple(1, 0.0, 0.0, ((2, 5.0),), cell_id=0, is_border=True),
            2: HypTuple(2, 1.0, 0.0, ((1, 5.0),), cell_id=1, is_border=True),
        }
        coarse = build_coarse_graph(tuples, [(1, 2, 3.0)])
        assert coarse.weight(1, 2) == 3.0
        coarse2 = build_coarse_graph(tuples, [(1, 2, 9.0)])
        assert coarse2.weight(1, 2) == 5.0

    def test_edges_to_outside_skipped(self):
        tuples = {
            1: HypTuple(1, 0.0, 0.0, ((99, 1.0),), cell_id=0, is_border=True),
        }
        coarse = build_coarse_graph(tuples, [])
        assert coarse.num_nodes == 1 and coarse.num_edges == 0

    def test_self_hyper_edge_ignored(self):
        tuples = {1: HypTuple(1, 0.0, 0.0, (), cell_id=0, is_border=True)}
        coarse = build_coarse_graph(tuples, [(1, 1, 0.0)])
        assert coarse.num_edges == 0
