"""Tests for landmark selection and the Theorem 1 lower bound."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.synthetic import road_network
from repro.landmarks.selection import farthest_landmarks, random_landmarks, select_landmarks
from repro.landmarks.vectors import LandmarkVectors, exact_lower_bound
from tests.shortestpath.reference import dijkstra


@pytest.fixture(scope="module")
def road():
    return road_network(200, seed=21)


@pytest.fixture(scope="module")
def vectors(road):
    return LandmarkVectors(road, farthest_landmarks(road, 8, seed=0))


class TestSelection:
    def test_random_landmarks(self, road):
        marks = random_landmarks(road, 10, seed=3)
        assert len(marks) == 10
        assert len(set(marks)) == 10
        assert all(road.has_node(m) for m in marks)

    def test_random_deterministic(self, road):
        assert random_landmarks(road, 10, seed=3) == random_landmarks(road, 10, seed=3)

    def test_farthest_spread(self, road):
        # Farthest selection should be better spread than random: its
        # minimum pairwise graph distance should dominate.
        def min_pairwise(marks):
            values = []
            for m in marks:
                dist = dijkstra(road, m).dist
                values.extend(dist[o] for o in marks if o != m)
            return min(values)

        far = farthest_landmarks(road, 6, seed=0)
        rnd = random_landmarks(road, 6, seed=0)
        assert min_pairwise(far) >= min_pairwise(rnd)

    def test_select_dispatch(self, road):
        assert select_landmarks(road, 4, strategy="random", seed=1) == random_landmarks(
            road, 4, seed=1
        )
        with pytest.raises(GraphError):
            select_landmarks(road, 4, strategy="astrology")

    def test_too_many_landmarks_rejected(self, road):
        with pytest.raises(GraphError):
            random_landmarks(road, road.num_nodes + 1)
        with pytest.raises(GraphError):
            farthest_landmarks(road, 0)

    def test_all_nodes_as_landmarks(self, road):
        marks = farthest_landmarks(road, road.num_nodes, seed=0)
        assert sorted(marks) == road.node_ids()


class TestVectors:
    def test_vector_values_match_dijkstra(self, road, vectors):
        for i, landmark in enumerate(vectors.landmarks):
            reference = dijkstra(road, landmark).dist
            for node in road.node_ids()[::25]:
                assert vectors.vectors[i, vectors.index_of[node]] == pytest.approx(
                    reference[node]
                )

    def test_theorem1_lower_bound(self, road, vectors):
        # LB(u, v) <= dist(u, v) for sampled pairs (Theorem 1).
        ids = road.node_ids()
        for source in ids[::40]:
            dist = dijkstra(road, source).dist
            for node in ids[::17]:
                assert vectors.lower_bound(source, node) <= dist[node] + 1e-9

    def test_lower_bound_is_symmetric_and_reflexive(self, road, vectors):
        ids = road.node_ids()
        a, b = ids[0], ids[-1]
        assert vectors.lower_bound(a, b) == pytest.approx(vectors.lower_bound(b, a))
        assert vectors.lower_bound(a, a) == 0.0

    def test_landmark_self_bound_is_exact(self, road, vectors):
        # For a landmark s, LB(s, v) == dist(s, v) exactly.
        landmark = vectors.landmarks[0]
        dist = dijkstra(road, landmark).dist
        for node in road.node_ids()[::20]:
            assert vectors.lower_bound(landmark, node) == pytest.approx(dist[node])

    def test_exact_lower_bound_helper(self):
        assert exact_lower_bound(np.array([1.0, 7.0]), np.array([9.0, 3.0])) == 8.0

    def test_unknown_node_rejected(self, vectors):
        with pytest.raises(GraphError):
            vectors.vector_of(10**9)

    def test_disconnected_rejected(self):
        from repro.graph.graph import SpatialGraph

        g = SpatialGraph()
        g.add_node(1)
        g.add_node(2)
        with pytest.raises(GraphError):
            LandmarkVectors(g, [1])

    def test_paper_figure5_example(self):
        # Figure 5b: Ψ over landmarks {v2, v7}; distLB(v3, v8) = 8.
        psi_v3 = np.array([1.0, 7.0])
        psi_v8 = np.array([9.0, 3.0])
        assert exact_lower_bound(psi_v3, psi_v8) == 8.0
