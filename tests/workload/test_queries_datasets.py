"""Tests for workload generation and named datasets."""

import pytest

from repro.errors import WorkloadError
from repro.graph.components import is_connected
from tests.shortestpath.reference import dijkstra
from repro.workload.datasets import (
    DATASET_SPECS,
    TARGET_DIAMETER,
    dataset_names,
    load_dataset,
    normalize_weights,
)
from repro.workload.queries import generate_workload


class TestWorkloadGeneration:
    def test_distances_near_range(self, road700):
        query_range = 1500.0
        workload = generate_workload(road700, query_range, count=12, seed=1)
        assert len(workload) == 12
        for vs, vt in workload:
            dist = dijkstra(road700, vs, target=vt).dist[vt]
            assert abs(dist - query_range) <= 0.25 * query_range

    def test_deterministic(self, road700):
        a = generate_workload(road700, 1000.0, count=5, seed=3)
        b = generate_workload(road700, 1000.0, count=5, seed=3)
        assert a.queries == b.queries

    def test_seeds_differ(self, road700):
        a = generate_workload(road700, 1000.0, count=5, seed=3)
        b = generate_workload(road700, 1000.0, count=5, seed=4)
        assert a.queries != b.queries

    def test_source_differs_from_target(self, road700):
        for vs, vt in generate_workload(road700, 800.0, count=10, seed=2):
            assert vs != vt

    def test_impossible_range_rejected(self, road700):
        with pytest.raises(WorkloadError):
            generate_workload(road700, 10**9, count=3, seed=0,
                              max_attempts_factor=2)

    def test_invalid_parameters(self, road700):
        with pytest.raises(WorkloadError):
            generate_workload(road700, -5.0)
        with pytest.raises(WorkloadError):
            generate_workload(road700, 100.0, count=0)

    def test_iteration_protocol(self, road700):
        workload = generate_workload(road700, 900.0, count=4, seed=6)
        assert len(list(workload)) == len(workload) == 4


class TestDatasets:
    def test_names(self):
        assert dataset_names() == ["DE", "ARG", "IND", "NA"]
        assert set(DATASET_SPECS) == set(dataset_names())

    def test_unknown_name(self):
        with pytest.raises(WorkloadError):
            load_dataset("ZZ")

    def test_bad_scale(self):
        with pytest.raises(WorkloadError):
            load_dataset("DE", scale=0)
        with pytest.raises(WorkloadError):
            load_dataset("DE", scale=1.5)

    def test_scaled_sizes_ordered(self):
        sizes = [load_dataset(name, scale=1 / 128).num_nodes
                 for name in dataset_names()]
        assert sizes == sorted(sizes)
        assert sizes[0] < sizes[-1]

    def test_connected(self):
        assert is_connected(load_dataset("DE", scale=1 / 64))

    def test_cached(self):
        a = load_dataset("DE", scale=1 / 64)
        b = load_dataset("DE", scale=1 / 64)
        assert a is b

    def test_edge_node_ratio(self):
        graph = load_dataset("ARG", scale=1 / 64)
        assert 0.9 < graph.num_edges / graph.num_nodes < 1.3

    def test_diameter_normalized(self):
        graph = load_dataset("DE", scale=1 / 64)
        source = graph.node_ids()[0]
        result = dijkstra(graph, source)
        far_node, far_dist = max(result.dist.items(), key=lambda kv: kv[1])
        again = dijkstra(graph, far_node)
        diameter = max(again.dist.values())
        assert diameter == pytest.approx(TARGET_DIAMETER, rel=0.2)


class TestNormalizeWeights:
    def test_scaling_preserves_structure(self, road300):
        scaled = normalize_weights(road300, 9000.0)
        assert scaled.num_nodes == road300.num_nodes
        assert scaled.num_edges == road300.num_edges
        ratio = None
        for (u, v, w), (u2, v2, w2) in zip(road300.edges(), scaled.edges()):
            assert (u, v) == (u2, v2)
            if ratio is None and w > 0:
                ratio = w2 / w
            if w > 0:
                assert w2 / w == pytest.approx(ratio)

    def test_coordinates_untouched(self, road300):
        scaled = normalize_weights(road300, 100.0)
        for node in road300.nodes():
            assert scaled.node(node.id) == node
