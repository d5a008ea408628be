"""Tests for distance vector compression (Lemma 4)."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.synthetic import road_network
from repro.landmarks.compression import (
    compress_exact_greedy,
    compress_leader,
    lemma4_lower_bound,
)
from repro.landmarks.quantization import loose_lower_bound, quantize_vectors
from repro.landmarks.selection import farthest_landmarks
from repro.landmarks.vectors import LandmarkVectors
from repro.order import hilbert_order
from tests.shortestpath.reference import dijkstra


@pytest.fixture(scope="module")
def setup():
    road = road_network(180, seed=31)
    vectors = LandmarkVectors(road, farthest_landmarks(road, 6, seed=0))
    codes, spec = quantize_vectors(vectors.vectors, bits=10)
    return road, vectors, codes, spec


@pytest.mark.parametrize("algorithm", ["exact", "leader"])
class TestInvariants:
    def compress(self, algorithm, road, codes, spec, xi):
        ids = road.node_ids()
        if algorithm == "exact":
            return compress_exact_greedy(ids, codes, spec, xi)
        return compress_leader(ids, codes, spec, xi, scan_order=hilbert_order(road))

    def test_partition(self, algorithm, setup):
        road, _, codes, spec = setup
        comp = self.compress(algorithm, road, codes, spec, xi=200.0)
        ids = set(road.node_ids())
        assert set(comp.codes_of) | set(comp.ref_of) == ids
        assert not set(comp.codes_of) & set(comp.ref_of)

    def test_epsilon_within_xi(self, algorithm, setup):
        road, _, codes, spec = setup
        xi = 150.0
        comp = self.compress(algorithm, road, codes, spec, xi)
        xi_units = int(xi / spec.lam)
        for node, (theta, eps_units) in comp.ref_of.items():
            assert eps_units <= xi_units
            assert theta in comp.codes_of  # representatives are uncompressed
            # eps must equal the actual quantized difference Delta(v, theta).
            idx = {n: i for i, n in enumerate(road.node_ids())}
            actual = int(np.abs(codes[:, idx[node]] - codes[:, idx[theta]]).max())
            assert eps_units == actual

    def test_lemma4_bound_below_loose_bound(self, algorithm, setup):
        road, _, codes, spec = setup
        comp = self.compress(algorithm, road, codes, spec, xi=200.0)
        ids = road.node_ids()
        idx = {n: i for i, n in enumerate(ids)}
        for u in ids[::20]:
            for v in ids[::13]:
                loose = loose_lower_bound(codes[:, idx[u]], codes[:, idx[v]], spec.lam)
                compressed = comp.lower_bound(u, v)
                assert compressed <= loose + 1e-9

    def test_bound_below_true_distance(self, algorithm, setup):
        road, _, codes, spec = setup
        comp = self.compress(algorithm, road, codes, spec, xi=250.0)
        ids = road.node_ids()
        for source in ids[::35]:
            dist = dijkstra(road, source).dist
            for node in ids[::11]:
                assert comp.lower_bound(source, node) <= dist[node] + 1e-9

    def test_zero_xi_compresses_only_identical_vectors(self, algorithm, setup):
        road, _, codes, spec = setup
        comp = self.compress(algorithm, road, codes, spec, xi=0.0)
        idx = {n: i for i, n in enumerate(road.node_ids())}
        for node, (theta, eps) in comp.ref_of.items():
            assert eps == 0
            assert np.array_equal(codes[:, idx[node]], codes[:, idx[theta]])


class TestAlgorithmSpecific:
    def test_larger_xi_compresses_more(self, setup):
        road, _, codes, spec = setup
        ids = road.node_ids()
        small = compress_leader(ids, codes, spec, 50.0)
        large = compress_leader(ids, codes, spec, 500.0)
        assert large.num_compressed >= small.num_compressed

    def test_exact_greedy_not_worse_than_leader(self, setup):
        road, _, codes, spec = setup
        ids = road.node_ids()
        exact = compress_exact_greedy(ids, codes, spec, 200.0)
        leader = compress_leader(ids, codes, spec, 200.0)
        assert exact.num_compressed >= leader.num_compressed

    def test_effective_resolution(self, setup):
        road, _, codes, spec = setup
        comp = compress_leader(road.node_ids(), codes, spec, 200.0)
        some_rep = next(iter(comp.codes_of))
        codes_rep, eps = comp.effective(some_rep)
        assert eps == 0
        if comp.ref_of:
            some_compressed = next(iter(comp.ref_of))
            codes_c, eps_c = comp.effective(some_compressed)
            theta, expected_eps = comp.ref_of[some_compressed]
            assert eps_c == expected_eps
            assert np.array_equal(codes_c, comp.codes_of[theta])

    def test_negative_xi_rejected(self, setup):
        road, _, codes, spec = setup
        with pytest.raises(GraphError):
            compress_leader(road.node_ids(), codes, spec, -1.0)

    def test_bad_scan_order_rejected(self, setup):
        road, _, codes, spec = setup
        with pytest.raises(GraphError):
            compress_leader(road.node_ids(), codes, spec, 10.0, scan_order=[1, 2, 3])

    def test_lemma4_formula(self):
        # distloose(theta_u, theta_v) = max(0, lam*(units-1)); subtract
        # lam*(eps_u + eps_v); clip at zero.
        a = np.array([10, 2])
        b = np.array([4, 2])  # units = 6
        assert lemma4_lower_bound(a, 1, b, 2, lam=2.0) == pytest.approx(
            max(0.0, 2.0 * (6 - 1)) - 2.0 * 3
        )
        assert lemma4_lower_bound(a, 5, b, 5, lam=2.0) == 0.0  # clipped
