"""Method-specific unit behaviors: Lemma 1 balls, Lemma 2 cones,
FULL's triangle tree, HYP's sections."""

import pytest

from repro.core.dij import DijMethod
from repro.core.full import FullMethod
from repro.core.hyp import HypMethod
from repro.core.ldm import LdmMethod, LdmParams
from repro.core.method import get_method
from repro.core.proofs import DIRECTORY_TREE, DISTANCE_TREE, NETWORK_TREE
from repro.errors import EncodingError, MethodError
from repro.graph.tuples import BaseTuple, CellDirectoryTuple, DistanceTuple, HypTuple, LdmTuple
from tests.shortestpath.reference import dijkstra


class TestDij:
    def test_ball_matches_lemma1(self, dij, road300, workload):
        vs, vt = workload.queries[0]
        response = dij.answer(vs, vt)
        disclosed = {
            BaseTuple.decode(p).node_id
            for p in response.sections[NETWORK_TREE].payloads
        }
        # Two half-balls, B_s(D/2) ∪ B_t(D/2), not the one ball B_s(D).
        half = response.path_cost / 2
        expected = {v for end in (vs, vt)
                    for v, d in dijkstra(road300, end).dist.items() if d <= half}
        assert disclosed == expected
        one_ball = {v for v, d in dijkstra(road300, vs).dist.items()
                    if d <= response.path_cost}
        assert len(expected) < len(one_ball)

    def test_extra_params_rejected(self, road300, signer):
        with pytest.raises(EncodingError):
            DijMethod.build(road300, signer, bogus=1)

    def test_no_hints_cost(self, dij):
        assert dij.construction_seconds == 0.0


class TestFull:
    def test_distance_section_is_single_tuple(self, full, workload):
        vs, vt = workload.queries[0]
        section = full.answer(vs, vt).sections[DISTANCE_TREE]
        assert len(section.payloads) == 1
        tup = DistanceTuple.decode(section.payloads[0])
        assert {tup.a, tup.b} == {vs, vt}
        assert tup.a < tup.b

    def test_materialized_matches_dijkstra(self, full, road300, workload):
        for vs, vt in workload.queries[:4]:
            expected = dijkstra(road300, vs, target=vt).dist[vt]
            assert full.distance_of(vs, vt) == pytest.approx(expected)

    def test_triangle_leaf_count(self, full, road300):
        n = road300.num_nodes
        assert full.descriptor.tree(DISTANCE_TREE).num_leaves == n * (n - 1) // 2

    def test_network_section_covers_only_path(self, full, workload):
        vs, vt = workload.queries[0]
        response = full.answer(vs, vt)
        disclosed = {
            BaseTuple.decode(p).node_id
            for p in response.sections[NETWORK_TREE].payloads
        }
        assert disclosed == set(response.path_nodes)

    def test_degenerate_query_rejected(self, full, road300):
        node = road300.node_ids()[0]
        with pytest.raises(MethodError):
            full.answer(node, node)


class TestLdm:
    def test_params_roundtrip(self):
        params = LdmParams(landmarks=(1, 5, 9), bits=12, d_max=14.0, lam=2.0, xi=50.0)
        assert LdmParams.decode(params.encode()) == params

    def test_cone_is_superset_of_lemma2(self, ldm, road300, workload):
        vs, vt = workload.queries[0]
        response = ldm.answer(vs, vt)
        disclosed = {
            LdmTuple.decode(p).node_id
            for p in response.sections[NETWORK_TREE].payloads
        }
        distance = response.path_cost
        distances = dijkstra(road300, vs).dist
        lb = ldm._compressed.lower_bound
        qualifying = {
            v for v, d in distances.items() if d + lb(v, vt) <= distance
        }
        required = set(qualifying)
        for v in qualifying:
            required.update(road300.neighbors(v).keys())
        assert required <= disclosed

    def test_cone_smaller_than_ball(self, ldm, dij, workload):
        # The landmark bound prunes the search space (that is LDM's point).
        sizes_ldm = []
        sizes_dij = []
        for vs, vt in workload.queries[:4]:
            sizes_ldm.append(len(ldm.answer(vs, vt).sections[NETWORK_TREE].payloads))
            sizes_dij.append(len(dij.answer(vs, vt).sections[NETWORK_TREE].payloads))
        assert sum(sizes_ldm) < sum(sizes_dij)

    def test_compressed_nodes_ship_representative(self, ldm, workload):
        for vs, vt in workload.queries[:4]:
            response = ldm.answer(vs, vt)
            tuples = {
                t.node_id: t
                for t in (LdmTuple.decode(p)
                          for p in response.sections[NETWORK_TREE].payloads)
            }
            for tup in tuples.values():
                if tup.is_compressed:
                    assert tup.ref_id in tuples
                    assert not tuples[tup.ref_id].is_compressed

    def test_descriptor_params_match_build(self, ldm):
        params = LdmParams.decode(ldm.descriptor.params)
        assert len(params.landmarks) == 24
        assert params.bits == 12
        assert params.lam == pytest.approx(params.d_max / (2**12 - 1))

    def test_exact_compressor_also_works(self, road300, signer, workload):
        method = LdmMethod.build(road300, signer, c=8, compressor="exact")
        vs, vt = workload.queries[0]
        response = method.answer(vs, vt)
        assert get_method("LDM").verify(vs, vt, response, signer.verify).ok

    def test_unknown_compressor_rejected(self, road300, signer):
        with pytest.raises(EncodingError):
            LdmMethod.build(road300, signer, c=8, compressor="zip")


class TestHyp:
    def test_sections_present(self, hyp, workload):
        vs, vt = workload.queries[0]
        response = hyp.answer(vs, vt)
        assert NETWORK_TREE in response.sections
        assert DIRECTORY_TREE in response.sections
        assert DISTANCE_TREE in response.sections  # distinct cells at range 1500

    def test_directory_covers_query_cells(self, hyp, workload):
        vs, vt = workload.queries[0]
        response = hyp.answer(vs, vt)
        cells = {
            CellDirectoryTuple.decode(p).cell_id
            for p in response.sections[DIRECTORY_TREE].payloads
        }
        cell_s = hyp._partition.cell(vs)
        cell_t = hyp._partition.cell(vt)
        assert cells == {cell_s, cell_t}

    def test_network_tuples_cover_cells_and_path(self, hyp, workload):
        vs, vt = workload.queries[0]
        response = hyp.answer(vs, vt)
        disclosed = {
            HypTuple.decode(p).node_id
            for p in response.sections[NETWORK_TREE].payloads
        }
        partition = hyp._partition
        expected = set(partition.members_of(partition.cell(vs)))
        expected |= set(partition.members_of(partition.cell(vt)))
        expected |= set(response.path_nodes)
        assert disclosed == expected

    def test_hyperedges_cover_cross_pairs(self, hyp, workload):
        vs, vt = workload.queries[0]
        response = hyp.answer(vs, vt)
        partition = hyp._partition
        borders_s = partition.borders_of(partition.cell(vs))
        borders_t = partition.borders_of(partition.cell(vt))
        disclosed = {
            (min(t.a, t.b), max(t.a, t.b))
            for t in (DistanceTuple.decode(p)
                      for p in response.sections[DISTANCE_TREE].payloads)
        }
        expected = {
            (min(a, b), max(a, b)) for a in borders_s for b in borders_t
        }
        assert disclosed == expected

    def test_same_source_target_works(self, hyp, road300, signer):
        node = road300.node_ids()[5]
        response = hyp.answer(node, node)
        assert response.path_cost == 0.0
        assert get_method("HYP").verify(node, node, response, signer.verify).ok

    def test_same_cell_query_verifies(self, hyp, road300, signer):
        partition = hyp._partition
        cell = max(partition.occupied_cells,
                   key=lambda c: len(partition.members_of(c)))
        members = partition.members_of(cell)
        vs, vt = members[0], members[-1]
        response = hyp.answer(vs, vt)
        assert get_method("HYP").verify(vs, vt, response, signer.verify).ok

    def test_bad_cell_count_rejected(self, road300, signer):
        with pytest.raises(Exception):
            HypMethod.build(road300, signer, num_cells=27)
