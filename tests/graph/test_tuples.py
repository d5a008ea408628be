"""Tests for extended tuples and distance tuples."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import EncodingError
from repro.graph.tuples import (
    BaseTuple,
    CellDirectoryTuple,
    DistanceTuple,
    HypTuple,
    LdmTuple,
)


def adjacency_strategy():
    return st.lists(
        st.tuples(st.integers(min_value=0, max_value=10**6),
                  st.floats(min_value=0, max_value=1e9, allow_nan=False)),
        max_size=8,
        unique_by=lambda t: t[0],
    ).map(lambda pairs: tuple(sorted(pairs)))


class TestBaseTuple:
    def test_from_graph(self, diamond):
        tup = BaseTuple.from_graph(diamond, 0)
        assert tup.node_id == 0
        assert tup.adjacency == ((1, 1.0), (4, 2.0))

    def test_adjacency_canonical_order(self, diamond):
        # Adjacency must be sorted by neighbor id regardless of insertion.
        tup = BaseTuple.from_graph(diamond, 3)
        assert [nbr for nbr, _ in tup.adjacency] == sorted(
            nbr for nbr, _ in tup.adjacency
        )

    @given(
        st.integers(min_value=0, max_value=10**9),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
        adjacency_strategy(),
    )
    def test_roundtrip(self, node_id, x, y, adjacency):
        tup = BaseTuple(node_id, x, y, adjacency)
        assert BaseTuple.decode(tup.encode()) == tup

    def test_trailing_bytes_rejected(self):
        tup = BaseTuple(1, 0.0, 0.0, ())
        with pytest.raises(EncodingError):
            BaseTuple.decode(tup.encode() + b"\x00")

    def test_encoding_deterministic(self):
        a = BaseTuple(5, 1.0, 2.0, ((7, 3.0),))
        b = BaseTuple(5, 1.0, 2.0, ((7, 3.0),))
        assert a.encode() == b.encode()


class TestLdmTuple:
    def test_uncompressed_roundtrip(self):
        tup = LdmTuple(3, 1.0, 2.0, ((4, 1.5),), codes=(1, 2, 4095), bits=12)
        decoded = LdmTuple.decode(tup.encode())
        assert decoded == tup
        assert not decoded.is_compressed

    def test_compressed_roundtrip(self):
        tup = LdmTuple(3, 1.0, 2.0, (), codes=None, ref_id=9, eps_units=4)
        decoded = LdmTuple.decode(tup.encode())
        assert decoded.is_compressed
        assert decoded.ref_id == 9
        assert decoded.eps_units == 4

    def test_must_have_exactly_one_representation(self):
        with pytest.raises(EncodingError):
            LdmTuple(1, 0.0, 0.0, (), codes=None)
        with pytest.raises(EncodingError):
            LdmTuple(1, 0.0, 0.0, (), codes=(1,), ref_id=2, eps_units=0)
        with pytest.raises(EncodingError):
            LdmTuple(1, 0.0, 0.0, (), codes=None, ref_id=2)  # no eps

    def test_codes_size_uses_bit_packing(self):
        # 100 codes at 12 bits should cost ~150 bytes, far below 100 f64s.
        wide = LdmTuple(1, 0.0, 0.0, (), codes=tuple([7] * 100), bits=12)
        assert len(wide.encode()) < 200

    @given(st.lists(st.integers(min_value=0, max_value=255), max_size=32))
    def test_roundtrip_any_codes(self, codes):
        tup = LdmTuple(2, 0.0, 0.0, (), codes=tuple(codes), bits=8)
        assert LdmTuple.decode(tup.encode()).codes == tuple(codes)


class TestHypTuple:
    def test_roundtrip(self):
        tup = HypTuple(11, 3.0, 4.0, ((12, 2.0),), cell_id=42, is_border=True)
        decoded = HypTuple.decode(tup.encode())
        assert decoded == tup
        assert decoded.cell_id == 42
        assert decoded.is_border

    def test_inner_node(self):
        tup = HypTuple(11, 3.0, 4.0, (), cell_id=0, is_border=False)
        assert not HypTuple.decode(tup.encode()).is_border


class TestDistanceTuple:
    @given(
        st.integers(min_value=0, max_value=10**9),
        st.integers(min_value=0, max_value=10**9),
        st.floats(min_value=0, allow_nan=False, allow_infinity=False),
    )
    def test_roundtrip(self, a, b, d):
        tup = DistanceTuple(a, b, d)
        assert DistanceTuple.decode(tup.encode()) == tup

    def test_key_ordering(self):
        assert DistanceTuple(1, 2, 9.0) < DistanceTuple(1, 3, 0.0)
        assert DistanceTuple(1, 2, 9.0).key == (1, 2)

    def test_distance_not_compared(self):
        assert DistanceTuple(1, 2, 5.0) == DistanceTuple(1, 2, 5.0)


class TestCellDirectoryTuple:
    def test_roundtrip(self):
        tup = CellDirectoryTuple(7, (1, 5, 9))
        assert CellDirectoryTuple.decode(tup.encode()) == tup

    def test_members_must_be_sorted(self):
        with pytest.raises(EncodingError):
            CellDirectoryTuple(7, (5, 1))

    def test_empty_cell(self):
        tup = CellDirectoryTuple(3, ())
        assert CellDirectoryTuple.decode(tup.encode()).member_ids == ()


class TestTrianglePayloadBatch:
    """Batch triangle encoders match the per-tuple reference bit for bit."""

    def _ids_and_matrix(self, ids, seed=0):
        import numpy as np

        rng = np.random.default_rng(seed)
        n = len(ids)
        return np.asarray(rng.random((n, n)) * 1e4)

    @pytest.mark.parametrize("ids", [
        [0, 1, 2],
        [100, 127, 128, 500],                      # varint width boundary
        [5, 127, 128, 16383, 16384, 2097151, 2097152],
        list(range(40, 220, 7)),
        [0],                                       # no pairs at all
    ])
    def test_iter_triangle_payloads_matches_encode(self, ids):
        from repro.graph.tuples import iter_triangle_payloads

        matrix = self._ids_and_matrix(ids)
        got = list(iter_triangle_payloads(ids, matrix))
        want = [
            DistanceTuple(ids[i], ids[j], float(matrix[i, j])).encode()
            for i in range(len(ids)) for j in range(i + 1, len(ids))
        ]
        assert got == want

    @pytest.mark.parametrize("ids", [
        [128, 3, 90],      # e.g. borders sorted by (cell, id)
        [3, 90, 90],
    ])
    def test_triangle_leaf_digests_refuse_unsorted_ids(self, ids):
        from repro.errors import GraphError
        from repro.graph.tuples import triangle_leaf_digests

        with pytest.raises(GraphError, match="ascending"):
            triangle_leaf_digests(ids, self._ids_and_matrix(ids), "sha1")

    @pytest.mark.parametrize("hash_name", ["sha1", "sha256"])
    def test_triangle_leaf_digests_match_leaf_digest(self, hash_name):
        from repro.graph.tuples import iter_triangle_payloads, triangle_leaf_digests
        from repro.merkle.tree import leaf_digest

        ids = [3, 90, 127, 128, 129, 4000, 16384, 70000]
        matrix = self._ids_and_matrix(ids, seed=4)
        got = triangle_leaf_digests(ids, matrix, hash_name)
        want = b"".join(
            leaf_digest(p, hash_name) for p in iter_triangle_payloads(ids, matrix)
        )
        assert got == want
