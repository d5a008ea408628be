"""The columnar Φ decoder against the per-object one, and hostile input."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding import Encoder, encode_uvarint
from repro.errors import EncodingError
from repro.graph.tuples import (
    BaseTuple,
    DistanceTuple,
    HypTuple,
    LdmTuple,
    decode_columns,
    decode_distance_columns,
    unpack_codes,
)

#: Ids on both sides of the 1/2, 2/3, 4/5 and 8/9-byte varint steps, up
#: to the largest an owner can encode.
EDGES = [0, 1, 2**7, 2**14, 2**28, 2**56, 2**63 - 2]
node_ids = st.one_of(
    st.integers(min_value=0, max_value=300),
    st.sampled_from(EDGES).flatmap(
        lambda edge: st.integers(min_value=max(0, edge - 2), max_value=edge + 1)),
)
weights = st.floats(min_value=0, max_value=1e12, allow_nan=False)
adjacencies = st.lists(
    st.tuples(node_ids, weights), max_size=12, unique_by=lambda pair: pair[0],
).map(lambda pairs: tuple(sorted(pairs)))
headers = st.lists(
    st.tuples(node_ids, weights, weights, adjacencies),
    min_size=1, max_size=9, unique_by=lambda header: header[0],
)


def assert_headers_equal(columns, tuples):
    """Field by field against the per-object decode of the same bytes."""
    decoded = sorted((type(t).decode(t.encode()) for t in tuples),
                     key=lambda t: t.node_id)
    assert columns.ids.tolist() == [t.node_id for t in decoded]
    assert len(columns) == len(decoded)
    for row, tup in enumerate(decoded):
        lo, hi = columns.indptr[row], columns.indptr[row + 1]
        assert tuple(zip(columns.nbr_ids[lo:hi].tolist(),
                         columns.weights[lo:hi].tolist())) == tup.adjacency
        assert columns.row_of(tup.node_id) == row
        for nbr, w in tup.adjacency:
            assert columns.edge_weight(row, nbr) == w
    known = {t.node_id: row for row, t in enumerate(decoded)}
    assert columns.nbrs.tolist() == [
        known.get(nbr, -1) for t in decoded for nbr, _ in t.adjacency]
    return decoded


class TestRoundTrip:
    @given(headers)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_base(self, batch):
        tuples = [BaseTuple(*header) for header in batch]
        columns = decode_columns([t.encode() for t in tuples])
        assert_headers_equal(columns, tuples)
        assert columns.tail == {}

    @given(headers, st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_hyp(self, batch, data):
        tuples = [HypTuple(*header, cell_id=data.draw(node_ids),
                           is_border=data.draw(st.booleans()))
                  for header in batch]
        columns = decode_columns([t.encode() for t in tuples], HypTuple)
        decoded = assert_headers_equal(columns, tuples)
        assert columns.tail["cell_id"].tolist() == [t.cell_id for t in decoded]
        assert columns.tail["is_border"].tolist() == [t.is_border for t in decoded]

    @given(headers, st.sampled_from([1, 4, 8, 12, 16, 31, 64]),
           st.integers(min_value=1, max_value=7), st.data())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_ldm_compressed_and_not_in_one_section(self, batch, bits, count, data):
        code = st.integers(min_value=0, max_value=min(2**bits, 2**63) - 1)
        tuples = []
        for header in batch:
            if data.draw(st.booleans()):
                tuples.append(LdmTuple(*header, ref_id=data.draw(node_ids),
                                       eps_units=data.draw(node_ids)))
            else:
                codes = data.draw(st.lists(code, min_size=count, max_size=count))
                tuples.append(LdmTuple(*header, codes=tuple(codes), bits=bits))
        columns = decode_columns([t.encode() for t in tuples], LdmTuple)
        decoded = assert_headers_equal(columns, tuples)
        tail = columns.tail
        assert tail["compressed"].tolist() == [t.is_compressed for t in decoded]
        for row, tup in enumerate(decoded):
            if tup.is_compressed:
                assert (tail["ref_id"][row], tail["eps_units"][row]) == (
                    tup.ref_id, tup.eps_units)
            else:
                assert (tail["bits"][row], tail["code_count"][row]) == (bits, count)
        plain = np.flatnonzero(~tail["compressed"])
        assert unpack_codes(tail, plain, bits, count).tolist() == [
            list(decoded[row].codes) for row in plain]

    @given(st.lists(st.tuples(node_ids, node_ids, weights), min_size=1, max_size=9))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_distance(self, triples):
        a, b, w = decode_distance_columns(
            [DistanceTuple(*triple).encode() for triple in triples])
        assert list(zip(a.tolist(), b.tolist(), w.tolist())) == triples


def header(node_id, count, *slots):
    enc = Encoder().write_uint(node_id).write_f64(0.0).write_f64(0.0)
    enc.write_uint(count)
    for nbr, w in slots:
        enc.write_uint(nbr).write_f64(w)
    return enc.getvalue()


GOOD = BaseTuple(7, 1.0, 2.0, ((3, 1.5), (200, 2.5))).encode()
OTHER = BaseTuple(9, 1.0, 2.0, ((7, 1.5),)).encode()


class TestHostilePayloads:
    """Each is an ``EncodingError`` — what the object decoder raised."""

    def test_huge_adjacency_count_fails_before_anything_is_sized(self):
        start = time.perf_counter()
        with pytest.raises(EncodingError):
            decode_columns([GOOD, header(8, 2**62)])
        assert time.perf_counter() - start < 0.010

    @pytest.mark.parametrize("cls, tail", [
        (BaseTuple, b""), (HypTuple, b"\x05\x01"), (LdmTuple, b"\x01\x03\x04"),
    ])
    def test_trailing_byte(self, cls, tail):
        assert len(decode_columns([GOOD + tail, OTHER + tail], cls)) == 2
        for payloads in ([GOOD + tail + b"\x00", OTHER + tail],
                         [OTHER + tail, GOOD + tail + b"\x00"]):
            with pytest.raises(EncodingError):
                decode_columns(payloads, cls)

    @pytest.mark.parametrize("cut", range(1, len(GOOD)))
    def test_cut_short_anywhere(self, cut):
        # First in the batch (the read runs into the next payload) and
        # last (it runs into the pad).
        for payloads in ([GOOD[:cut], OTHER], [OTHER, GOOD[:cut]]):
            with pytest.raises(EncodingError):
                decode_columns(payloads)
            with pytest.raises(EncodingError):
                BaseTuple.decode(GOOD[:cut])

    def test_duplicate_id(self):
        with pytest.raises(EncodingError):
            decode_columns([GOOD, OTHER, GOOD])

    def test_bool_byte_two(self):
        with pytest.raises(EncodingError):
            decode_columns([GOOD + b"\x05\x02"], HypTuple)
        with pytest.raises(EncodingError):
            decode_columns([GOOD + b"\x02\x03\x04"], LdmTuple)

    def test_empty_section(self):
        with pytest.raises(EncodingError):
            decode_columns([])
        with pytest.raises(EncodingError):
            decode_distance_columns([])

    def test_varint_no_owner_can_encode(self):
        # The one divergence from the object decoder, which read these
        # (a Python int has room) and left them to fail at the root.
        assert BaseTuple.decode(header(2**63, 0)).node_id == 2**63
        for node_id in (2**63, 2**70):
            with pytest.raises(EncodingError):
                decode_columns([header(node_id, 0)])
        assert decode_columns([header(2**63 - 1, 0)]).ids.tolist() == [2**63 - 1]

    @pytest.mark.parametrize("bits, count, stream", [
        (0, 1, b"\x00"), (65, 1, bytes(9)),       # no such width
        (12, 3, bytes(4)), (12, 2**62, bytes(5)),  # count the bytes cannot hold
        (12, 3, bytes(6)),                         # one byte too many
    ])
    def test_ldm_code_block(self, bits, count, stream):
        block = b"\x00" + encode_uvarint(bits) + encode_uvarint(count) + stream
        with pytest.raises(EncodingError):
            decode_columns([GOOD + block], LdmTuple)
        with pytest.raises(EncodingError):
            LdmTuple.decode(GOOD + block)

    def test_huge_path_node_is_a_lookup_miss(self):
        columns = decode_columns([GOOD, OTHER])
        assert columns.row_of(2**80) == -1
        assert columns.edge_weight(0, 2**80) is None
