"""Unit and property tests for the canonical binary encoding."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.encoding import Decoder, Encoder, zigzag_decode, zigzag_encode
from repro.errors import EncodingError


class TestVarint:
    def test_zero(self):
        assert Encoder().write_uint(0).getvalue() == b"\x00"

    def test_small_values_one_byte(self):
        for value in (1, 17, 127):
            assert len(Encoder().write_uint(value).getvalue()) == 1

    def test_boundary_128_takes_two_bytes(self):
        assert len(Encoder().write_uint(128).getvalue()) == 2

    def test_negative_rejected(self):
        with pytest.raises(EncodingError):
            Encoder().write_uint(-1)

    @given(st.integers(min_value=0, max_value=2**63))
    def test_roundtrip(self, value):
        data = Encoder().write_uint(value).getvalue()
        assert Decoder(data).read_uint() == value

    def test_truncated_raises(self):
        data = Encoder().write_uint(300).getvalue()
        with pytest.raises(EncodingError):
            Decoder(data[:1]).read_uint()

    def test_overlong_varint_rejected(self):
        with pytest.raises(EncodingError):
            Decoder(b"\xff" * 12).read_uint()


class TestSignedInt:
    @given(st.integers(min_value=-(2**62), max_value=2**62))
    def test_roundtrip(self, value):
        data = Encoder().write_int(value).getvalue()
        assert Decoder(data).read_int() == value

    def test_zigzag_known_values(self):
        pairs = [(0, 0), (-1, 1), (1, 2), (-2, 3), (2, 4)]
        for signed, unsigned in pairs:
            assert zigzag_encode(signed) == unsigned
            assert zigzag_decode(unsigned) == signed


class TestFloats:
    @given(st.floats(allow_nan=False))
    def test_f64_roundtrip_exact(self, value):
        data = Encoder().write_f64(value).getvalue()
        assert len(data) == 8
        assert Decoder(data).read_f64() == value

    def test_f64_nan_roundtrip(self):
        data = Encoder().write_f64(float("nan")).getvalue()
        assert math.isnan(Decoder(data).read_f64())

    @given(st.floats(allow_nan=False, allow_infinity=False, width=32))
    def test_f32_roundtrip(self, value):
        data = Encoder().write_f32(value).getvalue()
        assert len(data) == 4
        assert Decoder(data).read_f32() == value


class TestBytesAndStrings:
    @given(st.binary(max_size=500))
    def test_bytes_roundtrip(self, payload):
        data = Encoder().write_bytes(payload).getvalue()
        assert Decoder(data).read_bytes() == payload

    @given(st.text(max_size=200))
    def test_str_roundtrip(self, text):
        data = Encoder().write_str(text).getvalue()
        assert Decoder(data).read_str() == text

    def test_invalid_utf8_rejected(self):
        data = Encoder().write_bytes(b"\xff\xfe").getvalue()
        with pytest.raises(EncodingError):
            Decoder(data).read_str()

    def test_raw_has_no_prefix(self):
        data = Encoder().write_raw(b"abc").getvalue()
        assert data == b"abc"
        assert Decoder(data).read_raw(3) == b"abc"

    def test_truncated_payload(self):
        with pytest.raises(EncodingError):
            Decoder(b"\x05ab").read_bytes()


class TestSequences:
    @given(st.lists(st.integers(min_value=0, max_value=10**12), max_size=50))
    def test_uint_seq_roundtrip(self, values):
        data = Encoder().write_uint_seq(values).getvalue()
        assert Decoder(data).read_uint_seq() == values

    @given(st.lists(st.floats(allow_nan=False), max_size=50))
    def test_f64_seq_roundtrip(self, values):
        data = Encoder().write_f64_seq(values).getvalue()
        assert Decoder(data).read_f64_seq() == values


class TestSequenceReaders:
    """The one-pass sequence readers against the per-item ones."""

    @given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=60))
    def test_uint_seq_matches_read_uint(self, values):
        data = Encoder().write_uint_seq(values).getvalue()
        one = Decoder(data)
        assert [one.read_uint() for _ in range(one.read_uint())] == values
        assert Decoder(data).read_uint_seq() == values

    @given(st.lists(st.binary(max_size=300), max_size=30))
    def test_bytes_seq_matches_write_bytes(self, values):
        data = Encoder().write_bytes_seq(values).getvalue()
        enc = Encoder().write_uint(len(values))
        for value in values:
            enc.write_bytes(value)
        assert data == enc.getvalue()
        dec = Decoder(data)
        assert dec.read_bytes_seq() == values
        dec.expect_end()

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=2**40),
                              st.integers(min_value=0, max_value=2**40),
                              st.binary(max_size=40)), max_size=30))
    def test_keyed_bytes_seq_roundtrip(self, rows):
        data = Encoder().write_bytes_seq(rows, keys=2).getvalue()
        enc = Encoder().write_uint(len(rows))
        for a, b, value in rows:
            enc.write_uint(a).write_uint(b).write_bytes(value)
        assert data == enc.getvalue()
        assert Decoder(data).read_bytes_seq(keys=2) == [x for row in rows for x in row]

    @pytest.mark.parametrize("data", [
        b"\x02\x05",             # count 2, one item
        b"\x01\x85",             # two-byte varint cut after its first byte
        b"\x01\xff\xff",         # longer varint cut short
    ])
    def test_truncated_uint_seq(self, data):
        with pytest.raises(EncodingError):
            Decoder(data).read_uint_seq()

    @pytest.mark.parametrize("data", [
        b"\x01\x05ab",           # length 5, two bytes present
        b"\x02\x01a",            # count 2, one string
        b"\x01\x80",             # length varint cut short
    ])
    def test_truncated_bytes_seq(self, data):
        with pytest.raises(EncodingError):
            Decoder(data).read_bytes_seq()


def _overlong(value: int) -> bytes:
    """A non-canonical form of *value*: its varint with one more
    continuation byte, whose payload is zero."""
    canonical = Encoder().write_uint(value).getvalue()
    return canonical[:-1] + bytes([canonical[-1] | 0x80, 0x00])


class TestCanonicalVarints:
    """Every decoder refuses an overlong varint, so a reply has one
    byte form; every encoder writes the canonical one."""

    def test_known_overlong_forms(self):
        from repro.graph.tuples import _LockStep

        with pytest.raises(EncodingError, match="overlong"):
            Decoder(b"\x81\x00").read_uint()
        with pytest.raises(EncodingError, match="overlong"):
            _LockStep([b"\x85\x00"]).uint()
        assert Decoder(b"\x00").read_uint() == 0
        assert _LockStep([b"\x00"]).uint().tolist() == [0]

    @given(st.integers(min_value=0, max_value=2**56))
    def test_every_decoder_refuses_the_overlong_form(self, value):
        from repro.graph.tuples import _LockStep
        from repro.merkle.proof import decode_proof_entries

        bad = _overlong(value)
        readers = [
            lambda: Decoder(bad).read_uint(),
            lambda: Decoder(b"\x01" + bad).read_uint_seq(),
            lambda: Decoder(b"\x01" + bad + bytes(8)).read_bytes_seq(),
            lambda: Decoder(b"\x01\x00" + bad + b"\x00").read_bytes_seq(keys=2),
            lambda: decode_proof_entries(Decoder(b"\x01" + bad + b"\x00\x00")),
            lambda: _LockStep([bad]).uint(),
        ]
        for read in readers:
            with pytest.raises(EncodingError):
                read()

    @given(st.lists(st.integers(min_value=0, max_value=2**62), min_size=1,
                    max_size=20))
    def test_encoders_write_canonical_forms(self, values):
        from repro.graph.tuples import _LockStep

        for data in (Encoder().write_uint_seq(values).getvalue(),
                     Encoder().write_bytes_seq([b"x" * (v % 300) for v in values]).getvalue(),
                     Encoder().write_bytes_seq([(v, v, b"") for v in values], keys=2).getvalue()):
            dec = Decoder(data)
            while dec.remaining:
                dec.read_uint()  # raises on an overlong form
        for value in values:
            canonical = Encoder().write_uint(value).getvalue()
            assert canonical[-1] or len(canonical) == 1
            assert _LockStep([canonical]).uint().tolist() == [value]

    def test_overlong_forms_in_a_reply_are_refused(self, road300, null_signer):
        import copy

        from repro.core.dij import DijMethod
        from repro.core.proofs import QueryResponse
        from repro.graph.tuples import BaseTuple

        method = DijMethod.build(road300, null_signer)
        vs, vt = road300.node_ids()[3], road300.node_ids()[40]
        response = method.answer(vs, vt)
        data = response.encode()
        assert QueryResponse.decode(data).encode() == data
        # The source id, re-written in an overlong form.
        head = Encoder().write_str("DIJ").getvalue()
        source = Encoder().write_uint(vs).getvalue()
        assert data.startswith(head + source)
        with pytest.raises(EncodingError):
            QueryResponse.decode(head + _overlong(vs) + data[len(head + source):])
        # A disclosed tuple whose node id is overlong.
        forged = copy.deepcopy(response)
        payloads = forged.section("network").payloads
        node_id = BaseTuple.decode(payloads[0]).node_id
        node = Encoder().write_uint(node_id).getvalue()
        payloads[0] = _overlong(node_id) + payloads[0][len(node):]
        verdict = DijMethod.verify(vs, vt, forged, null_signer.verify)
        assert verdict.reason == "malformed-proof"


class TestPackedCodes:
    @given(
        st.integers(min_value=1, max_value=16).flatmap(
            lambda bits: st.tuples(
                st.just(bits),
                st.lists(st.integers(min_value=0, max_value=(1 << bits) - 1),
                         max_size=100),
            )
        )
    )
    def test_roundtrip(self, bits_and_codes):
        bits, codes = bits_and_codes
        data = Encoder().write_packed_codes(codes, bits).getvalue()
        assert Decoder(data).read_packed_codes(bits) == codes

    def test_packing_density(self):
        # 100 codes at 12 bits = 150 payload bytes + 1 count byte.
        codes = list(range(100))
        data = Encoder().write_packed_codes(codes, 12).getvalue()
        assert len(data) == 1 + 150

    def test_out_of_range_code_rejected(self):
        with pytest.raises(EncodingError):
            Encoder().write_packed_codes([8], 3)

    def test_bad_bit_width_rejected(self):
        with pytest.raises(EncodingError):
            Encoder().write_packed_codes([0], 0)
        with pytest.raises(EncodingError):
            Decoder(b"\x00").read_packed_codes(65)


class TestDecoderBookkeeping:
    def test_expect_end(self):
        dec = Decoder(Encoder().write_uint(7).write_uint(9).getvalue())
        dec.read_uint()
        with pytest.raises(EncodingError):
            dec.expect_end()
        dec.read_uint()
        dec.expect_end()

    def test_remaining(self):
        dec = Decoder(b"abcd")
        assert dec.remaining == 4
        dec.read_raw(1)
        assert dec.remaining == 3

    def test_bool_roundtrip_and_validation(self):
        data = Encoder().write_bool(True).write_bool(False).getvalue()
        dec = Decoder(data)
        assert dec.read_bool() is True
        assert dec.read_bool() is False
        with pytest.raises(EncodingError):
            Decoder(b"\x02").read_bool()

    def test_mixed_stream(self):
        enc = (
            Encoder()
            .write_uint(42)
            .write_str("node")
            .write_f64(2.5)
            .write_uint_seq([1, 2, 3])
        )
        dec = Decoder(enc.getvalue())
        assert dec.read_uint() == 42
        assert dec.read_str() == "node"
        assert dec.read_f64() == 2.5
        assert dec.read_uint_seq() == [1, 2, 3]
        dec.expect_end()

    def test_encoder_len_matches_output(self):
        enc = Encoder().write_uint(1000).write_str("abc")
        assert len(enc) == len(enc.getvalue())
